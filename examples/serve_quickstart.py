"""Serving quickstart: run the HTTP serving layer and talk to it.

Run with::

    python examples/serve_quickstart.py

The example starts :class:`repro.serve.ServeApp` in-process (the same
stack ``python -m repro.serve`` boots as a daemon), then exercises the
whole surface over real HTTP: bulk and single-edge ingest with durable
acknowledgments, snapshot-isolated detection and community pages, a
per-vertex lookup, health and Prometheus metrics — and finally restarts
the app from its write-ahead log to show crash recovery.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import tempfile

from repro.api import EngineConfig
from repro.serve import ServeConfig
from repro.serve.app import ServeApp


def call(port: int, method: str, path: str, payload=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        data = response.read().decode()
        return response.status, (json.loads(data) if data.startswith(("{", "[")) else data)
    finally:
        connection.close()


async def run(config: EngineConfig, session) -> None:
    app = ServeApp(config)
    await app.start()
    try:
        # The HTTP calls are blocking; in this single-file demo they run
        # in the default executor so the server loop stays free.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, session, app.server.port, app.recovered_ops)
    finally:
        await app.stop()


def main() -> None:
    wal_dir = tempfile.mkdtemp(prefix="repro-serve-quickstart-")
    # One JSON document describes the whole deployment: engine knobs plus
    # the nested serving section (port 0 = pick a free port).
    config = EngineConfig(
        semantics="DW",
        backend="array",
        serve=ServeConfig(port=0, wal_dir=wal_dir),
    )

    def first_session(port: int, recovered: int) -> None:
        print(f"server on :{port} (fresh boot, {recovered} ops recovered)")

        # Bulk ingest: one request, one Algorithm-2 batch pass, one ack.
        ring = [["mule-1", "shady-shop", 40.0], ["mule-2", "shady-shop", 45.0],
                ["mule-3", "shady-shop", 42.0], ["mule-1", "mule-2", 12.0]]
        status, ack = call(port, "POST", "/v1/edges", {"edges": ring})
        print(f"bulk ingest     -> {status} {ack}")

        # Single-edge ingest: the ack carries the WAL sequence — the edge
        # is on disk and applied before the 200 arrives.
        status, ack = call(port, "POST", "/v1/edges",
                           {"src": "alice", "dst": "book-shop", "weight": 12.0})
        print(f"single ingest   -> {status} {ack}")

        # Snapshot-isolated reads: answered from a frozen CSR snapshot,
        # stamped with the version (WAL sequence) they reflect.
        status, detect = call(port, "GET", "/v1/detect")
        print(f"detect          -> {status} community={detect['community']} "
              f"density={detect['density']:.2f} @v{detect['version']}")
        status, communities = call(port, "GET", "/v1/communities?limit=3")
        print(f"communities     -> {status} {communities['count']} instance(s)")
        status, vertex = call(port, "GET", "/v1/vertices/shady-shop")
        print(f"vertex lookup   -> {status} {vertex}")
        status, health = call(port, "GET", "/healthz")
        print(f"healthz         -> {status} |V|={health['vertices']} |E|={health['edges']}")
        status, metrics = call(port, "GET", "/metrics")
        accepted = next(line for line in metrics.splitlines()
                        if line.startswith("repro_ingest_events_accepted_total"))
        print(f"metrics         -> {status} {accepted}")

    asyncio.run(run(config, first_session))

    # "Crash" and recover: a new app over the same wal_dir replays the
    # checkpoint + WAL suffix and serves the identical state.
    def recovered_session(port: int, recovered: int) -> None:
        status, detect = call(port, "GET", "/v1/detect")
        print(f"\nafter restart on :{port} ({recovered} WAL ops replayed)")
        print(f"recovered detect-> {status} community={detect['community']} "
              f"density={detect['density']:.2f} @v{detect['version']}")
        assert "shady-shop" in detect["community"]

    asyncio.run(run(config, recovered_session))


if __name__ == "__main__":
    main()
