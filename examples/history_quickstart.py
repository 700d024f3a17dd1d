"""History quickstart: time-travel reads and the SQLite cold store.

Run with::

    python examples/history_quickstart.py

The example boots a durable :class:`repro.serve.ServeApp` with the
history sidecar enabled, streams a small fraud campaign into it in
stages, and then looks *backwards*:

* ``GET /v1/detect?asof=SEQ`` — the detection answer as it stood at any
  past WAL sequence, reconstructed bit-identically from the nearest
  checkpoint plus a WAL-suffix replay (and LRU-cached for the next ask);
* ``GET /v1/history/...`` — window-function analytics over the SQLite
  cold store the background indexer maintains: the epoch catalogue, a
  community's density timeline, and "when did this account first enter
  a dense community?";
* the standalone indexer (``python -m repro.history``) re-indexing the
  same WAL idempotently — the epoch count does not change.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.api import EngineConfig
from repro.history import HistoryConfig
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


async def run(config: EngineConfig) -> None:
    app = ServeApp(config)
    await app.start()
    try:
        loop = asyncio.get_running_loop()
        port = app.server.port
        do = lambda *args: loop.run_in_executor(None, call, port, *args)
        print(f"server on :{port} (history db: {app.history_db})")

        # Stage 1: normal-looking traffic, one edge per WAL sequence.
        normal = [["alice", "book-shop", 2.0], ["bob", "cafe", 1.0],
                  ["carol", "book-shop", 1.5], ["dave", "bakery", 1.0]]
        for src, dst, weight in normal:
            await do("POST", "/v1/edges", {"src": src, "dst": dst, "weight": weight})

        _, quiet = await do("GET", "/v1/detect")
        quiet_version = quiet["version"]
        print(f"quiet period    -> density {quiet['density']:.2f} @v{quiet_version}")

        # Stage 2: a burst — mule accounts condensing on one cash-out shop.
        burst = [[f"mule-{i}", "shady-shop", 30.0 + i] for i in range(6)]
        burst += [["mule-0", "mule-1", 9.0], ["mule-2", "mule-3", 9.0]]
        for src, dst, weight in burst:
            await do("POST", "/v1/edges", {"src": src, "dst": dst, "weight": weight})

        _, now = await do("GET", "/v1/detect")
        print(f"after burst     -> density {now['density']:.2f} "
              f"community={now['community']} @v{now['version']}")

        # Time travel: the same question, answered as of the quiet period.
        # The reconstruction replays the WAL prefix <= asof through the
        # recovery path, so the answer is the one a detect at that moment
        # would have returned — bit for bit.
        _, then = await do("GET", f"/v1/detect?asof={quiet_version}")
        print(f"asof v{quiet_version}        -> density {then['density']:.2f} "
              f"community={then['community']} (asof={then['asof']})")
        assert "shady-shop" not in then["community"]

        # Asking again hits the LRU snapshot cache (see /healthz).
        await do("GET", f"/v1/detect?asof={quiet_version}")
        _, health = await do("GET", "/healthz")
        print(f"asof cache      -> {health['asof_cache']}")

        # Let the background indexer catch up: every epoch boundary at or
        # below the current head must be in the cold store before we query.
        interval = config.serve.history.epoch_interval
        target = now["version"] - now["version"] % interval
        for _ in range(200):
            _, health = await do("GET", "/healthz")
            if health["history"]["last_indexed_seq"] >= target:
                break
            await asyncio.sleep(0.05)
        print(f"indexer         -> {health['history']}")

        _, epochs = await do("GET", "/v1/history/epochs")
        print(f"epoch catalogue -> {[e['seq'] for e in epochs['epochs']]}")
        _, timeline = await do("GET", "/v1/history/communities?rank=0&limit=5")
        for row in timeline["timeline"]:
            print(f"  epoch {row['epoch_seq']:>3}: density {row['density']:.2f} "
                  f"(delta {row['density_delta']}) size {row['size']}")
        _, first = await do("GET", "/v1/history/vertices/mule-0")
        entry = first["first_entry"]
        if entry is not None:
            print(f"mule-0          -> first entered a dense community at "
                  f"epoch {entry['first_seq']} (density {entry['density']:.2f})")
    finally:
        await app.stop()


def main() -> None:
    wal_dir = tempfile.mkdtemp(prefix="repro-history-quickstart-")
    config = EngineConfig(
        semantics="DW",
        backend="array",
        serve=ServeConfig(
            port=0,
            wal_dir=wal_dir,
            checkpoint_interval=5,
            # The sidecar: epoch every 2 WAL sequences, fast polling so the
            # demo does not wait.  ``python -m repro.serve --history-db auto``
            # enables the same thing from the command line.
            history=HistoryConfig(epoch_interval=2, poll_ms=25.0),
        ),
    )
    asyncio.run(run(config))

    # The standalone indexer tails the same WAL; re-running it against the
    # already-indexed store is a no-op (idempotent, checksum-verified).
    db = Path(wal_dir) / "history.sqlite"
    config_path = Path(wal_dir) / "engine.json"
    config_path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "-m", "repro.history",
         "--wal-dir", wal_dir, "--config", str(config_path)],
        capture_output=True, text=True, check=True,
    )
    print(f"\nstandalone re-index: {out.stdout.strip().splitlines()[-1]}")
    out = subprocess.run(
        [sys.executable, "-m", "repro.history",
         "--wal-dir", wal_dir, "--config", str(config_path), "--verify"],
        capture_output=True, text=True, check=True,
    )
    print(f"verify: {out.stdout.strip().splitlines()[-1]} ({db.name} intact)")


if __name__ == "__main__":
    main()
