"""Tests for the serving subsystem: config, WAL, gateway, HTTP, isolation.

The subsystem pins its own backend (serving always freezes CSR snapshots,
so configs here say ``backend="array"`` explicitly); the suite-wide
backend parametrization is skipped for the duplicate leg.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.client import SpadeClient
from repro.api.config import EngineConfig
from repro.api.events import Delete, Flush, InsertBatch
from repro.errors import ConfigError, StorageError
from repro.graph.delta import EdgeUpdate
from repro.serve.app import ServeApp, _parse_update
from repro.serve.config import ServeConfig
from repro.serve.ingest import IngestGateway
from repro.serve.metrics import MetricsRegistry, SIZE_BUCKETS
from repro.serve.server import HttpError
from repro.serve.snapshots import SnapshotService
from repro.serve.wal import WriteAheadLog, decode_record, encode_op, read_ops


@pytest.fixture(autouse=True)
def _single_backend_leg(graph_backend):
    if graph_backend != "array":
        pytest.skip("serve pins backend='array'; one leg is enough")


def drive(app: ServeApp, requests):
    """Start ``app``, issue HTTP requests over one keep-alive connection."""

    async def _drive():
        await app.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", app.server.port
            )
            results = []
            for method, path, body in requests:
                payload = b"" if body is None else json.dumps(body).encode()
                head = (
                    f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n"
                )
                writer.write(head.encode() + payload)
                await writer.drain()
                status_line = (await reader.readline()).decode()
                headers = {}
                while True:
                    line = (await reader.readline()).decode().strip()
                    if not line:
                        break
                    name, _, value = line.partition(":")
                    headers[name.lower()] = value.strip()
                data = await reader.readexactly(int(headers["content-length"]))
                body_out = (
                    json.loads(data)
                    if "json" in headers.get("content-type", "")
                    else data.decode()
                )
                results.append((int(status_line.split()[1]), body_out, headers))
            writer.close()
            return results
        finally:
            await app.stop()

    return asyncio.run(_drive())


def serve_config(tmp_path=None, **overrides) -> EngineConfig:
    knobs = {
        "port": 0,
        "wal_dir": str(tmp_path / "wal") if tmp_path is not None else None,
        "fsync": False,
    }
    knobs.update(overrides)
    return EngineConfig(semantics="DW", backend="array", serve=ServeConfig(**knobs))


class TestServeConfig:
    def test_defaults_validate(self):
        config = ServeConfig()
        assert config.port == 8080
        assert config.wal_dir is None

    @pytest.mark.parametrize(
        "bad",
        [
            {"port": -1},
            {"port": 70000},
            {"max_batch": 0},
            {"queue_size": 0},
            {"checkpoint_interval": 0},
            {"max_body_bytes": 10},
            {"host": ""},
            # Malformed JSON numbers: strings, bools, fractions, inf/nan.
            {"port": "8080"},
            {"port": True},
            {"port": 80.5},
            {"port": "abc"},
            {"max_batch": True},
            {"max_batch": 2.5},
            {"max_batch": "10"},
            {"queue_size": 2.5},
            {"queue_size": True},
            {"checkpoint_interval": 2.5},
            {"max_body_bytes": float("inf")},
            {"probe_interval_ms": float("nan")},
            {"fsync": "false"},
        ],
    )
    def test_bad_knobs_rejected(self, bad):
        (key,) = bad
        with pytest.raises(ConfigError, match=key):
            ServeConfig.from_dict(bad)

    @pytest.mark.parametrize(
        "data", [{"prot": 8080}, {"workers": 4}, {"max_delay_ms": -0.1}]
    )
    def test_unknown_key_rejected(self, data):
        with pytest.raises(ConfigError, match="valid keys: "):
            ServeConfig.from_dict(data)

    @pytest.mark.parametrize("entry", ["serve", "smoke"])
    def test_removed_knob_has_no_flag(self, entry, capsys):
        # ``workers`` left ServeConfig without an alias: an old command
        # line naming it must fail in argparse, not run single-process.
        flag = "--" + "workers"
        if entry == "serve":
            from repro.serve.cli import build_parser

            parse = build_parser().parse_args
        else:
            from repro.serve.smoke import main as parse
        with pytest.raises(SystemExit) as excinfo:
            parse([flag, "4"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_engine_config_nests_and_round_trips(self):
        config = EngineConfig(
            semantics="DW", serve=ServeConfig(port=9999, wal_dir="/tmp/x")
        )
        data = config.to_dict()
        assert data["serve"]["port"] == 9999
        rebuilt = EngineConfig.from_dict(json.loads(json.dumps(data)))
        assert rebuilt == config
        assert isinstance(rebuilt.serve, ServeConfig)

    def test_engine_config_coerces_serve_mapping(self):
        config = EngineConfig(serve={"port": 1234})
        assert isinstance(config.serve, ServeConfig)
        assert config.serve.port == 1234

    def test_engine_config_serve_none_round_trips(self):
        config = EngineConfig()
        assert config.serve is None
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_engine_config_rejects_bad_serve(self):
        with pytest.raises(ConfigError):
            EngineConfig(serve=42)


class TestWal:
    def test_encode_decode_round_trip(self):
        ops = [
            InsertBatch((EdgeUpdate("a", "b", 2.0), EdgeUpdate("b", "c", 1.5))),
            InsertBatch((EdgeUpdate("a", "c", 1.0, src_weight=0.5, dst_weight=None),)),
            Delete((("a", "b"),)),
            Flush(),
        ]
        for op in ops:
            record = json.loads(json.dumps(encode_op(op)))
            assert decode_record(record) == op

    def test_append_and_read_ops(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        seq1, off1 = wal.append_op(InsertBatch((EdgeUpdate("a", "b", 2.0),)))
        seq2, off2 = wal.append_op(Flush())
        wal.close()
        assert (seq1, seq2) == (1, 2)
        assert off2 > off1
        ops, next_offset = read_ops(WriteAheadLog.path_in(tmp_path))
        assert [seq for seq, _ in ops] == [1, 2]
        assert next_offset == off2
        # Suffix read from a mid-log offset.
        suffix, _ = read_ops(WriteAheadLog.path_in(tmp_path), off1)
        assert [seq for seq, _ in suffix] == [2]
        assert suffix[0][1] == Flush()

    def test_sequence_survives_reopen(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            wal.append_op(Flush())
        with WriteAheadLog(tmp_path, fsync=False, next_seq=2) as wal:
            seq, _ = wal.append_op(Flush())
        assert seq == 2
        ops, _ = read_ops(WriteAheadLog.path_in(tmp_path))
        assert [seq for seq, _ in ops] == [1, 2]

    def test_torn_final_line_ignored(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            wal.append_op(Flush())
        path = WriteAheadLog.path_in(tmp_path)
        with path.open("ab") as handle:
            handle.write(b'{"seq": 2, "kind": "fl')  # torn mid-append
        ops, next_offset = read_ops(path)
        assert [seq for seq, _ in ops] == [1]
        # The resume offset excludes the torn tail.
        assert next_offset < path.stat().st_size

    def test_regressing_sequence_rejected(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"seq": 5, "kind": "flush"}\n{"seq": 4, "kind": "flush"}\n')
        with pytest.raises(StorageError):
            read_ops(path)


class TestMetrics:
    def test_render_prometheus_text(self):
        registry = MetricsRegistry()
        counter = registry.counter("test_total", "a counter")
        gauge = registry.gauge("test_depth", "a gauge")
        histogram = registry.histogram("test_seconds", "a histogram", SIZE_BUCKETS)
        counter.inc()
        counter.inc(2)
        gauge.set(7)
        histogram.observe(3)
        histogram.observe(100)
        text = registry.render()
        assert "# TYPE test_total counter" in text
        assert "test_total 3" in text
        assert "test_depth 7" in text
        assert 'test_seconds_bucket{le="4"} 1' in text
        assert 'test_seconds_bucket{le="+Inf"} 2' in text
        assert "test_seconds_count 2" in text

    def test_counter_cannot_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x_total", "x").inc(-1)

    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dup_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("dup_total", "y")


class TestMetricFamilies:
    """The labeled child-metric model of ``repro.serve.metrics``."""

    def test_family_children_render_under_one_header(self):
        registry = MetricsRegistry()
        family = registry.counter("jobs_total", "jobs", labelnames=("shard",))
        family.labels(shard=0).inc()
        family.labels(shard=1).inc(2)
        family.labels(shard=0).inc()
        text = registry.render()
        assert text.count("# HELP jobs_total jobs") == 1
        assert 'jobs_total{shard="0"} 2' in text
        assert 'jobs_total{shard="1"} 2' in text

    def test_histogram_family_merges_le_label(self):
        registry = MetricsRegistry()
        family = registry.histogram(
            "batch_edges", "edges", buckets=SIZE_BUCKETS, labelnames=("shard",)
        )
        family.labels(shard=3).observe(2)
        text = registry.render()
        assert 'batch_edges_bucket{shard="3",le="2"} 1' in text
        assert 'batch_edges_bucket{shard="3",le="+Inf"} 1' in text
        assert 'batch_edges_sum{shard="3"} 2' in text

    def test_wrong_label_names_rejected(self):
        registry = MetricsRegistry()
        family = registry.gauge("depth", "d", labelnames=("shard",))
        with pytest.raises(ValueError):
            family.labels(worker=1)


class TestGatewayCoalescing:
    def _gateway(self, client, config):
        lock = asyncio.Lock()
        service = SnapshotService(client, lock)
        registry = MetricsRegistry()
        return IngestGateway(client, service, lock, config, registry), service

    def test_consecutive_inserts_coalesce_one_batch(self):
        async def scenario():
            client = SpadeClient(EngineConfig(semantics="DW", backend="array"))
            client.load([])
            config = ServeConfig(port=0, max_batch=64, queue_size=16)
            gateway, service = self._gateway(client, config)
            gateway.start()
            futures = [
                gateway.submit("insert", [EdgeUpdate(f"u{i}", f"v{i}", 1.0)], 1)
                for i in range(5)
            ]
            results = await asyncio.gather(*futures)
            await gateway.stop()
            return results, service.version

        results, version = asyncio.run(scenario())
        # All five submissions commit as one coalesced operation: one WAL
        # seq, shared by every ack.
        assert {result["wal_seq"] for result in results} == {1}
        assert version == 1

    def test_group_commit_takes_what_queued_behind_the_commit(self):
        async def scenario():
            client = SpadeClient(EngineConfig(semantics="DW", backend="array"))
            client.load([])
            registry = MetricsRegistry()
            lock = asyncio.Lock()
            service = SnapshotService(client, lock)
            gateway = IngestGateway(
                client, service, lock, ServeConfig(port=0), registry
            )
            gateway.start()
            async with lock:
                first = gateway.submit("insert", [EdgeUpdate("u0", "v0", 1.0)], 1)
                await asyncio.sleep(0.05)  # writer took it alone, blocks on the lock
                rest = [
                    gateway.submit("insert", [EdgeUpdate(f"u{i}", f"v{i}", 1.0)], 1)
                    for i in range(1, 4)
                ]
            results = await asyncio.gather(first, *rest)
            await gateway.stop()
            return results, registry.render()

        results, metrics = asyncio.run(scenario())
        # The lone first post commits without waiting for company; the
        # three that queued behind its commit share the next one.
        assert [result["wal_seq"] for result in results] == [1, 2, 2, 2]
        assert "repro_ingest_batches_total 2" in metrics.splitlines()

    def test_delete_is_a_barrier(self):
        async def scenario():
            client = SpadeClient(EngineConfig(semantics="DW", backend="array"))
            client.load([("a", "b", 2.0), ("b", "c", 1.0)])
            config = ServeConfig(port=0, max_batch=64, queue_size=16)
            gateway, service = self._gateway(client, config)
            # Enqueue before starting the writer so the whole sequence is
            # one window: insert, delete (barrier), insert.
            loop = asyncio.get_running_loop()
            assert loop is not None
            f1 = gateway.submit("insert", [EdgeUpdate("x", "y", 1.0)], 1)
            f2 = gateway.submit("delete", [("a", "b")], 1)
            f3 = gateway.submit("insert", [EdgeUpdate("y", "z", 1.0)], 1)
            gateway.start()
            r1, r2, r3 = await asyncio.gather(f1, f2, f3)
            await gateway.stop()
            return r1, r2, r3

        r1, r2, r3 = asyncio.run(scenario())
        assert r1["wal_seq"] == 1
        assert r2["wal_seq"] == 2
        assert r3["wal_seq"] == 3

    def test_backpressure_returns_none_when_full(self):
        async def scenario():
            client = SpadeClient(EngineConfig(semantics="DW", backend="array"))
            client.load([])
            config = ServeConfig(port=0, queue_size=2)
            gateway, _service = self._gateway(client, config)
            # Writer not started: the queue fills and stays full.
            futures = [
                gateway.submit("insert", [EdgeUpdate("a", "b", 1.0)], 1)
                for _ in range(3)
            ]
            return futures

        futures = asyncio.run(scenario())
        assert futures[0] is not None and futures[1] is not None
        assert futures[2] is None


class TestWireValidation:
    """The validators that run on every edge before the ingest queue."""

    @pytest.mark.parametrize(
        "weight",
        ["nan", "inf", "-inf", float("nan"), 10**400, 0],
        ids=["str-nan", "str-inf", "str-neg-inf", "nan", "huge-int", "zero"],
    )
    def test_unusable_weight_rejected(self, weight):
        with pytest.raises(HttpError) as excinfo:
            _parse_update({"src": "a", "dst": "b", "weight": weight})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "prior",
        [float("nan"), float("inf"), 10**400, -1],
        ids=["nan", "inf", "huge-int", "negative"],
    )
    def test_unusable_prior_rejected(self, prior):
        with pytest.raises(HttpError) as excinfo:
            _parse_update({"src": "a", "dst": "b", "dst_prior": prior})
        assert excinfo.value.status == 400

    def test_finite_numbers_pass_through(self):
        # An integer label is exact however large; only floats can be nan.
        update = _parse_update(
            {"src": 10**400, "dst": 2.5, "weight": "0.5", "src_prior": 3}
        )
        assert update == EdgeUpdate(10**400, 2.5, 0.5, src_weight=3.0)
        assert isinstance(update.src_weight, float)


class TestHttpSurface:
    def test_endpoints_end_to_end(self, tmp_path):
        app = ServeApp(serve_config(tmp_path))
        results = drive(
            app,
            [
                ("GET", "/healthz", None),
                ("POST", "/v1/edges", {"src": "a", "dst": "b", "weight": 2.0}),
                ("POST", "/v1/edges", {"edges": [["a", "c", 1.5], ["c", "b", 1.0], ["b", "a", 3.0]]}),
                ("GET", "/v1/detect", None),
                ("GET", "/v1/communities?limit=5", None),
                ("GET", "/v1/vertices/a", None),
                ("GET", "/v1/vertices/nope", None),
                ("POST", "/v1/edges", {"op": "delete", "edges": [["a", "b"]]}),
                ("POST", "/v1/flush", None),
                ("GET", "/metrics", None),
                ("GET", "/v1/unknown", None),
                ("POST", "/v1/detect", None),
            ],
        )
        (health, single, bulk, detect, communities, vertex, missing,
         delete, flush, metrics, unknown, wrong_method) = results
        assert health[0] == 200 and health[1]["status"] == "ok"
        assert single[0] == 200 and single[1]["accepted"] == 1
        assert bulk[0] == 200 and bulk[1]["accepted"] == 3
        assert detect[0] == 200
        assert detect[1]["community"] == ["a", "b", "c"]
        assert detect[1]["version"] == bulk[1]["version"]
        assert communities[0] == 200 and communities[1]["count"] == 1
        assert communities[1]["communities"][0]["vertices"] == ["a", "b", "c"]
        assert vertex[0] == 200 and vertex[1]["out_degree"] == 2
        assert missing[0] == 404
        assert delete[0] == 200 and delete[1]["edges"] == 1
        assert flush[0] == 200
        assert metrics[0] == 200
        assert "repro_ingest_events_accepted_total" in metrics[1]
        assert unknown[0] == 404
        assert wrong_method[0] == 405

    def test_bad_requests_rejected(self, tmp_path):
        app = ServeApp(serve_config(tmp_path))
        results = drive(
            app,
            [
                ("POST", "/v1/edges", {"src": "a"}),                      # missing dst
                ("POST", "/v1/edges", {"src": "a", "dst": "b", "weight": -1}),
                ("POST", "/v1/edges", {"edges": []}),
                ("POST", "/v1/edges", {"edges": [["a", "b", 1, 2, 3]]}),
                ("POST", "/v1/edges", {"src": "a", "dst": "a"}),          # self loop
                ("POST", "/v1/edges", {"src": {"o": 1}, "dst": "b"}),     # object label
                ("POST", "/v1/edges", {"src": None, "dst": "b"}),
                ("POST", "/v1/edges", {"src": "a", "dst": "b", "src_prior": "oops"}),
                ("POST", "/v1/edges", {"src": "a", "dst": "b", "dst_prior": -2}),
                ("POST", "/v1/edges", {"op": "delete", "edges": [[["x"], "b"]]}),
                ("GET", "/v1/communities?limit=abc", None),
                ("GET", "/v1/communities?limit=0", None),
                # Non-finite numbers: ``nan <= 0`` is false, so only an
                # explicit finiteness check keeps them out of the WAL.
                ("POST", "/v1/edges", {"src": "a", "dst": "b", "weight": "nan"}),
                ("POST", "/v1/edges", {"src": "a", "dst": "b", "weight": "inf"}),
                ("POST", "/v1/edges", {"src": "a", "dst": "b", "weight": float("nan")}),
                ("POST", "/v1/edges", {"edges": [["a", "b", float("inf")]]}),
                ("POST", "/v1/edges", {"src": float("nan"), "dst": "b"}),
                ("POST", "/v1/edges", {"src": "a", "dst": float("-inf")}),
                ("POST", "/v1/edges", {"src": "a", "dst": "b", "src_prior": float("nan")}),
                ("POST", "/v1/edges", {"src": "a", "dst": "b", "dst_prior": float("inf")}),
                ("POST", "/v1/edges", {"op": "delete", "edges": [[float("nan"), "b"]]}),
                # JSON integers too large for a double overflow float().
                ("POST", "/v1/edges", {"src": "a", "dst": "b", "weight": 10**400}),
                ("POST", "/v1/edges", {"src": "a", "dst": "b", "src_prior": 10**400}),
            ],
        )
        assert [status for status, _, _ in results] == [400] * 23
        # Every rejection happened before the queue: nothing was logged.
        ops, _ = read_ops(WriteAheadLog.path_in(tmp_path / "wal"))
        assert ops == []

    def test_build_info_labels_describe_the_deployment(self):
        config = EngineConfig(
            semantics="DW",
            backend="array",
            shards=2,
            serve=ServeConfig(port=0, fsync=False),
        )
        app = ServeApp(config)
        (health, metrics) = drive(
            app, [("GET", "/healthz", None), ("GET", "/metrics", None)]
        )
        assert health[0] == 200 and "workers" not in health[1]
        line = next(
            row for row in metrics[1].splitlines() if row.startswith("repro_build_info{")
        )
        labels = dict(
            pair.split("=", 1) for pair in line[line.index("{") + 1 : line.index("}")].split(",")
        )
        assert set(labels) == {"version", "kernel", "backend", "shards"}
        assert labels["backend"] == '"array"'
        assert labels["shards"] == '"2"'
        assert line.endswith(" 1")

    def test_backpressure_answers_429_with_retry_after(self, tmp_path):
        config = serve_config(tmp_path, queue_size=1, max_batch=1)
        app = ServeApp(config)

        async def scenario():
            await app.start()
            try:
                # Stall the writer by holding the writer lock: the first
                # submission gets picked up and blocks on the lock, the
                # second fills the queue, so the HTTP post must get 429
                # (the 429 path never touches the lock).
                async with app.service._lock:  # noqa: SLF001 - test hook
                    first = app.gateway.submit("insert", [EdgeUpdate("a", "b", 1.0)], 1)
                    assert first is not None
                    await asyncio.sleep(0.05)  # writer now blocked on the lock
                    second = app.gateway.submit("insert", [EdgeUpdate("b", "c", 1.0)], 1)
                    assert second is not None  # sits in the (now full) queue
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", app.server.port
                    )
                    payload = json.dumps({"src": "x", "dst": "y"}).encode()
                    writer.write(
                        (
                            f"POST /v1/edges HTTP/1.1\r\nHost: t\r\n"
                            f"Content-Length: {len(payload)}\r\n\r\n"
                        ).encode()
                        + payload
                    )
                    await writer.drain()
                    status_line = (await reader.readline()).decode()
                    headers = {}
                    while True:
                        line = (await reader.readline()).decode().strip()
                        if not line:
                            break
                        name, _, value = line.partition(":")
                        headers[name.lower()] = value.strip()
                    await reader.readexactly(int(headers["content-length"]))
                    writer.close()
                    return int(status_line.split()[1]), headers, first
            finally:
                await app.stop()

        status, headers, first = asyncio.run(scenario())
        assert status == 429
        assert headers["retry-after"] == "1"


def _offline_prefix_report(ops, version):
    """Fresh engine replayed through the first ``version`` WAL ops."""
    offline = SpadeClient(EngineConfig(semantics="DW", backend="array"))
    offline.load([])
    for seq, op in ops:
        if seq > version:
            break
        offline.apply([op])
    return offline


class TestSnapshotIsolation:
    """Satellite: concurrent readers see internally consistent versions."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_concurrent_reads_match_offline_replay_at_version(self, seed, tmp_path_factory):
        import random

        tmp_path = tmp_path_factory.mktemp("serve-isolation")
        rng = random.Random(seed)
        edges = []
        while len(edges) < 60:
            src, dst = rng.randrange(14), rng.randrange(14)
            if src != dst:
                # Dyadic weights: float sums are exact, so equality with
                # the offline replay is strict.
                edges.append((f"v{src}", f"v{dst}", rng.randint(1, 64) / 16.0))

        app = ServeApp(serve_config(tmp_path, max_batch=8))
        responses = []

        async def writer_task():
            for index in range(0, len(edges), 3):
                chunk = [EdgeUpdate(s, d, w) for s, d, w in edges[index : index + 3]]
                future = app.gateway.submit("insert", chunk, len(chunk))
                assert future is not None
                await future

        async def reader_task():
            while not writer_done.is_set():
                detect = (await app.service.detection()).payload
                communities = await app.service.communities(limit=3)
                responses.append((detect, communities))
                await asyncio.sleep(0)

        writer_done = asyncio.Event()

        async def scenario():
            await app.start()
            try:
                readers = [asyncio.create_task(reader_task()) for _ in range(2)]
                await writer_task()
                writer_done.set()
                await asyncio.gather(*readers)
                responses.append(
                    ((await app.service.detection()).payload, await app.service.communities(limit=3))
                )
            finally:
                await app.stop()

        asyncio.run(scenario())
        ops, _ = read_ops(WriteAheadLog.path_in(tmp_path / "wal"))

        seen_versions = set()
        for detect, communities in responses:
            version = detect["version"]
            # Internal consistency: both halves of a response pair carry a
            # published version, and detect/communities agree when taken
            # from the same snapshot.
            assert communities["version"] <= max(seq for seq, _ in ops) if ops else True
            if version in seen_versions:
                continue
            seen_versions.add(version)
            offline = _offline_prefix_report(ops, version)
            report = offline.detect()
            assert detect["community"] == sorted(map(str, report.vertices))
            assert detect["density"] == report.density
            assert detect["peel_index"] == report.peel_index
            if communities["version"] == version:
                offline_instances = offline.communities(max_instances=3)
                assert [c["vertices"] for c in communities["communities"]] == [
                    sorted(map(str, instance.vertices))
                    for instance in offline_instances
                ]
                assert [c["density"] for c in communities["communities"]] == [
                    instance.density for instance in offline_instances
                ]
        # The final read reflects the fully applied stream.
        final_detect, _final_communities = responses[-1]
        assert final_detect["version"] == max(seq for seq, _ in ops)


class TestPublishOnCommit:
    """``/v1/detect`` is the view the writer published with the version."""

    @staticmethod
    def _script(rng, steps):
        """Mixed insert / batch / delete / flush ops over dyadic weights."""
        live, ops = [], []
        for _ in range(steps):
            kind = rng.choice(["insert", "batch", "batch", "delete", "flush"])
            if kind == "delete" and live:
                ops.append(("delete", [live.pop(rng.randrange(len(live)))]))
            elif kind == "flush":
                ops.append(("flush", ()))
            else:
                rows = []
                while len(rows) < (1 if kind == "insert" else rng.randint(2, 5)):
                    src, dst = rng.randrange(12), rng.randrange(12)
                    if src != dst:
                        rows.append((f"v{src}", f"v{dst}", rng.randint(1, 64) / 16.0))
                        if (rows[-1][0], rows[-1][1]) not in live:
                            live.append((rows[-1][0], rows[-1][1]))
                ops.append(("insert", rows))
        return ops

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        semantics=st.sampled_from(["DG", "DW", "FD"]),
        grouping=st.booleans(),
    )
    def test_detect_equals_ack_and_offline_replay_at_every_version(
        self, seed, semantics, grouping
    ):
        import random

        from repro.peeling.static import peel_csr

        config = EngineConfig(
            semantics=semantics,
            backend="array",
            edge_grouping=grouping,
            serve=ServeConfig(port=0, fsync=False),
        )
        script = self._script(random.Random(seed), steps=10)
        offline = SpadeClient(config.replace(serve=None))
        offline.load([])
        app = ServeApp(config)

        async def scenario():
            await app.start()
            try:
                for kind, payload in script:
                    if kind == "insert":
                        updates = [EdgeUpdate(s, d, w) for s, d, w in payload]
                        event = InsertBatch(tuple(updates))
                    elif kind == "delete":
                        updates, event = payload, Delete(tuple(payload))
                    else:
                        updates, event = (), Flush()
                    ack = await app.gateway.submit(kind, updates, len(updates))
                    expected = offline.apply([event])
                    view = await app.service.detection()
                    detect = view.payload
                    assert detect["version"] == ack["version"] == app.service.version
                    assert detect["vertices"] == offline.graph.num_vertices()
                    assert detect["edges"] == offline.graph.num_edges()
                    # Whatever the source, the read is the old answer: a
                    # fresh peel of the frozen graph, here and offline.
                    for engine in (app.client, offline):
                        fresh = peel_csr(engine.snapshot(), semantics)
                        assert detect["community"] == sorted(map(str, fresh.community))
                        assert detect["density"] == fresh.best_density
                        assert detect["peel_index"] == fresh.best_index
                    if semantics == "FD":
                        # Not the static sequence: nothing published.
                        assert not expected.exact
                        assert view.source == "peel"
                        continue
                    # The read is the ack: same version, same numbers ...
                    assert view.source == "maintained"
                    assert detect["density"] == ack["density"]
                    assert len(detect["community"]) == ack["community_size"]
                    # ... and the offline prefix replay, field for field.
                    assert detect["community"] == sorted(map(str, expected.vertices))
                    assert detect["density"] == expected.density
                    assert detect["peel_index"] == expected.peel_index
            finally:
                await app.stop()

        asyncio.run(scenario())

    def test_fd_reads_stay_the_fresh_peel_where_the_maintained_sequence_is_not(self):
        # FD's 1/log weights tie in real arithmetic and not in floats, so
        # the maintained sequence (valid either way) can end at another
        # community than a fresh peel of the same graph — this stream gets
        # there on both backends (``diverged``; first at 0.4037 against
        # 0.4142).  Reads must stay what they were before publish-on-commit,
        # the fresh peel, at every version, rank 0 of communities included.
        import random

        from repro.peeling.static import peel_csr

        rng = random.Random(25)
        app = ServeApp(
            EngineConfig(
                semantics="FD",
                serve=ServeConfig(port=0, fsync=False),
            )
        )

        async def scenario():
            await app.start()
            try:
                live, diverged = [], 0
                for _ in range(30):
                    if live and rng.random() < 0.3:
                        edge = live.pop(rng.randrange(len(live)))
                        await app.gateway.submit("delete", [edge], 1)
                    else:
                        edge = (f"v{rng.randrange(10)}", f"v{rng.randrange(10)}")
                        if edge[0] == edge[1] or edge in live:
                            continue
                        live.append(edge)
                        await app.gateway.submit("insert", [EdgeUpdate(*edge, 1.0)], 1)
                    view = await app.service.detection()
                    fresh = peel_csr(app.client.snapshot(), "FD")
                    assert view.source == "peel" and view.version == app.service.version
                    assert view.payload["community"] == sorted(map(str, fresh.community))
                    assert view.payload["density"] == fresh.best_density
                    assert view.payload["peel_index"] == fresh.best_index
                    if fresh.best_density > 0.0:  # an edgeless graph lists nothing
                        top = (await app.service.communities(limit=1))["communities"]
                        assert [c["vertices"] for c in top] == [view.payload["community"]]
                    maintained = app.client.detect()
                    assert not maintained.exact
                    diverged += abs(maintained.density - fresh.best_density) > 1e-6
                return diverged
            finally:
                await app.stop()

        assert asyncio.run(scenario()) >= 1

    def test_rejected_op_clears_the_view_and_the_next_commit_restores_it(self):
        app = ServeApp(serve_config())

        async def scenario():
            await app.start()
            try:
                first_ack = await app.gateway.submit(
                    "insert", [EdgeUpdate("a", "b", 2.0), EdgeUpdate("b", "c", 1.0)], 2
                )
                # The HTTP layer refuses self loops; the gateway must still
                # survive one (it is logged, the engine rejects it).
                rejected = await app.gateway.submit(
                    "insert", [EdgeUpdate("loop", "loop", 1.0)], 1
                )
                assert "error" in rejected
                fallback = await app.service.detection()
                again = await app.service.detection()
                restored_ack = await app.gateway.submit(
                    "insert", [EdgeUpdate("c", "a", 3.0)], 1
                )
                restored = await app.service.detection()
                return first_ack, rejected, fallback, again, restored_ack, restored
            finally:
                await app.stop()

        first_ack, rejected, fallback, again, restored_ack, restored = asyncio.run(
            scenario()
        )
        # No report describes the state a rejected op left: the read peels
        # it once and keeps the answer for the version.
        assert fallback.source == "peel" and fallback.version == rejected["version"]
        assert again is fallback
        assert fallback.payload["density"] == first_ack["density"]
        assert len(fallback.payload["community"]) == first_ack["community_size"]
        assert restored.source == "maintained"
        assert restored.payload["density"] == restored_ack["density"]

    def test_inexact_engines_fall_back_to_one_peel_per_version(self):
        import random

        from tests.helpers import peel_phase_calls

        rng = random.Random(7)
        rows = []
        while len(rows) < 40:
            src, dst = rng.randrange(12), rng.randrange(12)
            if src != dst:
                rows.append((f"v{src}", f"v{dst}", rng.randint(1, 64) / 16.0))
        config = EngineConfig(
            semantics="DW",
            backend="array",
            shards=2,
            serve=ServeConfig(port=0, fsync=False),
        )
        offline = SpadeClient(EngineConfig(semantics="DW", backend="array"))
        offline.load([])
        app = ServeApp(config)

        async def scenario():
            await app.start()
            try:
                reads = []
                for index in range(0, len(rows), 10):
                    chunk = rows[index : index + 10]
                    await app.gateway.submit(
                        "insert", [EdgeUpdate(s, d, w) for s, d, w in chunk], len(chunk)
                    )
                    expected = offline.apply(
                        [InsertBatch(tuple(EdgeUpdate(s, d, w) for s, d, w in chunk))]
                    )
                    before = peel_phase_calls("peel_greedy")
                    first = await app.service.detection()
                    second = await app.service.detection()
                    peels = peel_phase_calls("peel_greedy") - before
                    reads.append((first, second, peels, expected))
                return reads
            finally:
                await app.stop()

        for first, second, peels, expected in asyncio.run(scenario()):
            assert first.source == "peel" and second is first
            assert peels == 1
            assert first.payload["community"] == sorted(map(str, expected.vertices))
            assert first.payload["density"] == expected.density
            assert first.payload["peel_index"] == expected.peel_index
            assert first.payload["exact"] is True
