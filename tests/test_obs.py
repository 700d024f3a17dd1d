"""Tests for the observability layer (``repro.obs``) and its serve wiring.

The tentpole guarantees under test:

* tracing is **inert**: a traced run produces bit-identical detection
  output to an untraced run of the same stream,
* one trace id is observable end to end — response header, the
  ``/debug/traces`` ring, and the JSONL event log all agree, with
  well-formed span parenting through the gateway, the WAL and the
  engine apply,
* sampling is deterministic in the trace id, and unsampled requests
  still carry an id while recording no spans,
* the profiling counters aggregate python/native phase timings.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.api.config import EngineConfig
from repro.errors import ConfigError
from repro.obs import (
    ObsConfig,
    TraceContext,
    TraceRecorder,
    read_events,
    sample_decision,
)
from repro.obs import profile as obs_profile
from repro.obs.__main__ import format_record
from repro.serve.app import ServeApp
from repro.serve.config import ServeConfig
from repro.serve.metrics import Histogram, MetricsRegistry


@pytest.fixture(autouse=True)
def _single_backend_leg(graph_backend):
    if graph_backend != "array":
        pytest.skip("obs tests pin backend='array'; one leg is enough")


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


def bulk_edges(n=40, seed=7):
    rng = random.Random(seed)
    return [
        [f"u{rng.randrange(20)}", f"p{rng.randrange(15)}", rng.randrange(8, 49) / 16.0]
        for _ in range(n)
    ]


def assert_parenting_well_formed(spans):
    """Every non-null parent id must reference a span in the same trace."""
    ids = {span["id"] for span in spans}
    assert len(ids) == len(spans), "span ids must be unique"
    for span in spans:
        if span["parent"] is not None:
            assert span["parent"] in ids
            assert span["parent"] != span["id"]


class TestObsConfig:
    def test_defaults_validate(self):
        config = ObsConfig()
        assert config.trace_sample == 0.1
        assert config.slow_ms == 250.0
        assert config.trace_log is None
        assert config.trace_buffer == 512

    @pytest.mark.parametrize(
        "bad",
        [
            {"trace_sample": -0.1},
            {"trace_sample": 1.5},
            {"trace_sample": "lots"},
            {"slow_ms": -1.0},
            {"trace_buffer": 0},
            {"trace_buffer": True},
            {"trace_buffer": 10**7},
            {"trace_log": 5},
        ],
    )
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(ConfigError):
            ObsConfig(**bad)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ObsConfig.from_dict({"trace_sampel": 0.5})

    def test_nests_in_serve_config_and_round_trips(self):
        config = serve_config(obs={"trace_sample": 1.0, "slow_ms": 5.0})
        assert config.serve.obs.trace_sample == 1.0
        rebuilt = EngineConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.serve.obs.slow_ms == 5.0

    def test_obs_none_means_defaults(self):
        config = ServeConfig(obs=None)
        assert config.obs == ObsConfig()


class TestSampling:
    def test_rate_bounds(self):
        assert not sample_decision("deadbeefdeadbeef", 0.0)
        assert sample_decision("deadbeefdeadbeef", 1.0)

    def test_deterministic_per_id(self):
        for rate in (0.1, 0.5, 0.9):
            for trace_id in ("a" * 16, "b" * 16, "0123456789abcdef"):
                first = sample_decision(trace_id, rate)
                assert all(
                    sample_decision(trace_id, rate) == first for _ in range(5)
                )

    def test_rate_roughly_respected(self):
        rng = random.Random(99)
        ids = ["%016x" % rng.getrandbits(64) for _ in range(4000)]
        hits = sum(sample_decision(tid, 0.5) for tid in ids)
        assert 0.4 < hits / len(ids) < 0.6


class TestTraceContext:
    def test_stack_parenting(self):
        trace = TraceContext("t" * 16)
        outer = trace.start_span("outer")
        inner = trace.start_span("inner")
        trace.end_span(inner)
        sibling = trace.start_span("sibling")
        trace.end_span(sibling)
        trace.end_span(outer)
        assert inner.parent == outer.sid
        assert sibling.parent == outer.sid
        assert outer.parent is None

    def test_add_span_parents_under_innermost_open_span(self):
        trace = TraceContext("t" * 16)
        root_level = trace.add_span("queue_wait", trace.began, trace.began + 0.001)
        outer = trace.start_span("outer")
        inner = trace.start_span("inner")
        timed = trace.add_span("wal_append", inner.start, inner.start + 0.002)
        trace.end_span(inner)
        after = trace.add_span("detect", inner.start, inner.start + 0.001)
        trace.end_span(outer)
        assert root_level.parent is None
        assert timed.parent == inner.sid
        assert after.parent == outer.sid
        # Externally timed spans are closed intervals, never pushed.
        assert trace.start_span("sibling").parent is None

    def test_unsampled_trace_is_inert(self):
        trace = TraceContext("t" * 16, sampled=False)
        assert trace.start_span("x") is None
        trace.end_span(None)
        assert trace.add_span("y", 0.0, 1.0) is None
        trace.annotate(k=1)
        assert trace.spans == []
        assert trace.annotations == {}
        duration = trace.finish(200)
        assert duration >= 0.0
        assert trace.status == 200

    def test_to_dict_exports_relative_ms_and_well_formed_tree(self):
        trace = TraceContext("t" * 16, method="POST", path="/v1/edges")
        outer = trace.start_span("outer", k="v")
        trace.end_span(trace.start_span("inner"))
        trace.end_span(outer)
        trace.annotate(wal_seq=3)
        trace.finish(200)
        record = trace.to_dict("sampled")
        assert record["trace_id"] == "t" * 16
        assert record["reason"] == "sampled"
        assert record["annotations"] == {"wal_seq": 3}
        assert_parenting_well_formed(record["spans"])
        for span in record["spans"]:
            assert span["start_ms"] >= 0.0
            assert span["duration_ms"] >= 0.0


class TestTraceRecorder:
    def _record(self, duration_ms, trace_id="x"):
        return {"trace_id": trace_id, "duration_ms": duration_ms}

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceRecorder(0)

    def test_ring_wraparound_keeps_most_recent(self):
        recorder = TraceRecorder(4)
        for i in range(10):
            recorder.record(self._record(float(i), trace_id=f"t{i}"))
        held = [r["trace_id"] for r in recorder.snapshot()]
        assert held == ["t9", "t8", "t7", "t6"]
        assert recorder.total_recorded == 10
        assert recorder.capacity == 4

    def test_slowest_filters_and_limits(self):
        recorder = TraceRecorder(16)
        for i in range(8):
            recorder.record(self._record(float(i), trace_id=f"t{i}"))
        slow = recorder.slowest(min_ms=5.0)
        assert [r["trace_id"] for r in slow] == ["t7", "t6", "t5"]
        assert len(recorder.slowest(min_ms=0.0, limit=2)) == 2
        assert recorder.slowest(min_ms=10**6) == []

    def test_find(self):
        recorder = TraceRecorder(4)
        recorder.record(self._record(1.0, trace_id="abc"))
        assert recorder.find("abc")["duration_ms"] == 1.0
        assert recorder.find("zzz") is None


class TestProfile:
    @pytest.fixture(autouse=True)
    def _clean_counters(self):
        obs_profile.reset()
        yield
        obs_profile.reset()

    def test_record_and_snapshot(self):
        obs_profile.record("peel_greedy", "python", 0.25)
        obs_profile.record("peel_greedy", "python", 0.75)
        obs_profile.record("reorder", "native", 0.5)
        table = obs_profile.snapshot()
        assert table["peel_greedy[python]"] == {"calls": 2, "seconds": 1.0}
        assert table["reorder[native]"]["calls"] == 1

    def test_timed_context_manager(self):
        with obs_profile.timed("peel_csr_init"):
            pass
        table = obs_profile.snapshot()
        assert table["peel_csr_init[python]"]["calls"] == 1
        assert table["peel_csr_init[python]"]["seconds"] >= 0.0

    def test_split_key(self):
        assert obs_profile.split_key("peel_greedy[native]") == (
            "peel_greedy",
            "native",
        )
        assert obs_profile.split_key("weird") == ("weird", "unknown")

    def test_compute_core_records_phases(self, dw):
        from repro.core.spade import Spade

        spade = Spade(dw)
        spade.load_edges([("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 1.5)])
        spade.insert_edge("c", "d", 1.0)
        spade.detect()
        table = obs_profile.snapshot()
        assert any(key.startswith("peel_") for key in table)
        assert any(key.startswith("reorder[") for key in table)


class TestMetricsSatellites:
    def test_empty_histogram_quantile_is_zero(self):
        histogram = Histogram("h", "help")
        assert histogram.quantile(0.5) == 0.0
        assert histogram.quantile(0.99) == 0.0

    def test_duplicate_registration_error_is_actionable(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs")
        with pytest.raises(ValueError) as excinfo:
            registry.histogram("jobs_total", "jobs again")
        message = str(excinfo.value)
        assert "already registered" in message
        assert "jobs_total" in message
        assert "registry.get" in message

    def test_get_or_register_idiom(self):
        registry = MetricsRegistry()
        family = registry.histogram("stage", "s", labelnames=("stage",))
        assert registry.get("stage") is family


class TestServeTracing:
    def test_every_response_carries_trace_id_even_unsampled(self, tmp_path):
        app = ServeApp(serve_config(obs={"trace_sample": 0.0, "slow_ms": 0.0}))
        results = drive(
            app,
            [
                ("GET", "/healthz", None),
                ("POST", "/v1/edges", {"edges": bulk_edges(5)}),
                ("GET", "/nope", None),
            ],
        )
        seen = set()
        for status, _body, headers in results:
            assert "x-repro-trace-id" in headers
            seen.add(headers["x-repro-trace-id"])
        assert len(seen) == 3  # fresh id per request
        assert results[2][0] == 404

    def test_bulk_trace_end_to_end(self, tmp_path):
        app = ServeApp(
            serve_config(
                tmp_path,
                obs={"trace_sample": 1.0, "slow_ms": 0.0, "trace_log": "auto"},
            )
        )
        results = drive(
            app,
            [
                ("POST", "/v1/edges", {"edges": bulk_edges(30)}),
                ("GET", "/debug/traces?limit=10", None),
            ],
        )
        status, _body, headers = results[0]
        assert status == 200
        trace_id = headers["x-repro-trace-id"]

        payload = results[1][1]
        assert payload["sample_rate"] == 1.0
        entry = next(t for t in payload["traces"] if t["trace_id"] == trace_id)
        names = {span["name"] for span in entry["spans"]}
        assert {"queue_wait", "wal_append", "engine_apply"} <= names
        assert_parenting_well_formed(entry["spans"])
        assert entry["annotations"]["wal_seq"] >= 1
        wal_span = next(s for s in entry["spans"] if s["name"] == "wal_append")
        assert wal_span["attrs"]["fsync"] is False

        # The JSONL event log holds the same trace id.
        records, _ = read_events(tmp_path / "wal" / "events.jsonl")
        assert any(r["trace_id"] == trace_id for r in records)
        assert all(r["reason"] in ("sampled", "slow") for r in records)

    def test_traced_run_bit_identical_to_untraced(self, tmp_path):
        edges = bulk_edges(60, seed=13)
        bodies = []
        for sample in (1.0, 0.0):
            app = ServeApp(
                serve_config(obs={"trace_sample": sample, "slow_ms": 0.0})
            )
            results = drive(
                app,
                [
                    ("POST", "/v1/edges", {"edges": edges[:30]}),
                    ("POST", "/v1/edges", {"edges": edges[30:]}),
                    ("POST", "/v1/flush", None),
                    ("GET", "/v1/detect", None),
                ],
            )
            assert all(status == 200 for status, _b, _h in results)
            bodies.append(results[3][1])
        assert bodies[0] == bodies[1]

    def test_debug_traces_filters(self, tmp_path):
        app = ServeApp(serve_config(obs={"trace_sample": 1.0, "slow_ms": 0.0}))
        requests = [("GET", "/healthz", None)] * 5 + [
            ("GET", "/debug/traces?min_ms=60000", None),
            ("GET", "/debug/traces?limit=2", None),
        ]
        results = drive(app, requests)
        assert results[5][1]["count"] == 0
        assert results[6][1]["count"] == 2
        assert results[6][1]["recorded"] >= 6

    def test_debug_traces_by_id(self, tmp_path):
        app = ServeApp(serve_config(obs={"trace_sample": 1.0, "slow_ms": 0.0}))
        results = drive(
            app,
            [
                ("GET", "/healthz", None),
                ("GET", "/debug/traces?trace_id=nonexistent", None),
            ],
        )
        wanted = results[0][2]["x-repro-trace-id"]
        assert results[1][1]["count"] == 0
        app = ServeApp(serve_config(obs={"trace_sample": 1.0, "slow_ms": 0.0}))
        results = drive(
            app,
            [
                ("GET", "/healthz", None),
                ("GET", "/debug/traces", None),
            ],
        )
        wanted = results[0][2]["x-repro-trace-id"]
        held = [t["trace_id"] for t in results[1][1]["traces"]]
        assert wanted in held

    def test_slow_threshold_records_unsampled_requests(self, tmp_path):
        # sample=0 but a microscopic slow threshold: every request trips
        # it and is recorded (without spans) — the unsampled escape hatch.
        # (slow_ms=0 would *disable* the slow path entirely.)
        app = ServeApp(serve_config(obs={"trace_sample": 0.0, "slow_ms": 1e-6}))
        results = drive(
            app,
            [
                ("GET", "/healthz", None),
                ("GET", "/debug/traces", None),
            ],
        )
        traces = results[1][1]["traces"]
        assert len(traces) >= 1
        assert all(t["reason"] == "slow" for t in traces)
        assert all(t["spans"] == [] for t in traces)

    def test_debug_profile_and_build_info(self, tmp_path):
        app = ServeApp(serve_config(obs={"trace_sample": 1.0, "slow_ms": 0.0}))
        results = drive(
            app,
            [
                ("POST", "/v1/edges", {"edges": bulk_edges(30)}),
                ("POST", "/v1/flush", None),
                ("GET", "/debug/profile", None),
                ("GET", "/v1/detect", None),
                ("GET", "/v1/detect", None),
                ("GET", "/v1/detect", None),
                ("GET", "/debug/profile", None),
                ("GET", "/v1/communities", None),
                ("GET", "/debug/profile", None),
                ("GET", "/metrics", None),
            ],
        )
        assert all(status == 200 for status, _b, _h in results)

        def peel_calls(profile, prefix="peel_"):
            return sum(
                cell["calls"]
                for key, cell in profile["merged"].items()
                if key.startswith(prefix)
            )

        before, after_detects, after_communities = (
            results[index][1] for index in (2, 6, 8)
        )
        assert after_communities["kernel"] in ("python", "native")
        # A single engine answers /v1/detect from the view its writer
        # published: no read runs any peel phase ...
        assert peel_calls(after_detects) == peel_calls(before)
        # ... while /v1/communities still re-peels the remainder for ranks >= 1.
        assert peel_calls(after_communities, "peel_greedy") > peel_calls(
            after_detects, "peel_greedy"
        )
        metrics_text = results[9][1]
        assert 'repro_detect_reads_total{source="maintained"} 3' in metrics_text
        assert 'repro_detect_reads_total{source="peel"} 0' in metrics_text
        assert "repro_communities_seconds_count 1" in metrics_text
        assert "repro_build_info" in metrics_text
        assert 'version="' in metrics_text
        assert "repro_profile_seconds" in metrics_text
        assert "repro_stage_seconds" in metrics_text
        assert "repro_traces_recorded_total" in metrics_text

    def test_debug_profile_merged_is_the_process_table(self):
        app = ServeApp(serve_config(obs={"trace_sample": 0.0, "slow_ms": 0.0}))
        results = drive(
            app,
            [
                ("POST", "/v1/edges", {"edges": bulk_edges(30, seed=5)}),
                ("GET", "/v1/communities", None),
                ("GET", "/debug/profile", None),
                ("GET", "/metrics", None),
            ],
        )
        assert all(status == 200 for status, _b, _h in results)
        profile, metrics_text = results[2][1], results[3][1]
        assert set(profile) == {"kernel", "process", "merged"}
        assert profile["merged"] == profile["process"]
        assert profile["merged"], "ingest + communities must record phases"
        for key, cell in profile["merged"].items():
            phase, kernel = obs_profile.split_key(key)
            assert phase
            assert kernel in ("python", "native")
            assert cell["calls"] >= 1
            assert (
                f'repro_profile_calls{{phase="{phase}",kernel="{kernel}"}}'
                in metrics_text
            )

    def test_sharded_bulk_trace_end_to_end(self, tmp_path):
        config = EngineConfig(
            semantics="DW",
            backend="array",
            shards=2,
            serve=ServeConfig(
                port=0,
                wal_dir=str(tmp_path / "wal"),
                fsync=False,
                obs={"trace_sample": 1.0, "slow_ms": 0.0},
            ),
        )
        results = drive(
            ServeApp(config),
            [
                ("POST", "/v1/edges", {"edges": bulk_edges(40, seed=3)}),
                ("GET", "/debug/traces?limit=10", None),
            ],
        )
        status, _body, headers = results[0]
        assert status == 200
        trace_id = headers["x-repro-trace-id"]
        entry = next(
            t for t in results[1][1]["traces"] if t["trace_id"] == trace_id
        )
        names = {span["name"] for span in entry["spans"]}
        assert {"queue_wait", "wal_append", "engine_apply"} <= names
        assert_parenting_well_formed(entry["spans"])
        assert entry["annotations"]["wal_seq"] == 1


class TestEventLogTooling:
    def test_format_record_renders_one_line(self):
        line = format_record(
            {
                "ts": 1754560000.0,
                "trace_id": "abcd" * 4,
                "method": "POST",
                "path": "/v1/edges",
                "status": 200,
                "duration_ms": 12.5,
                "reason": "slow",
                "spans": [
                    {"id": 1, "name": "queue_wait", "start_ms": 0.0, "duration_ms": 0.5},
                    {"id": 2, "name": "queue_wait", "start_ms": 0.1, "duration_ms": 0.5},
                ],
            }
        )
        assert "abcd" * 4 in line
        assert "POST /v1/edges" in line
        assert "12.50ms" in line
        assert "[slow]" in line
        assert "queue_wait" in line and "×2" in line

    def test_read_events_round_trip(self, tmp_path):
        from repro.obs import EventLog

        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.write({"trace_id": "a", "duration_ms": 1.0})
            log.write({"trace_id": "b", "duration_ms": 2.0})
        records, offset = read_events(path)
        assert [r["trace_id"] for r in records] == ["a", "b"]
        more, offset2 = read_events(path, offset)
        assert more == [] and offset2 == offset
