"""Self-test of the serving benchmark (collected by the tier-1 suite).

Drives the real command at the ``--quick`` 2k/12k scale — one untraced
run and one traced run, a second of traffic each — and unit-tests the
two measurement rules that are easy to get silently wrong: latency is
timed from the due time, and a wrong reply fails the run.
"""

from __future__ import annotations

import http.server
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))

from ledger import cli, harness, layers, workloads  # noqa: E402
from ledger.harness import Connection, Planned, Reply, open_loop  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "7", *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )


def _serve_children() -> list:
    """``repro.serve`` processes whose WAL dir is one of this benchmark's run dirs."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cmdline = (entry / "cmdline").read_bytes().decode(errors="replace")
            except OSError:
                continue
            if "repro.serve" in cmdline and str(harness.BUILD_DIR) in cmdline:
                found.append(int(entry.name))
    return found


def _assert_reported(proc: subprocess.CompletedProcess, declared: list) -> None:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        # the table a person reads carries the sample count beside each name
        assert any(metric["name"] in line and " n=" in line for line in lines), metric["name"]


def test_manifest_matches_the_code():
    assert MANIFEST["paths"] == ["benchmarks/ledger"]
    assert MANIFEST["run_seconds"] == cli.DEFAULT_SECONDS
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == workloads.WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]
    } == workloads.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in MANIFEST["per_layer"]
    } == layers.per_layer_spec()


def test_quick_untraced_run_reports_every_end_to_end_metric():
    _assert_reported(_run("--workload", "crash_recovery", "--trace", "0"), MANIFEST["end_to_end"])
    assert _serve_children() == []
    assert not list(harness.BUILD_DIR.glob("run-*")), "run directories must be removed"


def test_quick_traced_run_reports_every_layer_metric_and_well_formed_spans():
    _assert_reported(_run("--workload", "single_stream", "--trace", "1"), MANIFEST["per_layer"])
    assert _serve_children() == []
    spans = [json.loads(line) for line in (harness.BUILD_DIR / "spans.jsonl").read_text().splitlines()]
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans) > 0
    nested = 0
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["self"] >= -1e-9, span
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            nested += 1
            assert parent["id"] < span["id"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["event"] == span["event"]  # one replayed event, one shared id
    assert nested > 0


class _StallFirst(http.server.BaseHTTPRequestHandler):
    """Answers 200 to everything; the first request takes 200 ms."""

    protocol_version = "HTTP/1.1"
    stalled = False

    def do_GET(self):  # noqa: N802
        if not type(self).stalled:
            type(self).stalled = True
            time.sleep(0.2)
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


def test_latency_is_timed_from_the_due_time():
    """A stall inflates the latency of the requests queued behind it, not just lateness."""
    _StallFirst.stalled = False
    server = http.server.HTTPServer(("127.0.0.1", 0), _StallFirst)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        conn = Connection(server.server_address[1])
        plan = [Planned(0.02 * i, "ping", "GET", "/") for i in range(5)]
        samples = open_loop(conn, plan, time.perf_counter() + 0.01)
        conn.close()
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    assert [s.status for s in samples] == [200] * 5
    service_ms = [(s.done - s.sent) * 1e3 for s in samples]
    assert service_ms[0] >= 190 and max(service_ms[1:]) < 50
    # Due 20 ms after the stalled request, served quickly, yet it waited ~180 ms:
    assert samples[1].latency_ms >= 150
    assert samples[1].latency_ms > service_ms[1] + 100
    # ... and that wait is the server's, not the generator's.
    assert max(s.late for s in samples) < 0.02


def test_a_tampered_reply_trips_the_correctness_gate():
    expected = {"community": ["v1", "v2"], "density": 1.5, "peel_index": 3, "vertices": 9, "edges": 12}
    honest = workloads.Outcome("single_stream", 7)
    workloads.check_detect(honest, "final", Reply(200, json.dumps(expected).encode()), expected)
    assert honest.correct and honest.attempted == 1

    tampered = workloads.Outcome("single_stream", 7)
    body = json.dumps({**expected, "density": 1.5000000000000002}).encode()
    workloads.check_detect(tampered, "final", Reply(200, body), expected)
    workloads.check_detect(tampered, "final", Reply(503, b""), expected)
    assert not tampered.correct and tampered.failed == 2
    assert "density" in tampered.failures[0]


def test_bounds_respect_the_contract():
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


@pytest.mark.parametrize("values,expected", [([1, 2, 3, 4], 2), ([5], 5), (list(range(1, 101)), 99)])
def test_percentile_is_nearest_rank(values, expected):
    assert harness.percentile(values, 99 if len(values) == 100 else 50) == expected
