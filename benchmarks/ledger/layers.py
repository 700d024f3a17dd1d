"""Per-layer metrics: what the traced server says about itself, plus the probe.

Source 1, *scrape*: the workload ran against a server booted with
``--trace-sample 1.0 --trace-log auto``; before it is killed we read
``/metrics`` and ``/debug/profile`` and time ``GET /healthz``, and after
the run we read ``<wal_dir>/events.jsonl`` (one recorded trace per
request, with exact span times — the Prometheus histograms are too
coarse for a median) and the size of ``wal.jsonl``.

Source 2, *layer probe*: :mod:`ledger.probe`.

These numbers are reported beside the gated ones and never gated
themselves.  A metric with no sample on a workload (as-of reads on
``single_stream``, a probe whose function is gone) is reported as ``-1``,
because the result object only carries numbers; the printed table says
why.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

from . import probe
from .harness import BUILD_DIR, Planned, Server, closed_loop, median, percentile
from .workloads import Context, Metric, Outcome

NO_SAMPLE = -1.0

#: name -> (unit, better).  Order is the order of the printed table.
SCRAPED: Dict[str, Tuple[str, str]] = {
    "serve.server.http_floor_ms": ("ms", "lower"),
    "serve.server.overhead_ms": ("ms", "lower"),
    "serve.ingest.queue_wait_ms_p50": ("ms", "lower"),
    "serve.ingest.events_per_commit": ("count", "higher"),
    "serve.ingest.ack_ms_p50": ("ms", "lower"),
    "serve.wal.append_ms_p50": ("ms", "lower"),
    "serve.wal.bytes_per_event": ("B", "lower"),
    "api.engine_apply_ms_p50": ("ms", "lower"),
    "serve.snapshots.detect_ms_p50": ("ms", "lower"),
    "core.reorder.s_per_call": ("s", "lower"),
    "peeling.peel_csr_init_ms": ("ms", "lower"),
    "peeling.peel_greedy_ms": ("ms", "lower"),
    "history.asof.reconstruct_ms": ("ms", "lower"),
    "history.asof.cache_hit_ratio": ("ratio", "higher"),
    "trace.closure": ("ratio", "higher"),
    "obs.traced_cpu_ms_per_event": ("ms", "lower"),
    "client.lateness_p99_ms": ("ms", "lower"),
    "client.write_ack_p99_ms": ("ms", "lower"),
    "client.delete_ack_p50_ms": ("ms", "lower"),
    "client.detect_p95_ms": ("ms", "lower"),
    "client.communities_ms": ("ms", "lower"),
    "client.recovery_s": ("s", "lower"),
}
_BETTER_BY_UNIT = {"us": "lower", "ms": "lower", "s": "lower", "count": "lower", "1/s": "higher"}
HEALTH_PINGS = 50

_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text exposition -> ``{'name{labels}': value}``."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match and not line.startswith("#"):
            out[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return out


def scrape_live(server: Server, out: Outcome) -> None:
    """Read the operational endpoints of a server that is about to be killed."""
    conn = server.connect()
    pings = closed_loop(conn, [Planned(0.0, "healthz", "GET", "/healthz")] * HEALTH_PINGS)
    metrics = conn.request("GET", "/metrics")
    profile = conn.request("GET", "/debug/profile")
    conn.close()
    wal = server.wal_dir / "wal.jsonl"
    out.live.append({
        "healthz_ms": [s.latency_ms for s in pings if s.status == 200],
        "metrics": parse_metrics(metrics.body.decode()) if metrics.ok else {},
        "profile": profile.json().get("merged", {}) if profile.ok else {},
        "wal_bytes": wal.stat().st_size if wal.exists() else 0,
    })


def _read_traces(path) -> List[dict]:
    traces = []
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                traces.append(json.loads(line))
            except ValueError:
                pass  # the line SIGKILL tore
    return traces


def _profile_per_call(profile: Dict[str, Dict[str, float]], phase: str) -> Optional[Tuple[float, int]]:
    cells = [cell for key, cell in profile.items() if key.split("[")[0] == phase]
    calls = int(sum(cell["calls"] for cell in cells))
    return (sum(cell["seconds"] for cell in cells) / calls, calls) if calls else None


def scraped(ctx: Context, out: Outcome) -> Dict[str, Metric]:
    table: Dict[str, Metric] = {}
    if not out.live:
        return table
    first, last = out.live[0], out.live[-1]
    traces = _read_traces(ctx.servers[-1].wal_dir / "events.jsonl")
    posts = [t for t in traces if t["method"] == "POST" and t["status"] == 200]

    def span_ms(name: str, source=posts) -> List[float]:
        return [s["duration_ms"] for t in source for s in t.get("spans", ()) if s["name"] == name]

    def put(name: str, values: List[float]) -> None:
        if values:
            table[name] = Metric(median(values), SCRAPED[name][0], len(values))

    put("serve.server.http_floor_ms", first["healthz_ms"])
    put("serve.ingest.queue_wait_ms_p50", span_ms("queue_wait"))
    put("serve.ingest.ack_ms_p50", [t["duration_ms"] for t in posts])
    put("serve.wal.append_ms_p50", span_ms("wal_append"))
    put("api.engine_apply_ms_p50", span_ms("engine_apply"))
    put("serve.snapshots.detect_ms_p50", span_ms("detect", traces))
    if out.service_ms and "serve.ingest.ack_ms_p50" in table:
        table["serve.server.overhead_ms"] = Metric(
            median(out.service_ms) - table["serve.ingest.ack_ms_p50"].value, "ms", len(out.service_ms))
    # Closure: of the server-side time of the requests that carried a commit's
    # spans, the share the three named stages account for.
    carried = [t for t in posts if any(s["name"] == "engine_apply" for s in t.get("spans", ()))]
    if carried:
        staged = sum(s["duration_ms"] for t in carried for s in t["spans"]
                     if s["name"] in ("queue_wait", "wal_append", "engine_apply"))
        table["trace.closure"] = Metric(staged / sum(t["duration_ms"] for t in carried), "ratio", len(carried))

    metrics = first["metrics"]
    accepted = metrics.get("repro_ingest_events_accepted_total", 0.0)
    commits = metrics.get("repro_ingest_batches_total", 0.0)
    if commits:
        table["serve.ingest.events_per_commit"] = Metric(accepted / commits, "count", int(commits))
    if accepted:
        table["serve.wal.bytes_per_event"] = Metric(first["wal_bytes"] / accepted, "B", int(accepted))
    for name, phase, scale in (
        ("core.reorder.s_per_call", "reorder", 1.0),
        ("peeling.peel_csr_init_ms", "peel_csr_init", 1e3),
        ("peeling.peel_greedy_ms", "peel_greedy", 1e3),
    ):
        cell = _profile_per_call(first["profile"], phase)
        if cell:
            table[name] = Metric(cell[0] * scale, SCRAPED[name][0], cell[1])
    asof = last["metrics"]
    misses = asof.get("repro_asof_cache_misses_total", 0.0)
    hits = asof.get("repro_asof_cache_hits_total", 0.0)
    rebuilt = asof.get("repro_asof_reconstruct_seconds_count", 0.0)
    if rebuilt:
        table["history.asof.reconstruct_ms"] = Metric(
            asof["repro_asof_reconstruct_seconds_sum"] / rebuilt * 1e3, "ms", int(rebuilt))
    if hits + misses:
        table["history.asof.cache_hit_ratio"] = Metric(hits / (hits + misses), "ratio", int(hits + misses))

    table["obs.traced_cpu_ms_per_event"] = out.metrics["cpu_ms_per_event"]
    if out.lateness_ms:
        table["client.lateness_p99_ms"] = Metric(percentile(out.lateness_ms, 99), "ms", len(out.lateness_ms))
    table.update(out.extras)
    return table


def per_layer_spec() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    spec = dict(SCRAPED)
    for name, unit in probe.UNITS.items():
        spec[name] = (unit, _BETTER_BY_UNIT[unit])
    return spec


def collect(ctx: Context, out: Outcome) -> Dict[str, Metric]:
    """The full per-layer table of one traced run (scrape, then probe)."""
    measured = scraped(ctx, out)
    probed, unavailable, _spans = probe.run_probe(ctx, BUILD_DIR / "spans.jsonl")
    measured.update(probed)
    out.unavailable = unavailable
    spec = per_layer_spec()
    return {name: measured.get(name, Metric(NO_SAMPLE, unit, 0)) for name, (unit, _b) in spec.items()}
