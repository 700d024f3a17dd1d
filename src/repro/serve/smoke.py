"""End-to-end durability smoke: boot, ingest, ``kill -9``, recover, compare.

The CI gate for the serving subsystem (``python -m repro.serve.smoke``):

1. boot ``python -m repro.serve`` as a real subprocess on the fraud
   workload directory (WAL + checkpoints enabled, OS-assigned port);
2. fire a mix of bulk and single-edge ``POST /v1/edges`` plus a mid-stream
   ``GET /v1/detect``;
3. ``SIGKILL`` the process mid-stream — no shutdown hooks, no flush;
4. restart it from the same WAL directory (checkpoint + WAL-suffix
   recovery) and keep ingesting to prove liveness;
5. replay the WAL offline through a fresh in-process
   :class:`~repro.api.SpadeClient` and fail (exit 1) unless the restarted
   server's ``detect`` and first ``communities`` page are **identical**
   to the offline replay.

Every acknowledged event is by construction in the WAL, so equality with
the offline replay of the WAL is the durability statement in ISSUE 5.

Both phases also pin *which path* answered ``GET /v1/detect``
(``repro_detect_reads_total{source}``): the single DW engine must serve
every read from the view its writer published (``peel`` stays 0,
``maintained`` > 0) — so a silent fallback to peeling fails CI instead
of showing up as a latency regression.

Chaos mode (``--faults plan.json``) arms a deterministic
:mod:`repro.serve.faults` plan for **phase 1 only** — the restart in
phase 2 always boots clean, so whatever the faults left on disk (torn
records, flipped bits, truncated checkpoints) is exactly what recovery
has to survive.  Ingest rides out read-only degraded windows (503 +
``Retry-After``) by retrying, checking on the first 503 that ``/healthz``
reports ``degraded`` while ``GET /v1/detect`` still answers 200.  The
final divergence check is unchanged: the restarted server must match the
offline replay of the surviving WAL prefix bit for bit — a fault may
*shrink* the acknowledged history at a documented boundary, but it must
never silently diverge from it.  ``--expect`` pins the failure-handling
path a plan is meant to exercise (``degraded``, ``wal-corruption``,
``checkpoint-fallback``) and ``--report`` writes a JSON artifact of
everything observed.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api.client import SpadeClient
from repro.api.config import EngineConfig
from repro.serve.app import RUNINFO_FILENAME
from repro.serve.wal import WriteAheadLog, scan_ops
from repro.workloads.fraud import inject_standard_patterns

__all__ = ["main", "run_smoke"]

#: ``--expect`` vocabulary: which failure-handling path a fault plan must
#: actually exercise (so a mistuned plan fails CI instead of proving nothing).
EXPECTATIONS = ("degraded", "wal-corruption", "checkpoint-fallback")


def _wait_for_server(wal_dir: Path, proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """Wait for the runinfo file of the *current* process; return the port."""
    runinfo_path = wal_dir / RUNINFO_FILENAME
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited early with {proc.returncode}; stderr:\n"
                f"{proc.stderr.read().decode() if proc.stderr else ''}"
            )
        if runinfo_path.exists():
            try:
                runinfo = json.loads(runinfo_path.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                runinfo = None
            if runinfo and runinfo.get("pid") == proc.pid:
                port = int(runinfo["port"])
                status, _ = _request(port, "GET", "/healthz")
                if status == 200:
                    return port
        time.sleep(0.05)
    raise RuntimeError("server did not become healthy in time")


def _request(
    port: int, method: str, path: str, payload: Optional[object] = None
) -> Tuple[int, Dict]:
    status, body, _headers = _request_full(port, method, path, payload)
    return status, body


def _request_full(
    port: int, method: str, path: str, payload: Optional[object] = None
) -> Tuple[int, Dict, Dict[str, str]]:
    """Like :func:`_request` but also returns the (lowercased) headers."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        data = response.read()
        response_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        return (
            response.status,
            json.loads(data) if data else {},
            response_headers,
        )
    finally:
        connection.close()


def _detect_source_failures(port: int, phase: str) -> List[str]:
    """Which path served this server's ``/v1/detect`` reads so far."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", "/metrics")
        text = connection.getresponse().read().decode("utf-8")
    finally:
        connection.close()
    reads = {
        source: int(float(line.rsplit(" ", 1)[1]))
        for source in ("maintained", "peel")
        for line in text.splitlines()
        if line.startswith(f'repro_detect_reads_total{{source="{source}"}} ')
    }
    if reads.get("peel") != 0 or not reads.get("maintained"):
        return [
            f"{phase}: /v1/detect reads took the wrong path: "
            f"{reads} (want peel=0, maintained>0)"
        ]
    return []


def _post_edges(
    port: int,
    payload: object,
    say,
    observed: Dict[str, object],
    retries: int = 80,
    backoff: float = 0.15,
) -> None:
    """POST /v1/edges, riding out read-only degraded windows (503).

    On the first 503 the degraded contract is checked once: ``/healthz``
    must report ``status == "degraded"`` and ``GET /v1/detect`` must keep
    answering 200 (reads serve the committed snapshot while ingest is
    parked).  Retried posts may duplicate a partially committed chunk;
    that is fine for the divergence check because every applied duplicate
    is in the WAL too.
    """
    for _attempt in range(retries):
        status, body = _request(port, "POST", "/v1/edges", payload)
        if status == 200:
            return
        if status != 503:
            raise AssertionError(f"ingest failed with {status}: {body}")
        if not observed.get("degraded"):
            observed["degraded"] = True
            health_status, health = _request(port, "GET", "/healthz")
            assert health_status == 200 and health.get("status") == "degraded", (
                f"503 from ingest but /healthz does not say degraded: {health}"
            )
            read_status, _ = _request(port, "GET", "/v1/detect")
            assert read_status == 200, "reads must keep serving while degraded"
            say(
                f"ingest degraded ({health.get('degraded_reason')}); "
                f"reads still serving — retrying"
            )
        time.sleep(backoff)
    raise AssertionError(f"ingest still degraded after {retries} retries")


def _assert_trace_well_formed(entry: Dict) -> None:
    """Span ids are unique and every parent reference resolves in-trace."""
    spans = entry.get("spans", [])
    span_ids = {span["id"] for span in spans}
    assert len(span_ids) == len(spans), f"duplicate span ids: {spans}"
    for span in spans:
        if span["parent"] is not None:
            assert span["parent"] in span_ids, (
                f"span {span['name']} has dangling parent {span['parent']}"
            )


def _trace_probe(
    port: int,
    chunk: List[List[object]],
    say,
    observed: Dict[str, object],
    retries: int = 80,
    backoff: float = 0.15,
) -> None:
    """One fully traced bulk ingest + flush: header → ring → span tree."""
    for _attempt in range(retries):
        status, body, headers = _request_full(
            port, "POST", "/v1/edges", {"edges": chunk}
        )
        if status == 200:
            break
        assert status == 503, f"trace probe ingest failed with {status}: {body}"
        time.sleep(backoff)
    else:
        raise AssertionError(f"trace probe still degraded after {retries} retries")
    trace_id = headers.get("x-repro-trace-id")
    assert trace_id, f"no X-Repro-Trace-Id on the ingest response: {headers}"

    status, payload = _request(port, "GET", f"/debug/traces?trace_id={trace_id}")
    assert status == 200 and payload["count"] == 1, (
        f"trace {trace_id} not held by /debug/traces: {payload}"
    )
    entry = payload["traces"][0]
    names = {span["name"] for span in entry["spans"]}
    assert {"queue_wait", "wal_append", "engine_apply"} <= names, (
        f"bulk trace is missing pipeline spans: {sorted(names)}"
    )
    _assert_trace_well_formed(entry)

    status, _body, flush_headers = _request_full(port, "POST", "/v1/flush")
    assert status == 200, f"trace probe flush failed: {status}"
    flush_id = flush_headers.get("x-repro-trace-id")
    assert flush_id, "no X-Repro-Trace-Id on the flush response"
    status, payload = _request(port, "GET", f"/debug/traces?trace_id={flush_id}")
    assert status == 200 and payload["count"] == 1
    flush_entry = payload["traces"][0]
    _assert_trace_well_formed(flush_entry)
    flush_names = {span["name"] for span in flush_entry["spans"]}
    observed["trace"] = {
        "trace_id": trace_id,
        "bulk_spans": sorted(names),
        "flush_trace_id": flush_id,
        "flush_spans": sorted(flush_names),
    }
    say(
        f"trace {trace_id} observable end-to-end "
        f"(spans: {', '.join(sorted(names))})"
    )


def _spawn(config_path: Path) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--config", str(config_path)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


def _fraud_edges(num: int, seed: int = 11) -> List[List[object]]:
    """Dyadic-weighted transaction rows: fraud bursts over background noise.

    Dyadic weights (multiples of 1/64) keep float accumulation
    order-independent, so the offline comparison is strict equality
    rather than a tolerance.
    """
    import random

    scenario = inject_standard_patterns(seed, 0.0, 1000.0, instances_per_pattern=1)
    fraud = sorted(scenario.edges, key=lambda e: e.timestamp)
    rows: List[List[object]] = [
        [str(e.src), str(e.dst), max(1, round(float(e.weight) * 64)) / 64.0]
        for e in fraud
    ]
    rng = random.Random(seed)
    while len(rows) < num:
        src, dst = rng.randrange(150), rng.randrange(150)
        if src == dst:
            continue
        rows.append([f"bg{src}", f"bg{dst}", rng.randint(1, 128) / 64.0])
    # Interleave: background mixed through the fraud bursts, like a stream.
    rng.shuffle(rows)
    return rows[:num]


def run_smoke(
    events: int = 600,
    checkpoint_interval: int = 150,
    verbose: bool = True,
    faults: Optional[str] = None,
    expect: Optional[List[str]] = None,
    report: Optional[str] = None,
    history_interval: Optional[int] = None,
    history_copy: Optional[str] = None,
    trace_sample: Optional[float] = None,
    trace_log_copy: Optional[str] = None,
) -> int:
    """Run the kill-and-restart divergence check; return a process exit code.

    ``faults`` arms a :mod:`repro.serve.faults` plan for phase 1 (the
    phase 2 restart boots clean); ``expect`` lists failure-handling paths
    (:data:`EXPECTATIONS`) that must have been observed for the run to
    pass; ``report`` writes a JSON artifact of everything observed.

    ``history_interval`` enables the historical-analytics indexer in
    **both** phases and extends the contract: the phase-1 ``kill -9``
    lands mid-indexing and the restarted indexer must resume
    idempotently — after catch-up the cold store holds exactly one epoch
    per multiple of the interval (no duplicates, no gaps, checksums
    intact), a standalone ``python -m repro.history`` re-index changes
    nothing, and ``detect?asof=<phase-1 version>`` on the restarted
    server reproduces the pre-kill detection bit for bit.
    ``history_copy`` copies the final ``.sqlite`` out of the tempdir
    (the CI artifact).

    ``trace_sample`` enables end-to-end tracing (:mod:`repro.obs`) in both
    phases with the JSONL event log at ``<wal-dir>/events.jsonl``.  At a
    rate >= 1.0 the smoke additionally pins the observability contract:
    a bulk ingest's ``X-Repro-Trace-Id`` is retrievable from
    ``/debug/traces`` with queue-wait/WAL-append/engine-apply child spans
    and well-formed parenting, and the event log — which survives the
    server kill — holds the probe's trace id.  ``trace_log_copy`` copies
    the event log out of the tempdir (the CI artifact).
    """

    def say(message: str) -> None:
        if verbose:
            print(f"[smoke] {message}", flush=True)

    for expectation in expect or []:
        if expectation not in EXPECTATIONS:
            raise ValueError(
                f"unknown expectation {expectation!r}; valid: {', '.join(EXPECTATIONS)}"
            )

    observed: Dict[str, object] = {
        "degraded": False,
        "wal_corruption": None,
        "checkpoint_fallbacks": 0,
    }
    rows = _fraud_edges(events)
    mid = len(rows) // 2
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        wal_dir = Path(tmp) / "wal"
        config = {
            "semantics": "DW",
            "backend": "array",
            "serve": {
                "port": 0,
                "wal_dir": str(wal_dir),
                "fsync": True,
                "max_batch": 64,
                "checkpoint_interval": checkpoint_interval,
            },
        }
        if history_interval is not None:
            # Both phases index (resume across the kill is the point);
            # a fast poll keeps the catch-up wait below short.
            config["serve"]["history"] = {
                "epoch_interval": history_interval,
                "poll_ms": 50.0,
            }
        if trace_sample is not None:
            # Both phases trace; the event log accumulates across the kill.
            config["serve"]["obs"] = {
                "trace_sample": trace_sample,
                "slow_ms": 0.0,
                "trace_log": "auto",
            }
        # The fault plan is phase 1 only: the restart boots clean and has
        # to cope with whatever the faults left on disk.
        clean_path = Path(tmp) / "engine.json"
        clean_path.write_text(json.dumps(config), encoding="utf-8")
        if faults is not None:
            config["serve"]["faults"] = str(Path(faults).resolve())
            config_path = Path(tmp) / "engine-faulty.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
        else:
            config_path = clean_path

        # Phase 1: boot and ingest the first half (bulk + single mix).
        proc = _spawn(config_path)
        try:
            port = _wait_for_server(wal_dir, proc)
            say(f"phase 1 up on :{port}; ingesting {mid} events" + (
                f" under fault plan {faults}" if faults else ""
            ))
            index = 0
            while index < mid:
                if index % 97 == 0:  # sprinkle single-edge posts into the bulk flow
                    _post_edges(port, {
                        "src": rows[index][0], "dst": rows[index][1], "weight": rows[index][2],
                    }, say, observed)
                    index += 1
                else:
                    chunk = rows[index : index + 25]
                    _post_edges(port, {"edges": chunk}, say, observed)
                    index += len(chunk)
            status, mid_detect = _request(port, "GET", "/v1/detect")
            assert status == 200
            say(
                f"mid-stream detect at version {mid_detect['version']}: "
                f"|S|={len(mid_detect['community'])} g={mid_detect['density']:.4f}"
            )
            status, pre_kill_health = _request(port, "GET", "/healthz")
            assert status == 200
            if trace_sample is not None and trace_sample >= 1.0:
                _trace_probe(port, rows[:20], say, observed)
            resume_at = index
            source_failures = _detect_source_failures(port, "phase 1")
            # Kill without ceremony, mid-stream.
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            say("killed -9")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        # Phase 2: restart from WAL + checkpoint (always clean — the
        # on-disk damage is the input now), keep ingesting.
        proc = _spawn(clean_path)
        try:
            port = _wait_for_server(wal_dir, proc)
            status, health = _request(port, "GET", "/healthz")
            assert status == 200
            recovered_health = health
            observed["wal_corruption"] = health.get("wal_corruption")
            observed["checkpoint_fallbacks"] = int(health.get("checkpoint_fallbacks", 0))
            say(
                f"phase 2 recovered to version {health['version']} "
                f"({health['recovered_ops']} WAL ops replayed); ingesting the rest"
            )
            if observed["wal_corruption"]:
                say(f"recovery reported WAL corruption: {observed['wal_corruption']}")
            if observed["checkpoint_fallbacks"]:
                say(
                    f"recovery skipped {observed['checkpoint_fallbacks']} corrupt "
                    f"checkpoint(s) and replayed a longer WAL suffix"
                )
            index = resume_at
            while index < len(rows):
                chunk = rows[index : index + 25]
                status, _ = _request(port, "POST", "/v1/edges", {"edges": chunk})
                assert status == 200, f"post-recovery bulk post failed: {status}"
                index += len(chunk)
            status, final_detect = _request(port, "GET", "/v1/detect")
            assert status == 200
            status, final_communities = _request(port, "GET", "/v1/communities?limit=5")
            assert status == 200
            source_failures += _detect_source_failures(port, "phase 2")
            asof_failures: List[str] = []
            if history_interval is not None:
                # Wait for the background indexer to catch up to the last
                # due epoch boundary, then pin the time-travel contract.
                deadline = time.time() + 60
                hist: Dict[str, object] = {}
                head = 0
                while time.time() < deadline:
                    status, health = _request(port, "GET", "/healthz")
                    assert status == 200
                    hist = health.get("history") or {}
                    head = int(health.get("wal_seq", 0))
                    if hist.get("last_error"):
                        break
                    target = (head // history_interval) * history_interval
                    if int(hist.get("last_indexed_seq", -1)) >= target:
                        break
                    time.sleep(0.1)
                observed["history"] = hist
                if hist.get("last_error"):
                    asof_failures.append(f"indexer errored: {hist['last_error']}")
                target = (head // history_interval) * history_interval
                if int(hist.get("last_indexed_seq", -1)) < target:
                    asof_failures.append(
                        f"indexer never caught up: last_indexed="
                        f"{hist.get('last_indexed_seq')} < due boundary {target}"
                    )
                say(
                    f"indexer caught up: {hist.get('epochs_indexed')} epochs this "
                    f"process, last_indexed_seq={hist.get('last_indexed_seq')}, "
                    f"head={head}"
                )
                # Time travel across the crash: the restarted server must
                # reproduce the pre-kill detection bit for bit at its
                # version (skipped if chaos truncated that prefix).
                mid_version = int(mid_detect["version"])
                if observed["wal_corruption"] is None and mid_version <= head:
                    status, asof_detect = _request(
                        port, "GET", f"/v1/detect?asof={mid_version}"
                    )
                    if status != 200:
                        asof_failures.append(
                            f"asof={mid_version} answered {status}: {asof_detect}"
                        )
                    else:
                        for key in ("community", "density", "peel_index"):
                            if asof_detect[key] != mid_detect[key]:
                                asof_failures.append(
                                    f"asof={mid_version} {key} diverged from the "
                                    f"pre-kill detection: {asof_detect[key]!r} != "
                                    f"{mid_detect[key]!r}"
                                )
                        say(
                            f"time travel to pre-kill version {mid_version} is "
                            f"bit-identical across the crash"
                        )
                status, body = _request(port, "GET", f"/v1/detect?asof={head + 999}")
                if status != 400:
                    asof_failures.append(
                        f"asof beyond head answered {status}, want 400: {body}"
                    )
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=30)

        # Offline replay of the WAL — the acknowledged history and then some
        # (anything WAL-ed but unacked at the kill is still a valid prefix
        # of what the recovered server applied).  The final WAL must scan
        # clean even in chaos mode: phase 2's recovery truncated whatever
        # the faults corrupted, so leftover corruption here would mean the
        # server kept appending past a record it could never replay.
        ops, _offset, residual_corruption = scan_ops(WriteAheadLog.path_in(wal_dir))
        offline = SpadeClient(EngineConfig(semantics="DW", backend="array"))
        offline.load([])
        for _seq, op in ops:
            offline.apply([op])
        offline_report = offline.detect()
        offline_community = sorted(map(str, offline_report.vertices))
        offline_instances = [
            {
                "rank": instance.rank,
                "density": instance.density,
                "size": len(instance.vertices),
                "vertices": sorted(map(str, instance.vertices)),
            }
            for instance in offline.communities(max_instances=5)
        ]

        failures: List[str] = source_failures + asof_failures
        if residual_corruption is not None:
            failures.append(f"final WAL does not scan clean: {residual_corruption}")
        if final_detect["version"] != ops[-1][0]:
            failures.append(
                f"version {final_detect['version']} != last WAL seq {ops[-1][0]}"
            )
        if final_detect["community"] != offline_community:
            failures.append(
                f"community diverged:\n  served : {final_detect['community']}\n"
                f"  offline: {offline_community}"
            )
        if final_detect["density"] != offline_report.density:
            failures.append(
                f"density diverged: {final_detect['density']} != {offline_report.density}"
            )
        if final_detect["peel_index"] != offline_report.peel_index:
            failures.append(
                f"peel_index diverged: {final_detect['peel_index']} != {offline_report.peel_index}"
            )
        if final_communities["communities"] != offline_instances:
            failures.append("communities page diverged from offline enumeration")

        history_doc: Optional[Dict[str, object]] = None
        if history_interval is not None:
            # Cold-store audit with the servers gone: one epoch per due
            # interval multiple (no duplicates, no gaps — SQLite's PK plus
            # single-transaction appends across two processes and a
            # kill -9), every checksum intact, and a standalone re-index
            # is a no-op.
            import shutil

            from repro.history.store import HISTORY_FILENAME, HistoryStore

            db_path = wal_dir / HISTORY_FILENAME
            head_seq = ops[-1][0] if ops else 0
            expected_seqs = list(
                range(history_interval, head_seq + 1, history_interval)
            )
            with HistoryStore(db_path) as store:
                seqs_before = store.epoch_seqs()
                corrupt = [s for s in seqs_before if not store.verify_epoch(s)]
            if seqs_before != expected_seqs:
                failures.append(
                    f"epoch ledger wrong: {seqs_before} != every multiple of "
                    f"{history_interval} up to {head_seq} ({expected_seqs})"
                )
            if corrupt:
                failures.append(f"epoch checksums failed verification: {corrupt}")
            env = dict(os.environ)
            src = str(Path(__file__).resolve().parents[2])
            env["PYTHONPATH"] = src + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            reindex = subprocess.run(
                [
                    sys.executable, "-m", "repro.history",
                    "--wal-dir", str(wal_dir),
                    # The deployment's own config: epochs must be
                    # enumerated under the same semantics/knobs or the
                    # store's meta guard refuses (by design).
                    "--config", str(clean_path),
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            if reindex.returncode != 0:
                failures.append(
                    f"standalone re-index exited {reindex.returncode}: "
                    f"{reindex.stderr.strip()}"
                )
            with HistoryStore(db_path) as store:
                seqs_after = store.epoch_seqs()
            if seqs_after != seqs_before:
                failures.append(
                    f"standalone re-index was not idempotent: "
                    f"{len(seqs_before)} epochs -> {len(seqs_after)}"
                )
            else:
                say(
                    f"cold store intact: {len(seqs_before)} epochs, one per "
                    f"multiple of {history_interval}, re-index idempotent"
                )
            history_doc = {
                "db_path": str(db_path),
                "epoch_interval": history_interval,
                "epochs": len(seqs_before),
                "head_seq": head_seq,
                "reindex_idempotent": seqs_after == seqs_before,
                "observed": observed.get("history"),
            }
            if history_copy is not None:
                shutil.copy(db_path, history_copy)
                say(f"cold store copied to {history_copy}")

        trace_doc_out: Optional[Dict[str, object]] = None
        if trace_sample is not None:
            # The event log is append-only JSONL in the WAL directory: it
            # survives the phase-1 kill -9 and accumulates across both
            # processes.  The probe's trace id must be in it.
            from repro.obs.events import read_events

            events_path = wal_dir / "events.jsonl"
            records: List[Dict[str, object]] = []
            if events_path.exists():
                records, _ = read_events(events_path)
            else:
                failures.append(f"event log missing: {events_path}")
            if trace_sample >= 1.0:
                probe_id = (observed.get("trace") or {}).get("trace_id")  # type: ignore[union-attr]
                if probe_id and not any(
                    record.get("trace_id") == probe_id for record in records
                ):
                    failures.append(
                        f"probe trace {probe_id} is not in the event log "
                        f"({len(records)} records)"
                    )
            trace_doc_out = {
                "trace_sample": trace_sample,
                "event_log_records": len(records),
                "observed": observed.get("trace"),
            }
            say(f"event log holds {len(records)} records across both phases")
            if trace_log_copy is not None and events_path.exists():
                import shutil

                shutil.copy(events_path, trace_log_copy)
                say(f"event log copied to {trace_log_copy}")

        # A fault plan must actually exercise the path it was written for;
        # a mistuned plan that injects nothing observable is a CI bug.
        satisfied = {
            "degraded": bool(observed["degraded"]),
            "wal-corruption": observed["wal_corruption"] is not None,
            "checkpoint-fallback": int(observed["checkpoint_fallbacks"]) >= 1,
        }
        for expectation in expect or []:
            if not satisfied[expectation]:
                failures.append(
                    f"expected failure path {expectation!r} was never observed "
                    f"(observed: {observed})"
                )

        if report is not None:
            report_doc = {
                "events": events,
                "checkpoint_interval": checkpoint_interval,
                "faults": faults,
                "expect": list(expect or []),
                "observed": observed,
                "phase1_health": pre_kill_health,
                "phase2_health": recovered_health,
                "wal_ops": len(ops),
                "community_size": len(offline_community),
                "density": offline_report.density,
                "history": history_doc,
                "tracing": trace_doc_out,
                "failures": failures,
                "ok": not failures,
            }
            Path(report).write_text(
                json.dumps(report_doc, indent=2, default=str) + "\n", encoding="utf-8"
            )
            say(f"report written to {report}")

        if failures:
            for failure in failures:
                print(f"[smoke] FAIL: {failure}", file=sys.stderr, flush=True)
            return 1
        say(
            f"OK: recovery is bit-identical to the offline replay of "
            f"{len(ops)} WAL ops (|S|={len(offline_community)}, "
            f"g={offline_report.density:.6f})"
        )
        return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.smoke",
        description="Kill -9 / recovery divergence check for repro.serve.",
    )
    parser.add_argument("--events", type=int, default=600)
    parser.add_argument("--checkpoint-interval", type=int, default=150)
    parser.add_argument(
        "--faults",
        default=None,
        help="fault-injection plan JSON armed for phase 1 (repro.serve.faults)",
    )
    parser.add_argument(
        "--expect",
        action="append",
        default=None,
        choices=EXPECTATIONS,
        help="failure-handling path the run must observe (repeatable)",
    )
    parser.add_argument(
        "--report",
        default=None,
        help="write a JSON report of everything observed to this path",
    )
    parser.add_argument(
        "--history-interval",
        type=int,
        default=None,
        help="enable the historical-analytics indexer (both phases) and audit "
        "idempotent resume + time travel across the kill",
    )
    parser.add_argument(
        "--history-copy",
        default=None,
        help="copy the final cold-store .sqlite to this path (CI artifact)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        help="enable end-to-end tracing at this sample rate (both phases); "
        ">= 1.0 additionally pins the header -> /debug/traces -> event-log "
        "contract",
    )
    parser.add_argument(
        "--trace-log-copy",
        default=None,
        help="copy the final events.jsonl to this path (CI artifact)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    return run_smoke(
        events=args.events,
        checkpoint_interval=args.checkpoint_interval,
        verbose=not args.quiet,
        faults=args.faults,
        expect=args.expect,
        report=args.report,
        history_interval=args.history_interval,
        history_copy=args.history_copy,
        trace_sample=args.trace_sample,
        trace_log_copy=args.trace_log_copy,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
