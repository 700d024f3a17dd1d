"""Time-travel and cold-store bench: as-of latency and indexer throughput.

Builds one durable deployment (WAL + checkpoints) from the fig10-style
workload generator, then measures the two hot paths of
:mod:`repro.history` into ``BENCH_history.json``:

* ``asof`` — cold versus cached ``GET /v1/detect?asof=SEQ`` latency.  A
  cold read pays checkpoint load + WAL-suffix replay + freeze
  (:meth:`AsofService.state_at` with an empty cache); a cached read is
  an LRU hit on the frozen snapshot.  The sample sequences are spread
  evenly across the WAL, so the cold numbers average short and long
  replay suffixes the way a forensic workload would;
* ``indexer`` — epochs/s for a full catch-up :meth:`HistoryIndexer.step`
  over the same WAL (reconstruct + enumerate + SQLite append per epoch),
  plus the no-op resume step that proves idempotency costs one WAL tail
  scan, not a re-index.

The server only runs while the WAL is being produced; both measured
phases read the finished directory, so the numbers are pure history-path
cost.  ``--quick`` shrinks the workload for CI; ``--check`` asserts the
cache actually pays (cached p50 strictly below cold p50) and that the
indexer makes progress.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro._version import __version__
from repro.api.config import EngineConfig
from repro.bench.backend_bench import (
    DEFAULT_INITIAL_EDGES,
    DEFAULT_VERTICES,
    QUICK_INITIAL_EDGES,
    QUICK_VERTICES,
    generate_stream,
)
from repro.bench.serve_bench import _AppThread, _ingest_bulk, _percentile
from repro.history.asof import AsofService
from repro.history.config import HistoryConfig
from repro.history.indexer import HistoryIndexer, resolve_db_path
from repro.history.store import HistoryStore
from repro.serve.app import ServeApp
from repro.serve.config import ServeConfig

__all__ = ["run_history_bench", "main"]


def _sample_seqs(head: int, samples: int) -> List[int]:
    """``samples`` distinct sequences spread evenly across ``[1, head]``."""
    if head < 1:
        return []
    count = min(samples, head)
    return sorted({max(1, round(head * (i + 1) / count)) for i in range(count)})


def run_history_bench(
    num_vertices: int = DEFAULT_VERTICES,
    num_initial: int = DEFAULT_INITIAL_EDGES,
    num_increments: int = 2000,
    seed: int = 42,
    bulk_size: int = 50,
    checkpoint_interval: int = 500,
    epoch_interval: int = 4,
    asof_samples: int = 8,
) -> Dict[str, object]:
    """Produce one WAL, then measure as-of reads and the indexer over it."""
    initial, increments = generate_stream(num_vertices, num_initial, num_increments, seed)
    initial = [(f"v{s}", f"v{d}", w) for s, d, w in initial]
    increments = [(f"v{s}", f"v{d}", w) for s, d, w in increments]

    wal_tmp = Path(tempfile.mkdtemp(prefix="repro-history-bench-"))
    config = EngineConfig(
        semantics="DW",
        backend="array",
        serve=ServeConfig(
            port=0,
            wal_dir=str(wal_tmp),
            fsync=False,
            max_batch=256,
            max_delay_ms=2.0,
            checkpoint_interval=checkpoint_interval,
        ),
    )
    failures: List[str] = []
    try:
        # Phase 0 (unmeasured): produce the WAL + checkpoints over the wire.
        runner = _AppThread(ServeApp(config, initial_edges=initial))
        port = runner.start()
        try:
            _, ingest_failures = _ingest_bulk(port, increments, bulk_size)
            failures.extend(ingest_failures)
        finally:
            runner.stop()

        # Phase 1: cold as-of reads.  A cache large enough to hold every
        # sample means each sequence is reconstructed exactly once cold.
        service = AsofService(config, cache_size=asof_samples + 1)
        head = service.head_seq()
        seqs = _sample_seqs(head, asof_samples)
        cold: List[float] = []
        for seq in seqs:
            began = time.perf_counter()
            service.state_at(seq, head)
            cold.append(time.perf_counter() - began)

        # Phase 2: the same sequences again — every read is an LRU hit.
        cached: List[float] = []
        for seq in seqs:
            began = time.perf_counter()
            service.state_at(seq, head)
            cached.append(time.perf_counter() - began)
        if service.hits != len(seqs):
            failures.append(
                f"expected {len(seqs)} cache hits, observed {service.hits}"
            )

        # Phase 3: full indexer catch-up over the same WAL, then the no-op
        # resume step a restarted indexer performs.
        history = HistoryConfig(epoch_interval=epoch_interval)
        indexer = HistoryIndexer(wal_tmp, history, config=config)
        began = time.perf_counter()
        report = indexer.step()
        index_seconds = time.perf_counter() - began
        began = time.perf_counter()
        resume_report = HistoryIndexer(wal_tmp, history, config=config).step()
        resume_seconds = time.perf_counter() - began
        if resume_report["new_epochs"] != 0:
            failures.append(
                f"resume step indexed {resume_report['new_epochs']} epochs, expected 0"
            )
        with HistoryStore(resolve_db_path(wal_tmp, history)) as store:
            db_stats = store.stats()
    finally:
        shutil.rmtree(wal_tmp, ignore_errors=True)

    cold_p50 = _percentile(cold, 0.50)
    cached_p50 = _percentile(cached, 0.50)
    epochs = int(report["new_epochs"])
    return {
        "bench": "history",
        "version": __version__,
        "workload": {
            "num_vertices": num_vertices,
            "num_initial": num_initial,
            "num_increments": num_increments,
            "seed": seed,
            "semantics": "DW",
            "backend": "array",
            "bulk_size": bulk_size,
            "checkpoint_interval": checkpoint_interval,
            "epoch_interval": epoch_interval,
            "wal_head_seq": head,
        },
        "asof": {
            "samples": len(seqs),
            "sample_seqs": seqs,
            "cold_p50_ms": round(cold_p50 * 1e3, 3),
            "cold_mean_ms": round(sum(cold) / len(cold) * 1e3, 3) if cold else 0.0,
            "cold_max_ms": round(max(cold) * 1e3, 3) if cold else 0.0,
            "cached_p50_ms": round(cached_p50 * 1e3, 3),
            "cached_mean_ms": round(sum(cached) / len(cached) * 1e3, 3)
            if cached
            else 0.0,
            "cache_speedup": round(cold_p50 / cached_p50, 1) if cached_p50 else 0.0,
        },
        "indexer": {
            "epochs": epochs,
            "last_indexed_seq": report["last_indexed_seq"],
            "seconds": round(index_seconds, 4),
            "epochs_per_s": round(epochs / index_seconds, 2) if index_seconds else 0.0,
            "resume_seconds": round(resume_seconds, 4),
            "resume_new_epochs": resume_report["new_epochs"],
            "store": db_stats,
        },
        "failures": failures,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.history_bench",
        description="As-of read latency and cold-store indexer throughput bench.",
    )
    parser.add_argument("--quick", action="store_true", help="small CI workload")
    parser.add_argument("--vertices", type=int, default=None)
    parser.add_argument("--initial", type=int, default=None)
    parser.add_argument("--increments", type=int, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--bulk-size", type=int, default=50)
    parser.add_argument("--checkpoint-interval", type=int, default=None)
    parser.add_argument("--epoch-interval", type=int, default=None)
    parser.add_argument("--asof-samples", type=int, default=8)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the as-of cache beats cold reconstruction "
        "and the indexer recorded at least one epoch",
    )
    parser.add_argument("--output", type=Path, default=Path("BENCH_history.json"))
    args = parser.parse_args(argv)

    if args.quick:
        vertices = args.vertices or QUICK_VERTICES
        initial = args.initial or QUICK_INITIAL_EDGES
        increments = args.increments or 600
        checkpoint_interval = args.checkpoint_interval or 200
        epoch_interval = args.epoch_interval or 3
    else:
        vertices = args.vertices or DEFAULT_VERTICES
        initial = args.initial or DEFAULT_INITIAL_EDGES
        increments = args.increments or 2000
        checkpoint_interval = args.checkpoint_interval or 500
        epoch_interval = args.epoch_interval or 4

    report = run_history_bench(
        num_vertices=vertices,
        num_initial=initial,
        num_increments=increments,
        seed=args.seed,
        bulk_size=args.bulk_size,
        checkpoint_interval=checkpoint_interval,
        epoch_interval=epoch_interval,
        asof_samples=args.asof_samples,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    asof = report["asof"]
    indexer = report["indexer"]
    print(
        f"asof: cold p50 {asof['cold_p50_ms']} ms (max {asof['cold_max_ms']} ms), "
        f"cached p50 {asof['cached_p50_ms']} ms "
        f"({asof['cache_speedup']}x) over {asof['samples']} samples | "
        f"indexer: {indexer['epochs']} epochs in {indexer['seconds']} s "
        f"({indexer['epochs_per_s']} epochs/s), "
        f"resume {indexer['resume_seconds']} s"
    )
    failures = report["failures"]
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if args.check:
        if indexer["epochs"] < 1:
            print("FAIL: the indexer recorded no epochs", file=sys.stderr)
            return 1
        if asof["cached_p50_ms"] >= asof["cold_p50_ms"]:
            print(
                f"FAIL: cached as-of p50 {asof['cached_p50_ms']} ms did not beat "
                f"cold p50 {asof['cold_p50_ms']} ms",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
