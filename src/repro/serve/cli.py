"""``python -m repro.serve``: run one deployment from one JSON document.

Usage::

    python -m repro.serve --config engine.json --port 8080

``engine.json`` is an :class:`~repro.api.EngineConfig` dict, optionally
carrying a nested ``"serve"`` section; CLI flags override the serving
knobs so the same config file works across environments.  The initial
graph comes from ``--load`` (a ``.jsonl`` update stream or a whitespace
edgelist) on first boot only — once a WAL directory has a checkpoint, the
server always recovers from checkpoint + WAL and ``--load`` is ignored.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional

from repro.api.config import EngineConfig
from repro.native import VALID_KERNELS
from repro.serve.app import ServeApp
from repro.serve.config import ServeConfig

__all__ = ["main", "build_parser", "load_initial_edges"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a Spade detection engine over HTTP.",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        help="EngineConfig JSON file (may embed a 'serve' section)",
    )
    parser.add_argument("--host", default=None, help="listen address override")
    parser.add_argument("--port", type=int, default=None, help="listen port override (0 = OS-assigned)")
    parser.add_argument("--wal-dir", default=None, help="durability directory override")
    parser.add_argument(
        "--no-fsync",
        action="store_true",
        help="do not fsync WAL appends (faster, crash-durable only)",
    )
    parser.add_argument(
        "--kernel",
        choices=VALID_KERNELS,
        default=None,
        help="hot-loop implementation (native = compiled C kernels, fails loud; "
        "auto = native when available, python fallback)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help="fault-injection plan JSON (repro.serve.faults) — chaos testing only",
    )
    parser.add_argument(
        "--history-db",
        default=None,
        help="enable the historical-analytics indexer, writing epochs to this "
        "SQLite file ('auto' = <wal-dir>/history.sqlite)",
    )
    parser.add_argument(
        "--epoch-interval",
        type=int,
        default=None,
        help="WAL sequences between cold-store detection epochs (default 64; "
        "implies --history-db auto)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        help="fraction of requests traced end-to-end (0 disables spans, "
        "1 traces everything; default 0.1)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="always record requests slower than this many ms, even when "
        "the sampler skipped them (0 disables; default 250)",
    )
    parser.add_argument(
        "--trace-log",
        default=None,
        help="JSONL trace event log destination ('auto' = <wal-dir>/events.jsonl; "
        "inspect with python -m repro.obs tail)",
    )
    parser.add_argument(
        "--load",
        type=Path,
        default=None,
        help="initial edges (.jsonl stream or whitespace edgelist); first boot only",
    )
    return parser


def load_initial_edges(path: Path) -> List[tuple]:
    """Read initial ``(src, dst, weight)`` transactions from a file."""
    if path.suffix == ".jsonl":
        from repro.storage.jsonl import read_stream

        return [(e.src, e.dst, e.weight) for e in read_stream(path)]
    from repro.storage.edgelist import read_edgelist

    return list(read_edgelist(path))


def _resolve_config(args: argparse.Namespace) -> EngineConfig:
    if args.config is not None:
        with args.config.open("r", encoding="utf-8") as handle:
            config = EngineConfig.from_dict(json.load(handle))
    else:
        config = EngineConfig()
    serve = config.serve if config.serve is not None else ServeConfig()
    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if args.wal_dir is not None:
        overrides["wal_dir"] = args.wal_dir
    if args.no_fsync:
        overrides["fsync"] = False
    if args.faults is not None:
        overrides["faults"] = args.faults
    if args.history_db is not None or args.epoch_interval is not None:
        from repro.history.config import HistoryConfig

        history = serve.history if serve.history is not None else HistoryConfig()
        if args.history_db is not None and args.history_db != "auto":
            history = history.replace(db_path=args.history_db)
        if args.epoch_interval is not None:
            history = history.replace(epoch_interval=args.epoch_interval)
        overrides["history"] = history
    if (
        args.trace_sample is not None
        or args.slow_ms is not None
        or args.trace_log is not None
    ):
        obs = serve.obs
        if args.trace_sample is not None:
            obs = obs.replace(trace_sample=args.trace_sample)
        if args.slow_ms is not None:
            obs = obs.replace(slow_ms=args.slow_ms)
        if args.trace_log is not None:
            obs = obs.replace(trace_log=args.trace_log)
        overrides["obs"] = obs
    if overrides:
        serve = serve.replace(**overrides)
    config = config.replace(serve=serve)
    if args.kernel is not None:
        config = config.replace(kernel=args.kernel)
    return config


async def _run(config: EngineConfig, load: Optional[Path]) -> None:
    # Read here and held by no name, so the edge list is freed once the
    # initial graph is built instead of living as long as the server.
    app = ServeApp(
        config, initial_edges=load_initial_edges(load) if load is not None else None
    )
    await app.start()
    print(
        f"repro.serve listening on http://{app.serve_config.host}:{app.server.port} "
        f"(semantics={app.client.semantics.name}, backend={app.client.backend}, "
        f"shards={app.client.shards}, kernel={app.active_kernel}, "
        f"recovered_ops={app.recovered_ops})",
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signame in ("SIGINT", "SIGTERM"):
        try:
            loop.add_signal_handler(getattr(signal, signame), stop.set)
        except (NotImplementedError, AttributeError):  # pragma: no cover - win
            pass
    try:
        await stop.wait()
    finally:
        await app.stop()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = _resolve_config(args)
    try:
        asyncio.run(_run(config, args.load))
    except KeyboardInterrupt:  # pragma: no cover - interactive convenience
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
