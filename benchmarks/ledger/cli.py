"""Command line of the serving benchmark (see README.md).

Two ways in:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one run of
  one workload, the form ``BENCHMARK.json`` names.  The last line of
  standard output is the result object the contract asks for: the
  end-to-end metrics with ``--trace 0``, the per-layer metrics with
  ``--trace 1``.
* ``run.py [--seed 42] [--quick] [--traced] [--aa N]`` — the whole suite
  for a person: every metric by name with unit, sample count and bound;
  ``--traced`` adds the per-layer table; ``--aa N`` repeats the suite on
  the same code and seed and writes ``NOISE.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import harness, layers, workloads
from .inputs import Scale
from .workloads import END_TO_END, WORKLOADS, Context, Metric, Outcome

HERE = Path(__file__).resolve().parent
DEFAULT_SECONDS = 12.0  # BENCHMARK.json's run_seconds (test_ledger.py keeps them equal)
QUICK_SECONDS = 1.0
#: A run whose host pace is this much slower than the best this checkout has
#: seen was taken on a disturbed host (README.md, "Noise") and is repeated once.
DISTURBED = 1.7
PACE_FILE = harness.BUILD_DIR / "pace.json"
TRACED_SHARE = 1 / 3  # a traced run is a third as long: it only feeds ungated numbers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks/ledger/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload, print one result object")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None, help="timed traffic per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = traced server + layer probe, per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="2k/12k scale, short windows (smoke only)")
    parser.add_argument("--traced", action="store_true", help="suite: add the per-layer table")
    parser.add_argument("--aa", type=int, nargs="?", const=5, default=0, metavar="N",
                        help="suite: run N times (default 5) on the same seed, report spreads")
    return parser


def _context(args: argparse.Namespace, run: harness.RunDir, traced: bool) -> Context:
    seconds = args.seconds if args.seconds is not None else (QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    ctx = Context(Scale.named("quick" if args.quick else "full"), args.seed, seconds, run)
    if args.quick:
        ctx.setup_repeats, ctx.warmup_s = 1, 0.3
    if traced:
        ctx.seconds, ctx.setup_repeats = max(seconds * TRACED_SHARE, QUICK_SECONDS), 1
        ctx.on_live = layers.scrape_live
    return ctx


def run_one(args: argparse.Namespace, name: str, traced: bool):
    """One workload in a fresh run directory; returns ``(outcome, layer metrics)``."""
    began = time.perf_counter()
    with harness.RunDir.create() as run:
        ctx = _context(args, run, traced)
        outcome = workloads.run_workload(name, ctx)
        table = layers.collect(ctx, outcome) if traced else {}
    outcome.wall_s = time.perf_counter() - began
    return outcome, table


def measure(args: argparse.Namespace, name: str, traced: bool):
    """``run_one``, repeated once if the host was disturbed while it ran.

    The sandbox has episodes, minutes long, in which everything runs 2-3x
    slower.  They are recognised by ``harness.host_pace`` — a fixed loop in
    this process, timed between the workload's phases — against the best
    pace any run in this checkout has recorded, never by the metrics
    themselves; of the two attempts the one with the calmer host is kept.
    """
    def attempt():
        outcome, table = run_one(args, name, traced)
        return harness.median(outcome.pace), outcome, table

    try:
        best = float(json.loads(PACE_FILE.read_text())["best_s"])
    except (OSError, ValueError, KeyError):
        best = float("inf")
    first = attempt()
    kept = first
    if first[0] > DISTURBED * best and first[1].correct:  # a failed check is reported, not retried
        print(f"host disturbed (pace x{first[0] / best:.2f} of this checkout's best): measuring again")
        kept = min(first, attempt(), key=lambda a: a[0])
    PACE_FILE.write_text(json.dumps({"best_s": min(best, kept[0])}))
    return kept[1], kept[2]


def _result_line(outcome: Outcome, metrics: Dict[str, Metric]) -> str:
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()},
    })


def _print_outcome(outcome: Outcome) -> None:
    print(f"\n== {outcome.workload} (seed {outcome.seed}) — {WORKLOADS[outcome.workload]}")
    for name, (unit, better, bound) in END_TO_END.items():
        m = outcome.metrics.get(name)
        shown = f"{m.value:14.4f} {m.unit:<4} n={m.n:<7}" if m else f"{'missing':>14}"
        print(f"  {name:<26}{shown} bound {bound:.0%} ({better} is better)")
    for name, m in outcome.extras.items():
        print(f"  {name:<26}{m.value:14.4f} {m.unit:<4} n={m.n:<7} ungated")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'failed_share':<26}{share:14.6f}      n={outcome.attempted:<7} bound: any increase")
    if outcome.lateness_ms:
        print(f"  generator lateness p50 {harness.median(outcome.lateness_ms):.4f} ms, "
              f"p99 {harness.percentile(outcome.lateness_ms, 99):.4f} ms"
              + ("" if outcome.valid else "  ** INVALID RUN: generator ran late **"))
    for failure in outcome.failures:
        print(f"  FAILED {failure}")
    print(f"  kernel active: {outcome.kernel}; host pace {harness.median(outcome.pace) * 1e3:.2f} ms; "
          f"whole run {outcome.wall_s:.1f} s")


def _print_layers(outcome: Outcome, table: Dict[str, Metric]) -> None:
    print(f"\n-- per-layer, {outcome.workload} (traced run; reported, never gated; -1 = no sample)")
    for metric, m in table.items():
        why = f"  null: {outcome.unavailable[metric]}" if metric in outcome.unavailable else ""
        print(f"  {metric:<44}{m.value:14.4f} {m.unit:<6} n={m.n}{why}")


def suite(args: argparse.Namespace) -> Dict[str, Outcome]:
    outcomes: Dict[str, Outcome] = {}
    for name in WORKLOADS:
        outcomes[name], _ = measure(args, name, traced=False)
        _print_outcome(outcomes[name])
    if args.traced:
        for name in WORKLOADS:
            traced, table = measure(args, name, traced=True)
            base = outcomes[name].metrics["cpu_ms_per_event"].value
            table["obs.tracing_cpu_overhead_pct"] = Metric(
                (table["obs.traced_cpu_ms_per_event"].value / base - 1.0) * 100.0, "%", 1
            )
            _print_layers(traced, table)
            outcomes[name].failures += [f"(traced) {f}" for f in traced.failures]
            outcomes[name].failed += traced.failed
            outcomes[name].attempted += traced.attempted
    return outcomes


def noise(args: argparse.Namespace) -> int:
    """A/A: the same code and seed ``--aa`` times; spreads against the bounds."""
    rounds: List[Dict[str, Outcome]] = [suite(args) for _ in range(args.aa)]
    report: Dict[str, object] = {
        "seed": args.seed, "rounds": args.aa, "scale": "quick" if args.quick else "full",
        "host": harness.host_fingerprint(), "claim": None, "workloads": {},
    }
    ok = all(o.correct for r in rounds for o in r.values())
    print(f"\n== A/A over {args.aa} rounds, seed {args.seed}: median, IQR, IQR/median vs. bound")
    for name in WORKLOADS:
        rows: Dict[str, object] = {}
        for metric, (unit, _better, bound) in END_TO_END.items():
            values = [r[name].metrics[metric].value for r in rounds]
            spread = harness.iqr_share(values) if len(values) > 1 else 0.0
            within = spread <= bound or metric == "setup_s"
            ok &= within
            rows[metric] = {"unit": unit, "values": values, "median": harness.median(values),
                            "iqr_share": spread, "bound": bound, "within": within}
            print(f"  {name:<15}{metric:<26}{harness.median(values):12.4f} {unit:<4}"
                  f" spread {spread:6.1%} bound {bound:4.0%} {'ok' if within else 'EXCEEDED'}")
        late = [harness.percentile(r[name].lateness_ms, 99) for r in rounds if r[name].lateness_ms]
        rows["generator_lateness_p99_ms"] = late
        rows["valid"] = all(r[name].valid for r in rounds)
        ok &= bool(rows["valid"])
        report["workloads"][name] = rows
    (HERE / "NOISE.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {HERE / 'NOISE.json'}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (harness.SRC_DIR / "repro").is_dir():
        print(f"error: {harness.SRC_DIR / 'repro'} not found — the benchmark drives the "
              "repository's own server and needs its sources", file=sys.stderr)
        return 2
    began = time.perf_counter()
    if args.workload:
        outcome, table = measure(args, args.workload, traced=bool(args.trace))
        _print_outcome(outcome)
        if args.trace:
            _print_layers(outcome, table)
        print(f"host {json.dumps(harness.host_fingerprint())}")
        print(_result_line(outcome, table if args.trace else outcome.metrics))
        return 0 if outcome.correct and outcome.valid else 1
    if args.aa:
        return noise(args)
    outcomes = suite(args)
    print(f"\nhost {json.dumps(harness.host_fingerprint())}; claim: null; "
          f"{time.perf_counter() - began:.1f} s")
    return 0 if all(o.correct and o.valid for o in outcomes.values()) else 1
