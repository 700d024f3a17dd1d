"""Figure 11 — elapsed time and latency as the batch size grows.

Figure 11 sweeps the batch size from 1 to 1000 on the Grab datasets and
plots (a–c) the average per-edge elapsed time and (d–f) the normalised
latency per algorithm.  The expected shape: per-edge time falls as batches
grow (stale reorderings are avoided), while latency rises because edges
queue while the batch fills.
"""

from __future__ import annotations

from repro.bench.harness import (
    ExperimentConfig,
    ExperimentResult,
    build_engine,
    config_from_args,
    load_dataset,
    save_result,
    standard_argument_parser,
)
from repro.graph.backend import get_default_backend
from repro.streaming.policies import BatchPolicy, PerEdgePolicy
from repro.streaming.replay import replay_stream

__all__ = ["run"]

FULL_SWEEP = [1, 10, 50, 100, 200, 500, 1000]
QUICK_SWEEP = [1, 10, 50, 100]


def run(config: ExperimentConfig) -> ExperimentResult:
    """Sweep batch sizes on the Grab datasets and record E and L.

    Honours ``--backend dict|array`` for the engines; the batching paths
    are backend-generic, so the sweep doubles as a backend comparison when
    run once per backend.
    """
    backend = config.backend or get_default_backend()
    result = ExperimentResult(
        experiment="fig11",
        description="elapsed time and latency vs batch size (Figure 11)",
        columns=[
            "dataset",
            "algorithm",
            "backend",
            "batch size",
            "E (us/edge)",
            "mean latency (stream s)",
            "queueing share",
        ],
    )
    sweep = QUICK_SWEEP if config.quick else FULL_SWEEP
    datasets = config.grab_datasets() or list(config.datasets)
    for name in datasets:
        dataset = load_dataset(name, seed=config.seed)
        truth = dataset.fraud_community_map()
        limit = config.max_increments or len(dataset.increments)
        stream = dataset.increments[: min(limit, len(dataset.increments))]
        for algo, semantics in config.semantics_instances():
            for size in sweep:
                spade = build_engine(dataset, semantics, config=config.engine_config(algo))
                policy = PerEdgePolicy() if size == 1 else BatchPolicy(size)
                report = replay_stream(spade, stream, policy, fraud_communities=truth)
                metrics = report.metrics
                result.add_row(
                    **{
                        "dataset": name,
                        "algorithm": algo,
                        "backend": backend,
                        "batch size": size,
                        "E (us/edge)": round(metrics.mean_elapsed_per_edge * 1e6, 2),
                        "mean latency (stream s)": round(metrics.mean_latency, 4),
                        "queueing share": round(metrics.queueing_share, 4),
                    }
                )
    result.add_note(
        "E decreases with the batch size (stale reorderings avoided) while latency "
        "increases and is dominated by queueing time, matching Figure 11 and the "
        "99.99% queueing observation of Section 5.2."
    )
    if config.shards > 1:
        result.add_note(
            f"sharded engine ({config.shards} shards): the per-flush detection is "
            "the exact merged coordinator pass (a global peel), which dominates E "
            "at small batch sizes."
        )
    return result


def main() -> None:
    """CLI entry point."""
    parser = standard_argument_parser("Reproduce Figure 11 (batch-size sweep)")
    config = config_from_args(parser.parse_args())
    result = run(config)
    print(result.to_text())
    save_result(result, config)


if __name__ == "__main__":
    main()
