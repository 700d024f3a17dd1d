"""Shared experiment configuration and helpers.

Every experiment module consumes an :class:`ExperimentConfig` (which
datasets, which semantics, how many increments, quick vs full scale) and
produces an :class:`ExperimentResult` (rows + free-form notes) that can be
rendered with :mod:`repro.bench.tables` and persisted next to the generated
data with :func:`save_result`.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.config import EngineConfig
from repro.config import SEMANTICS_FACTORIES, VALID_BACKENDS, validate_config
from repro.engine import DetectionEngine
from repro.errors import ConfigError
from repro.peeling.semantics import PeelingSemantics
from repro.workloads.datasets import Dataset, generate_dataset

__all__ = [
    "SEMANTICS_FACTORIES",
    "ExperimentConfig",
    "ExperimentResult",
    "build_engine",
    "load_dataset",
    "save_result",
    "standard_argument_parser",
    "static_peel_fn",
    "config_from_args",
]

#: Benchmark-scale and test-scale dataset groups.
FULL_DATASETS = ["grab1", "grab2", "grab3", "grab4", "amazon", "wiki-vote", "epinion"]
QUICK_DATASETS = ["grab1-small", "grab2-small", "amazon-small", "wiki-vote-small"]
FULL_GRAB = ["grab1", "grab2", "grab3", "grab4"]
QUICK_GRAB = ["grab1-small", "grab2-small"]
#: Static-peel methods for the from-scratch baselines (``--static``).
STATIC_METHODS = ("heap", "csr")


@dataclass
class ExperimentConfig:
    """Configuration shared by every experiment runner."""

    #: Datasets to run on (names from the registry).
    datasets: Sequence[str] = field(default_factory=lambda: list(FULL_DATASETS))
    #: Peeling algorithms to compare.
    semantics: Sequence[str] = field(default_factory=lambda: ["DG", "DW", "FD"])
    #: Cap on the number of replayed increments per configuration
    #: (None = replay everything the dataset provides).
    max_increments: Optional[int] = None
    #: Batch sizes for the batching experiments.
    batch_sizes: Sequence[int] = field(default_factory=lambda: [1, 10, 100, 1000, 10000])
    #: RNG seed forwarded to the dataset generators.
    seed: int = 0
    #: Where results are written (tables + JSON); None disables persistence.
    output_dir: Optional[Path] = None
    #: Quick mode: small datasets, few increments — used by pytest targets.
    quick: bool = False
    #: Graph backend for the engines ("dict" / "array"); None = process default.
    backend: Optional[str] = None
    #: Static-peel method for the baselines: "heap" (Algorithm 1 over the
    #: mutable graph) or "csr" (vectorised peel over a frozen CSR snapshot).
    static: str = "heap"
    #: Number of shard engines (1 = single-engine Spade; > 1 builds a
    #: ShardedSpade partitioned over that many shards).
    shards: int = 1

    @classmethod
    def quick_config(cls, **overrides) -> "ExperimentConfig":
        """A configuration sized for CI and pytest-benchmark runs."""
        config = cls(
            datasets=list(QUICK_DATASETS),
            max_increments=300,
            batch_sizes=[1, 10, 100],
            quick=True,
        )
        for key, value in overrides.items():
            setattr(config, key, value)
        return config

    def grab_datasets(self) -> List[str]:
        """Return only the Grab-family datasets of this configuration."""
        return [name for name in self.datasets if name.startswith("grab")]

    def semantics_instances(self) -> List[Tuple[str, PeelingSemantics]]:
        """Instantiate the configured semantics."""
        return [(name, SEMANTICS_FACTORIES[name]()) for name in self.semantics]

    def engine_config(
        self, semantics: str = "DG", edge_grouping: bool = False
    ) -> EngineConfig:
        """Export this experiment's engine knobs as a public-API config.

        The one bridge between the experiment harness and engine
        construction: every experiment builds its engines through the
        :class:`~repro.api.EngineConfig` this returns (validated once,
        round-trippable through JSON next to the result tables).
        """
        return EngineConfig(
            semantics=semantics,
            backend=self.backend,
            shards=self.shards,
            edge_grouping=edge_grouping,
        )


@dataclass
class ExperimentResult:
    """Rows plus notes produced by one experiment runner."""

    experiment: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    columns: Optional[Sequence[str]] = None

    def add_row(self, **values: object) -> None:
        """Append one result row."""
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        """Append a free-form observation."""
        self.notes.append(note)

    def to_text(self) -> str:
        """Render the result as plain text (table + notes)."""
        from repro.bench.tables import render_table

        parts = [render_table(self.rows, columns=self.columns, title=f"{self.experiment}: {self.description}")]
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)

    def to_markdown(self) -> str:
        """Render the result as markdown."""
        from repro.bench.tables import render_markdown

        parts = [render_markdown(self.rows, columns=self.columns, title=f"{self.experiment}: {self.description}")]
        if self.notes:
            parts.append("")
            parts.extend(f"*{note}*" for note in self.notes)
        return "\n".join(parts)


# ---------------------------------------------------------------------- #
# Engine / dataset construction
# ---------------------------------------------------------------------- #
_DATASET_CACHE: Dict[Tuple[str, int], Dataset] = {}


def load_dataset(name: str, seed: int = 0, cache: bool = True) -> Dataset:
    """Generate (and memoise) a named dataset.

    Experiments frequently need the same dataset under several semantics
    and policies; memoising the generation keeps the harness runtime
    dominated by the algorithms being measured rather than by workload
    synthesis.
    """
    key = (name, seed)
    if cache and key in _DATASET_CACHE:
        return _DATASET_CACHE[key]
    dataset = generate_dataset(name, seed=seed)
    if cache:
        _DATASET_CACHE[key] = dataset
    return dataset


def build_engine(
    dataset: Dataset,
    semantics: PeelingSemantics,
    edge_grouping: bool = False,
    backend: Optional[str] = None,
    shards: int = 1,
    config: Optional[EngineConfig] = None,
) -> DetectionEngine:
    """Build a detection engine loaded with the dataset's initial graph.

    Construction goes through the public :class:`~repro.api.EngineConfig`
    — pass one directly (usually ``ExperimentConfig.engine_config()``) or
    let the legacy keyword knobs be folded into one.  ``shards = 1`` (the
    default) builds the classic single-engine ``Spade``, larger values a
    ``ShardedSpade`` hash-partitioned over that many shard engines.
    """
    if config is None:
        config = EngineConfig(backend=backend, shards=shards, edge_grouping=edge_grouping)
    spade = config.build(semantics)
    spade.load_graph(dataset.initial_graph(semantics))
    return spade


def static_peel_fn(config: ExperimentConfig):
    """Return the static-peel callable selected by ``config.static``.

    ``"heap"`` is Algorithm 1 over the mutable graph
    (:func:`repro.peeling.static.peel`); ``"csr"`` freezes the graph into
    an immutable CSR snapshot and runs the vectorised
    :func:`repro.peeling.static.peel_csr` — both produce bit-identical
    results, so experiments may use either as the static baseline.
    """
    from repro.peeling.static import peel, peel_csr

    if config.static == "csr":
        return peel_csr
    return peel


def save_result(result: ExperimentResult, config: ExperimentConfig) -> Optional[Path]:
    """Persist a result under ``config.output_dir`` (tables + JSON)."""
    if config.output_dir is None:
        return None
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    text_path = out / f"{result.experiment}.txt"
    text_path.write_text(result.to_text() + "\n", encoding="utf-8")
    json_path = out / f"{result.experiment}.json"
    json_path.write_text(
        json.dumps(
            {
                "experiment": result.experiment,
                "description": result.description,
                "rows": result.rows,
                "notes": result.notes,
            },
            indent=2,
            default=str,
        ),
        encoding="utf-8",
    )
    return text_path


def standard_argument_parser(description: str) -> argparse.ArgumentParser:
    """Build the CLI parser shared by ``python -m repro.bench.experiments.*``."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--quick", action="store_true", help="run on the small datasets")
    parser.add_argument("--seed", type=int, default=0, help="dataset generation seed")
    parser.add_argument(
        "--max-increments", type=int, default=None, help="cap on replayed increments"
    )
    parser.add_argument(
        "--output-dir", type=Path, default=None, help="directory for result tables"
    )
    parser.add_argument(
        "--datasets", nargs="*", default=None, help="override the dataset list"
    )
    parser.add_argument(
        "--backend",
        choices=list(VALID_BACKENDS),
        default=None,
        help="graph backend for the engines (default: process default)",
    )
    parser.add_argument(
        "--static",
        choices=list(STATIC_METHODS),
        default="heap",
        help="static-peel method for baselines: heap (Algorithm 1) or csr "
        "(vectorised peel over a frozen CSR snapshot)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of shard engines (1 = single-engine Spade, > 1 = "
        "hash-partitioned ShardedSpade)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Convert parsed CLI arguments into an :class:`ExperimentConfig`."""
    if args.quick:
        config = ExperimentConfig.quick_config(seed=args.seed, output_dir=args.output_dir)
    else:
        config = ExperimentConfig(seed=args.seed, output_dir=args.output_dir)
    if args.max_increments is not None:
        config.max_increments = args.max_increments
    if args.datasets:
        config.datasets = list(args.datasets)
    if getattr(args, "backend", None):
        config.backend = args.backend
    if getattr(args, "static", None):
        config.static = args.static
    if getattr(args, "shards", None):
        config.shards = args.shards
    # One validation choke point for every experiment CLI (argparse
    # ``choices`` already guards flag values; this also covers configs
    # built programmatically and the shards count).
    validate_config(backend=config.backend, shards=config.shards)
    if config.static not in STATIC_METHODS:
        raise ConfigError(
            f"unknown static-peel method {config.static!r}; "
            f"valid choices: {', '.join(STATIC_METHODS)}"
        )
    return config
