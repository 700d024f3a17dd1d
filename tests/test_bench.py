"""Tests for the benchmark harness and the experiment runners (quick mode)."""

from __future__ import annotations

import json

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import (
    ExperimentConfig,
    ExperimentResult,
    build_engine,
    config_from_args,
    load_dataset,
    save_result,
    standard_argument_parser,
)
from repro.bench.tables import render_markdown, render_table
from repro.bench.timing import Timer, summarize, time_call
from repro.errors import ConfigError
from repro.peeling.semantics import dw_semantics


class TestTiming:
    def test_time_call(self):
        value, elapsed = time_call(lambda: sum(range(100)))
        assert value == 4950
        assert elapsed >= 0.0

    def test_timer(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.elapsed > 0.0

    def test_summarize(self):
        stats = summarize([0.001, 0.002, 0.003])
        assert stats.count == 3
        assert stats.total == pytest.approx(0.006)
        assert stats.mean == pytest.approx(0.002)
        assert stats.as_row()["mean (us)"] == pytest.approx(2000.0)

    def test_summarize_empty(self):
        assert summarize([]).count == 0


class TestTables:
    ROWS = [{"name": "a", "value": 1.5}, {"name": "b", "value": 2, "extra": "x"}]

    def test_render_table_alignment_and_missing_cells(self):
        text = render_table(self.ROWS, title="demo")
        assert "demo" in text
        assert "extra" in text
        assert "-" in text.splitlines()[-2]  # missing cell rendered as '-'

    def test_render_table_empty(self):
        assert "(no rows)" in render_table([], title="empty")

    def test_render_markdown(self):
        md = render_markdown(self.ROWS, title="demo")
        assert md.startswith("### demo")
        assert "| name | value | extra |" in md

    def test_explicit_columns(self):
        text = render_table(self.ROWS, columns=["value", "name"])
        header = text.splitlines()[0]
        assert header.index("value") < header.index("name")


class TestHarness:
    def test_quick_config(self):
        config = ExperimentConfig.quick_config(seed=3)
        assert config.quick and config.seed == 3
        assert all(name.endswith("-small") for name in config.datasets)
        assert config.grab_datasets()

    def test_semantics_instances(self):
        config = ExperimentConfig(semantics=["DG", "FD"])
        instances = dict(config.semantics_instances())
        assert set(instances) == {"DG", "FD"}
        assert instances["FD"].name == "FD"

    def test_load_dataset_memoised(self):
        first = load_dataset("amazon-small", seed=1)
        second = load_dataset("amazon-small", seed=1)
        assert first is second
        assert load_dataset("amazon-small", seed=2) is not first

    def test_build_engine(self):
        dataset = load_dataset("amazon-small", seed=1)
        spade = build_engine(dataset, dw_semantics())
        assert spade.graph.num_vertices() == len(dataset.vertices)

    def test_experiment_result_rendering_and_saving(self, tmp_path):
        result = ExperimentResult("exp", "a tiny experiment")
        result.add_row(metric=1.0, name="x")
        result.add_note("observation")
        assert "observation" in result.to_text()
        assert "exp" in result.to_markdown()

        config = ExperimentConfig(output_dir=tmp_path)
        path = save_result(result, config)
        assert path.exists()
        payload = json.loads((tmp_path / "exp.json").read_text())
        assert payload["rows"][0]["metric"] == 1.0

    def test_save_result_without_output_dir(self):
        result = ExperimentResult("exp", "desc")
        assert save_result(result, ExperimentConfig()) is None

    def test_static_axis_is_a_harness_choice(self):
        parser = standard_argument_parser("t")
        args = parser.parse_args(["--quick", "--static", "csr"])
        assert config_from_args(args).static == "csr"
        args.static = "gpu"  # past argparse, e.g. a programmatic Namespace
        with pytest.raises(ConfigError, match="static-peel method"):
            config_from_args(args)


QUICK = ExperimentConfig.quick_config(
    datasets=["grab1-small", "amazon-small"],
    max_increments=120,
    batch_sizes=[1, 25],
)


class TestExperiments:
    """Each experiment runner must produce rows in quick mode."""

    def test_registry_is_complete(self):
        assert set(ALL_EXPERIMENTS) == {
            "table3",
            "table4",
            "table5",
            "fig9a",
            "fig9b",
            "fig10",
            "fig11",
            "fig12",
            "fig15",
        }

    def test_table3(self):
        result = ALL_EXPERIMENTS["table3"].run(QUICK)
        assert len(result.rows) == 2
        assert result.rows[0]["|V|"] > 0

    def test_fig9b(self):
        result = ALL_EXPERIMENTS["fig9b"].run(QUICK)
        assert result.rows
        assert any("slope" in note for note in result.notes)

    def test_fig10(self):
        result = ALL_EXPERIMENTS["fig10"].run(QUICK)
        assert len(result.rows) == 2 * 3
        for row in result.rows:
            assert row["speedup"] > 1.0

    def test_table4(self):
        config = ExperimentConfig.quick_config(
            datasets=["amazon-small"], max_increments=80, batch_sizes=[1, 20]
        )
        result = ALL_EXPERIMENTS["table4"].run(config)
        assert len(result.rows) == 3
        for row in result.rows:
            assert row["|ΔE|=20 (us/edge)"] <= row["|ΔE|=1 (us/edge)"] * 3

    def test_table5(self):
        config = ExperimentConfig.quick_config(
            datasets=["grab1-small"], max_increments=150, semantics=["DW"]
        )
        result = ALL_EXPERIMENTS["table5"].run(config)
        assert len(result.rows) == 3
        policies = {row["policy"] for row in result.rows}
        assert any(p.endswith("G") for p in policies)

    def test_fig9a(self):
        config = ExperimentConfig.quick_config(
            datasets=["grab1-small"], max_increments=400, semantics=["DW"]
        )
        result = ALL_EXPERIMENTS["fig9a"].run(config)
        assert len(result.rows) == 3
        grouping_row = next(r for r in result.rows if r["policy"].endswith("G"))
        assert grouping_row["prevention ratio"] >= 0.0

    def test_fig11(self):
        config = ExperimentConfig.quick_config(
            datasets=["grab1-small"], max_increments=120, semantics=["DW"]
        )
        result = ALL_EXPERIMENTS["fig11"].run(config)
        assert {row["batch size"] for row in result.rows} == {1, 10, 50, 100}

    def test_fig12(self):
        config = ExperimentConfig.quick_config(datasets=["grab1-small"], semantics=["DW"])
        result = ALL_EXPERIMENTS["fig12"].run(config)
        assert len(result.rows) == 3
        assert {row["pattern"] for row in result.rows} == {
            "customer-merchant-collusion",
            "deal-hunter",
            "click-farming",
        }

    def test_fig15(self):
        config = ExperimentConfig.quick_config(datasets=["grab1-small"], semantics=["DW"])
        result = ALL_EXPERIMENTS["fig15"].run(config)
        assert len(result.rows) == 10
