"""Tests for the experiment harness (runner, figures, tables, reporting)."""

import numpy as np
import pytest

from repro.experiments import (
    AlgorithmFactor,
    fig04_lowfid_recall,
    format_table,
    run_trials,
    summarize,
    table1_parameter_spaces,
    table2_best_vs_expert,
)
from repro.experiments.presets import ceal_settings_for


SPECS = (AlgorithmFactor.make("RS", "rs"),)


class TestRunner:
    def test_run_trials_metrics_complete(self, lv):
        trials = run_trials(
            lv, "execution_time", SPECS, budget=8, repeats=2, pool_size=150,
            pool_seed=7,
        )
        assert len(trials) == 2
        for t in trials:
            assert t.algorithm == "RS"
            assert t.workflow == "LV"
            assert t.normalized >= 1.0
            assert t.recall.shape == (10,)
            assert t.runs_used == 8
            assert t.cost > 0
            assert t.mdape_all >= 0 and t.mdape_top2 >= 0

    def test_trials_vary_across_repeats(self, lv):
        trials = run_trials(
            lv, "execution_time", SPECS, budget=8, repeats=3, pool_size=150,
            pool_seed=7,
        )
        picked = {tuple(sorted(t.trace and [] or [])) or t.best_value for t in trials}
        assert len({t.best_value for t in trials}) >= 2

    def test_summarize_aggregates(self, lv):
        trials = run_trials(
            lv, "execution_time", SPECS, budget=8, repeats=3, pool_size=150,
            pool_seed=7,
        )
        summary = summarize(trials)
        assert summary["RS"]["repeats"] == 3
        assert summary["RS"]["normalized"] == pytest.approx(
            np.mean([t.normalized for t in trials])
        )


class TestPresets:
    def test_history_mode(self):
        s = ceal_settings_for("LV", 50, use_history=True)
        assert s.use_history

    def test_gp_small_budget_preset(self):
        s = ceal_settings_for("GP", 25, use_history=False)
        assert s.random_fraction == 0.3

    def test_default_fallback(self):
        s = ceal_settings_for("LV", 50, use_history=False)
        assert s.component_runs_fraction is None


class TestFigures:
    def test_fig04_rows(self):
        result = fig04_lowfid_recall(pool_size=150, max_n=5, seed=7)
        assert len(result.rows) == 2 * 5
        series = {row["series"] for row in result.rows}
        assert series == {"sum of computer time", "maximum of execution time"}
        for row in result.rows:
            assert 0 <= row["recall_pct"] <= 100

    def test_fig04_beats_random(self):
        result = fig04_lowfid_recall(pool_size=150, max_n=10, seed=7)
        by_series = {}
        for row in result.rows:
            by_series.setdefault(row["series"], []).append(row)
        for series_rows in by_series.values():
            tail = [r for r in series_rows if r["top_n"] >= 5]
            mean_recall = np.mean([r["recall_pct"] for r in tail])
            mean_random = np.mean([r["random_pct"] for r in tail])
            assert mean_recall > mean_random


class TestTables:
    def test_table1_structure(self):
        result = table1_parameter_spaces()
        workflows = {row["workflow"] for row in result.rows}
        assert workflows == {"LV", "HS", "GP"}
        lammps_rows = [
            r for r in result.rows if r["application"] == "lammps"
        ]
        assert {r["parameter"] for r in lammps_rows} == {
            "procs", "ppn", "threads",
        }

    def test_table2_best_beats_or_matches_expert_for_lv_hs(self):
        # A 150-config pool is far smaller than the paper's 2000, so its
        # best can trail the expert slightly; the full-size bench asserts
        # the strict ordering.
        result = table2_best_vs_expert(pool_size=150, seed=7)
        rows = {
            (r["workflow"], r["objective"], r["option"]): r["performance"]
            for r in result.rows
        }
        for workflow in ("LV", "HS"):
            for objective in ("execution_time", "computer_time"):
                best = rows[(workflow, objective, "Best")]
                expert = rows[(workflow, objective, "Expert")]
                assert best <= expert * 1.15

    def test_table2_gp_expert_does_well(self):
        """Paper: 'The expert recommendations only do well for GP.'"""
        result = table2_best_vs_expert(pool_size=150, seed=7)
        rows = {
            (r["workflow"], r["objective"], r["option"]): r["performance"]
            for r in result.rows
        }
        assert rows[("GP", "computer_time", "Expert")] <= rows[
            ("GP", "computer_time", "Best")
        ] * 1.1


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_figure_result_to_text(self):
        result = fig04_lowfid_recall(pool_size=150, max_n=2, seed=7)
        text = result.to_text()
        assert "Fig. 4" in text and "recall_pct" in text
