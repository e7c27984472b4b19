"""Parallel trial engine: seeding, fan-out, serial/parallel determinism."""

import os

import numpy as np

from repro.core.algorithms import RandomSampling
from repro.core.objectives import get_objective
from repro.core.problem import TuningProblem
from repro.experiments.presets import AlgorithmFactor
from repro.experiments.runner import (
    fanout,
    hash_name,
    resolve_jobs,
    run_trials,
    trial_seed,
)
from repro.workflows.pools import generate_component_history, generate_pool

SPECS = (AlgorithmFactor.make("RS", "rs"),)


class TestHashName:
    def test_anagrams_do_not_collide(self):
        # The old ordinal-sum hash mapped anagram names onto one random
        # stream; a user-registered "LA" must not shadow the built-in "AL".
        assert hash_name("AL") != hash_name("LA")
        assert hash_name("CEAL") != hash_name("LACE")
        assert hash_name("GEIST") != hash_name("TIGES")

    def test_stable_across_calls(self):
        assert hash_name("RS") == hash_name("RS")

    def test_anagram_algorithms_draw_distinct_streams(self, lv):
        specs = (
            AlgorithmFactor.make("AL", "rs"),
            AlgorithmFactor.make("LA", "rs"),
        )
        trials = run_trials(
            lv, "execution_time", specs, budget=8, repeats=2, pool_size=150,
            pool_seed=7,
        )
        by_name: dict[str, list] = {}
        for t in trials:
            by_name.setdefault(t.algorithm, []).append(t)
        for a, b in zip(by_name["AL"], by_name["LA"]):
            assert a.seed != b.seed
        assert [t.best_value for t in by_name["AL"]] != [
            t.best_value for t in by_name["LA"]
        ]


class TestTrialSeeds:
    def test_metrics_record_effective_seed_and_repeat(self, lv):
        trials = run_trials(
            lv, "execution_time", SPECS, budget=8, repeats=3, pool_size=150,
            pool_seed=7,
        )
        for rep, t in enumerate(trials):
            assert t.repeat == rep
            assert t.seed == trial_seed(7, "RS", rep)

    def test_seed_independent_of_schedule(self):
        # Derived only from (pool_seed, name, rep): fixed before any
        # trial runs, so worker ordering cannot perturb random streams.
        assert trial_seed(7, "RS", 2) == 7 * 1_000_003 + 2 + hash_name("RS")

    def test_single_trial_reproducible_from_saved_row(self, lv):
        trials = run_trials(
            lv, "execution_time", SPECS, budget=8, repeats=2, pool_size=150,
            pool_seed=7,
        )
        saved = trials[1]
        pool = generate_pool(lv, 150, seed=7)
        histories = {
            label: generate_component_history(lv, label, size=500, seed=7)
            for label in lv.labels
            if lv.app(label).space.size() > 1
        }
        problem = TuningProblem.create(
            workflow=lv,
            objective=get_objective(saved.objective),
            pool=pool,
            budget_runs=saved.budget,
            seed=saved.seed,
            histories=histories,
        )
        rerun = RandomSampling().tune(problem)
        assert rerun.best_actual_value(pool) == saved.best_value


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_auto_means_cpu_count(self, monkeypatch):
        cpus = os.cpu_count() or 1
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs(None) == cpus
        assert resolve_jobs("auto") == cpus
        assert resolve_jobs(0) == cpus

    def test_explicit_values(self):
        assert resolve_jobs(5) == 5
        assert resolve_jobs("2") == 2


class TestFanout:
    def test_results_in_index_order(self):
        context = list(range(24))
        out = fanout(lambda ctx, i: ctx[i] * 2, context, 24, jobs=4)
        assert out == [i * 2 for i in range(24)]

    def test_serial_path(self):
        out = fanout(lambda ctx, i: ctx + i, 10, 3, jobs=1)
        assert out == [10, 11, 12]


class TestRunnerStore:
    """Forked trial workers write through to one shared store."""

    SPECS = (
        AlgorithmFactor.make("RS", "rs"),
        AlgorithmFactor.make("CEAL", "ceal", use_history=False),
    )
    # Budget 12 resolves paid CEAL to m_r=2: component solo runs are
    # actually charged, so their write-through path gets exercised too.
    KWARGS = dict(budget=12, repeats=2, pool_size=150, pool_seed=7)

    @staticmethod
    def _stored_rows(path):
        from repro.store import MeasurementStore

        store = MeasurementStore(path)
        try:
            rows = [
                (r["context_id"], r["config"], r["value"], r["seed"], r["repeat"])
                for r in store.export()["measurements"]
            ]
            stats = store.stats()
        finally:
            store.close()
        return rows, stats

    def test_parallel_workers_record_every_trial(self, lv, tmp_path):
        db = tmp_path / "trials.db"
        trials = run_trials(
            lv, "execution_time", self.SPECS, jobs=2, store=db, **self.KWARGS
        )
        rows, stats = self._stored_rows(db)
        # Every trial's runs landed despite the fork boundary (the
        # inherited store reopens its connection per pid).  Paid CEAL
        # at budget 12 charges m_r=2 solo configs per trial against
        # runs_used; those are recorded as one component row per
        # configurable component instead of workflow rows.
        m_r = 2
        ceal_trials = sum(1 for t in trials if t.algorithm == "CEAL")
        configurable = sum(
            1 for label in lv.labels if lv.app(label).space.size() > 1
        )
        assert stats["workflow_measurements"] == (
            sum(t.runs_used for t in trials) - m_r * ceal_trials
        )
        assert stats["component_measurements"] == (
            m_r * configurable * ceal_trials
        )
        # Distinct repeats stay distinct rows: the runner stamps each
        # trial's repeat into the binding before measuring.
        assert {r[4] for r in rows} == {0, 1}

    def test_serial_and_parallel_store_identical_rows(self, lv, tmp_path):
        serial_db = tmp_path / "serial.db"
        parallel_db = tmp_path / "parallel.db"
        run_trials(
            lv, "execution_time", self.SPECS, jobs=1, store=serial_db,
            **self.KWARGS,
        )
        run_trials(
            lv, "execution_time", self.SPECS, jobs=2, store=parallel_db,
            **self.KWARGS,
        )
        serial_rows, _ = self._stored_rows(serial_db)
        parallel_rows, _ = self._stored_rows(parallel_db)
        assert sorted(serial_rows) == sorted(parallel_rows)


class TestParallelDeterminism:
    def test_jobs4_bit_identical_to_jobs1(self, lv):
        specs = (
            AlgorithmFactor.make("RS", "rs"),
            AlgorithmFactor.make("CEAL", "ceal", use_history=False),
        )
        kwargs = dict(budget=8, repeats=2, pool_size=150, pool_seed=7)
        serial = run_trials(lv, "computer_time", specs, jobs=1, **kwargs)
        parallel = run_trials(lv, "computer_time", specs, jobs=4, **kwargs)
        assert [(t.algorithm, t.repeat) for t in serial] == [
            (t.algorithm, t.repeat) for t in parallel
        ]
        for s, p in zip(serial, parallel):
            assert s.seed == p.seed
            assert s.best_value == p.best_value
            assert s.normalized == p.normalized
            assert np.array_equal(s.recall, p.recall)
            assert s.mdape_all == p.mdape_all
            assert s.mdape_top2 == p.mdape_top2
            assert s.cost == p.cost
            assert s.runs_used == p.runs_used
            # wall-clock is the one measured (non-deterministic) field
            assert s.wall_seconds > 0 and p.wall_seconds > 0
