"""Tests for the declarative experiment-suite engine.

Covers the declarative algorithm layer (``repro.experiments.presets``),
matrix compilation and content-hash cell keys, the cached-cell codec,
store-backed resume (interrupt → re-run → bit-identical report), spec
files, the statistical report schema — and bit-identity of the rebased
legacy drivers against pre-refactor pins (``tests/data/pinned_suite.json``,
regenerated only intentionally via ``tests/data/make_pinned_suite.py``).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.algorithms import TuningAlgorithm
from repro.core.autotuner import ALGORITHMS
from repro.core.ceal import Ceal, CealSettings
from repro.experiments.headline import headline_claims
from repro.experiments.figures import fig05_spec, fig08_practicality
from repro.experiments.presets import (
    AlgorithmFactor,
    ceal_factor,
    ceal_settings_for,
    factor_from_ceal_settings,
    history_factors,
    no_history_factors,
    resolve_algorithm,
)
from repro.experiments.runner import trial_seed
from repro.experiments.sensitivity import sweep_ceal
from repro.experiments.suite import (
    SUITE_SCHEMA_VERSION,
    SuiteGroup,
    SuiteIncompleteError,
    SuiteSpec,
    _metrics_from_payload,
    _metrics_payload,
    compile_matrix,
    load_spec,
    run_suite,
    spec_from_dict,
)

PINS = json.loads(
    (Path(__file__).parent / "data" / "pinned_suite.json").read_text()
)
REPEATS = PINS["repeats"]
POOL = PINS["pool_size"]
SEED = PINS["seed"]

EXAMPLES = Path(__file__).parent.parent / "examples" / "suites"

needs_toml = pytest.mark.skipif(
    importlib.util.find_spec("tomllib") is None
    and importlib.util.find_spec("tomli") is None,
    reason="no TOML parser on this Python (3.10 without tomli)",
)


def small_spec() -> SuiteSpec:
    """The pinned ``run_trials`` batch as a suite spec (4 cells)."""
    return SuiteSpec(
        name="small",
        groups=(
            SuiteGroup(
                workflow="LV",
                objective="execution_time",
                budget=8,
                algorithms=(
                    AlgorithmFactor.make("RS", "rs"),
                    AlgorithmFactor.make("CEAL", "ceal", use_history=True),
                ),
                repeats=REPEATS,
                pool_size=POOL,
                pool_seed=SEED,
            ),
        ),
    )


@pytest.fixture(scope="module")
def small_result():
    return run_suite(small_spec())


# -- declarative algorithm layer (presets) -------------------------------------------


class TestAlgorithmFactor:
    def test_make_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown algorithm kind"):
            AlgorithmFactor.make("X", "gradient-descent")

    def test_params_sorted_and_hashable(self):
        a = AlgorithmFactor.make("C", "ceal", use_history=True, iterations=4)
        b = AlgorithmFactor.make("C", "ceal", iterations=4, use_history=True)
        assert a == b
        assert hash(a) == hash(b)
        assert a.param_dict() == {"use_history": True, "iterations": 4}
        assert a.identity()["params"] == [["iterations", 4], ["use_history", True]]

    def test_registry_resolves_every_kind(self):
        for kind in ALGORITHMS:
            factor = AlgorithmFactor.make("X", kind)
            algo = resolve_algorithm(factor, "LV", 50)
            assert isinstance(algo, TuningAlgorithm)

    def test_resolve_rejects_unknown_kind(self):
        # Bypass .make's validation: the resolver guards independently.
        factor = AlgorithmFactor(name="X", kind="nope")
        with pytest.raises(ValueError, match="unknown algorithm kind"):
            resolve_algorithm(factor)

    def test_ceal_explicit_settings(self):
        factor = AlgorithmFactor.make(
            "C", "ceal", use_history=False, iterations=3
        )
        algo = resolve_algorithm(factor)
        assert isinstance(algo, Ceal)
        assert algo.settings == CealSettings(use_history=False, iterations=3)

    def test_ceal_preset_requires_context(self):
        factor = ceal_factor("CEAL", preset=True)
        with pytest.raises(ValueError, match="resolution context"):
            resolve_algorithm(factor)

    def test_ceal_preset_rejects_explicit_params(self):
        factor = AlgorithmFactor.make("C", "ceal", preset=True, iterations=3)
        with pytest.raises(ValueError, match="does not combine"):
            resolve_algorithm(factor, "LV", 50)

    def test_ceal_preset_selects_per_cell_settings(self):
        factor = ceal_factor("CEAL", preset=True, use_history=False)
        for workflow, budget in (("GP", 25), ("LV", 50), ("GP", 100)):
            algo = resolve_algorithm(factor, workflow, budget)
            assert algo.settings == ceal_settings_for(workflow, budget, False)
        # GP at a small budget actually differs from the default.
        gp_small = resolve_algorithm(factor, "GP", 25)
        assert gp_small.settings.iterations == 6

    def test_factor_from_ceal_settings_roundtrip(self):
        settings = CealSettings(
            use_history=False, iterations=3, random_fraction=0.25
        )
        factor = factor_from_ceal_settings("S", settings)
        algo = resolve_algorithm(factor)
        assert algo.settings == settings


class TestSharedComparisonSets:
    def test_no_history_factors_names(self):
        assert [f.name for f in no_history_factors()] == [
            "RS", "GEIST", "AL", "CEAL",
        ]

    def test_history_factors_names(self):
        assert [f.name for f in history_factors()] == ["CEAL", "ALpH"]


# -- matrix compilation and cell keys ------------------------------------------------


class TestCompileMatrix:
    def test_order_group_algorithm_repeat(self):
        spec = fig05_spec(repeats=3, pool_size=POOL, seed=SEED)
        cells = compile_matrix(spec)
        n_algos = len(spec.groups[0].algorithms)
        assert len(cells) == len(spec.groups) * n_algos * 3
        expected = [
            (gi, f.name, rep)
            for gi, g in enumerate(spec.groups)
            for f in g.algorithms
            for rep in range(g.repeats)
        ]
        assert [
            (c.group_index, c.algorithm.name, c.repeat) for c in cells
        ] == expected

    def test_trial_seed_scheme(self):
        cells = compile_matrix(small_spec())
        for cell in cells:
            assert cell.seed == trial_seed(SEED, cell.algorithm.name, cell.repeat)

    def test_sweep_seed_scheme(self):
        group = small_spec().groups[0]
        group = SuiteGroup(
            **{**group.__dict__, "seed_scheme": "sweep"}
        )
        cells = compile_matrix(SuiteSpec(name="s", groups=(group,)))
        for cell in cells:
            assert cell.seed == SEED + 37 * cell.repeat

    def test_keys_deterministic(self):
        a = [c.key() for c in compile_matrix(small_spec())]
        b = [c.key() for c in compile_matrix(small_spec())]
        assert a == b
        assert all(len(k) == 64 for k in a)
        assert len(set(a)) == len(a)  # no two cells collide

    def test_keys_sensitive_to_every_factor(self):
        from dataclasses import replace

        base = compile_matrix(small_spec())[0]
        variants = [
            replace(base, budget=9),
            replace(base, seed=base.seed + 1),
            replace(base, pool_seed=base.pool_seed + 1),
            replace(base, pool_size=base.pool_size + 1),
            replace(base, noise_sigma=0.06),
            replace(base, objective="computer_time"),
            replace(
                base,
                algorithm=AlgorithmFactor.make("RS", "rs", use_history=True),
            ),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_group_validation(self):
        good = small_spec().groups[0]
        with pytest.raises(ValueError, match="seed scheme"):
            SuiteGroup(**{**good.__dict__, "seed_scheme": "lottery"})
        with pytest.raises(ValueError, match="at least one repeat"):
            SuiteGroup(**{**good.__dict__, "repeats": 0})
        dupes = (
            AlgorithmFactor.make("RS", "rs"),
            AlgorithmFactor.make("RS", "geist"),
        )
        with pytest.raises(ValueError, match="duplicate algorithm names"):
            SuiteGroup(**{**good.__dict__, "algorithms": dupes})


class TestCellCodec:
    def test_roundtrip(self, small_result):
        for trial in small_result.trials:
            payload = _metrics_payload(trial)
            json.loads(json.dumps(payload))  # JSON-stable
            back = _metrics_from_payload(payload)
            assert _metrics_payload(back) == payload


# -- bit-identity with the pre-refactor drivers --------------------------------------


class TestEngineMatchesPins:
    """The rebased drivers reproduce pre-refactor outputs exactly."""

    def test_run_trials_equivalence(self, small_result):
        assert [
            _metrics_payload(t) for t in small_result.trials
        ] == PINS["run_trials"]

    def test_headline_pinned(self):
        rows = headline_claims(repeats=REPEATS, pool_size=POOL, seed=SEED).rows
        assert rows == PINS["headline"]

    def test_fig08_pinned(self):
        rows = fig08_practicality(
            repeats=REPEATS, pool_size=POOL, seed=SEED
        ).rows
        assert rows == PINS["fig08"]

    def test_sweep_pinned(self):
        settings = [
            ("I=2", CealSettings(use_history=False, iterations=2)),
            ("I=4 (hist)", CealSettings(use_history=True, iterations=4)),
        ]
        rows = sweep_ceal(
            settings, workflow_name="LV", objective_name="computer_time",
            budget=10, repeats=REPEATS, pool_size=POOL, seed=SEED,
        )
        assert rows == PINS["sweep"]


# -- store-backed resume -------------------------------------------------------------


class TestResume:
    def test_interrupt_resume_bit_identical(self, small_result, tmp_path):
        spec = small_spec()
        db = str(tmp_path / "suite.db")
        baseline = json.dumps(small_result.report(), sort_keys=True)

        # "Interrupt" after 2 of 4 cells (deterministic stand-in for a kill).
        partial = run_suite(spec, store=db, max_cells=2)
        assert partial.cells_run == 2
        assert partial.cells_cached == 0
        assert not partial.complete
        with pytest.raises(SuiteIncompleteError, match="2 of 4"):
            partial.report()

        # Resume: the 2 finished cells come from the store, untouched.
        resumed = run_suite(spec, store=db)
        assert resumed.cells_cached == 2
        assert resumed.cells_run == 2
        assert resumed.complete
        assert json.dumps(resumed.report(), sort_keys=True) == baseline

        # Fully cached re-run: zero cells executed, same report bytes.
        cached = run_suite(spec, store=db)
        assert cached.cells_run == 0
        assert cached.cells_cached == 4
        assert json.dumps(cached.report(), sort_keys=True) == baseline

    def test_changed_spec_misses_cache(self, tmp_path):
        from dataclasses import replace

        spec = small_spec()
        db = str(tmp_path / "suite.db")
        first = run_suite(spec, store=db)
        assert first.cells_run == 4

        changed = SuiteSpec(
            name=spec.name,
            groups=(replace(spec.groups[0], noise_sigma=0.06),),
        )
        second = run_suite(changed, store=db, max_cells=0)
        assert second.cells_cached == 0  # every key differs → all miss

    def test_corrupted_cache_entry_is_a_miss(self, tmp_path):
        from repro.experiments.suite import _CELL_KEY_PREFIX
        from repro.store.db import MeasurementStore

        spec = small_spec()
        db = str(tmp_path / "suite.db")
        run_suite(spec, store=db)
        cell = compile_matrix(spec)[0]
        store = MeasurementStore(db)
        key = _CELL_KEY_PREFIX + cell.key()
        payload = store.get_metadata(key)
        payload["cell"]["budget"] = 99  # stored identity no longer matches
        store.set_metadata(key, payload)
        store.close()

        again = run_suite(spec, store=db, max_cells=0)
        assert again.cells_cached == 3  # the tampered cell re-pends


# -- spec files ----------------------------------------------------------------------


class TestSpecFiles:
    DATA = {
        "suite": {
            "name": "demo",
            "repeats": 3,
            "pool_size": 200,
            "pool_seeds": [1, 2],
            "seed_scheme": "sweep",
        },
        "factors": {
            "workflows": ["LV"],
            "objectives": ["execution_time", "computer_time"],
            "budgets": [10, 20],
        },
        "algorithms": [
            {"name": "RS", "kind": "rs"},
            {"name": "CEAL", "kind": "ceal", "params": {"use_history": True}},
        ],
    }

    def test_factorial_expansion(self):
        spec = spec_from_dict(self.DATA)
        assert spec.name == "demo"
        # 1 workflow × 2 objectives × 2 budgets × 2 pool seeds.
        assert len(spec.groups) == 8
        assert {(g.objective, g.budget, g.pool_seed) for g in spec.groups} == {
            (o, b, s)
            for o in ("execution_time", "computer_time")
            for b in (10, 20)
            for s in (1, 2)
        }
        for g in spec.groups:
            assert g.repeats == 3
            assert g.pool_size == 200
            assert g.seed_scheme == "sweep"
            assert [f.name for f in g.algorithms] == ["RS", "CEAL"]
        assert spec.groups[0].algorithms[1].param_dict() == {
            "use_history": True
        }

    def test_missing_sections_rejected(self):
        with pytest.raises(ValueError, match=r"no \[\[algorithms\]\]"):
            spec_from_dict({**self.DATA, "algorithms": []})
        broken = dict(self.DATA)
        broken["factors"] = {"objectives": ["execution_time"], "budgets": [10]}
        with pytest.raises(ValueError, match="factors.workflows"):
            spec_from_dict(broken)

    @needs_toml
    def test_load_smoke_toml(self):
        spec = load_spec(EXAMPLES / "smoke.toml")
        assert spec.name == "smoke"
        assert len(spec.groups) == 1
        group = spec.groups[0]
        assert (group.workflow, group.objective, group.budget) == (
            "LV", "execution_time", 8,
        )
        assert group.repeats == 2
        assert group.pool_size == 150
        assert group.pool_seed == 7
        assert [f.name for f in group.algorithms] == ["RS", "CEAL"]

    @needs_toml
    def test_load_headline_toml(self):
        spec = load_spec(EXAMPLES / "headline_ci.toml")
        assert len(spec.groups) == 2  # two objectives
        assert all(g.repeats == 20 for g in spec.groups)
        assert [f.kind for f in spec.groups[0].algorithms] == [
            "rs", "geist", "ceal",
        ]

    def test_load_json(self, tmp_path):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(self.DATA))
        assert load_spec(path) == spec_from_dict(self.DATA)

    def test_rejects_unknown_suffix(self, tmp_path):
        path = tmp_path / "demo.yaml"
        path.write_text("")
        with pytest.raises(ValueError, match="toml or .json"):
            load_spec(path)


# -- statistical report --------------------------------------------------------------


class TestReport:
    @pytest.fixture(scope="class")
    def report(self, small_result):
        return small_result.report()

    def test_schema(self, report):
        assert report["schema_version"] == SUITE_SCHEMA_VERSION
        assert report["suite"] == "small"
        assert report["confidence"] == 0.95
        assert report["cells"] == 4
        assert len(report["groups"]) == 1
        json.loads(json.dumps(report))  # JSON-serialisable throughout

    def test_per_algorithm_cis(self, report):
        algos = report["groups"][0]["algorithms"]
        assert set(algos) == {"RS", "CEAL"}
        for entry in algos.values():
            assert entry["n"] == REPEATS
            for metric in (
                "normalized", "best_value", "cost", "mdape_all", "mdape_top2",
            ):
                ci = entry[metric]
                assert ci["lo"] <= ci["mean"] <= ci["hi"]
                assert ci["n"] == REPEATS
            recall = entry["recall"]
            assert recall["top_n"] == 10
            assert len(recall["mean"]) == 10
            assert 0.0 <= recall["at_top"]["mean"] <= 100.0

    def test_practicality_block(self, report):
        # (LV, execution_time) has an expert config → block present.
        for entry in report["groups"][0]["algorithms"].values():
            practicality = entry["practicality"]
            assert set(practicality) == {
                "least_uses", "recouped_fraction", "expert_value",
            }
            assert 0.0 <= practicality["recouped_fraction"] <= 1.0

    def test_pairwise_comparisons(self, report):
        comparisons = report["groups"][0]["comparisons"]
        # 1 algorithm pair × 3 paired metrics.
        assert len(comparisons) == 3
        assert {c["metric"] for c in comparisons} == {
            "normalized", "best_value", "recall_at_top",
        }
        for c in comparisons:
            assert {c["a"], c["b"]} == {"RS", "CEAL"}
            assert 0.0 <= c["permutation"]["p"] <= 1.0
            assert 0.0 <= c["wilcoxon"]["p"] <= 1.0

    def test_parallel_matches_serial(self, small_result):
        parallel = run_suite(small_spec(), jobs=2)
        assert json.dumps(parallel.report(), sort_keys=True) == json.dumps(
            small_result.report(), sort_keys=True
        )
