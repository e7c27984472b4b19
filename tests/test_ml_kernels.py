"""Old-vs-new bit-identity for the vectorized ML kernels.

The fast layer (presorted tree growth, packed-ensemble prediction,
pool-score caches) must be a pure performance change: every test here
compares against the reference kernels in :mod:`repro.ml._reference`
(verbatim copies of the pre-vectorization implementations) with exact
array equality, across randomly drawn shapes, tie structures, and
hyper-parameters.
"""

import dataclasses
import os
import pickle
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.encoding import ConfigEncoder, DerivedFeature
from repro.config.space import Parameter, ParameterSpace
from repro.ml import (
    GradientBoostedTrees,
    PackedEnsemble,
    RandomForestRegressor,
    RegressionTree,
    _native,
)
from repro.ml._reference import (
    reference_boosting_fit,
    reference_ensemble_predict,
    reference_fit_gradients,
    reference_forest_predict,
    reference_tree_predict,
)


def _random_matrix(rng, n, d, case):
    """Feature matrices with the tie/correlation structure that bites."""
    X = rng.normal(size=(n, d))
    if case % 3 == 0:
        X[:, 0] = rng.integers(0, 3, size=n)  # discrete, heavy ties
    if d > 1 and case % 4 == 0:
        X[:, -1] = X[:, 0] * 2  # exactly correlated duplicate column
    if case % 5 == 0:
        X[:, d // 2] = np.round(X[:, d // 2], 1)
    return X


# -- presorted tree growth ----------------------------------------------------


@pytest.mark.parametrize("case", range(30))
def test_tree_fit_bit_identical_to_reference(case):
    rng = np.random.default_rng(case)
    n = int(rng.integers(2, 250))
    d = int(rng.integers(1, 9))
    X = _random_matrix(rng, n, d, case)
    g = rng.normal(size=n)
    h = np.abs(rng.normal(size=n)) + 0.1
    params = dict(
        max_depth=int(rng.integers(0, 7)),
        min_samples_leaf=int(rng.integers(1, 4)),
        min_child_weight=float(rng.choice([1e-6, 0.5, 2.0])),
        reg_lambda=float(rng.choice([0.0, 1.0, 3.0])),
        gamma=float(rng.choice([0.0, 0.1])),
    )
    if case % 2:
        params["max_features"] = int(rng.integers(1, d + 1))
        params["random_state"] = case
    new = RegressionTree(**params).fit_gradients(X, g, h)
    old = RegressionTree(**params)
    reference_fit_gradients(old, X, g, h, lam=params["reg_lambda"])
    assert np.array_equal(new.feature, old.feature)
    assert np.array_equal(new.threshold, old.threshold, equal_nan=True)
    assert np.array_equal(new.left, old.left)
    assert np.array_equal(new.right, old.right)
    assert np.array_equal(new.value, old.value)


def test_tree_depth_and_n_nodes():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = rng.normal(size=200)
    for max_depth in (0, 1, 3, 8):
        tree = RegressionTree(max_depth=max_depth).fit(X, y)
        assert tree.n_nodes == tree.feature.size
        # Iterative depth must agree with an explicit recursive walk.
        def walk(node):
            if tree.left[node] == -1:
                return 0
            return 1 + max(walk(tree.left[node]), walk(tree.right[node]))

        assert tree.depth == walk(0)
        assert tree.depth <= max_depth
        # n_nodes of a binary tree is odd; a stump has exactly one node.
        assert tree.n_nodes % 2 == 1
        if max_depth == 0:
            assert tree.depth == 0 and tree.n_nodes == 1


def test_unfitted_tree_properties_raise():
    tree = RegressionTree()
    with pytest.raises(RuntimeError):
        tree.depth
    with pytest.raises(RuntimeError):
        tree.n_nodes


# -- packed-ensemble prediction ----------------------------------------------


def _assert_same_table(got: PackedEnsemble, want: PackedEnsemble) -> None:
    for f in dataclasses.fields(PackedEnsemble):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.array_equal(a, b, equal_nan=True), f.name


@pytest.mark.parametrize("case", range(15))
def test_boosting_predict_bit_identical_to_reference(case):
    rng = np.random.default_rng(100 + case)
    n = int(rng.integers(5, 200))
    d = int(rng.integers(1, 8))
    X = _random_matrix(rng, n, d, case)
    y = rng.normal(size=n) ** 2 + 0.1
    model = GradientBoostedTrees(
        n_estimators=int(rng.integers(1, 30)),
        learning_rate=float(rng.uniform(0.05, 0.5)),
        max_depth=int(rng.integers(1, 6)),
        subsample=float(rng.uniform(0.5, 1.0)),
        colsample=float(rng.uniform(0.5, 1.0)),
        log_target=bool(case % 2),
        random_state=case,
    )
    reference = reference_boosting_fit(model, X, y)
    model.fit(X, y)
    X_test = rng.normal(size=(int(rng.integers(1, 400)), d))
    assert np.array_equal(
        model.predict(X_test), reference_ensemble_predict(model, reference, X_test)
    )


_BOOSTING_PARAMS = st.fixed_dictionaries({
    "n_estimators": st.integers(1, 12),
    "learning_rate": st.sampled_from([0.08, 0.3, 1.0]),
    "max_depth": st.sampled_from([0, 1, 3, 6, 200]),  # 200: past any buffer
    "min_samples_leaf": st.integers(1, 3),
    "min_child_weight": st.sampled_from([1e-6, 1.0, 2.5]),
    "reg_lambda": st.sampled_from([0.0, 1.0]),
    "gamma": st.sampled_from([0.0, 0.05]),
    "subsample": st.sampled_from([1.0, 0.6]),
    "colsample": st.sampled_from([1.0, 0.5]),
    "log_target": st.booleans(),
    "random_state": st.integers(0, 99),
})


@given(
    kinds=st.lists(
        st.sampled_from(["float", "ties", "tied", "nan", "all-nan"]),
        min_size=1, max_size=6,
    ),
    n=st.integers(1, 200),
    dup=st.sampled_from([1, 2, 5, 200]),
    target=st.sampled_from(["lognormal", "constant", "two-valued"]),
    seed=st.integers(0, 2**32 - 1),
    params=_BOOSTING_PARAMS,
)
@settings(max_examples=100, deadline=None)
def test_boosting_fit_compiled_matches_numpy(kinds, n, dup, target, seed, params):
    """The compiled fit, the numpy loop and the reference loop write the
    same node table on edge shapes: one row, constant or two-valued
    targets (tied gains), duplicate rows, tied and NaN columns (compiled
    side only with a compiler)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, len(kinds)))
    for j, kind in enumerate(kinds):
        if kind == "ties":
            X[:, j] = rng.integers(0, 3, size=n)
        elif kind == "tied":
            X[:, j] = 1.5
        elif kind != "float":
            X[rng.random(n) < (0.3 if kind == "nan" else 1.0), j] = np.nan
    y = {
        "lognormal": rng.lognormal(size=n),
        "constant": np.full(n, 2.0),
        "two-valued": rng.integers(1, 3, size=n).astype(float),
    }[target]
    X[:dup], y[:dup] = X[0], y[0]
    with mock.patch.object(_native, "boosting_fit", return_value=None):
        fits = [GradientBoostedTrees(**params).fit(X, y)]
    if _native.available():
        fits.append(GradientBoostedTrees(**params).fit(X, y))
    reference = reference_boosting_fit(fits[0], X, y)
    trees, columns, base = reference
    want = PackedEnsemble.pack(
        trees, X.shape[1], columns=columns, scale=params["learning_rate"]
    )
    expected = reference_ensemble_predict(fits[0], reference, X)
    for model in fits:
        assert model._base_score == base
        _assert_same_table(model._packed, want)
        assert np.array_equal(model.predict(X), expected)


@given(
    n=st.integers(1, 120),
    d=st.integers(1, 6),
    rows=st.one_of(st.integers(1, 40), st.integers(2047, 4200)),
    on_threshold=st.sampled_from([0.0, 0.5, 1.0]),
    nan_share=st.sampled_from([0.0, 0.2, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    params=_BOOSTING_PARAMS,
)
@settings(max_examples=40, deadline=None)
def test_packed_predict_matches_reference(
    n, d, rows, on_threshold, nan_share, seed, params
):
    """The compiled traversal (when available), the numpy block traversal
    and the reference tree walk predict the same floats: features equal
    to a node's threshold (``x <= threshold`` holds with equality, the
    one place a wrong mask would go the other way), NaN features
    (compare false, go right), one-row pools, pools past the 2048-row
    block, depth-0 and single-tree ensembles."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.lognormal(size=n)
    model = GradientBoostedTrees(**params).fit(X, y)
    pool = rng.normal(size=(rows, d))
    packed = model._packed
    for j in range(d):
        # Thresholds of the internal nodes that split on column j.
        cuts = packed.threshold[(packed.left != np.arange(packed.left.size))
                                & (packed.feature == j)]
        hit = rng.random(rows) < on_threshold
        if cuts.size:
            pool[hit, j] = rng.choice(cuts, size=int(hit.sum()))
    pool[rng.random(pool.shape) < nan_share] = np.nan
    expected = reference_ensemble_predict(
        model, reference_boosting_fit(model, X, y), pool
    )
    with mock.patch.object(_native, "packed_predict", return_value=None):
        assert np.array_equal(model.predict(pool), expected)
    if _native.available():
        assert np.array_equal(model.predict(pool), expected)


# -- one-call row draws -------------------------------------------------------


def _loop_rows(rng, n, k, rounds):
    """The per-round draws ``GradientBoostedTrees._subsamples`` falls back to."""
    return np.array([rng.choice(n, size=k, replace=False) for _ in range(rounds)])


@given(
    n=st.one_of(st.integers(2, 10000), st.just(10000)),
    rounds=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_choice_rows_matches_rng_choice(n, rounds, seed, data):
    """The compiled draws give the rows of the per-round
    ``rng.choice(n, k, replace=False)`` loop and leave the generator in
    the same state; without the kernels they draw nothing."""
    k = data.draw(
        st.sampled_from([1, n - 1, round(0.9 * n)]) | st.integers(1, n), label="k"
    )
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = _native.choice_rows(ours, n, k, rounds)
    if _native.available():
        assert np.array_equal(rows, _loop_rows(theirs, n, k, rounds))
    else:
        assert rows is None
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_choice_rows_falls_back_to_the_loop(monkeypatch):
    """Past numpy's Floyd branch, with column draws between the row
    draws, and after a failed self-check, the per-round loop draws."""
    rng = np.random.default_rng(1)
    assert _native.choice_rows(rng, 10001, 5, 2) is None
    for k in (0, 6):  # outside 1..n: the loop raises numpy's own error
        assert _native.choice_rows(rng, 5, k, 2) is None
    assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state

    # colsample < 1: each round draws its rows, then its columns.
    model = GradientBoostedTrees(
        n_estimators=5, subsample=0.8, colsample=0.5, random_state=3
    )
    with mock.patch.object(_native, "choice_rows", side_effect=AssertionError):
        rows, cols = model._subsamples(50, 4)
    rng = np.random.default_rng(3)
    for t in range(5):
        assert np.array_equal(rows[t], rng.choice(50, size=40, replace=False))
        assert np.array_equal(cols[t], np.sort(rng.choice(4, size=2, replace=False)))

    # A self-check that fails: here the kernel returns the rounds reversed.
    draw = _native._draw_rows
    monkeypatch.setattr(_native, "_choice_ok", None)
    monkeypatch.setattr(_native, "_draw_rows", lambda *args: draw(*args)[::-1])
    assert _native.choice_rows(np.random.default_rng(1), 50, 40, 3) is None
    assert _native._choice_ok is (False if _native.available() else None)
    model = GradientBoostedTrees(n_estimators=5, subsample=0.8, random_state=3)
    rows, cols = model._subsamples(50, 4)
    assert cols is None
    assert np.array_equal(rows, _loop_rows(np.random.default_rng(3), 50, 40, 5))


@given(
    highs=st.lists(st.integers(1, 2**16) | st.just(1), min_size=1, max_size=8),
    rows=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_bounded_rows_matches_tiled_integers(highs, rows, seed):
    """One compiled call draws ``rng.integers(np.tile(highs, rows))`` as
    rows and leaves the generator in the same state; without the
    kernels it draws nothing."""
    highs = np.array(highs, dtype=np.int64)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    out = _native.bounded_rows(ours, highs, rows)
    if _native.available():
        want = theirs.integers(np.tile(highs, rows)).reshape(rows, -1)
        assert out.dtype == np.int64 and np.array_equal(out, want)
    else:
        assert out is None
    assert ours.bit_generator.state == theirs.bit_generator.state


@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), max_size=40),
    sigma=st.floats(1e-3, 40.0),
)
@settings(max_examples=60, deadline=None)
def test_normal_draws_match_generator_normal(seeds, sigma):
    """Per seed, the compiled draw is the first ``normal(0, sigma)`` of
    ``default_rng(seed)``, float for float."""
    from repro.insitu.measurement import _seed_states

    seeds = [*seeds, 0, 2**32 - 1, 2**32, 2**64 - 1]
    out = _native.normal_draws(_seed_states(np.array(seeds, dtype=np.uint64)), sigma)
    if not _native.available():
        assert out is None
        return
    # Built beside numpy's library, the kernel draws.
    assert out is not None or not os.path.exists(_native._NPYRANDOM)
    if out is not None:
        want = [np.random.default_rng(s).normal(0.0, sigma) for s in seeds]
        assert [x.hex() for x in out.tolist()] == [x.hex() for x in want]


def test_normal_check_batch_takes_the_slow_path():
    """The first-use check reaches the ziggurat's slow path: some of its
    reference draws use more than one 64-bit output of their PCG64."""
    words = np.random.default_rng(2021).integers(
        0, 2**64, size=(_native._NORMAL_CHECK_ROWS, 4), dtype=np.uint64
    )
    slow = 0
    for row in words:
        drawn = np.random.PCG64(_native.SeedState(row))
        np.random.Generator(drawn).normal(0.0, 0.3)
        stepped = np.random.PCG64(_native.SeedState(row))
        stepped.random_raw()
        slow += drawn.state != stepped.state
    assert slow >= 2


def test_draw_kernels_fall_back(monkeypatch):
    """A ``high`` past the kernel's bound, an empty row, and failed
    self-checks all draw nothing, and leave the generator untouched."""
    rng = np.random.default_rng(5)
    for highs in ([2**32 - 1], [3, 2**40], []):
        assert _native.bounded_rows(rng, np.array(highs, dtype=np.int64), 4) is None
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    # Self-checks that fail: the kernels return their rows reversed.
    def reversed_rows(draw):
        def draw_reversed(*args):
            out = draw(*args)
            return None if out is None else out[::-1]

        return draw_reversed

    monkeypatch.setattr(_native, "_bounded_ok", None)
    monkeypatch.setattr(_native, "_normal_ok", None)
    monkeypatch.setattr(_native, "_draw_bounded", reversed_rows(_native._draw_bounded))
    monkeypatch.setattr(_native, "_draw_normals", reversed_rows(_native._draw_normals))
    highs = np.array([4, 9], dtype=np.int64)
    assert _native.bounded_rows(rng, highs, 3) is None
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
    words = np.zeros((3, 4), dtype=np.uint64)
    assert _native.normal_draws(words, 0.1) is None
    checked = False if _native.available() else None
    assert _native._bounded_ok is checked and _native._normal_ok is checked
    assert not _native.draws_checked()


@pytest.mark.parametrize("fault", ["missing library", "failed link"])
def test_kernels_build_without_numpys_library(monkeypatch, tmp_path, fault):
    """Without numpy's distributions library, or when linking it fails,
    the source builds without the normal draws and every other kernel
    stays."""
    if not _native.available():
        pytest.skip("the compiled kernels do not build here")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # a fresh build
    if fault == "missing library":
        monkeypatch.setattr(_native, "_NPYRANDOM", str(tmp_path / "libnpyrandom.a"))
    else:  # random_normal left undefined
        monkeypatch.setattr(
            _native, "_NPYRANDOM_LINK", ("-DREPRO_NPYRANDOM", "-Wl,--no-undefined")
        )
    for name in ("_state", "_choice_ok", "_bounded_ok", "_normal_ok"):
        monkeypatch.setattr(_native, name, None)
    assert _native.available()
    assert _native.normal_draws(np.zeros((2, 4), dtype=np.uint64), 0.1) is None
    assert _native._normal_ok is False
    assert _native.bounded_rows(np.random.default_rng(3), np.array([5, 7]), 4) is not None
    assert _native.choice_rows(np.random.default_rng(3), 50, 10, 2) is not None


@pytest.mark.parametrize("case", range(10))
def test_forest_predict_bit_identical_to_reference(case):
    rng = np.random.default_rng(200 + case)
    n = int(rng.integers(5, 150))
    d = int(rng.integers(1, 7))
    X = _random_matrix(rng, n, d, case)
    y = rng.normal(size=n)
    model = RandomForestRegressor(
        n_estimators=int(rng.integers(1, 20)),
        max_depth=int(rng.integers(1, 9)),
        random_state=case,
    ).fit(X, y)
    X_test = rng.normal(size=(int(rng.integers(1, 200)), d))
    assert np.array_equal(
        model.predict(X_test), reference_forest_predict(model, X_test)
    )


def test_packed_leaf_indices_land_on_leaves():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(120, 5))
    y = rng.normal(size=120) ** 2 + 0.1
    model = GradientBoostedTrees(n_estimators=7, random_state=0).fit(X, y)
    packed = model._packed
    leaves = packed.leaf_indices(rng.normal(size=(50, 5)))
    assert leaves.shape == (50, packed.n_trees)
    # A leaf self-loops: stepping once more stays put.
    assert np.array_equal(packed.left[leaves], leaves)
    assert np.array_equal(packed.right[leaves], leaves)


def test_packed_validates_input():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 3))
    model = GradientBoostedTrees(n_estimators=2, random_state=0).fit(
        X, np.abs(rng.normal(size=30)) + 0.1
    )
    with pytest.raises(ValueError, match="2-D"):
        model._packed.leaf_indices(np.zeros(3))
    with pytest.raises(ValueError, match="features"):
        model._packed.leaf_indices(np.zeros((4, 5)))
    with pytest.raises(ValueError, match="empty"):
        PackedEnsemble.pack([], n_features=3)


def test_single_tree_packed_matches_tree_predict():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(80, 4))
    y = rng.normal(size=80)
    tree = RegressionTree(max_depth=5).fit(X, y)
    packed = PackedEnsemble.pack([tree], n_features=4)
    X_test = rng.normal(size=(60, 4))
    assert np.array_equal(packed.predict(X_test), reference_tree_predict(tree, X_test))
    assert np.array_equal(packed.predict(X_test), tree.predict(X_test))


# -- fitted-state consistency (is_fitted vs predict) --------------------------


def test_is_fitted_agrees_with_predict():
    model = GradientBoostedTrees(n_estimators=3, random_state=0)
    assert not model.is_fitted
    with pytest.raises(RuntimeError):
        model.predict(np.zeros((2, 3)))

    # The historical disagreement: _n_features set but no trees
    # (e.g. a strategy poking internals) used to report is_fitted=True
    # while predict raised.  Both now key off _packed.
    model._n_features = 3
    assert not model.is_fitted
    with pytest.raises(RuntimeError):
        model.predict(np.zeros((2, 3)))

    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 3))
    model.fit(X, np.abs(rng.normal(size=30)) + 0.1)
    assert model.is_fitted
    assert model.predict(X).shape == (30,)


# -- pickling / registry round-trip -------------------------------------------


def test_packed_model_pickle_roundtrip():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 4))
    y = np.abs(rng.normal(size=60)) + 0.1
    model = GradientBoostedTrees(n_estimators=5, random_state=1).fit(X, y)
    clone = pickle.loads(pickle.dumps(model))
    assert np.array_equal(clone.predict(X), model.predict(X))


def test_old_layout_pickle_packs_on_load():
    """Blobs pickled with per-tree state (and, older, no ``_packed``)
    load as the packed-only model a fit produces today."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 4))
    y = np.abs(rng.normal(size=60)) + 0.1
    model = GradientBoostedTrees(n_estimators=5, colsample=0.5, random_state=1)
    trees, columns, base = reference_boosting_fit(model, X, y)
    model.fit(X, y)
    for packed in ({}, {"_packed": None}, {"_packed": model._packed}):
        stale = model.clone()  # its __dict__ holds no _packed yet
        stale.__dict__.update(
            _trees=trees, _tree_columns=columns, _base_score=base,
            _n_features=4, **packed,
        )
        loaded = pickle.loads(pickle.dumps(stale))
        assert not {"_trees", "_tree_columns"} & set(vars(loaded))
        _assert_same_table(loaded._packed, model._packed)
        assert np.array_equal(loaded.predict(X), model.predict(X))


def test_registry_roundtrip_keeps_packed_predictions(tmp_path):
    from repro.store.db import MeasurementStore
    from repro.store.registry import ModelRegistry, training_key

    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 3))
    y = np.abs(rng.normal(size=40)) + 0.1

    def fit():
        return GradientBoostedTrees(n_estimators=4, random_state=2).fit(X, y)

    store = MeasurementStore(tmp_path / "models.db")
    registry = ModelRegistry(store)
    key = training_key("gbt", "lab", "obj", X, y, repr(GradientBoostedTrees()))
    fitted = registry.fit_or_load(key, fit)
    loaded = registry.fit_or_load(key, fit)
    assert registry.hits == 1 and registry.misses == 1
    assert getattr(loaded, "_packed", None) is not None
    assert np.array_equal(loaded.predict(X), fitted.predict(X))


# -- pool caches ----------------------------------------------------------------


def _a_times_b(space, X):
    return X[:, 0] * X[:, 1]


def _toy_encoder() -> ConfigEncoder:
    space = ParameterSpace(
        (Parameter("a", (1, 2, 4)), Parameter("b", (10, 20)))
    )
    return ConfigEncoder(space, (DerivedFeature("a_times_b", _a_times_b),))


def test_telemetry_summary_surfaces_ml_kernels(lv, lv_pool, lv_histories):
    from repro import telemetry
    from repro.core.component_models import ComponentModelSet
    from repro.core.objectives import EXECUTION_TIME
    from repro.telemetry.hub import Telemetry

    # Every component sub-configuration of these six is distinct.
    configs = lv_pool.configs[:6]
    hub = Telemetry()
    with telemetry.use(hub):
        models = ComponentModelSet.train(
            lv, EXECUTION_TIME, lv_histories, random_state=0
        )
        models.predict_components(configs)
        models.predict_components(configs)  # second pass is all cache hits
    names = {r.name for r in hub.spans}
    assert {"ml.fit.boosting", "ml.predict"} <= names
    metrics = {s["name"]: s for s in hub.metrics_snapshot()}
    rows = len(configs) * len(lv.labels)
    assert metrics["pool_cache.misses"]["value"] == rows
    assert metrics["pool_cache.hits"]["value"] == rows
    lines = telemetry.summarize(hub).splitlines()
    assert any(line.startswith("ml.predict ") for line in lines)
    for name in ("pool_cache.hits", "pool_cache.misses"):
        assert f"  {name:30s} {float(rows)}" in lines


def test_surrogate_cache_matches_fresh_predictions():
    from repro.core.surrogate import default_surrogate

    enc = _toy_encoder()
    configs = [(a, b) for a in (1, 2, 4) for b in (10, 20)]
    values = np.array([3.0, 5.0, 2.5, 8.0, 1.5, 9.0])
    cached = default_surrogate(enc, random_state=0).fit(configs, values)
    fresh = default_surrogate(enc, random_state=0).fit(configs, values)
    subset = configs[2:5]
    cached.predict(configs)
    assert np.array_equal(cached.predict(subset), fresh.predict(subset))
    cached.fit(configs, values * 2.0)
    assert np.array_equal(
        cached.predict(subset),
        default_surrogate(enc, random_state=0).fit(configs, values * 2.0).predict(subset),
    )


# -- compiled fast path -------------------------------------------------------


def test_unit_hessian_fastpath_matches_reference():
    """h ≡ 1 triggers the synthesized hessian prefix sums; still exact."""
    rng = np.random.default_rng(3)
    X = _random_matrix(rng, 180, 5, case=0)
    g = rng.normal(size=180)
    h = np.ones(180)
    fast = RegressionTree(max_depth=6, min_samples_leaf=3).fit_gradients(X, g, h)
    slow = RegressionTree(max_depth=6, min_samples_leaf=3)
    reference_fit_gradients(slow, X, g, h, fast.reg_lambda)
    assert np.array_equal(fast.feature, slow.feature)
    assert np.array_equal(fast.threshold, slow.threshold, equal_nan=True)
    assert np.array_equal(fast.value, slow.value)


def test_precomputed_group_id_slices_match_per_fit_ranks():
    """Un-renumbered rank slices reproduce per-subset presorting exactly."""
    from repro.ml.tree import _feature_group_ids

    rng = np.random.default_rng(12)
    X = _random_matrix(rng, 120, 6, case=0)
    g = rng.normal(size=120)
    h = np.ones(120)
    gid = _feature_group_ids(X)
    rows = rng.choice(120, size=90, replace=False)
    cols = np.sort(rng.choice(6, size=4, replace=False))
    sliced = RegressionTree(max_depth=4).fit_gradients(
        X[np.ix_(rows, cols)], g[rows], h[rows],
        group_ids=gid[np.ix_(rows, cols)],
    )
    fresh = RegressionTree(max_depth=4).fit_gradients(
        X[np.ix_(rows, cols)], g[rows], h[rows]
    )
    assert np.array_equal(sliced.threshold, fresh.threshold, equal_nan=True)
    assert np.array_equal(sliced.value, fresh.value)


def test_group_ids_shape_mismatch_raises():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 3))
    with pytest.raises(ValueError, match="group_ids"):
        RegressionTree().fit_gradients(
            X, -X[:, 0], np.ones(30), group_ids=np.zeros((30, 2), dtype=np.uint16)
        )
