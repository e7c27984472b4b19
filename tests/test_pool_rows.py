"""Pool rows: a pool's value matrix and its row views against tuple oracles.

Models score a pool as rows of its :class:`~repro.config.table.ConfigTable`
instead of converting configuration tuples on every call.  Each property
here checks one consumer of those rows against the tuple path it
replaced, kept in this file as the oracle: encoding, component
predictions, the candidate tracker and candidate ranking.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.table import ConfigRows, ConfigTable
from repro.core.component_models import ComponentModelSet
from repro.core.driver import CandidateTracker, TuningSession
from repro.core.objectives import COMPUTER_TIME, EXECUTION_TIME
from repro.core.problem import TuningProblem
from repro.workflows.pools import generate_component_history

WORKFLOWS = ("lv", "hs", "gp")


@pytest.fixture(scope="module")
def pools(lv, hs, gp, lv_pool, hs_pool, gp_pool):
    return {"lv": (lv, lv_pool), "hs": (hs, hs_pool), "gp": (gp, gp_pool)}


def _view_rows(rng, n: int, kind: str) -> np.ndarray:
    """Row indices of an empty, one-row, full or random view."""
    if kind == "empty":
        return np.empty(0, dtype=np.int64)
    if kind == "one":
        return np.array([rng.integers(n)])
    if kind == "full":
        return np.arange(n)
    return np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values).ravel()]


@given(
    workflow=st.sampled_from(WORKFLOWS),
    kind=st.sampled_from(["empty", "one", "full", "subset"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_encode_view_matches_tuples(pools, workflow, kind, seed):
    """Encoding a view (its rows of the value matrix, plus the derived
    features) equals encoding its tuples, byte for byte."""
    wf, pool = pools[workflow]
    encoder = wf.encoder()
    assert encoder.derived
    view = pool.table.view(_view_rows(np.random.default_rng(seed), len(pool), kind))
    got = encoder.encode(view)
    want = encoder.encode(list(view))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(
        pool.table.values, np.array(pool.configs, dtype=np.float64)
    )


def test_non_numeric_table_encodes_tuples():
    """A table with a non-numeric value has no matrix; its views encode
    their tuples and raise what the tuples raise."""
    from repro.config.encoding import ConfigEncoder
    from repro.config.space import Parameter, ParameterSpace

    space = ParameterSpace((Parameter("a", (1, 2)), Parameter("b", ("x", "y"))))
    table = ConfigTable.of([(1, "x"), (2, "y")])
    assert table.values is None
    with pytest.raises(ValueError) as got:
        ConfigEncoder(space).encode(table.view())
    with pytest.raises(ValueError) as want:
        np.array([(1, "x"), (2, "y")], dtype=np.float64)
    assert str(got.value) == str(want.value)
    flags = ConfigTable([(1, True), (2, False)])
    encoded = ConfigEncoder(space).encode(flags.view())
    assert encoded.tolist() == [[1.0, 1.0], [2.0, 0.0]]


_MODELS: dict = {}


def _component_models(pools, workflow, objective):
    """One trained set per workflow and objective (training is the slow
    part), scoring that workflow's pool."""
    key = (workflow, objective.name)
    if key not in _MODELS:
        wf, pool = pools[workflow]
        data = {
            label: generate_component_history(wf, label, size=40, seed=11)
            for label in wf.labels
            if wf.app(label).space.size() > 1
        }
        _MODELS[key] = ComponentModelSet.train(
            wf, objective, data, random_state=3, pool=pool.table
        )
    return _MODELS[key]


def _component_oracle(models, configs) -> np.ndarray:
    """The per-configuration loop: every component model predicts each
    configuration's own sub-configuration tuple."""
    wf = models.workflow
    out = np.empty((len(wf.labels), len(configs)))
    for k, label in enumerate(wf.labels):
        model = models.models[label]
        for i, config in enumerate(configs):
            if model.constant is not None:
                out[k, i] = model.constant
            else:
                sub = wf.component_config(label, config)
                out[k, i] = model.regressor.predict(model.encoder.encode([sub]))[0]
    return out


@given(
    workflow=st.sampled_from(WORKFLOWS),
    objective=st.sampled_from([EXECUTION_TIME, COMPUTER_TIME]),
    marks=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=12, deadline=None)
def test_component_predictions_match_per_config_loop(
    pools, workflow, objective, marks, seed
):
    """Component predictions of the tracker's remaining view, of a plain
    list of pool configurations and of an off-pool list equal the
    per-configuration loop by ``float.hex``, before and after marks."""
    wf, pool = pools[workflow]
    models = _component_models(pools, workflow, objective)
    rng = np.random.default_rng(seed)
    tracker = CandidateTracker(pool.table.view())
    for size in [0, *marks]:
        remaining = tracker.remaining
        size = min(size, len(remaining))
        picked = [remaining[i] for i in rng.choice(len(remaining), size, replace=False)]
        tracker.mark(picked)
        view = tracker.remaining
        want = _component_oracle(models, list(view))
        assert _hex(models.predict_components(view)) == _hex(want)
        if picked:
            assert _hex(models.predict_components(picked)) == _hex(
                _component_oracle(models, picked)
            )
    off_pool = wf.space.sample(rng, 3, constraint=wf.constraint, unique=True)
    assert _hex(models.predict_components(off_pool)) == _hex(
        _component_oracle(models, off_pool)
    )


class _ListTracker:
    """The list filter the tracker replaced (its oracle)."""

    def __init__(self, configs):
        self.remaining = [tuple(c) for c in configs]
        self.attempted = set()

    def mark(self, configs):
        for config in configs:
            self.attempted.add(tuple(config))
        self.remaining = [c for c in self.remaining if c not in self.attempted]


@given(
    configs=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 2)), min_size=0, max_size=30
    ),
    marks=st.lists(
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3)), max_size=5),
        max_size=6,
    ),
    restore_at=st.integers(0, 6),
    as_view=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_tracker_matches_list_filter(configs, marks, restore_at, as_view):
    """The alive mask over table rows removes what the list filter
    removes, in the same order: repeated configurations, marks outside
    the table, repeated marks; ``state_dict`` keeps the list-and-set
    format and a restore continues identically."""
    given_configs = ConfigTable.of(configs).view() if as_view else list(configs)
    tracker = CandidateTracker(given_configs)
    oracle = _ListTracker(configs)
    for step, batch in enumerate(marks):
        if step == restore_at:
            state = tracker.state_dict()
            assert state == {
                "remaining": oracle.remaining,
                "attempted": oracle.attempted,
            }
            tracker = CandidateTracker(given_configs)
            tracker.restore_state(state)
        tracker.mark(batch)
        oracle.mark(batch)
        assert isinstance(tracker.remaining, ConfigRows)
        assert list(tracker.remaining) == oracle.remaining
    restored = CandidateTracker([])
    restored.restore_state(tracker.state_dict())
    assert list(restored.remaining) == oracle.remaining


@given(
    workflow=st.sampled_from(WORKFLOWS),
    model=st.sampled_from(["surrogate", "low-fidelity"]),
    marks=st.integers(0, 60),
    take=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_rank_candidates_same_over_view_and_list(
    pools, workflow, model, marks, take, seed
):
    """``rank_candidates`` picks the same configurations, in the same
    order, over the tracker's view as over the list of its tuples."""
    wf, pool = pools[workflow]
    problem = TuningProblem.create(
        workflow=wf,
        objective=EXECUTION_TIME,
        pool=pool,
        budget_runs=20,
        seed=seed % 1000,
    )
    session = TuningSession.start(problem)
    rng = np.random.default_rng(seed)
    train = [pool.configs[i] for i in rng.choice(len(pool), 8, replace=False)]
    if model == "surrogate":
        scorer = problem.make_surrogate()
        scorer.fit(train, [pool.lookup(c).execution_seconds for c in train])
    else:
        from repro.core.low_fidelity import LowFidelityModel

        scorer = LowFidelityModel(_component_models(pools, workflow, EXECUTION_TIME))
    remaining = session.tracker.remaining
    session.tracker.mark(
        remaining[i] for i in rng.choice(len(remaining), marks, replace=False)
    )
    view = session.tracker.remaining
    assert session.rank_candidates(scorer, view, take) == session.rank_candidates(
        scorer, list(view), take
    )


def test_distinct_rows_published_once_across_threads(lv, lv_pool):
    """Serve workers share a pool: eight threads asking a fresh table for
    one component's distinct rows all get the one published result."""
    import sys
    import threading

    table = ConfigTable(lv_pool.configs, lv_pool.table.values)
    columns = lv.component_slice(lv.labels[0])
    barrier = threading.Barrier(8)
    got = []

    def ask():
        barrier.wait()
        got.append(table.distinct(columns))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 8 and all(result is got[0] for result in got)
    matrix, inverse = got[0]
    assert np.array_equal(matrix[inverse], table.values[:, columns])
