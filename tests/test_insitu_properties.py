"""Property-based tests of the in-situ layer (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.insitu.coupled import run_coupled
from repro.insitu.measurement import measure_workflow
from repro.workflows.catalog import make_lv

_LV = make_lv()


def _feasible_lv_config(draw):
    """Draw a feasible LV configuration directly (no rejection loops)."""
    # Keep each component within 14 nodes so 2 components always fit.
    ppn1 = draw(st.integers(10, 35))
    nodes1 = draw(st.integers(1, 14))
    procs1 = min(1085, ppn1 * nodes1)
    threads1 = draw(st.integers(1, max(1, 36 // ppn1)))
    ppn2 = draw(st.integers(10, 35))
    nodes2 = draw(st.integers(1, 14))
    procs2 = min(1085, ppn2 * nodes2)
    threads2 = draw(st.integers(1, max(1, 36 // ppn2)))
    return (max(procs1, 2), ppn1, min(threads1, 4),
            max(procs2, 2), ppn2, min(threads2, 4))


@st.composite
def feasible_lv(draw):
    return _feasible_lv_config(draw)


@given(config=feasible_lv())
@settings(max_examples=30, deadline=None)
def test_coupled_run_invariants(config):
    """Every feasible coupled run satisfies basic accounting laws."""
    result = run_coupled(_LV, config)
    # All components finished and took positive time.
    assert set(result.component_seconds) == set(_LV.labels)
    assert all(v > 0 for v in result.component_seconds.values())
    # Execution time is the longest component.
    assert result.execution_seconds == max(result.component_seconds.values())
    # Busy time never exceeds wall-clock (stalls are non-negative).
    for label in _LV.labels:
        assert result.busy_seconds[label] <= result.component_seconds[label] + 1e-6
    # Node footprint matches the placements' accounting.
    assert result.nodes == _LV.total_nodes(config)
    assert result.nodes <= _LV.machine.max_nodes


@given(config=feasible_lv(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_measurement_noise_bounded_and_consistent(config, seed):
    """Noisy measurements stay consistent with their own definition."""
    m = measure_workflow(_LV, config, noise_sigma=0.05, noise_seed=seed)
    clean = measure_workflow(_LV, config, noise_sigma=0)
    # Log-normal noise with sigma 5%: within ±6 sigma of truth.
    ratio = m.execution_seconds / clean.execution_seconds
    assert 0.7 < ratio < 1.4
    # Computer time definition holds under noise.
    expected = m.execution_seconds * m.nodes * _LV.machine.node.cores / 3600.0
    assert abs(m.computer_core_hours - expected) < 1e-9
    # Components scale with the same factor (one factor per run).
    assert m.execution_seconds == max(m.component_seconds.values())


@given(config=feasible_lv())
@settings(max_examples=15, deadline=None)
def test_solo_runs_positive_and_monotone_in_steps(config):
    for label in _LV.labels:
        comp = _LV.component_config(label, config)
        app = _LV.app(label)
        short = app.solo_run(_LV.machine, comp, n_steps=5)
        long = app.solo_run(_LV.machine, comp, n_steps=10)
        assert 0 < short.execution_seconds < long.execution_seconds
        assert short.nodes == long.nodes
