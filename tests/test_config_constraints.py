"""A workflow's allocation constraint: feasibility from the apps' placements."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.apps import GrayScott
from repro.apps.base import ComponentApp, StepProfile
from repro.cluster.allocation import Placement, place_component
from repro.cluster.machine import Machine
from repro.config.space import Configuration, ParameterSpace, int_range
from repro.core import AutoTuner
from repro.insitu import Coupling, WorkflowDefinition
from repro.workflows.catalog import make_gp, make_hs, make_lv
from repro.workflows.pools import generate_pool


@pytest.fixture(scope="module")
def lv():
    return make_lv()


def _batch(workflow, configs):
    """``feasible_batch`` of ``configs``, drawn as value indices."""
    idx = np.array([workflow.space.to_indices(c) for c in configs])
    return workflow.constraint.feasible_batch(workflow.space, idx).tolist()


class TestAllocationConstraint:
    def test_feasible_config(self, lv):
        # lammps: 288/18 = 16 nodes, voro: 288/18 = 16 nodes -> 32 total
        config = (288, 18, 2, 288, 18, 1)
        assert lv.constraint(config)
        assert _batch(lv, [config]) == [True]

    def test_node_cap_violated(self, lv):
        # lammps: 1085/35 = 31 nodes, voro: 70/35 = 2 nodes -> 33 > 32
        config = (1085, 35, 1, 70, 35, 1)
        assert not lv.constraint(config)
        assert _batch(lv, [config]) == [False]

    def test_core_oversubscription(self, lv):
        # ppn 18 * threads 3 = 54 > 36 cores
        config = (36, 18, 3, 2, 1, 1)
        assert not lv.constraint(config)
        assert _batch(lv, [config]) == [False]

    def test_ppn_exceeding_procs(self, lv):
        # 2 procs but 35 per node declared
        config = (2, 35, 1, 2, 1, 1)
        assert not lv.constraint(config)
        assert _batch(lv, [config]) == [False]

    def test_total_nodes(self, lv):
        assert lv.total_nodes((288, 18, 2, 288, 18, 2)) == 32

    def test_extra_nodes_count(self):
        # GP's plotters have no tunable placement, yet each one's node
        # counts: 29 + 1 + 1 + 1 = 32 fits, 30 + 1 + 1 + 1 = 33 does not.
        gp = make_gp()
        fits, over = (1015, 35, 35, 35, 1, 1), (1050, 35, 35, 35, 1, 1)
        assert gp.constraint(fits)
        assert not gp.constraint(over)
        assert _batch(gp, [fits, over]) == [True, False]


def test_product_procs_spec():
    # Heat Transfer's process count is its px * py grid.
    hs = make_hs()
    config = (4, 8, 16, 4, 20, 2, 2)  # heat: 32/16 = 2 nodes, stage_write 1
    assert hs.total_nodes(config) == 3
    assert hs.constraint(config)
    grid = (32, 32, 1, 4, 20, 2, 2)  # 1024 processes at 1 per node
    assert not hs.constraint(grid)
    assert _batch(hs, [config, grid]) == [True, False]


@dataclass
class _RankedAnalysis(ComponentApp):
    """A consumer whose placement parameters are not named procs/ppn."""

    name: str = "ranked"
    _space: ParameterSpace = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._space = ParameterSpace(
            (int_range("ranks", 1, 64), int_range("per_node", 1, 36))
        )

    @property
    def space(self) -> ParameterSpace:
        return self._space

    def placement(self, config: Configuration) -> Placement:
        ranks, per_node = config
        return place_component(ranks, per_node, 1)

    def step_profile(
        self, machine: Machine, config: Configuration, input_bytes: float
    ) -> StepProfile:
        placement = self.placement(config)
        seconds = 1.0 + input_bytes / 1e9 / placement.procs + 0.05 * placement.nodes
        return StepProfile(compute_seconds=seconds)


def test_custom_placement_names_tune():
    """Feasibility comes from the app's own placement, whatever its names."""
    workflow = WorkflowDefinition(
        name="GS-ranked",
        components=(("gray_scott", GrayScott()), ("an", _RankedAnalysis())),
        couplings=(Coupling("gray_scott", "an"),),
        n_steps=5,
    )
    pool = generate_pool(workflow, 60, seed=3)
    for config in pool.configs:
        placement = workflow.placements(config)["an"]
        assert placement.procs >= placement.procs_per_node
    assert workflow.encoder().n_features == workflow.space.dimension + 2
    outcome = AutoTuner(
        workflow,
        "execution_time",
        budget=8,
        pool_size=60,
        history_size=30,
        seed=1,
    ).tune()
    assert outcome.runs_used == 8
    assert outcome.best_config in outcome.pool.configs
