"""Unit tests for repro.config.space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.space import (
    Parameter,
    ParameterSpace,
    choice,
    geometric_range,
    int_range,
    join_spaces,
)


def make_space() -> ParameterSpace:
    return ParameterSpace(
        (
            int_range("procs", 2, 10),
            choice("outputs", (4, 8, 16)),
            int_range("threads", 1, 4),
        )
    )


class TestParameter:
    def test_int_range_values(self):
        p = int_range("x", 2, 5)
        assert p.values == (2, 3, 4, 5)
        assert p.n_options == 4

    def test_int_range_step(self):
        p = int_range("x", 4, 32, step=4)
        assert p.values == (4, 8, 12, 16, 20, 24, 28, 32)

    def test_geometric_range(self):
        p = geometric_range("x", 4, 32)
        assert p.values == (4, 8, 16, 32)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            int_range("x", 5, 4)

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError):
            Parameter("x", (1, 1, 2))

    def test_no_values_rejected(self):
        with pytest.raises(ValueError):
            Parameter("x", ())

    def test_index_of(self):
        p = choice("x", (10, 20, 30))
        assert p.index_of(20) == 1
        with pytest.raises(ValueError):
            p.index_of(99)

    def test_clip_index(self):
        p = choice("x", (10, 20, 30))
        assert p.clip_index(-3) == 0
        assert p.clip_index(7) == 2
        assert p.clip_index(1) == 1


class TestParameterSpace:
    def test_size_is_product(self):
        assert make_space().size() == 9 * 3 * 4

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpace((int_range("a", 0, 1), int_range("a", 0, 1)))

    def test_contains(self):
        s = make_space()
        assert s.contains((2, 4, 1))
        assert not s.contains((2, 5, 1))  # 5 not an outputs option
        assert not s.contains((2, 4))  # wrong arity

    def test_validate_raises_with_parameter_name(self):
        s = make_space()
        with pytest.raises(ValueError, match="outputs"):
            s.validate((2, 5, 1))

    def test_dict_round_trip(self):
        s = make_space()
        config = (3, 8, 2)
        assert s.from_dict(s.as_dict(config)) == config

    def test_from_dict_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            make_space().from_dict({"procs": 2})

    def test_value_accessor(self):
        s = make_space()
        assert s.value((3, 8, 2), "outputs") == 8

    def test_sample_within_space(self):
        s = make_space()
        rng = np.random.default_rng(0)
        for config in s.sample(rng, 50):
            assert s.contains(config)

    def test_sample_unique(self):
        s = make_space()
        rng = np.random.default_rng(0)
        configs = s.sample(rng, 40, unique=True)
        assert len(set(configs)) == 40

    def test_sample_respects_constraint(self):
        s = make_space()
        rng = np.random.default_rng(0)
        configs = s.sample(rng, 30, constraint=lambda c: c[0] % 2 == 0)
        assert all(c[0] % 2 == 0 for c in configs)

    def test_sample_impossible_constraint_raises(self):
        s = make_space()
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError, match="rejection sampling"):
            s.sample(rng, 1, constraint=lambda c: False, max_tries_factor=10)

    def test_sample_gives_up_after_exactly_the_draw_limit(self):
        tried = []
        with pytest.raises(RuntimeError, match="exceeded 150 draws"):
            make_space().sample(
                np.random.default_rng(0),
                3,
                constraint=lambda c: tried.append(c) and False,
                max_tries_factor=50,
            )
        assert len(tried) == 150

    def test_sample_deterministic_given_seed(self):
        s = make_space()
        a = s.sample(np.random.default_rng(3), 10)
        b = s.sample(np.random.default_rng(3), 10)
        assert a == b

    def test_enumerate_covers_space(self):
        s = ParameterSpace((int_range("a", 0, 1), choice("b", ("x", "y"))))
        assert sorted(s.enumerate()) == [
            (0, "x"), (0, "y"), (1, "x"), (1, "y"),
        ]

    def test_indices_round_trip(self):
        s = make_space()
        config = (7, 16, 3)
        assert s.from_indices(s.to_indices(config)) == config

    def test_normalize_in_unit_cube(self):
        s = make_space()
        rng = np.random.default_rng(0)
        X = s.normalize(s.sample(rng, 20))
        assert X.shape == (20, 3)
        assert X.min() >= 0.0 and X.max() <= 1.0

    def test_normalize_empty(self):
        assert make_space().normalize([]).shape == (0, 3)

    def test_neighbors_one_step(self):
        s = make_space()
        config = (2, 4, 1)  # both at lower bounds except procs=2 (lowest)
        neighbors = s.neighbors(config)
        # lower-bound parameters only move up: 1 (procs up) + 1 (outputs
        # up) + 1 (threads up)
        assert set(neighbors) == {(3, 4, 1), (2, 8, 1), (2, 4, 2)}

    def test_neighbors_interior(self):
        s = make_space()
        assert len(s.neighbors((5, 8, 2))) == 6


class TestJoinSpaces:
    def test_prefixing_and_order(self):
        a = ParameterSpace((int_range("p", 1, 2),))
        b = ParameterSpace((int_range("p", 1, 3),))
        joint = join_spaces([("sim", a), ("viz", b)])
        assert joint.names == ("sim.p", "viz.p")
        assert joint.size() == 2 * 3

    def test_duplicate_labels_rejected(self):
        a = ParameterSpace((int_range("p", 1, 2),))
        with pytest.raises(ValueError):
            join_spaces([("x", a), ("x", a)])


@given(n=st.integers(1, 120), seed=st.integers(0, 2**32), batched=st.booleans())
@settings(max_examples=25, deadline=None)
def test_sample_is_a_prefix_of_one_long_stream(n, seed, batched):
    """Chunk sizes never change which configurations a seed yields.

    LV's allocation rules accept under 2% of uniform draws, so chunks
    are re-sized several times; with and without ``feasible_batch``.
    """
    from repro.workflows.catalog import make_lv

    lv = make_lv()
    space, rule = lv.space, lv.constraint
    got = space.sample(
        np.random.default_rng(seed),
        n,
        constraint=rule if batched else (lambda c: rule(c)),
        unique=True,
    )
    highs = np.array([p.n_options for p in space.parameters])
    draws = 400 * n + 1000
    stream = np.random.default_rng(seed).integers(np.tile(highs, draws))
    expected: list = []
    for row in stream.reshape(draws, -1).tolist():
        config = space.from_indices(row)
        if rule(config) and config not in expected:
            expected.append(config)
            if len(expected) == n:
                break
    assert got == expected
