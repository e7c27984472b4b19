"""Unit tests for repro.config.encoding."""

import numpy as np
import pytest

from repro.config.encoding import (
    ConfigEncoder,
    DerivedFeature,
    component_footprint_features,
)
from repro.config.space import ParameterSpace, int_range, join_spaces


@pytest.fixture()
def space():
    return ParameterSpace((int_range("procs", 2, 100), int_range("ppn", 1, 35)))


def test_raw_encoding_matches_values(space):
    enc = ConfigEncoder(space)
    X = enc.encode([(10, 5), (20, 7)])
    assert X.shape == (2, 2)
    np.testing.assert_array_equal(X, [[10, 5], [20, 7]])


def test_empty_encoding(space):
    enc = ConfigEncoder(space)
    assert enc.encode([]).shape == (0, 2)


def test_derived_feature_appended(space):
    nodes = DerivedFeature("nodes", lambda s, X: -(-X[:, 0] // X[:, 1]))
    enc = ConfigEncoder(space, (nodes,))
    X = enc.encode([(10, 3), (12, 4)])
    assert X.shape == (2, 3)
    np.testing.assert_array_equal(X[:, 2], [4, 3])  # ceil(10/3), ceil(12/4)
    np.testing.assert_array_equal(enc.encode_one((10, 3)), X[0])
    assert enc.feature_names() == ("procs", "ppn", "nodes")


def test_with_derived_returns_new_encoder(space):
    enc = ConfigEncoder(space)
    enc2 = enc.with_derived(DerivedFeature("one", lambda s, X: np.ones(len(X))))
    assert enc.n_features == 2
    assert enc2.n_features == 3
    np.testing.assert_array_equal(enc2.encode([(10, 5), (20, 7)])[:, 2], 1.0)


def test_component_footprint_features():
    comp = ParameterSpace(
        (int_range("procs", 2, 100), int_range("ppn", 1, 35),
         int_range("threads", 1, 4))
    )
    joint = join_spaces([("sim", comp)])
    feats = component_footprint_features(
        "sim", ("sim.procs",), "sim.ppn", "sim.threads"
    )
    names = [f.name for f in feats]
    assert names == ["sim.total_procs", "sim.nodes", "sim.cores_used"]
    X = np.array([(70, 35, 2), (71, 35, 1)], dtype=np.float64)
    values = {f.name: f(joint, X) for f in feats}
    np.testing.assert_array_equal(values["sim.total_procs"], [70, 71])
    np.testing.assert_array_equal(values["sim.nodes"], [2, 3])
    np.testing.assert_array_equal(values["sim.cores_used"], [70, 35])


def test_footprint_product_procs():
    grid = ParameterSpace(
        (int_range("px", 2, 8), int_range("py", 2, 8), int_range("ppn", 1, 35))
    )
    joint = join_spaces([("heat", grid)])
    feats = component_footprint_features(
        "heat", ("heat.px", "heat.py"), "heat.ppn"
    )
    values = {f.name: f(joint, np.array([(4, 6, 10)], dtype=float))[0] for f in feats}
    assert values["heat.total_procs"] == 24
    assert values["heat.nodes"] == 3  # ceil(24/10)
