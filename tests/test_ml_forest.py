"""Unit tests for the random forest."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import rmse


@pytest.fixture()
def data():
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 5, size=(150, 3))
    y = X[:, 0] ** 2 + 3 * X[:, 1] + rng.normal(0, 0.1, 150)
    return X, y


def test_learns_signal(data):
    X, y = data
    model = RandomForestRegressor(n_estimators=40, random_state=0).fit(X, y)
    assert rmse(y, model.predict(X)) < 0.5 * np.std(y)


def test_deterministic_given_seed(data):
    X, y = data
    a = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y)
    b = RandomForestRegressor(n_estimators=10, random_state=5).fit(X, y)
    np.testing.assert_array_equal(a.predict(X), b.predict(X))


def test_prediction_within_target_range(data):
    X, y = data
    model = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
    pred = model.predict(X)
    assert pred.min() >= y.min() - 1e-9 and pred.max() <= y.max() + 1e-9


def test_predict_before_fit():
    with pytest.raises(RuntimeError):
        RandomForestRegressor().predict(np.ones((1, 2)))


def test_feature_mismatch(data):
    X, y = data
    model = RandomForestRegressor(n_estimators=5, random_state=0).fit(X, y)
    with pytest.raises(ValueError):
        model.predict(np.ones((2, 5)))


def test_predict_rejects_non_2d_input(data):
    X, y = data
    model = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, y)
    with pytest.raises(ValueError, match="2-D"):
        model.predict(X[0])


def test_invalid_estimators():
    with pytest.raises(ValueError):
        RandomForestRegressor(n_estimators=0)


def test_max_features_default_third(data):
    X, y = data
    model = RandomForestRegressor(n_estimators=5, random_state=0)
    model.fit(X, y)  # just exercises the ceil(d/3) path on d=3 -> 1
    assert model.predict(X).shape == y.shape
