"""Unit tests for gradient boosting."""

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.ml import _native
from repro.ml.boosting import GradientBoostedTrees
from repro.ml.metrics import rmse


@pytest.fixture()
def rng():
    return np.random.default_rng(1)


@pytest.fixture()
def data(rng):
    X = rng.uniform(0, 10, size=(200, 4))
    y = 2.0 * X[:, 0] + np.sin(X[:, 1]) + 0.5 * X[:, 2] * X[:, 3] / 10 + 5.0
    return X, y


class TestFit:
    def test_reduces_training_error_with_rounds(self, data):
        X, y = data
        few = GradientBoostedTrees(n_estimators=5, random_state=0).fit(X, y)
        many = GradientBoostedTrees(n_estimators=100, random_state=0).fit(X, y)
        assert rmse(y, many.predict(X)) < rmse(y, few.predict(X))

    def test_beats_mean_baseline(self, data):
        X, y = data
        model = GradientBoostedTrees(n_estimators=80, random_state=0).fit(X, y)
        assert rmse(y, model.predict(X)) < 0.5 * np.std(y)

    def test_constant_target(self, rng):
        X = rng.uniform(size=(50, 3))
        y = np.full(50, 3.5)
        model = GradientBoostedTrees(n_estimators=10).fit(X, y)
        np.testing.assert_allclose(model.predict(X), 3.5, rtol=1e-9)

    def test_log_target_positive_predictions(self, rng):
        X = rng.uniform(size=(100, 3))
        y = np.exp(rng.normal(size=100))  # positive, heavy tailed
        model = GradientBoostedTrees(
            n_estimators=40, log_target=True, random_state=0
        ).fit(X, y)
        assert (model.predict(X) > 0).all()

    def test_log_target_rejects_nonpositive(self, rng):
        X = rng.uniform(size=(10, 2))
        y = np.linspace(-1, 1, 10)
        with pytest.raises(ValueError, match="positive"):
            GradientBoostedTrees(log_target=True).fit(X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("native", [True, False])
    def test_rejects_nonfinite_targets(self, rng, bad, native):
        X = rng.uniform(size=(10, 2))
        y = np.linspace(1.0, 2.0, 10)
        y[3] = bad
        off = mock.patch.object(_native, "boosting_fit", return_value=None)
        with contextlib.nullcontext() if native else off:
            for log_target in (False, True):
                with pytest.raises(ValueError, match="finite"):
                    GradientBoostedTrees(log_target=log_target).fit(X, y)

    def test_deterministic_given_seed(self, data):
        X, y = data
        a = GradientBoostedTrees(subsample=0.7, random_state=9).fit(X, y)
        b = GradientBoostedTrees(subsample=0.7, random_state=9).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_subsample_seeds_differ(self, data):
        X, y = data
        a = GradientBoostedTrees(subsample=0.5, random_state=1).fit(X, y)
        b = GradientBoostedTrees(subsample=0.5, random_state=2).fit(X, y)
        assert not np.array_equal(a.predict(X), b.predict(X))

    def test_colsample(self, data):
        X, y = data
        model = GradientBoostedTrees(
            n_estimators=30, colsample=0.5, random_state=0
        ).fit(X, y)
        assert rmse(y, model.predict(X)) < np.std(y)

    def test_refit_resets_state(self, data):
        X, y = data
        model = GradientBoostedTrees(n_estimators=20, random_state=0)
        model.fit(X, y)
        first = model.predict(X)
        model.fit(X, y)  # refit from scratch
        np.testing.assert_array_equal(first, model.predict(X))

    def test_two_samples_minimum(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, 2.0])
        model = GradientBoostedTrees(n_estimators=5, min_samples_leaf=1).fit(X, y)
        assert model.predict(X).shape == (2,)


class TestValidation:
    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(subsample=1.5)
        with pytest.raises(ValueError):
            GradientBoostedTrees(colsample=0.0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.ones((1, 2)))

    def test_feature_count_mismatch(self, data):
        X, y = data
        model = GradientBoostedTrees(n_estimators=5).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.ones((3, 2)))

    def test_misaligned_y(self, rng):
        with pytest.raises(ValueError):
            GradientBoostedTrees().fit(rng.uniform(size=(10, 2)), np.ones(9))

    def test_clone_is_unfitted_copy(self, data):
        X, y = data
        model = GradientBoostedTrees(n_estimators=7, learning_rate=0.3)
        model.fit(X, y)
        clone = model.clone()
        assert clone.n_estimators == 7
        assert clone.learning_rate == 0.3
        with pytest.raises(RuntimeError):
            clone.predict(X)
