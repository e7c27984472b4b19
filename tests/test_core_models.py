"""Tests for component models, the low-fidelity ACM, and the surrogate."""

import numpy as np
import pytest

from repro.core.component_models import ComponentModelSet
from repro.core.low_fidelity import LowFidelityModel
from repro.core.objectives import COMPUTER_TIME, EXECUTION_TIME
from repro.core.surrogate import default_surrogate


@pytest.fixture(scope="module")
def lv_component_models(lv, lv_histories):
    return ComponentModelSet.train(lv, EXECUTION_TIME, lv_histories, random_state=0)


class TestComponentModels:
    def test_prediction_matrix_shape(self, lv, lv_component_models, lv_pool):
        matrix = lv_component_models.predict_components(list(lv_pool.configs[:10]))
        assert matrix.shape == (2, 10)
        assert (matrix > 0).all()

    def test_empty_input(self, lv_component_models):
        assert lv_component_models.predict_components([]).shape == (2, 0)

    def test_models_capture_component_scaling(self, lv, lv_component_models):
        # More LAMMPS processes (same density) => faster predicted solo time.
        slow = (8, 8, 1, 64, 16, 1)
        fast = (512, 32, 1, 64, 16, 1)
        m = lv_component_models.predict_components([slow, fast])
        assert m[0, 1] < m[0, 0]  # lammps row

    def test_too_few_samples_rejected(self, lv, lv_histories):
        tiny = {"lammps": lv_histories["lammps"].subset([0])}
        with pytest.raises(ValueError):
            ComponentModelSet.train(lv, EXECUTION_TIME, tiny)

    def test_missing_configurable_component_rejected(self, lv, lv_histories):
        data = dict(lv_histories)
        del data["voro"]
        with pytest.raises(ValueError, match="voro"):
            ComponentModelSet.train(lv, EXECUTION_TIME, data)

    def test_unconfigurable_components_constant(self, gp):
        from repro.workflows.pools import generate_component_history

        data = {
            label: generate_component_history(gp, label, size=80, seed=7)
            for label in ("gray_scott", "pdf_calc")
        }
        models = ComponentModelSet.train(gp, EXECUTION_TIME, data, random_state=0)
        some_configs = [
            (64, 16, 32, 16, 1, 1),
            (128, 32, 64, 32, 1, 1),
        ]
        matrix = models.predict_components(some_configs)
        gplot_row = gp.labels.index("gplot")
        assert matrix[gplot_row, 0] == matrix[gplot_row, 1]  # constant


class TestLowFidelity:
    def test_execution_score_is_max_of_components(self, lv, lv_component_models):
        model = LowFidelityModel(lv_component_models)
        configs = [(288, 18, 2, 288, 18, 2)]
        components = lv_component_models.predict_components(configs)
        assert model.predict(configs)[0] == pytest.approx(components.max(axis=0)[0])

    def test_computer_score_is_sum(self, lv, lv_histories):
        models = ComponentModelSet.train(
            lv, COMPUTER_TIME, lv_histories, random_state=0
        )
        model = LowFidelityModel(models)
        configs = [(288, 18, 2, 288, 18, 2)]
        components = models.predict_components(configs)
        assert model.predict(configs)[0] == pytest.approx(components.sum(axis=0)[0])

    def test_rank_and_top(self, lv_component_models, lv_pool):
        model = LowFidelityModel(lv_component_models)
        configs = list(lv_pool.configs[:30])
        order = model.rank(configs)
        scores = model.predict(configs)
        assert scores[order[0]] == scores.min()
        top = model.top(configs, 5)
        assert len(top) == 5
        assert top[0] == configs[order[0]]

    def test_low_fidelity_informative(self, lv_component_models, lv_pool):
        """The ACM must rank far better than chance (Fig. 4's premise)."""
        from repro.core.metrics import recall_score

        model = LowFidelityModel(lv_component_models)
        scores = model.predict(list(lv_pool.configs))
        truth = lv_pool.objective_values("execution_time")
        assert recall_score(scores, truth, 25) > 3 * (25 / len(lv_pool) * 100)


class TestSurrogate:
    def test_fit_predict_round(self, lv, lv_pool):
        surrogate = default_surrogate(lv.encoder(), random_state=0)
        configs = list(lv_pool.configs[:40])
        values = lv_pool.objective_values("execution_time")[:40]
        surrogate.fit(configs, values)
        pred = surrogate.predict(configs)
        assert pred.shape == (40,)
        assert (pred > 0).all()  # log-target keeps positivity

    def test_unfitted_predict_raises(self, lv):
        with pytest.raises(RuntimeError):
            default_surrogate(lv.encoder()).predict([(2, 1, 1, 2, 1, 1)])

    def test_learns_pool_ranking(self, lv, lv_pool):
        from scipy.stats import spearmanr

        surrogate = default_surrogate(lv.encoder(), random_state=0)
        n = len(lv_pool)
        train = list(lv_pool.configs[: n // 2])
        truth = lv_pool.objective_values("execution_time")
        surrogate.fit(train, truth[: n // 2])
        test = list(lv_pool.configs[n // 2 :])
        rho = spearmanr(surrogate.predict(test), truth[n // 2 :]).statistic
        assert rho > 0.7

    def test_extra_features_change_input(self, lv, lv_pool):
        calls = []

        def extra(configs):
            calls.append(len(configs))
            return np.ones((len(configs), 2))

        surrogate = default_surrogate(lv.encoder(), random_state=0,
                                      extra_features=extra)
        configs = list(lv_pool.configs[:10])
        surrogate.fit(configs, np.arange(1.0, 11.0))
        surrogate.predict(configs)
        assert calls == [10, 10]

    def test_misaligned_fit_rejected(self, lv, lv_pool):
        surrogate = default_surrogate(lv.encoder())
        with pytest.raises(ValueError):
            surrogate.fit(list(lv_pool.configs[:3]), np.ones(4))

    def test_clone_unfitted(self, lv, lv_pool):
        surrogate = default_surrogate(lv.encoder(), random_state=0)
        surrogate.fit(list(lv_pool.configs[:5]), np.arange(1.0, 6.0))
        clone = surrogate.clone()
        assert not clone.is_fitted
