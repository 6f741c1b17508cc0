"""FormatSelector fit-state contract (regression: predict before fit).

Calling ``predict`` on an unfitted selector used to surface as an
``AttributeError`` from deep inside the Random Forest; it now raises a
descriptive ``RuntimeError`` at the API boundary.
"""

import numpy as np
import pytest

from repro.core.selector import FormatSelector
from repro.matrices import power_law_graph


@pytest.fixture()
def matrix():
    return power_law_graph(300, 6, seed=1)


def test_predict_before_fit_raises_runtime_error(matrix):
    selector = FormatSelector()
    assert not selector.is_fitted
    with pytest.raises(RuntimeError, match="has not been fitted"):
        selector.predict(matrix)


def test_predict_features_before_fit_raises_runtime_error():
    with pytest.raises(RuntimeError, match="call fit"):
        FormatSelector().predict_features(np.zeros((2, 7)))


def test_fit_then_predict_works(matrix):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 7))
    y = X[:, 0] > 0
    selector = FormatSelector().fit(X, y)
    assert selector.is_fitted
    assert isinstance(selector.predict(matrix), bool)
    assert selector.predict_features(X).shape == (40,)


def test_degenerate_single_class_fit_is_fitted(matrix):
    selector = FormatSelector().fit(np.zeros((3, 7)), np.ones(3, dtype=bool))
    assert selector.is_fitted
    assert selector.predict(matrix) is True
    assert selector.predict_features(np.zeros((5, 7))).all()

