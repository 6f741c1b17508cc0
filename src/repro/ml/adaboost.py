"""AdaBoost (SAMME) over shallow CART trees."""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, check_X_y, check_array
from repro.ml.tree import DecisionTreeClassifier


class AdaBoostClassifier(BaseClassifier):
    """Multi-class AdaBoost.SAMME with depth-limited trees as weak learners."""

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int = 1,
        learning_rate: float = 1.0,
        seed: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "AdaBoostClassifier":
        X, y = check_X_y(X, y)
        codes = self._encode_labels(y)
        n = X.shape[0]
        K = self.classes_.size
        w = np.full(n, 1.0 / n)
        self.estimators_: list[DecisionTreeClassifier] = []
        self.estimator_weights_: list[float] = []
        rng = np.random.default_rng(self.seed)
        for _ in range(self.n_estimators):
            stump = DecisionTreeClassifier(
                max_depth=self.max_depth, seed=int(rng.integers(0, 2**31 - 1))
            )
            stump.fit(X, codes, sample_weight=w)
            pred = stump.predict(X)
            miss = pred != codes
            err = float(np.sum(w * miss) / np.sum(w))
            if err <= 0:
                # Perfect weak learner: take it with a large weight and stop.
                self.estimators_.append(stump)
                self.estimator_weights_.append(10.0)
                break
            if err >= 1.0 - 1.0 / K:
                break  # no better than chance; boosting cannot continue
            alpha = self.learning_rate * (np.log((1 - err) / err) + np.log(K - 1))
            self.estimators_.append(stump)
            self.estimator_weights_.append(float(alpha))
            w *= np.exp(alpha * miss)
            w /= w.sum()
        if not self.estimators_:
            # Degenerate data: fall back to a single stump.
            stump = DecisionTreeClassifier(max_depth=self.max_depth)
            stump.fit(X, codes, sample_weight=w)
            self.estimators_.append(stump)
            self.estimator_weights_.append(1.0)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = check_array(X)
        scores = np.zeros((X.shape[0], self.classes_.size))
        # Every estimator is fit on ``codes``, which hold all K classes, so
        # its proba columns are the ensemble's class codes.
        for est, alpha in zip(self.estimators_, self.estimator_weights_):
            pred_codes = np.argmax(est.predict_proba(X), axis=1)
            scores[np.arange(X.shape[0]), pred_codes] += alpha
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]
