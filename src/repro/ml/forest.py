"""Random Forest: bagged CART trees with per-node feature subsampling."""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, check_X_y, check_array
from repro.ml.tree import DecisionTreeClassifier, walk


class RandomForestClassifier(BaseClassifier):
    """Bootstrap-aggregated decision trees (soft-voting ensemble).

    The model LiteForm adopts for both predictors (Section 6): best
    accuracy in Tables 5-6 at sub-second training cost.  The fitted trees
    are stacked into one set of node arrays (see :mod:`repro.ml.tree`),
    tree ``t`` rooted at ``roots_[t]``, with leaf ``proba_`` rows over the
    forest's classes.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        max_features: int | str | None = "sqrt",
        min_samples_split: int = 2,
        seed: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y = check_X_y(X, y)
        codes = self._encode_labels(y)
        n = X.shape[0]
        rng = np.random.default_rng(self.seed)
        trees = []
        for _ in range(self.n_estimators):
            boot = rng.integers(0, n, size=n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=self.max_features,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            trees.append(tree.fit(X[boot], codes[boot]))
        sizes = [tree.node_count for tree in trees]
        self.roots_ = np.cumsum([0] + sizes[:-1])
        self.feature_ = np.concatenate([tree.feature_ for tree in trees])
        self.threshold_ = np.concatenate([tree.threshold_ for tree in trees])
        self.left_ = np.concatenate([t.left_ + r for t, r in zip(trees, self.roots_)])
        self.right_ = np.concatenate([t.right_ + r for t, r in zip(trees, self.roots_)])
        # A bootstrap may miss classes: a tree's codes index its own classes_.
        self.proba_ = np.zeros((sum(sizes), self.classes_.size))
        for tree, root, size in zip(trees, self.roots_, sizes):
            self.proba_[root : root + size, tree.classes_] = tree.proba_
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        leaves = walk(self, check_array(X), self.roots_)
        # Builtin sum adds the trees' leaf rows one after another, in tree order.
        return sum(self.proba_[leaves.T]) / self.roots_.size

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
