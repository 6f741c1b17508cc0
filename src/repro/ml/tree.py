"""CART decision tree with weighted Gini impurity.

Supports sample weights (needed by AdaBoost) and per-node feature
subsampling (needed by Random Forest).  Split search is vectorized: for
each candidate feature the samples are sorted once and class-weight prefix
sums give the impurity of every threshold in O(n) after the sort.

A fitted tree is flat arrays indexed by node: ``feature_`` (-1 at
leaves), ``threshold_``, ``left_``/``right_`` child links (a leaf links
to itself) and ``proba_`` (class distribution; zero rows at inner
nodes).  :func:`walk` routes samples through such arrays, one tree or a
whole forest's stacked trees at once.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, check_X_y, check_array


def walk(model, X: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Leaf reached by every (sample, root) pair of ``model``'s node arrays.

    Returns node ids of shape ``(len(X), len(roots))``.  Every pair moves
    down one level per step.  A pair at a leaf stays there: a leaf links
    to itself both ways, so the column its -1 feature reads is moot.
    """
    node = np.tile(roots, (X.shape[0], 1))
    rows = np.arange(X.shape[0])[:, None]
    while True:
        f = model.feature_[node]
        if (f < 0).all():
            return node
        go_left = X[rows, f] <= model.threshold_[node]
        node = np.where(go_left, model.left_[node], model.right_[node])


def _weighted_gini(class_weights: np.ndarray) -> float:
    total = class_weights.sum()
    if total <= 0:
        return 0.0
    p = class_weights / total
    return float(1.0 - np.sum(p * p))


def _best_split(
    X: np.ndarray,
    codes: np.ndarray,
    w: np.ndarray,
    n_classes: int,
    features: np.ndarray,
) -> tuple[int, float, float]:
    """Best (feature, threshold, impurity_decrease) over candidate features.

    Returns feature -1 when no split improves impurity.
    """
    n = X.shape[0]
    total_w = w.sum()
    parent_cw = np.zeros(n_classes)
    np.add.at(parent_cw, codes, w)
    parent_gini = _weighted_gini(parent_cw)

    best_feature, best_threshold, best_gain = -1, 0.0, 1e-12
    onehot_w = np.zeros((n, n_classes))
    onehot_w[np.arange(n), codes] = w
    for f in features:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        cum = np.cumsum(onehot_w[order], axis=0)  # (n, C) left class weights
        left_w = cum.sum(axis=1)
        right_cum = cum[-1] - cum
        right_w = total_w - left_w
        # Valid split positions: between distinct consecutive values.
        valid = xs[:-1] < xs[1:]
        if not valid.any():
            continue
        lw = left_w[:-1]
        rw = right_w[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            gl = 1.0 - np.sum((cum[:-1] / np.maximum(lw, 1e-300)[:, None]) ** 2, axis=1)
            gr = 1.0 - np.sum(
                (right_cum[:-1] / np.maximum(rw, 1e-300)[:, None]) ** 2, axis=1
            )
        child = (lw * gl + rw * gr) / total_w
        gain = np.where(valid & (lw > 0) & (rw > 0), parent_gini - child, -np.inf)
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            best_gain = float(gain[i])
            best_feature = int(f)
            best_threshold = float(0.5 * (xs[i] + xs[i + 1]))
    return best_feature, best_threshold, best_gain


class DecisionTreeClassifier(BaseClassifier):
    """CART classifier (Gini criterion).

    Parameters
    ----------
    max_depth:
        Maximum tree depth (None = grow until pure/min_samples).
    min_samples_split:
        Minimum samples required to attempt a split.
    max_features:
        ``None`` (all), ``"sqrt"``, or an int — features sampled per node.
    seed:
        RNG seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        max_features: int | str | None = None,
        seed: int = 0,
    ):
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed

    def _n_candidate_features(self, d: int) -> int:
        if self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        k = int(self.max_features)
        if not 1 <= k <= d:
            raise ValueError(f"max_features must be in [1, {d}], got {k}")
        return k

    def fit(
        self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray | None = None
    ) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        codes = self._encode_labels(y)
        n, d = X.shape
        C = self.classes_.size
        if sample_weight is None:
            w = np.full(n, 1.0 / n)
        else:
            w = np.asarray(sample_weight, dtype=np.float64)
            if w.shape != (n,):
                raise ValueError(f"sample_weight must have shape ({n},)")
            if w.min() < 0:
                raise ValueError("sample_weight must be non-negative")
            w = w / max(w.sum(), 1e-300)
        rng = np.random.default_rng(self.seed)
        k_feat = self._n_candidate_features(d)

        # One [feature, threshold, left, right, proba] row per node.
        nodes: list[list] = []

        def add(feature: int, threshold: float, proba: np.ndarray) -> int:
            nodes.append([feature, threshold, len(nodes), len(nodes), proba])
            return len(nodes) - 1

        def leaf(idx: np.ndarray) -> int:
            cw = np.zeros(C)
            np.add.at(cw, codes[idx], w[idx])
            total = cw.sum()
            return add(-1, 0.0, cw / total if total > 0 else np.full(C, 1.0 / C))

        def build(idx: np.ndarray, depth: int) -> int:
            sub_codes = codes[idx]
            pure = np.all(sub_codes == sub_codes[0])
            depth_cap = self.max_depth is not None and depth >= self.max_depth
            if pure or depth_cap or idx.size < self.min_samples_split:
                return leaf(idx)
            features = (
                np.arange(d)
                if k_feat == d
                else rng.choice(d, size=k_feat, replace=False)
            )
            f, thr, gain = _best_split(X[idx], sub_codes, w[idx], C, features)
            if f < 0:
                return leaf(idx)
            go_left = X[idx, f] <= thr
            left_idx, right_idx = idx[go_left], idx[~go_left]
            if left_idx.size == 0 or right_idx.size == 0:
                return leaf(idx)
            node_id = add(f, thr, np.zeros(C))
            nodes[node_id][2:4] = build(left_idx, depth + 1), build(right_idx, depth + 1)
            return node_id

        build(np.arange(n), 0)
        feature, threshold, left, right, proba = zip(*nodes)
        self.feature_ = np.array(feature, dtype=np.int64)
        self.threshold_ = np.array(threshold, dtype=np.float64)
        self.left_ = np.array(left, dtype=np.int64)
        self.right_ = np.array(right, dtype=np.int64)
        self.proba_ = np.vstack(proba)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return self.proba_[walk(self, check_array(X), np.zeros(1, dtype=np.int64))[:, 0]]

    def predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    @property
    def node_count(self) -> int:
        self._check_fitted()
        return self.feature_.size
