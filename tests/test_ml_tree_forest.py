"""Tests for the CART tree, Random Forest, and AdaBoost."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import AdaBoostClassifier, DecisionTreeClassifier, RandomForestClassifier


def blobs(rng, n_per=60, centers=((-3, -3), (3, 3), (-3, 3))):
    X = np.vstack([rng.normal(c, 1.0, size=(n_per, 2)) for c in centers])
    y = np.repeat(np.arange(len(centers)), n_per)
    return X, y


def scalar_leaf(model, x, root=0):
    """Walk one sample from ``root`` over a fitted model's node arrays."""
    node = root
    while model.feature_[node] >= 0:
        go_left = x[model.feature_[node]] <= model.threshold_[node]
        node = model.left_[node] if go_left else model.right_[node]
    return node


def forest_trees(rf, X, y):
    """Refit ``rf``'s trees on its bootstraps, as ``RandomForestClassifier.fit`` draws them."""
    codes = np.unique(y, return_inverse=True)[1]
    rng = np.random.default_rng(rf.seed)
    trees = []
    for _ in range(rf.n_estimators):
        boot = rng.integers(0, X.shape[0], size=X.shape[0])
        tree = DecisionTreeClassifier(
            max_depth=rf.max_depth,
            min_samples_split=rf.min_samples_split,
            max_features=rf.max_features,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        trees.append(tree.fit(X[boot], codes[boot]))
    return trees


def tree_order_mean(rf, trees, X):
    """Mean of the trees' leaf probabilities in the forest's class columns,
    added up one tree after another."""
    agg = np.zeros((X.shape[0], rf.classes_.size))
    for tree in trees:
        agg[:, tree.classes_] += tree.predict_proba(X)
    return agg / len(trees)


class TestArrayForm:
    def test_tree_proba_matches_scalar_walk(self, rng):
        X, y = blobs(rng)
        Q = rng.uniform(-8, 8, size=(50, 2))
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        expected = np.array([tree.proba_[scalar_leaf(tree, x)] for x in Q])
        assert np.array_equal(tree.predict_proba(Q), expected)

    def test_forest_proba_matches_tree_order_mean(self, rng):
        X = rng.normal(size=(40, 2))
        y = np.array([0] * 19 + [2] * 19 + [1] * 2)
        X[38:] += 10
        rf = RandomForestClassifier(n_estimators=15, seed=1).fit(X, y)
        trees = forest_trees(rf, X, y)
        # A bootstrap missed the middle class: that tree's columns are (0, 2).
        assert any(tree.classes_.tolist() == [0, 2] for tree in trees)
        Q = np.vstack([X, rng.uniform(-5, 15, size=(30, 2))])
        assert np.array_equal(rf.predict_proba(Q), tree_order_mean(rf, trees, Q))
        # Each tree's block of the stacked arrays walks like the tree itself.
        for tree, root in zip(trees, rf.roots_):
            leaves = [scalar_leaf(rf, x, root) - root for x in Q]
            assert leaves == [scalar_leaf(tree, x) for x in Q]

    @settings(max_examples=25, deadline=None)
    @given(
        n_major=st.integers(8, 30),
        n_rare=st.integers(1, 2),
        n_estimators=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_forest_with_rare_class_matches_tree_order_mean(
        self, n_major, n_rare, n_estimators, seed
    ):
        gen = np.random.default_rng(seed)
        X = gen.normal(size=(2 * n_major + n_rare, 3))
        y = np.array([0] * n_major + [2] * n_major + [1] * n_rare)
        rf = RandomForestClassifier(n_estimators=n_estimators, seed=seed).fit(X, y)
        Q = np.vstack([X, gen.normal(scale=3.0, size=(10, 3))])
        expected = tree_order_mean(rf, forest_trees(rf, X, y), Q)
        assert np.array_equal(rf.predict_proba(Q), expected)

    def test_pure_single_leaf_tree_and_one_sample_query(self):
        tree = DecisionTreeClassifier().fit(np.array([[0.0], [1.0]]), np.array([7, 7]))
        assert tree.feature_.tolist() == [-1]
        assert tree.left_.tolist() == tree.right_.tolist() == [0]
        assert np.array_equal(tree.predict_proba(np.array([[5.0]])), [[1.0]])
        assert tree.predict(np.array([[5.0]])).tolist() == [7]

    def test_one_sample_query_matches_batch_row(self, rng):
        X, y = blobs(rng)
        rf = RandomForestClassifier(n_estimators=10, seed=0).fit(X, y)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        for model in (rf, tree):
            P = model.predict_proba(X)
            for i in (0, 77, 179):
                assert np.array_equal(model.predict_proba(X[i : i + 1]), P[i : i + 1])


class TestDecisionTree:
    def test_fits_training_data_exactly_when_unbounded(self, rng):
        X, y = blobs(rng)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.score(X, y) == 1.0

    def test_generalizes_on_blobs(self, rng):
        X, y = blobs(rng)
        Xt, yt = blobs(np.random.default_rng(99))
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert tree.score(Xt, yt) > 0.9

    def test_max_depth_limits_nodes(self, rng):
        X, y = blobs(rng)
        small = DecisionTreeClassifier(max_depth=1).fit(X, y)
        big = DecisionTreeClassifier(max_depth=8).fit(X, y)
        assert small.node_count <= 3
        assert big.node_count > small.node_count

    def test_pure_node_is_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.node_count == 1

    def test_sample_weight_shifts_decision(self):
        # Two overlapping points with different labels: weights decide.
        X = np.array([[0.0], [0.0], [1.0]])
        y = np.array([0, 1, 1])
        heavy0 = DecisionTreeClassifier(max_depth=1).fit(
            X, y, sample_weight=np.array([10.0, 1.0, 1.0])
        )
        heavy1 = DecisionTreeClassifier(max_depth=1).fit(
            X, y, sample_weight=np.array([1.0, 10.0, 1.0])
        )
        assert heavy0.predict(np.array([[0.0]]))[0] == 0
        assert heavy1.predict(np.array([[0.0]]))[0] == 1

    def test_predict_proba_sums_to_one(self, rng):
        X, y = blobs(rng)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        P = tree.predict_proba(X)
        assert np.allclose(P.sum(axis=1), 1.0)
        assert P.shape == (X.shape[0], 3)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.ones((1, 2)))

    def test_negative_sample_weight_rejected(self, rng):
        X, y = blobs(rng)
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, y, sample_weight=-np.ones(X.shape[0]))

    def test_string_labels(self, rng):
        X, _ = blobs(rng)
        y = np.array((["a"] * 60) + (["b"] * 60) + (["c"] * 60))
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert set(tree.predict(X)) <= {"a", "b", "c"}


class TestRandomForest:
    def test_beats_chance_strongly(self, rng):
        X, y = blobs(rng)
        Xt, yt = blobs(np.random.default_rng(42))
        rf = RandomForestClassifier(n_estimators=20, seed=0).fit(X, y)
        assert rf.score(Xt, yt) > 0.9

    def test_deterministic_given_seed(self, rng):
        X, y = blobs(rng)
        p1 = RandomForestClassifier(n_estimators=5, seed=9).fit(X, y).predict(X)
        p2 = RandomForestClassifier(n_estimators=5, seed=9).fit(X, y).predict(X)
        assert np.array_equal(p1, p2)

    def test_proba_shape_and_simplex(self, rng):
        X, y = blobs(rng)
        rf = RandomForestClassifier(n_estimators=10, seed=0).fit(X, y)
        P = rf.predict_proba(X)
        assert P.shape == (X.shape[0], 3)
        assert np.allclose(P.sum(axis=1), 1.0)
        assert (P >= 0).all()

    def test_invalid_estimator_count(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_handles_class_missing_from_bootstrap(self, rng):
        # tiny minority class: some bootstraps won't sample it
        X = rng.normal(size=(40, 2))
        y = np.array([0] * 38 + [1] * 2)
        X[38:] += 10
        rf = RandomForestClassifier(n_estimators=15, seed=1).fit(X, y)
        assert rf.predict_proba(X).shape == (40, 2)


class TestAdaBoost:
    def test_boosting_improves_over_stump(self, rng):
        X, y = blobs(rng, centers=((-2, 0), (2, 0), (0, 3)))
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        boosted = AdaBoostClassifier(n_estimators=40, seed=0).fit(X, y)
        assert boosted.score(X, y) > stump.score(X, y)

    def test_perfect_weak_learner_short_circuits(self):
        X = np.array([[0.0], [10.0]])
        y = np.array([0, 1])
        ada = AdaBoostClassifier(n_estimators=50, seed=0).fit(X, y)
        assert len(ada.estimators_) == 1
        assert ada.score(X, y) == 1.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AdaBoostClassifier(n_estimators=0)
        with pytest.raises(ValueError):
            AdaBoostClassifier(learning_rate=0.0)

    def test_multiclass_samme(self, rng):
        X, y = blobs(rng)
        ada = AdaBoostClassifier(n_estimators=30, max_depth=2, seed=0).fit(X, y)
        assert ada.score(X, y) > 0.85
