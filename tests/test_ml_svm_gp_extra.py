"""Additional coverage for SVMs, GP, MLP internals, and the forest."""

import numpy as np
import pytest

from repro.ml import (
    GaussianProcessClassifier,
    LinearSVMClassifier,
    MLPClassifier,
    RBFSVMClassifier,
    RandomForestClassifier,
)
from repro.ml.svm import RBFSVMClassifier as RBF


def three_blobs(rng, n=40):
    X = np.vstack(
        [
            rng.normal((-4, 0), 1.0, size=(n, 2)),
            rng.normal((4, 0), 1.0, size=(n, 2)),
            rng.normal((0, 5), 1.0, size=(n, 2)),
        ]
    )
    y = np.repeat([0, 1, 2], n)
    return X, y


class TestRBFKernel:
    def test_kernel_diagonal_is_one(self):
        A = np.random.default_rng(0).normal(size=(10, 3))
        K = RBF._rbf(A, A, gamma=0.7)
        assert np.allclose(np.diag(K), 1.0)

    def test_kernel_symmetric_psd(self):
        A = np.random.default_rng(1).normal(size=(20, 4))
        K = RBF._rbf(A, A, gamma=0.3)
        assert np.allclose(K, K.T)
        eig = np.linalg.eigvalsh(K)
        assert eig.min() > -1e-8

    def test_gamma_scale_heuristic(self):
        X = np.random.default_rng(2).normal(size=(50, 5))
        m = RBFSVMClassifier(gamma="scale")
        g = m._gamma_value(X)
        assert g == pytest.approx(1.0 / (5 * X.var()))

    def test_kernel_decays_with_distance(self):
        a = np.zeros((1, 2))
        near = np.array([[0.1, 0.0]])
        far = np.array([[5.0, 0.0]])
        assert RBF._rbf(a, near, 1.0) > RBF._rbf(a, far, 1.0)


class TestMulticlassConsistency:
    """All margin-based models handle 3 classes via one-vs-rest."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: LinearSVMClassifier(epochs=40, seed=0),
            lambda: RBFSVMClassifier(C=2.0),
            lambda: GaussianProcessClassifier(),
            lambda: MLPClassifier(epochs=80, seed=0),
        ],
        ids=["linear-svm", "rbf-svm", "gp", "mlp"],
    )
    def test_three_class_accuracy(self, factory, rng):
        X, y = three_blobs(rng)
        model = factory().fit(X, y)
        assert model.score(X, y) > 0.9
        assert set(model.predict(X)) <= {0, 1, 2}


class TestForestInternals:
    def test_more_trees_do_not_hurt(self, rng):
        X, y = three_blobs(rng)
        Xt, yt = three_blobs(np.random.default_rng(5))
        small = RandomForestClassifier(n_estimators=3, seed=2).fit(X, y).score(Xt, yt)
        big = RandomForestClassifier(n_estimators=40, seed=2).fit(X, y).score(Xt, yt)
        assert big >= small - 0.05

    def test_max_features_validation(self, rng):
        X, y = three_blobs(rng)
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=2, max_features=99, seed=0).fit(X, y)

    def test_single_class_training(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.zeros(20, dtype=int)
        rf = RandomForestClassifier(n_estimators=3, seed=0).fit(X, y)
        assert (rf.predict(X) == 0).all()


class TestGPScaling:
    def test_training_cost_grows_superlinearly(self):
        """The O(n^3) Cholesky signature that makes GP the slowest row of
        Table 5 on large training sets."""
        import time

        rng = np.random.default_rng(3)

        def train_time(n):
            X = rng.normal(size=(n, 5))
            y = rng.integers(0, 2, n)
            t0 = time.process_time()
            GaussianProcessClassifier().fit(X, y)
            return time.process_time() - t0

        # Untimed warm-up: first-call costs (imports, BLAS set-up) must not
        # land on the small fit.  Process CPU time ignores time the process
        # spends descheduled on a loaded machine.
        train_time(200)
        t_small = min(train_time(200) for _ in range(3))
        t_big = min(train_time(1200) for _ in range(3))
        assert t_big > 4 * t_small  # superlinear (n^3 would be 216x ideally)
