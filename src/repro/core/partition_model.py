"""Stage 2: predict the optimal number of column partitions (Section 5.2)."""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.matrices.features import partition_features
from repro.ml.forest import RandomForestClassifier

#: Candidate partition counts LiteForm considers (powers of two; the
#: classification targets of Table 6).
PARTITION_CANDIDATES = (1, 2, 4, 8, 16, 32)


class PartitionPredictor:
    """Multi-class classifier over the eight Table 3 density features.

    Predicts one of :data:`PARTITION_CANDIDATES`; evaluated with accuracy
    *and* the similarity measures of Eqs. 1-2 because neighbouring counts
    yield similar performance.
    """

    def __init__(self):
        self.model = RandomForestClassifier(n_estimators=50)
        self.last_inference_s: float = 0.0
        self._constant: int | None = None

    def fit(self, features: np.ndarray, partition_counts: np.ndarray) -> "PartitionPredictor":
        features = np.asarray(features, dtype=np.float64)
        y = np.asarray(partition_counts, dtype=np.int64)
        invalid = set(np.unique(y)) - set(PARTITION_CANDIDATES)
        if invalid:
            raise ValueError(
                f"partition counts {sorted(invalid)} not in {PARTITION_CANDIDATES}"
            )
        if np.unique(y).size < 2:
            self._constant = int(y[0])
            return self
        self._constant = None
        self.model.fit(features, y)
        return self

    def predict(self, A: sp.csr_matrix, J: int) -> int:
        """Predicted partition count for matrix ``A`` and dense width ``J``."""
        t0 = time.perf_counter()
        feats = partition_features(A, J)[None, :]
        if self._constant is not None:
            p = self._constant
        else:
            p = int(self.model.predict(feats)[0])
        self.last_inference_s = time.perf_counter() - t0
        # Partitions cannot exceed the column count.
        return max(1, min(p, A.shape[1]))

    def predict_features(self, features: np.ndarray) -> np.ndarray:
        """Batch prediction on precomputed feature rows (for evaluation)."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if self._constant is not None:
            return np.full(features.shape[0], self._constant, dtype=np.int64)
        return self.model.predict(features).astype(np.int64)
