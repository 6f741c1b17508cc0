"""Stage 1: predict whether CELL beats the fixed formats (Section 5.1)."""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.matrices.features import format_selection_features
from repro.ml.forest import RandomForestClassifier

#: A matrix is labelled TRUE when CELL's best time beats *both* fixed
#: formats by more than this factor (Section 5.1).
CELL_ADVANTAGE_THRESHOLD = 1.1


class FormatSelector:
    """Binary classifier over the seven Table 2 features.

    A Random Forest, the classifier LiteForm adopts (Section 6).  Labels
    are booleans: True = use CELL.
    """

    def __init__(self):
        self.model = RandomForestClassifier(n_estimators=50)
        self.last_inference_s: float = 0.0
        self._constant: bool | None = None
        self._fitted = False

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "FormatSelector":
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels)
        if labels.dtype != np.bool_:
            labels = labels.astype(bool)
        if np.unique(labels).size < 2:
            # Degenerate training set: remember the constant answer.
            self._constant = bool(labels[0])
            self._fitted = True
            return self
        self._constant = None
        self.model.fit(features, labels.astype(np.int64))
        self._fitted = True
        return self

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError(
                "FormatSelector has not been fitted; call fit(features, labels) "
                "(or LiteForm.fit) before predicting"
            )

    def predict(self, A: sp.csr_matrix) -> bool:
        """Should this matrix use CELL?  Timed — the Fig. 8 overhead term."""
        self._require_fitted()
        t0 = time.perf_counter()
        feats = format_selection_features(A)[None, :]
        if self._constant is not None:
            result = self._constant
        else:
            result = bool(self.model.predict(feats)[0])
        self.last_inference_s = time.perf_counter() - t0
        return result

    def predict_features(self, features: np.ndarray) -> np.ndarray:
        """Batch prediction on precomputed feature rows (for evaluation)."""
        self._require_fitted()
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if self._constant is not None:
            return np.full(features.shape[0], self._constant, dtype=bool)
        return self.model.predict(features).astype(bool)
