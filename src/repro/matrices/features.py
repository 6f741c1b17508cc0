"""Feature extraction for LiteForm's two predictors (Tables 2 and 3).

Both feature sets are deliberately cheap — O(nnz) single passes over the
CSR row-pointer array — because low construction overhead is the point of
the whole framework (Section 5.1: "basic matrix features ... avoiding the
need for costly preprocessing").
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: Table 2: features for predicting whether CELL offers an advantage.
FORMAT_FEATURE_NAMES = (
    "num_rows",
    "num_cols",
    "nnz",
    "avg_nnz_per_row",
    "min_nnz_per_row",
    "max_nnz_per_row",
    "std_nnz_per_row",
)

#: Table 3: features for predicting the optimal number of partitions.
#: Densities, not raw counts — Section 5.2 found densities markedly more
#: predictive — plus the dense-operand size ("product of other dimensions").
PARTITION_FEATURE_NAMES = (
    "num_rows",
    "num_cols",
    "nnz",
    "avg_row_density",
    "min_row_density",
    "max_row_density",
    "std_row_density",
    "dense_dim_product",
)


def _row_lengths(A: sp.csr_matrix) -> np.ndarray:
    return np.diff(A.indptr).astype(np.float64)


def format_selection_features(A: sp.csr_matrix) -> np.ndarray:
    """The seven Table 2 features, as a float vector."""
    lengths = _row_lengths(A)
    if lengths.size == 0:
        lengths = np.zeros(1)
    return np.array(
        [
            float(A.shape[0]),
            float(A.shape[1]),
            float(A.nnz),
            float(lengths.mean()),
            float(lengths.min()),
            float(lengths.max()),
            float(lengths.std()),
        ]
    )


def partition_features(A: sp.csr_matrix, J: int) -> np.ndarray:
    """The eight Table 3 features for dense width ``J``."""
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    lengths = _row_lengths(A)
    if lengths.size == 0:
        lengths = np.zeros(1)
    n_cols = max(1, A.shape[1])
    density = lengths / n_cols
    return np.array(
        [
            float(A.shape[0]),
            float(A.shape[1]),
            float(A.nnz),
            float(density.mean()),
            float(density.min()),
            float(density.max()),
            float(density.std()),
            float(A.shape[1] * J),
        ]
    )
