"""A seeded SuiteSparse-like matrix collection.

The paper draws 1,351 matrices with at least 2,000 rows from the SuiteSparse
Matrix Collection, spanning densities from 8.7e-7 to 0.1 (Table 4).  This
module generates a deterministic synthetic collection covering the same
pattern classes and size/density ranges; the number of matrices is a
parameter so tests can use dozens while benchmark sweeps use hundreds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from repro.matrices.generators import (
    banded_matrix,
    block_diagonal_matrix,
    community_graph,
    diagonal_dominant_matrix,
    mixture_matrix,
    power_law_graph,
    rmat_graph,
    uniform_random_matrix,
    with_dense_rows,
)

#: Row-count floor of the collection: the paper keeps SuiteSparse
#: matrices of at least 2,000 rows.
MIN_ROWS = 2_000

#: Pattern families cycled through by the collection, mirroring the domain
#: diversity of SuiteSparse (graphs, PDEs, circuits, optimization, ...).
PATTERNS = (
    "power_law",
    "community",
    "rmat",
    "banded",
    "block_diagonal",
    "uniform",
    "diagonal_dominant",
    "mixture",
    "power_law_dense_rows",
)


@dataclass(frozen=True)
class CollectionEntry:
    """One matrix of the collection with its generation metadata."""

    name: str
    pattern: str
    matrix: sp.csr_matrix

    @property
    def num_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    @property
    def density(self) -> float:
        r, c = self.matrix.shape
        return self.matrix.nnz / (r * c)


class SuiteSparseLikeCollection:
    """Deterministic synthetic stand-in for the SuiteSparse collection.

    Iterating yields :class:`CollectionEntry` objects.  The same
    ``(size, seed)`` always produces the same matrices, so training data,
    figures, and tests are reproducible.

    Parameters
    ----------
    size:
        Number of matrices to generate.
    min_rows / max_rows:
        Matrix size range (log-uniform), min :data:`MIN_ROWS` per the
        paper's filter.
    seed:
        Base RNG seed.
    """

    def __init__(
        self,
        size: int = 128,
        min_rows: int = MIN_ROWS,
        max_rows: int = 60_000,
        seed: int = 2025,
    ):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if min_rows < 2:
            raise ValueError(f"min_rows must be >= 2, got {min_rows}")
        if max_rows < min_rows:
            raise ValueError(
                f"max_rows must be >= {min_rows} (the matrix pool's row "
                f"floor), got {max_rows}"
            )
        self.size = size
        self.min_rows = min_rows
        self.max_rows = max_rows
        self.seed = seed

    def __len__(self) -> int:
        return self.size

    def entry(self, index: int) -> CollectionEntry:
        """Generate (deterministically) the ``index``-th matrix."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range [0, {self.size})")
        rng = np.random.default_rng(self.seed + 7919 * index)
        pattern = PATTERNS[index % len(PATTERNS)]
        n = int(
            np.exp(
                rng.uniform(np.log(self.min_rows), np.log(self.max_rows))
            )
        )
        seed = int(rng.integers(0, 2**31 - 1))
        matrix = self._generate(pattern, n, rng, seed)
        return CollectionEntry(
            name=f"ss_{index:04d}_{pattern}", pattern=pattern, matrix=matrix
        )

    @staticmethod
    def _generate(
        pattern: str, n: int, rng: np.random.Generator, seed: int
    ) -> sp.csr_matrix:
        if pattern == "power_law":
            return power_law_graph(n, avg_degree=rng.uniform(3, 40), seed=seed)
        if pattern == "community":
            return community_graph(
                n,
                avg_degree=rng.uniform(5, 60),
                num_communities=int(rng.integers(8, 128)),
                seed=seed,
            )
        if pattern == "rmat":
            scale = max(11, int(np.log2(n)))
            return rmat_graph(
                scale, edge_factor=int(rng.integers(4, 24)), seed=seed
            )
        if pattern == "banded":
            return banded_matrix(
                n, bandwidth=int(rng.integers(1, 16)), fill=rng.uniform(0.4, 1.0), seed=seed
            )
        if pattern == "block_diagonal":
            return block_diagonal_matrix(
                n,
                block_size=int(rng.choice([4, 8, 16, 32])),
                block_density=rng.uniform(0.5, 1.0),
                seed=seed,
            )
        if pattern == "uniform":
            density = float(np.exp(rng.uniform(np.log(3e-6), np.log(5e-3))))
            # keep at least ~1 nnz per two rows so kernels have work
            density = max(density, 0.6 / n)
            return uniform_random_matrix(n, n, density=density, seed=seed)
        if pattern == "diagonal_dominant":
            return diagonal_dominant_matrix(
                n,
                off_diagonal_density=float(
                    np.exp(rng.uniform(np.log(1e-6), np.log(1e-3)))
                ),
                seed=seed,
            )
        if pattern == "mixture":
            return mixture_matrix(n, avg_degree=rng.uniform(6, 30), seed=seed)
        if pattern == "power_law_dense_rows":
            base = power_law_graph(n, avg_degree=rng.uniform(3, 25), seed=seed)
            return with_dense_rows(
                base,
                num_dense_rows=int(rng.integers(1, 6)),
                row_density=rng.uniform(0.1, 0.6),
                seed=seed + 1,
            )
        raise ValueError(f"unknown pattern {pattern!r}")

    def __iter__(self) -> Iterator[CollectionEntry]:
        for i in range(self.size):
            yield self.entry(i)
