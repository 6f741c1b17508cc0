"""Content fingerprints for CSR matrices — the plan-cache key.

A composed plan is a pure function of the sparsity structure (and the
matrix values stored inside the built format), so two requests carrying
the same matrix can share one plan.  The fingerprint must therefore be

* **deterministic** — the same CSR arrays always hash the same;
* **cheap** — fingerprinting a request must cost far less than composing
  it (the whole point of the cache), so very large index arrays are
  sampled in evenly spaced chunks rather than hashed end to end;
* **discriminating** — permuting rows, moving a non-zero, or changing a
  stored value must change the key (values are included by default
  because the cached plan's format embeds them; a value-blind key could
  serve stale numerics).

Chunk sampling trades a vanishing collision probability for speed: two
matrices that agree on shape, nnz, and every sampled byte of
``indptr``/``indices``/``data`` are treated as identical.  Arrays at or
below ``sample_budget_bytes`` (default 1 MiB each, covering everything in
this repo's simulated scale) are hashed in full.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

#: Number of evenly spaced chunks hashed from an over-budget array.
NUM_SAMPLE_CHUNKS = 16


def _hash_array(h: "hashlib._Hash", arr: np.ndarray, budget: int) -> None:
    """Feed ``arr`` (or evenly spaced chunks of it) into digest ``h``."""
    arr = np.ascontiguousarray(arr)
    h.update(str(arr.dtype).encode())
    h.update(arr.size.to_bytes(8, "little"))
    if arr.nbytes <= budget:
        h.update(arr.tobytes())
        return
    itemsize = max(1, arr.itemsize)
    chunk_elems = max(1, budget // (NUM_SAMPLE_CHUNKS * itemsize))
    starts = np.linspace(0, arr.size - chunk_elems, NUM_SAMPLE_CHUNKS).astype(np.int64)
    for s in starts:
        h.update(arr[s : s + chunk_elems].tobytes())


@dataclass(frozen=True)
class MatrixFingerprint:
    """Identity of one CSR matrix as seen by the plan cache."""

    rows: int
    cols: int
    nnz: int
    digest: str
    #: The values-blind digest of the same matrix (what ``digest`` is with
    #: ``include_values=False``), taken from the same hashing pass; not
    #: part of the identity.
    pattern: str | None = field(default=None, compare=False, repr=False)

    @property
    def key(self) -> str:
        """Stable string form: ``<digest>-<rows>x<cols>-<nnz>``."""
        return f"{self.digest}-{self.rows}x{self.cols}-{self.nnz}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key


def fingerprint_csr(
    A: sp.csr_matrix,
    include_values: bool = True,
    sample_budget_bytes: int = 1 << 20,
) -> MatrixFingerprint:
    """Fingerprint a canonical CSR matrix (sorted indices, no duplicates).

    ``include_values=False`` keys on the sparsity pattern alone — useful
    when the caller guarantees values travel with the pattern (e.g. a
    normalized adjacency matrix regenerated per request) and wants hits
    across value-perturbed copies.  The server default keeps values in;
    either way the result carries the pattern-only digest as ``pattern``.
    """
    if not sp.issparse(A) or A.format != "csr":
        raise TypeError(f"fingerprint_csr requires a CSR matrix, got {type(A).__name__}")
    if sample_budget_bytes < 64:
        raise ValueError(f"sample_budget_bytes too small: {sample_budget_bytes}")
    h = hashlib.blake2b(digest_size=16)
    h.update(b"repro-fp-v1")
    h.update(int(A.shape[0]).to_bytes(8, "little"))
    h.update(int(A.shape[1]).to_bytes(8, "little"))
    h.update(int(A.nnz).to_bytes(8, "little"))
    _hash_array(h, A.indptr, sample_budget_bytes)
    _hash_array(h, A.indices, sample_budget_bytes)
    pattern = h.copy().hexdigest()
    if include_values:
        _hash_array(h, A.data, sample_budget_bytes)
    return MatrixFingerprint(
        rows=int(A.shape[0]),
        cols=int(A.shape[1]),
        nnz=int(A.nnz),
        digest=h.hexdigest(),
        pattern=pattern,
    )


#: Op kinds the serving stack can plan and dispatch.  The plan key carries
#: the op because a composed format is shared across ops but the *kernel*
#: bound to it is op-specific (SpMM, SDDMM, and SpMV traverse the same
#: structure with different operand shapes and cost profiles).
OP_KINDS: tuple[str, ...] = ("spmm", "sddmm", "spmv")


@dataclass(frozen=True)
class PlanKey:
    """Cache key of one ``(matrix, op, J)`` triple.

    Plans are J-specific because the bucket-width search optimizes for
    the operand width, and op-specific because the bound kernel differs
    per op.  ``str(key)`` is the stable ``<fp.key>/<op>/J<J>`` form that
    ring placement, hot-key routing and span tags hash and print.
    """

    fp: MatrixFingerprint
    op: str
    J: int

    def __post_init__(self) -> None:
        if self.op not in OP_KINDS:
            raise ValueError(f"unknown op {self.op!r}; choose from {list(OP_KINDS)}")
        if self.J < 1:
            raise ValueError(f"J must be >= 1, got {self.J}")

    def __str__(self) -> str:
        return f"{self.fp.key}/{self.op}/J{self.J}"
