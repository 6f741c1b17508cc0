"""Content fingerprints for CSR matrices — the plan-cache key.

A composed plan is a pure function of the sparsity structure (and the
matrix values stored inside the built format), so two requests carrying
the same matrix can share one plan.  The fingerprint must therefore be

* **deterministic** — the same CSR arrays always hash the same;
* **cheap** — fingerprinting a request must cost far less than composing
  it (the whole point of the cache);
* **discriminating** — permuting rows, moving a non-zero, or changing a
  stored value must change the key (values are included by default
  because the cached plan's format embeds them; a value-blind key could
  serve stale numerics).

Every byte of ``indptr``, ``indices`` and ``data`` is hashed, so a change
anywhere in the matrix gives a new key.  The cost is BLAKE2b throughput
over those arrays.  On a 2-vCPU x86 VM it is 0.13-0.15 of a J=32 compose
up to the arxiv stand-in (0.3M non-zeros), but 0.35 on ppi (1.6M) and
about half on proteins and reddit (2.8M and 3.5M; reddit 70 ms against
139 ms).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


def _hash_array(h: "hashlib._Hash", arr: np.ndarray) -> None:
    """Feed ``arr``'s dtype, size and every byte into digest ``h``."""
    arr = np.ascontiguousarray(arr)
    h.update(str(arr.dtype).encode())
    h.update(arr.size.to_bytes(8, "little"))
    h.update(arr)


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
    pattern: str = field(compare=False, repr=False)

    @property
    def key(self) -> str:
        """Stable string form: ``<digest>-<rows>x<cols>-<nnz>``."""
        return f"{self.digest}-{self.rows}x{self.cols}-{self.nnz}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key


def fingerprint_csr(
    A: sp.csr_matrix,
    include_values: bool = True,
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
    h = hashlib.blake2b(digest_size=16)
    h.update(b"repro-fp-v1")
    h.update(int(A.shape[0]).to_bytes(8, "little"))
    h.update(int(A.shape[1]).to_bytes(8, "little"))
    h.update(int(A.nnz).to_bytes(8, "little"))
    _hash_array(h, A.indptr)
    _hash_array(h, A.indices)
    pattern = h.copy().hexdigest()
    if include_values:
        _hash_array(h, A.data)
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
