"""Content fingerprints for CSR matrices — the plan-cache key.

A composed plan is a pure function of the sparsity structure (and the
matrix values stored inside the built format), so two requests carrying
the same matrix can share one plan.  The fingerprint must therefore be

* **deterministic** — the same CSR arrays always hash the same;
* **cheap** — fingerprinting a request must cost far less than composing
  it (the whole point of the cache);
* **discriminating** — permuting rows, moving a non-zero, or changing a
  stored value must change the key (values are included because the
  cached plan's format embeds them; a value-blind key could serve stale
  numerics).

Every byte of ``indptr``, ``indices`` and ``data`` is hashed, so a change
anywhere in the matrix gives a new key.  The cost of a first hash is
BLAKE2b throughput over those arrays.  On a 2-vCPU x86 VM it is 0.13-0.15
of a J=32 compose up to the arxiv stand-in (0.3M non-zeros), but 0.35 on
ppi (1.6M) and about half on proteins and reddit (2.8M and 3.5M; reddit
70 ms against 139 ms).

A live matrix object that comes back costs a byte compare instead: the
second time one object hashes to the same key, a private copy of its
three arrays is kept, and later calls on that object return the stored
fingerprint if shape, dtypes, lengths and every byte still match the
copy (about ten times BLAKE2b's throughput).  The price is that copy of
each re-submitted matrix, held while the caller holds the matrix; a weak
reference drops it when the matrix dies.  A fresh object with equal
content still pays a full hash.
"""

from __future__ import annotations

import hashlib
import weakref
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
    #: The values-blind digest of the same matrix (``indptr`` and
    #: ``indices`` only), taken from the same hashing pass; not part of
    #: the identity.
    pattern: str = field(compare=False, repr=False)

    @property
    def key(self) -> str:
        """Stable string form: ``<digest>-<rows>x<cols>-<nnz>``."""
        return f"{self.digest}-{self.rows}x{self.cols}-{self.nnz}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key


#: ``id(matrix) -> (weakref, fingerprint, private copy of the three arrays
#: or None)`` of every live matrix :func:`fingerprint_csr` has hashed.
_seen: dict[int, tuple] = {}


def _same_bytes(A: sp.csr_matrix, fp: MatrixFingerprint, arrays: tuple) -> bool:
    """Whether ``A`` still has ``fp``'s shape and ``arrays``' dtypes,
    lengths and raw bytes (so ``0.0`` vs ``-0.0`` or a NaN payload differ)."""
    return A.shape == (fp.rows, fp.cols) and all(
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.array_equal(np.ascontiguousarray(a).view(np.uint8), b.view(np.uint8))
        for a, b in zip((A.indptr, A.indices, A.data), arrays)
    )


def _forget(key: int, ref: weakref.ref) -> None:
    """Weakref callback: drop ``_seen[key]`` if it is still ``ref``'s entry
    (by then a new object may hold the id)."""
    if _seen.get(key, (None,))[0] is ref:
        del _seen[key]


def _digest(A: sp.csr_matrix) -> MatrixFingerprint:
    """BLAKE2b over ``A``'s shape, nnz and every byte of its three arrays."""
    h = hashlib.blake2b(digest_size=16)
    h.update(b"repro-fp-v1")
    h.update(int(A.shape[0]).to_bytes(8, "little"))
    h.update(int(A.shape[1]).to_bytes(8, "little"))
    h.update(int(A.nnz).to_bytes(8, "little"))
    _hash_array(h, A.indptr)
    _hash_array(h, A.indices)
    pattern = h.copy().hexdigest()
    _hash_array(h, A.data)
    return MatrixFingerprint(
        rows=int(A.shape[0]),
        cols=int(A.shape[1]),
        nnz=int(A.nnz),
        digest=h.hexdigest(),
        pattern=pattern,
    )


def fingerprint_csr(A: sp.csr_matrix) -> MatrixFingerprint:
    """Fingerprint a canonical CSR matrix (sorted indices, no duplicates).

    Every byte of the matrix is in ``digest``; ``pattern`` is the
    values-blind digest of the same hashing pass.  A re-submitted live
    object is compared byte for byte with a private copy instead of
    re-hashed (see the module docstring).
    """
    if not sp.issparse(A) or A.format != "csr":
        raise TypeError(f"fingerprint_csr requires a CSR matrix, got {type(A).__name__}")
    seen = _seen.get(id(A))
    if seen is not None and seen[0]() is not A:
        seen = None  # a dead matrix's id, reused
    if seen is not None and seen[2] is not None and _same_bytes(A, seen[1], seen[2]):
        return seen[1]
    fp = _digest(A)
    if seen is None:
        try:
            seen = (weakref.ref(A, lambda ref, key=id(A): _forget(key, ref)), None, None)
        except TypeError:  # not weakly referenceable: hashed every time
            return fp
    # Copy only once the same object has hashed to the same key twice.
    copy = tuple(a.copy() for a in (A.indptr, A.indices, A.data)) if fp == seen[1] else None
    _seen[id(A)] = (seen[0], fp, copy)
    return fp


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
