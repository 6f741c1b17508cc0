"""Seeded Zipf traffic over a synthetic matrix pool — the replay workload.

Real SpMM serving (GNN inference, recommender retrieval) multiplies a
*small set* of graphs against a stream of dense operands, with popularity
following a heavy-tailed law: a handful of hot graphs take most of the
traffic.  ``generate_workload`` models that as Zipf(s)-distributed
requests over a pool mixing :class:`SuiteSparseLikeCollection` matrices
with GNN stand-ins, a fixed ``J`` per matrix drawn from a mix of
widths, and an optional deadline on a
fraction of the requests (the latency-sensitive tier that exercises the
server's admission control).

Traffic can also be *timed*: with ``arrival_rate_rps`` set, each request
gets a seeded Poisson ``arrival_ms`` timestamp so the open-loop
:class:`~repro.serve.scheduler.Scheduler` can replay it as a stream
instead of a closed-loop list.  Arrival draws use a dedicated RNG
stream, so turning arrivals on never perturbs the matrices, picks,
operands, or deadlines of an existing trace.

Everything is seeded: the same :class:`WorkloadSpec` always yields the
same request sequence, so replay benchmarks are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.matrices.collection import MIN_ROWS, SuiteSparseLikeCollection
from repro.matrices.gnn import make_gnn_standin
from repro.serve.server import OpRequest

#: GNN stand-ins mixed into every pool (the rest is SuiteSparse-like).
GNN_NAMES = ("cora", "citeseer")


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized Zipf popularity: ``p_i ∝ 1 / (i + 1)^s`` over ranks."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if s < 0:
        raise ValueError(f"Zipf exponent must be >= 0, got {s}")
    w = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
    return w / w.sum()


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one replayable traffic trace."""

    num_requests: int = 200
    num_matrices: int = 32
    #: Zipf popularity exponent (1.1 ≈ web-like skew; 0 = uniform).
    zipf_s: float = 1.1
    #: Dense-operand widths mixed into the trace.  Each matrix keeps one
    #: of them — a model's feature width doesn't change between requests.
    J_choices: tuple[int, ...] = (32, 64, 128)
    #: Row-count cap of the SuiteSparse-like pool entries (at least the
    #: collection's floor, :data:`~repro.matrices.collection.MIN_ROWS`).
    max_rows: int = 4_000
    #: Deadline attached to a fraction of the requests (None = never).
    deadline_ms: float | None = None
    deadline_fraction: float = 0.0
    #: If True each request carries a dense B (full numeric execution);
    #: if False requests are measure-only (timing replay, much cheaper).
    with_operands: bool = True
    #: Mean Poisson arrival rate in requests per *simulated* second.
    #: None (the default) keeps the legacy closed-loop trace: every
    #: ``arrival_ms`` stays 0.0 and replay order is the only timing.
    arrival_rate_rps: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {self.num_requests}")
        if self.num_matrices < 1:
            raise ValueError(f"num_matrices must be >= 1, got {self.num_matrices}")
        if not self.J_choices:
            raise ValueError("J_choices must not be empty")
        if self.max_rows < MIN_ROWS:
            raise ValueError(
                f"max_rows must be >= {MIN_ROWS} (the matrix pool's row "
                f"floor), got {self.max_rows}"
            )
        if not 0.0 <= self.deadline_fraction <= 1.0:
            raise ValueError("deadline_fraction must be in [0, 1]")
        if self.arrival_rate_rps is not None and self.arrival_rate_rps <= 0:
            raise ValueError(
                f"arrival_rate_rps must be > 0, got {self.arrival_rate_rps}"
            )


def _build_pool(spec: WorkloadSpec) -> list[tuple[str, sp.csr_matrix]]:
    pool: list[tuple[str, sp.csr_matrix]] = []
    for name in GNN_NAMES[: spec.num_matrices]:
        pool.append((f"gnn:{name}", make_gnn_standin(name, seed=spec.seed)))
    remaining = spec.num_matrices - len(pool)
    if remaining > 0:
        coll = SuiteSparseLikeCollection(
            size=remaining, max_rows=spec.max_rows, seed=spec.seed
        )
        pool.extend((entry.name, entry.matrix) for entry in coll)
    return pool


def generate_workload(spec: WorkloadSpec) -> list[OpRequest]:
    """Materialize the request trace described by ``spec``.

    Dense operands are shared per ``(cols, J)`` pair — regenerating a
    fresh B per request would dominate replay cost without changing what
    is being measured.
    """
    rng = np.random.default_rng(spec.seed)
    pool = _build_pool(spec)
    # Popularity rank is decoupled from pool order, so the hottest matrix
    # isn't always the first GNN stand-in.
    order = rng.permutation(len(pool))
    weights = zipf_weights(len(pool), spec.zipf_s)
    operands: dict[tuple[int, int], np.ndarray] = {}

    def operand(cols: int, J: int) -> np.ndarray:
        key = (cols, J)
        if key not in operands:
            operands[key] = rng.standard_normal((cols, J)).astype(np.float32)
        return operands[key]

    picks = rng.choice(len(pool), size=spec.num_requests, p=weights)
    deadline_draws = rng.random(spec.num_requests)
    requests = []
    for i, rank in enumerate(picks):
        pool_index = int(order[rank])
        name, A = pool[pool_index]
        J = spec.J_choices[pool_index % len(spec.J_choices)]
        deadline = (
            spec.deadline_ms
            if spec.deadline_ms is not None
            and deadline_draws[i] < spec.deadline_fraction
            else None
        )
        requests.append(
            OpRequest(
                matrix=A,
                B=operand(A.shape[1], J) if spec.with_operands else None,
                J=J,
                deadline_ms=deadline,
                name=f"req{i:05d}:{name}",
            )
        )
    for request, arrival_ms in zip(requests, _arrival_times(spec)):
        request.arrival_ms = arrival_ms
    return requests


#: Stream tag mixed into the arrival RNG seed.  Arrival timestamps must
#: come from their own generator: drawing them from the trace RNG would
#: shift every downstream pick/operand/deadline draw, silently changing
#: all existing seeded workloads the moment arrivals are enabled.
_ARRIVAL_STREAM = 0xA221


def _arrival_times(spec: WorkloadSpec) -> np.ndarray:
    """Virtual-ms arrival timestamps for ``spec`` (zeros when untimed)."""
    n = spec.num_requests
    if spec.arrival_rate_rps is None:
        return np.zeros(n)
    rng = np.random.default_rng((spec.seed, _ARRIVAL_STREAM))
    return np.cumsum(rng.exponential(1e3 / spec.arrival_rate_rps, size=n))
