"""Partition-pool parallel compose (ROADMAP: "Parallel and incremental
compose").

:func:`repro.formats.cell.split_csr` carves a CSR matrix into column
partitions that never share state afterwards: each partition's cost
profile, width search, and bucket build read only that partition's
``(counts, starts)`` cells plus the (immutable) parent ``indices``/``data``
arrays.  That makes the per-partition stages of
:meth:`repro.core.pipeline.LiteForm.compose_csr` embarrassingly parallel —
the same shape of parallelism SparseTIR's composable kernels exploit on
the device side, applied here to *construction*.

This module fans those stages out over a configurable pool:

* :class:`PoolSpec` — ``kind`` in ``{"serial", "thread", "process"}`` plus
  a worker count.  ``serial`` runs the identical task function inline and
  is the reference the pooled paths are bit-compared against.
* :func:`compose_partitions` — one task per partition (profile -> width
  search -> bucket build), results re-assembled in partition order so the
  float accumulation of ``predicted_cost`` is *bit-identical* to the
  serial pipeline, returned as a :class:`FanoutResult`.
* :func:`lpt_makespan` / :meth:`FanoutResult.modeled_speedup` — a
  deterministic longest-processing-time schedule model over the measured
  per-partition task times, used by the ``compose.parallel.*`` bench gate
  (wall-clock thread speedups are hostage to the GIL and CI noise; the
  critical-path model is reproducible and is what the regression baseline
  pins).

The task function is module-level and its process-pool payload is
compacted (per-partition gathers of ``indices``/``data``) so it pickles
without shipping the whole parent matrix to every worker.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.bucket_search import BucketSearchResult, tune_partition
from repro.core.cost_model import PartitionCostProfile
from repro.formats.cell import CELLFormat, Partition, split_csr

POOL_KINDS = ("serial", "thread", "process")


@dataclass(frozen=True)
class PoolSpec:
    """How to fan compose work out over partitions.

    ``workers`` is the pool size; ``kind`` selects inline execution
    (``"serial"``), a :class:`~concurrent.futures.ThreadPoolExecutor`
    (``"thread"`` — the default; the hot loops release the GIL inside
    NumPy), or a :class:`~concurrent.futures.ProcessPoolExecutor`
    (``"process"`` — pays a per-partition pickling cost, worthwhile only
    for very large matrices).
    """

    workers: int = 4
    kind: str = "thread"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.kind not in POOL_KINDS:
            raise ValueError(
                f"kind must be one of {POOL_KINDS}, got {self.kind!r}"
            )

    @property
    def parallel(self) -> bool:
        """Whether this spec actually fans out (vs the inline reference)."""
        return self.kind != "serial" and self.workers > 1


@dataclass
class PartitionOutcome:
    """One partition's compose task result plus its measured stage times."""

    index: int
    partition: Partition
    result: BucketSearchResult | None
    width: int
    tune_s: float
    build_s: float

    @property
    def wall_s(self) -> float:
        return self.tune_s + self.build_s


def _compose_partition(
    index: int,
    col_start: int,
    col_end: int,
    lengths: np.ndarray,
    starts: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    num_cols: int,
    J: int,
    num_partitions: int,
    block_multiple: int,
) -> PartitionOutcome:
    """The per-partition unit of work: profile -> tune -> build.

    Calls exactly the functions the serial pipeline calls, on exactly the
    arrays it would read, so the produced :class:`Partition` and search
    result are bit-identical regardless of which pool ran the task.
    """
    t0 = time.perf_counter()
    profile = PartitionCostProfile.from_cells(lengths, starts, indices)
    result, width = tune_partition(profile, J, num_partitions)
    t1 = time.perf_counter()
    buckets = CELLFormat._build_partition_buckets(
        lengths, starts, indices, data, num_cols,
        max_width=width, block_multiple=block_multiple,
    )
    t2 = time.perf_counter()
    return PartitionOutcome(
        index=index,
        partition=Partition(
            index=index, col_start=col_start, col_end=col_end, buckets=buckets
        ),
        result=result,
        width=width,
        tune_s=t1 - t0,
        build_s=t2 - t1,
    )


def _compose_partition_star(task: tuple) -> PartitionOutcome:
    """Picklable adapter for executor ``map`` over argument tuples."""
    return _compose_partition(*task)


def _compact_cells(
    lengths: np.ndarray,
    starts: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather one partition's elements into dense arrays for pickling.

    Returns ``(indices_p, data_p, starts_p)`` where row ``r``'s run lives
    at ``starts_p[r] : starts_p[r] + lengths[r]`` — the same cell contract
    as the zero-copy layout, so the task function is oblivious to which
    representation it received.  The gather preserves within-row element
    order, keeping the built buckets bit-identical.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    new_starts = np.concatenate([[0], np.cumsum(lengths)])[:-1]
    if total == 0:
        return indices[:0].copy(), data[:0].copy(), new_starts
    within = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    src = np.repeat(np.asarray(starts, dtype=np.int64), lengths) + within
    return indices[src], data[src], new_starts


@dataclass
class FanoutResult:
    """Everything a caller needs to assemble a plan from pooled partitions.

    ``outcomes`` is ordered by partition index; derived quantities
    (``predicted_cost``, ``widths``) therefore reproduce the serial
    pipeline's accumulation order exactly.
    """

    A: sp.csr_matrix
    bounds: list[tuple[int, int]]
    counts: np.ndarray
    outcomes: list[PartitionOutcome] = field(default_factory=list)

    @property
    def partitions(self) -> list[Partition]:
        return [o.partition for o in self.outcomes]

    @property
    def widths(self) -> list[int]:
        return [o.width for o in self.outcomes]

    @property
    def costs(self) -> list[float | None]:
        return [o.result.cost if o.result else None for o in self.outcomes]

    @property
    def predicted_cost(self) -> float:
        # Same left-to-right accumulation as the serial pipeline's
        # ``sum(r.cost for r in results if r)`` — bit-identical.
        return sum(o.result.cost for o in self.outcomes if o.result)

    @property
    def task_walls(self) -> list[float]:
        return [o.wall_s for o in self.outcomes]

    @property
    def tune_fraction(self) -> float:
        """Share of task time spent tuning (vs building) — used to
        apportion the measured fan-out wall into the overhead breakdown."""
        tune = sum(o.tune_s for o in self.outcomes)
        build = sum(o.build_s for o in self.outcomes)
        if tune + build <= 0.0:
            return 0.5
        return tune / (tune + build)

    def to_format(self) -> CELLFormat:
        return CELLFormat(self.A.shape, self.partitions, int(self.A.nnz))

    def modeled_speedup(self, workers: int) -> float:
        """Deterministic critical-path speedup of the fan-out at ``workers``.

        ``serial = sum(task walls)`` vs ``parallel = LPT makespan`` over
        the same measured task times — the quantity the
        ``compose.parallel.speedup_model_w4`` bench metric gates.  >= 1.0
        by construction; approaches ``min(workers, P)`` when partitions
        are balanced.
        """
        walls = self.task_walls
        serial = sum(walls)
        if serial <= 0.0:
            return 1.0
        return serial / lpt_makespan(walls, workers)


def lpt_makespan(times: list[float], workers: int) -> float:
    """Makespan of a longest-processing-time-first schedule.

    Greedy LPT: sort tasks by descending duration, assign each to the
    least-loaded worker.  A standard 4/3-approximation of the optimal
    makespan — good enough to model what the pool can achieve, and fully
    deterministic given the task times.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    loads = [0.0] * workers
    for t in sorted(times, reverse=True):
        i = loads.index(min(loads))
        loads[i] += t
    return max(loads) if loads else 0.0


def compose_partitions(
    A: sp.csr_matrix,
    num_partitions: int,
    J: int,
    *,
    block_multiple: int = 2,
    pool: PoolSpec | None = None,
    cells: tuple[sp.csr_matrix, list[tuple[int, int]], np.ndarray, np.ndarray]
    | None = None,
    only: list[int] | None = None,
) -> FanoutResult:
    """Tune + build every partition (or the subset ``only``) via ``pool``.

    Pass a precomputed ``cells`` split to share it with the caller.  With
    ``only``, outcomes are returned for just those partition indices (used
    by :meth:`repro.core.pipeline.ComposePlan.patch_rows` to rebuild only
    the partitions a row update touched); otherwise all partitions run.
    """
    pool = pool or PoolSpec(workers=1, kind="serial")
    if cells is None:
        cells = split_csr(A, num_partitions)
    A, bounds, counts, starts = cells
    if len(bounds) != num_partitions:
        raise ValueError(
            f"cells was split into {len(bounds)} partitions, "
            f"expected {num_partitions}"
        )
    targets = sorted(only) if only is not None else list(range(num_partitions))
    for p in targets:
        if not 0 <= p < num_partitions:
            raise ValueError(f"partition index {p} out of range [0, {num_partitions})")

    tasks = []
    for p in targets:
        c0, c1 = bounds[p]
        lengths_p, starts_p = counts[:, p], starts[:, p]
        indices_p, data_p = A.indices, A.data
        if pool.parallel and pool.kind == "process":
            indices_p, data_p, starts_p = _compact_cells(
                lengths_p, starts_p, indices_p, data_p
            )
        tasks.append(
            (p, c0, c1, lengths_p, starts_p, indices_p, data_p,
             A.shape[1], J, num_partitions, block_multiple)
        )

    if pool.parallel and len(tasks) > 1:
        n = min(pool.workers, len(tasks))
        executor_cls = (
            ProcessPoolExecutor if pool.kind == "process" else ThreadPoolExecutor
        )
        with executor_cls(max_workers=n) as ex:
            outcomes = list(ex.map(_compose_partition_star, tasks))
    else:
        outcomes = [_compose_partition_star(t) for t in tasks]
    # Executor.map preserves submission order, which is partition order.
    return FanoutResult(A=A, bounds=bounds, counts=counts, outcomes=outcomes)
