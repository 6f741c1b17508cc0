"""Per-partition compose fan-out (ROADMAP: "Parallel and incremental
compose").

:func:`repro.formats.cell.split_csr` carves a CSR matrix into column
partitions that never share state afterwards: each partition's cost
profile, width search, and bucket build read only that partition's
``(counts, starts)`` cells plus the (immutable) parent ``indices``/``data``
arrays.  That makes the per-partition stages of
:meth:`repro.core.pipeline.LiteForm.compose_csr` independent tasks — the
same shape of parallelism SparseTIR's composable kernels exploit on the
device side, applied here to *construction*.

* :func:`compose_partitions` — one task per partition (profile -> width
  search -> bucket build), run inline in partition order (which fixes the
  float accumulation order of ``predicted_cost``), returned as a
  :class:`FanoutResult` with each task's measured tune/build times.
* :meth:`FanoutResult.modeled_speedup` — a deterministic
  longest-processing-time schedule (:func:`repro.gpu.executor.schedule`)
  over those task times, used by the ``compose.parallel.*`` bench gate.
  The tasks run serially: a thread or process pool never beat the inline
  loop on the bench input (the work holds the GIL for much of its time),
  so the parallel speedup is modeled rather than measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.bucket_search import BucketSearchResult, tune_partition
from repro.core.cost_model import PartitionCostProfile
from repro.formats.cell import CELLFormat, Partition, RowGroups, split_csr
from repro.gpu.executor import schedule


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
    """The per-partition unit of work: group -> profile -> tune -> build.

    Calls exactly the functions a monolithic CELL build calls, on exactly
    the arrays it would read, so the produced :class:`Partition` and search
    result are bit-identical to building the partitions in one pass.  The
    partition's rows are grouped once; profile and builder share it.
    """
    t0 = time.perf_counter()
    groups = RowGroups.from_lengths(lengths)
    profile = PartitionCostProfile.from_cells(groups, starts, indices)
    result, width = tune_partition(profile, J, num_partitions)
    t1 = time.perf_counter()
    partition = CELLFormat._build_partition_buckets(
        index, col_start, col_end, groups, starts, indices, data, num_cols,
        max_width=width, block_multiple=block_multiple,
    )
    t2 = time.perf_counter()
    return PartitionOutcome(
        index=index,
        partition=partition,
        result=result,
        width=width,
        tune_s=t1 - t0,
        build_s=t2 - t1,
    )


@dataclass
class FanoutResult:
    """Everything a caller needs to assemble a plan from composed partitions.

    ``outcomes`` is ordered by partition index, and so are the derived
    ``widths`` and ``costs`` (a plan's ``predicted_cost`` sums ``costs``
    in that order).
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
        return serial / schedule(walls, workers, lpt=True).makespan


def compose_partitions(
    A: sp.csr_matrix,
    num_partitions: int,
    J: int,
    *,
    block_multiple: int = 2,
    cells: tuple[sp.csr_matrix, list[tuple[int, int]], np.ndarray, np.ndarray]
    | None = None,
    only: list[int] | None = None,
) -> FanoutResult:
    """Tune + build every partition (or the subset ``only``), in order.

    Pass a precomputed ``cells`` split to share it with the caller.  With
    ``only``, outcomes are returned for just those partition indices (used
    by :meth:`repro.core.pipeline.ComposePlan.patch_rows` to rebuild only
    the partitions a row update touched); otherwise all partitions run.
    """
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
    outcomes = [
        _compose_partition(
            p, *bounds[p], counts[:, p], starts[:, p], A.indices, A.data,
            A.shape[1], J, num_partitions, block_multiple,
        )
        for p in targets
    ]
    return FanoutResult(A=A, bounds=bounds, counts=counts, outcomes=outcomes)
