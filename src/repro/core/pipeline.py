"""The LiteForm end-to-end pipeline (Figure 2).

``compose`` runs the three stages — CELL-benefit prediction, partition
prediction, bucket-width search — and returns a :class:`ComposePlan`
holding the chosen format, the kernel that executes it, and the measured
construction overhead (the quantity of Figures 8-9).  ``run`` executes the
plan on the simulated device.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.parallel import compose_partitions
from repro.core.partition_model import PartitionPredictor
from repro.core.selector import FormatSelector
from repro.core.training import TrainingData
from repro.formats.base import VALUE_DTYPE, SparseFormat, as_csr
from repro.matrices.features import format_selection_features
from repro.obs import get_registry, get_tracer
from repro.formats.bcsr import BCSRFormat
from repro.formats.cell import CELLFormat, split_csr, touched_partitions
from repro.formats.csr import CSRFormat
from repro.gpu.device import SimulatedDevice
from repro.gpu.stats import Measurement
from repro.kernels.base import SpMMKernel
from repro.kernels.bcsr_spmm import BCSRSpMM
from repro.kernels.cell_spmm import CELLSpMM
from repro.kernels.csr_spmm import RowSplitCSRSpMM


@dataclass(frozen=True)
class OverheadBreakdown:
    """Wall-clock construction overhead, split by pipeline stage."""

    selection_s: float
    partition_s: float
    search_s: float
    build_s: float

    @property
    def total_s(self) -> float:
        return self.selection_s + self.partition_s + self.search_s + self.build_s


@dataclass
class IncrementalState:
    """What ``patch_rows`` needs to rebuild a CELL plan partition-by-partition.

    Captured during compose: the partitioning geometry, the per-(row,
    partition) stored-element ``counts`` from :func:`partition_cells`
    (int32 — values are bounded by the column count), and the tuned
    per-partition widths/costs.  ``patched`` records which partitions the
    most recent ``patch_rows`` call actually rebuilt (empty after a full
    compose) — tests and benchmarks read it to verify the delta stayed a
    delta.
    """

    J: int
    num_partitions: int
    block_multiple: int
    bounds: list[tuple[int, int]]
    counts: np.ndarray
    widths: list[int]
    costs: list[float | None]
    patched: tuple[int, ...] = ()


@dataclass
class ComposePlan:
    """Outcome of ``LiteForm.compose`` for one (matrix, J) pair."""

    use_cell: bool
    fmt: SparseFormat
    kernel: SpMMKernel
    num_partitions: int
    max_widths: list[int] = field(default_factory=list)
    overhead: OverheadBreakdown = field(
        default_factory=lambda: OverheadBreakdown(0.0, 0.0, 0.0, 0.0)
    )
    predicted_cost: float | None = None
    incremental: IncrementalState | None = None

    def patch_rows(self, A: sp.spmatrix, changed_rows) -> "ComposePlan":
        """Incremental recompose: rebuild only the partitions ``changed_rows``
        touch and reuse every other partition's buckets unchanged.

        ``A`` is the *updated* matrix (same shape as the plan's); the
        returned plan is bit-identical to a full
        :func:`compose_cell_plan` of ``A`` at this plan's partition count,
        width search included — partitions no updated row stores elements
        in (before or after the update) depend only on unchanged rows, so
        their tuned widths, buckets, and costs carry over verbatim, while
        touched partitions re-run profile -> width search -> build.

        Limits (see docs/COMPOSE.md): the partition count and ``J`` are
        frozen at compose time — the format selector and partition
        predictor are *not* re-consulted, so a matrix that drifts far from
        its composed structure should be recomposed from scratch.  Raises
        ``ValueError`` for non-CELL plans or a shape change.
        """
        if not self.use_cell or self.incremental is None:
            raise ValueError(
                "patch_rows requires a CELL plan composed with incremental state"
            )
        state = self.incremental
        if not sp.issparse(A):
            A = as_csr(A)
        elif (
            A.format != "csr"
            or A.dtype != VALUE_DTYPE
            or not A.has_canonical_format
        ):
            A = as_csr(A)
        if A.shape != self.fmt.shape:
            raise ValueError(
                f"patch_rows cannot change the matrix shape: plan has "
                f"{self.fmt.shape}, update has {A.shape}"
            )
        changed = np.unique(np.asarray(changed_rows, dtype=np.int64))
        if changed.size and (changed[0] < 0 or changed[-1] >= A.shape[0]):
            raise ValueError("changed row index out of range")
        t0 = time.perf_counter()
        P = state.num_partitions
        cells = split_csr(A, P)
        A, bounds, counts, _starts = cells
        affected = touched_partitions(state.counts, counts, changed)
        with get_tracer().span(
            "patch_rows", changed_rows=int(changed.size), rebuilt=int(affected.size)
        ):
            fan = compose_partitions(
                A,
                P,
                state.J,
                block_multiple=state.block_multiple,
                cells=cells,
                only=[int(p) for p in affected],
            )
            rebuilt = {o.index: o for o in fan.outcomes}
            partitions, widths, costs = [], [], []
            for p in range(P):
                if p in rebuilt:
                    o = rebuilt[p]
                    partitions.append(o.partition)
                    widths.append(o.width)
                    costs.append(o.result.cost if o.result else None)
                else:
                    partitions.append(self.fmt.partitions[p])
                    widths.append(state.widths[p])
                    costs.append(state.costs[p])
            fmt = CELLFormat(self.fmt.shape, partitions, int(A.nnz))
        elapsed = time.perf_counter() - t0
        tune_frac = fan.tune_fraction if affected.size else 0.5
        plan = _cell_plan(
            fmt, self.kernel, state.J, state.block_multiple, bounds, counts,
            widths, costs, elapsed * tune_frac, elapsed * (1.0 - tune_frac),
            patched=tuple(int(p) for p in affected),
        )
        _record_compose(plan)
        return plan


def _cell_plan(
    fmt: CELLFormat,
    kernel: SpMMKernel,
    J: int,
    block_multiple: int,
    bounds: list[tuple[int, int]],
    counts: np.ndarray,
    widths: list[int],
    costs: list[float | None],
    search_s: float,
    build_s: float,
    patched: tuple[int, ...] = (),
) -> ComposePlan:
    """The CELL plan a full compose or a ``patch_rows`` returns, with the
    :class:`IncrementalState` the next ``patch_rows`` reads."""
    return ComposePlan(
        use_cell=True,
        fmt=fmt,
        kernel=kernel,
        num_partitions=len(bounds),
        max_widths=widths,
        overhead=OverheadBreakdown(0.0, 0.0, search_s, build_s),
        # Left-to-right over partitions, so a patch sums like a full compose.
        predicted_cost=sum(c for c in costs if c is not None),
        incremental=IncrementalState(
            J=J,
            num_partitions=len(bounds),
            block_multiple=block_multiple,
            bounds=bounds,
            counts=counts.astype(np.int32),
            widths=list(widths),
            costs=costs,
            patched=patched,
        ),
    )


def _blockwise_occupancy(A: sp.csr_matrix, block: int = 8) -> float:
    """Mean fill of the non-empty (block x block) tiles — the cheap signal
    used to pick between the fixed formats when CELL is rejected."""
    if A.nnz == 0:
        return 0.0
    rows = np.repeat(
        np.arange(A.shape[0], dtype=np.int64), np.diff(A.indptr).astype(np.int64)
    )
    nbc = -(-A.shape[1] // block)
    keys = (rows // block) * np.int64(nbc) + A.indices.astype(np.int64) // block
    n_tiles = np.unique(keys).size
    return A.nnz / (n_tiles * block * block)


#: Pipeline-level instruments on the process-wide registry (created at
#: import time, Prometheus-client style, so the hot path only increments).
_COMPOSE_TOTAL = get_registry().counter(
    "compose_total", "Plans composed by LiteForm.compose_csr"
)
_COMPOSE_CELL = get_registry().counter(
    "compose_cell_total", "Composed plans that selected the CELL format"
)
_COMPOSE_OVERHEAD_MS = get_registry().histogram(
    "compose_overhead_ms", "Wall-clock construction overhead per compose (ms)"
)


def _record_compose(plan: "ComposePlan") -> None:
    _COMPOSE_TOTAL.inc()
    if plan.use_cell:
        _COMPOSE_CELL.inc()
    _COMPOSE_OVERHEAD_MS.observe(plan.overhead.total_s * 1e3)


def compose_cell_plan(
    A: sp.csr_matrix,
    num_partitions: int,
    J: int,
    *,
    block_multiple: int = 2,
) -> ComposePlan:
    """Stages 2b-3 of Figure 2 for an already-canonical CSR matrix at a
    fixed partition count: split, per-partition width search, bucket build.

    The partitions run in index order through
    :func:`~repro.core.parallel.compose_partitions`.  The returned plan
    carries the :class:`IncrementalState` that
    :meth:`ComposePlan.patch_rows` consumes.
    The ``selection``/``partition`` overhead fields are zero — callers
    that ran those stages (``LiteForm.compose_csr``) fill them in.
    """
    tracer = get_tracer()
    t0 = time.perf_counter()
    with tracer.span("tune_width", num_partitions=num_partitions):
        cells = split_csr(A, num_partitions)
        fan = compose_partitions(
            A,
            num_partitions,
            J,
            block_multiple=block_multiple,
            cells=cells,
        )
    t1 = time.perf_counter()
    with tracer.span("build", format="CELL"):
        fmt = fan.to_format()
    t2 = time.perf_counter()
    # The fan-out fuses tuning and building per partition; apportion the
    # measured wall between the two overhead stages by the tasks' own
    # tune/build split so the Fig. 8-9 accounting keeps its meaning.
    frac = fan.tune_fraction
    fused = t1 - t0
    return _cell_plan(
        fmt, CELLSpMM(), J, block_multiple, fan.bounds, fan.counts, fan.widths,
        fan.costs, fused * frac, fused * (1.0 - frac) + (t2 - t1),
    )


class LiteForm:
    """Lightweight automatic format composition for SpMM.

    Typical use::

        lf = LiteForm()
        lf.fit(training_data)              # offline, amortized
        plan = lf.compose(A, J=128)        # milliseconds (Figs. 8-9)
        C, measurement = lf.run(plan, B)   # simulated execution
    """

    def __init__(
        self,
        selector: FormatSelector | None = None,
        partition_model: PartitionPredictor | None = None,
        block_multiple: int = 2,
        bcsr_occupancy_threshold: float = 0.5,
    ):
        self.selector = selector or FormatSelector()
        self.partition_model = partition_model or PartitionPredictor()
        self.device = SimulatedDevice()
        self.block_multiple = block_multiple
        self.bcsr_occupancy_threshold = bcsr_occupancy_threshold
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, training: TrainingData) -> "LiteForm":
        """Train both predictors from simulated execution history."""
        if not training.format_samples or not training.partition_samples:
            raise ValueError("training data must contain samples for both models")
        self.selector.fit(training.format_X, training.format_y)
        self.partition_model.fit(training.partition_X, training.partition_y)
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    def compose(self, A: sp.spmatrix, J: int, force_cell: bool | None = None) -> ComposePlan:
        """Figure 2: select, partition, search, and build.

        ``force_cell`` overrides stage 1 (used by ablations and by Fig. 7,
        which compares composed CELL directly against tuned SparseTIR).
        """
        with get_tracer().span("canonicalize"):
            A = as_csr(A)
        return self.compose_csr(A, J, force_cell=force_cell)

    def compose_csr(
        self, A: sp.csr_matrix, J: int, force_cell: bool | None = None
    ) -> ComposePlan:
        """:meth:`compose` for an already-canonical CSR matrix.

        Skips the ``as_csr`` re-validation (dtype conversion, duplicate
        summing, index sorting) — the hot path for callers that fingerprint
        or otherwise pre-process the CSR arrays, e.g.
        :class:`repro.serve.server.SpMMServer`.  The caller guarantees
        sorted, deduplicated float32 CSR input.
        """
        if not self._fitted and force_cell is None:
            raise RuntimeError("LiteForm.fit must run before compose")
        if J < 1:
            raise ValueError(f"J must be >= 1, got {J}")
        tracer = get_tracer()

        t0 = time.perf_counter()
        if force_cell is not None:
            use_cell = force_cell
            # The selector did not run: zero its public timing attribute so
            # overhead accounting (Figs. 8-9, ablations) doesn't attribute
            # the *previous* matrix's inference time to this compose.
            self.selector.last_inference_s = 0.0
        else:
            with tracer.span("features", nnz=A.nnz):
                feats = format_selection_features(A)[None, :]
            with tracer.span("select") as sel_span:
                use_cell = bool(self.selector.predict_features(feats)[0])
                sel_span.set(use_cell=use_cell)
            # predict() would have timed features + inference itself; keep
            # the selector's public timing attribute behaving the same.
            self.selector.last_inference_s = time.perf_counter() - t0
        t1 = time.perf_counter()

        if not use_cell:
            with tracer.span("build", format="fixed"):
                if _blockwise_occupancy(A) >= self.bcsr_occupancy_threshold:
                    fmt: SparseFormat = BCSRFormat.from_csr(A, block_shape=(8, 8))
                    kernel: SpMMKernel = BCSRSpMM()
                else:
                    fmt = CSRFormat.from_csr(A)
                    kernel = RowSplitCSRSpMM()
            t2 = time.perf_counter()
            plan = ComposePlan(
                use_cell=False,
                fmt=fmt,
                kernel=kernel,
                num_partitions=1,
                overhead=OverheadBreakdown(t1 - t0, 0.0, 0.0, t2 - t1),
            )
            _record_compose(plan)
            return plan

        with tracer.span("partition", J=J) as part_span:
            num_partitions = (
                self.partition_model.predict(A, J) if self._fitted else 1
            )
            part_span.set(num_partitions=num_partitions)
        t2 = time.perf_counter()

        plan = compose_cell_plan(
            A,
            num_partitions,
            J,
            block_multiple=self.block_multiple,
        )
        plan.overhead = OverheadBreakdown(
            t1 - t0, t2 - t1, plan.overhead.search_s, plan.overhead.build_s
        )
        _record_compose(plan)
        return plan

    # ------------------------------------------------------------------
    def run(self, plan: ComposePlan, B: np.ndarray) -> tuple[np.ndarray, Measurement]:
        """Execute a composed plan numerically + on the simulated device."""
        return plan.kernel.run(plan.fmt, B, self.device)

    def measure(self, plan: ComposePlan, J: int) -> Measurement:
        """Timing-only evaluation of a composed plan."""
        return plan.kernel.measure(plan.fmt, J, self.device)
