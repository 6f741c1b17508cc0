"""Training-data generation for LiteForm's two predictors (Sections 5.1-5.2).

For every matrix in a collection, SpMM is simulated with the fixed formats
(CSR under the cuSPARSE-style kernel, BCSR under the blockwise kernel) and
with CELL composed by the cost model for every candidate partition count
(:func:`repro.core.parallel.compose_partitions`, the fan-out serving
composes through, so the labels time the plans serving would build).
The recorded execution times produce:

* the format-selection label — TRUE when CELL's best time beats *both*
  fixed formats by more than 1.1x (geometric mean across dense widths);
* the per-``(matrix, J)`` optimal partition count — the Table 6 target.

This is the offline step whose cost the paper amortizes over future use;
the benchmarks reuse one generated :class:`TrainingData` for Tables 5-6 and
Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.parallel import compose_partitions
from repro.core.partition_model import PARTITION_CANDIDATES
from repro.core.selector import CELL_ADVANTAGE_THRESHOLD
from repro.formats.bcsr import BCSRFormat
from repro.formats.cell import split_csr
from repro.formats.csr import CSRFormat
from repro.gpu.device import SimulatedDevice, SimulatedOOMError
from repro.kernels.bcsr_spmm import BCSRSpMM
from repro.kernels.cell_spmm import CELLSpMM
from repro.kernels.csr_spmm import RowSplitCSRSpMM
from repro.matrices.features import format_selection_features, partition_features

#: Dense widths swept during training (Section 5.2).
DEFAULT_J_VALUES = (32, 64, 128, 256, 512)


@dataclass
class FormatSelectionSample:
    """One Table 2 training row."""

    name: str
    features: np.ndarray  # (7,)
    label: bool
    cell_time_s: float  # geomean over J of the best-partition CELL time
    fixed_time_s: float  # geomean over J of min(CSR, BCSR)


@dataclass
class PartitionSample:
    """One Table 3 training row (per matrix x dense width)."""

    name: str
    J: int
    features: np.ndarray  # (8,)
    best_partitions: int
    times_by_partition: dict[int, float]


@dataclass
class TrainingData:
    """Labelled samples for both predictors."""

    format_samples: list[FormatSelectionSample] = field(default_factory=list)
    partition_samples: list[PartitionSample] = field(default_factory=list)

    @property
    def format_X(self) -> np.ndarray:
        return np.vstack([s.features for s in self.format_samples])

    @property
    def format_y(self) -> np.ndarray:
        return np.array([s.label for s in self.format_samples], dtype=bool)

    @property
    def partition_X(self) -> np.ndarray:
        return np.vstack([s.features for s in self.partition_samples])

    @property
    def partition_y(self) -> np.ndarray:
        return np.array(
            [s.best_partitions for s in self.partition_samples], dtype=np.int64
        )

    def merged_with(self, other: "TrainingData") -> "TrainingData":
        return TrainingData(
            format_samples=self.format_samples + other.format_samples,
            partition_samples=self.partition_samples + other.partition_samples,
        )


def _geomean(values: list[float]) -> float:
    arr = np.asarray(values, dtype=np.float64)
    return float(np.exp(np.mean(np.log(arr))))


def serving_format_sample(
    name: str,
    features: np.ndarray,
    cell_time_s: float,
    fixed_time_s: float,
) -> FormatSelectionSample:
    """One Table 2 row from *serving* telemetry rather than a J-sweep.

    The serving path measures each format family at the request's own
    ``J`` instead of sweeping ``DEFAULT_J_VALUES``, so the times are
    per-observation means, not geomeans — the label rule is the same
    as :func:`generate_training_data`'s.
    """
    if cell_time_s <= 0.0:
        raise ValueError(f"cell_time_s must be positive, got {cell_time_s}")
    return FormatSelectionSample(
        name=name,
        features=np.asarray(features, dtype=np.float64),
        label=bool(fixed_time_s / cell_time_s > CELL_ADVANTAGE_THRESHOLD),
        cell_time_s=float(cell_time_s),
        fixed_time_s=float(fixed_time_s),
    )


def generate_training_data(
    entries,
    device: SimulatedDevice | None = None,
    J_values: tuple[int, ...] = DEFAULT_J_VALUES,
    partition_candidates: tuple[int, ...] = PARTITION_CANDIDATES,
    block_multiple: int = 2,
) -> TrainingData:
    """Simulate SpMM across formats and label every matrix.

    ``entries`` is an iterable of objects with ``.name`` and ``.matrix``
    (e.g. :class:`~repro.matrices.collection.CollectionEntry`), or plain
    ``(name, matrix)`` tuples.
    """
    device = device or SimulatedDevice()
    csr_kernel = RowSplitCSRSpMM()
    bcsr_kernel = BCSRSpMM()
    cell_kernel = CELLSpMM()
    data = TrainingData()
    for entry in entries:
        if isinstance(entry, tuple):
            name, A = entry
        else:
            name, A = entry.name, entry.matrix
        if A.nnz == 0:
            continue
        csr = CSRFormat.from_csr(A)
        bcsr = BCSRFormat.from_csr(A, block_shape=(8, 8))
        candidates = [p for p in partition_candidates if p <= A.shape[1]]
        times_by_J: dict[int, dict[int, float]] = {J: {} for J in J_values}
        for p in candidates:
            # One split per partition count, shared by every J and freed
            # before the next count's (the split holds (rows, p) arrays).
            cells = split_csr(A, p)
            for J in J_values:
                fmt = compose_partitions(
                    A, p, J, block_multiple=block_multiple, cells=cells
                ).to_format()
                try:
                    times_by_J[J][p] = cell_kernel.measure(fmt, J, device).time_s
                except SimulatedOOMError:
                    times_by_J[J][p] = float("inf")
            del cells

        fixed_by_J: list[float] = []
        cell_by_J: list[float] = []
        for J in J_values:
            t_csr = csr_kernel.measure(csr, J, device).time_s
            try:
                t_bcsr = bcsr_kernel.measure(bcsr, J, device).time_s
            except SimulatedOOMError:
                t_bcsr = float("inf")
            fixed = min(t_csr, t_bcsr)
            times = times_by_J[J]
            best_p = min(times, key=times.get)
            data.partition_samples.append(
                PartitionSample(
                    name=name,
                    J=J,
                    features=partition_features(A, J),
                    best_partitions=best_p,
                    times_by_partition=times,
                )
            )
            fixed_by_J.append(fixed)
            cell_by_J.append(times[best_p])

        cell_gm = _geomean(cell_by_J)
        fixed_gm = _geomean(fixed_by_J)
        data.format_samples.append(
            FormatSelectionSample(
                name=name,
                features=format_selection_features(A),
                label=bool(fixed_gm / cell_gm > CELL_ADVANTAGE_THRESHOLD),
                cell_time_s=cell_gm,
                fixed_time_s=fixed_gm,
            )
        )
    return data
