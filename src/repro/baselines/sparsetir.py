"""SparseTIR baseline: composable ``hyb`` format + exhaustive auto-tuning.

SparseTIR's hybrid format is, structurally, CELL with one restriction: the
*same* maximum bucket width applies to every column partition (Section 4
contrasts CELL's per-partition width sets against hyb).  Its published
workflow finds the format composition by exhaustive search: every candidate
``(partitions, max_width)`` pair is compiled by TVM and measured on the
GPU.  That search is what makes its construction overhead orders of
magnitude larger than LiteForm's (Figures 8-9).

``prepare`` reproduces the search on the simulated device and charges

``overhead = sum over candidates of (compile_s + runs * exec_time)``.
"""

from __future__ import annotations

import time

import scipy.sparse as sp

from repro.baselines.base import BaselineSystem, PreparedInput
from repro.core.partition_model import PARTITION_CANDIDATES
from repro.formats.base import ceil_pow2_exponent
from repro.formats.cell import CELLFormat
from repro.gpu.device import SimulatedDevice, SimulatedOOMError
from repro.kernels.cell_spmm import CELLSpMM

import numpy as np


class SparseTIRBaseline(BaselineSystem):
    """Exhaustively tuned hyb (uniform-width CELL)."""

    name = "sparsetir"

    #: Simulated TVM build+load time per candidate schedule.
    compile_s = 1.0
    #: Timing repetitions per candidate during the search.
    runs_per_candidate = 10

    def __init__(
        self,
        partition_candidates: tuple[int, ...] = PARTITION_CANDIDATES,
        max_width_cap: int = 512,
        format_cache: dict | None = None,
    ):
        self.partition_candidates = partition_candidates
        self.max_width_cap = max_width_cap
        #: Optional (id(A), P, W) -> CELLFormat cache; hyb structures do not
        #: depend on J, so sweeps over dense widths can reuse them.
        self.format_cache = format_cache

    def candidate_space(self, A: sp.csr_matrix) -> list[tuple[int, int]]:
        """All (num_partitions, uniform max width) pairs searched."""
        lengths = np.diff(A.indptr)
        max_len = int(lengths.max()) if lengths.size else 1
        max_exp = int(ceil_pow2_exponent(max(max_len, 1)))
        max_exp = min(max_exp, int(np.log2(self.max_width_cap)))
        widths = [1 << e for e in range(max_exp + 1)]
        parts = [p for p in self.partition_candidates if p <= A.shape[1]]
        return [(p, w) for p in parts for w in widths]

    def prepare(self, A: sp.spmatrix, J: int, device: SimulatedDevice) -> PreparedInput:
        A = self._canonical(A)
        t0 = time.perf_counter()
        space = self.candidate_space(A)
        # Stock SparseTIR emits one CUDA kernel per bucket; the horizontal
        # fusion pass is LiteForm's addition (Section 6), so hyb pays one
        # launch per bucket here.
        kernel = CELLSpMM(fused=False)
        best_fmt, best_cfg, best_time = None, None, float("inf")
        tuning_s = 0.0
        for p, w in space:
            key = (id(A), p, w)
            if self.format_cache is not None and key in self.format_cache:
                fmt = self.format_cache[key]
            else:
                fmt = CELLFormat.from_csr(A, num_partitions=p, max_widths=w)
                if self.format_cache is not None:
                    self.format_cache[key] = fmt
            try:
                t = kernel.measure(fmt, J, device).time_s
            except SimulatedOOMError:
                tuning_s += self.compile_s
                continue
            tuning_s += self.compile_s + self.runs_per_candidate * t
            if t < best_time:
                best_fmt, best_cfg, best_time = fmt, (p, w), t
        if best_fmt is None:
            raise RuntimeError("SparseTIR search found no feasible candidate")
        wall_s = time.perf_counter() - t0
        return PreparedInput(
            system=self.name,
            fmt=best_fmt,
            kernel=kernel,
            construction_overhead_s=tuning_s + wall_s,
            config={
                "num_partitions": best_cfg[0],
                "max_width": best_cfg[1],
                "candidates": len(space),
            },
        )
