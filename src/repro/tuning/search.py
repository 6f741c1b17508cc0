"""Search strategies over the CELL composition space (P, uniform W)."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.partition_model import PARTITION_CANDIDATES
from repro.formats.base import as_csr, ceil_pow2_exponent
from repro.formats.cell import CELLFormat
from repro.gpu.device import SimulatedDevice, SimulatedOOMError
from repro.kernels.cell_spmm import CELLSpMM


def cell_candidate_space(
    A: sp.csr_matrix,
    partition_candidates: tuple[int, ...] = PARTITION_CANDIDATES,
    max_width_cap: int = 512,
) -> list[tuple[int, int]]:
    """All (num_partitions, uniform max width) composition candidates."""
    lengths = np.diff(A.indptr)
    max_len = int(lengths.max()) if lengths.size else 1
    max_exp = min(
        int(ceil_pow2_exponent(max(max_len, 1))), int(np.log2(max_width_cap))
    )
    parts = [p for p in partition_candidates if p <= A.shape[1]]
    return [(p, 1 << e) for p in parts for e in range(max_exp + 1)]


@dataclass(frozen=True)
class CandidateResult:
    """One measured composition candidate."""

    num_partitions: int
    max_width: int
    time_s: float


@dataclass
class TuningResult:
    """Outcome of a tuning run."""

    best: CandidateResult
    evaluated: list[CandidateResult] = field(default_factory=list)
    #: Simulated construction overhead (compile + repeated measurement per
    #: candidate), same currency as Figures 8-9.
    overhead_s: float = 0.0

    @property
    def num_evaluations(self) -> int:
        return len(self.evaluated)

    def build(self, A: sp.spmatrix, block_multiple: int = 2) -> CELLFormat:
        """Materialize the winning composition."""
        return CELLFormat.from_csr(
            as_csr(A),
            num_partitions=self.best.num_partitions,
            max_widths=self.best.max_width,
            block_multiple=block_multiple,
        )


class BaseTuner(abc.ABC):
    """Shared measurement plumbing for the search strategies."""

    #: Simulated build+load time per candidate.
    compile_s = 1.0
    #: Timing repetitions per candidate.
    runs_per_candidate = 10

    def __init__(self, device: SimulatedDevice | None = None):
        self.device = device or SimulatedDevice()
        self._kernel = CELLSpMM(fused=False)

    def _measure(self, A: sp.csr_matrix, cand: tuple[int, int], J: int) -> float:
        p, w = cand
        fmt = CELLFormat.from_csr(A, num_partitions=p, max_widths=w)
        return self._kernel.measure(fmt, J, self.device).time_s

    def tune(self, A: sp.spmatrix, J: int) -> TuningResult:
        A = as_csr(A)
        if A.nnz == 0:
            raise ValueError("cannot tune an empty matrix")
        if J < 1:
            raise ValueError(f"J must be >= 1, got {J}")
        result = TuningResult(best=CandidateResult(1, 1, float("inf")))
        for cand in self._candidates(A, J, result):
            try:
                t = self._measure(A, cand, J)
            except SimulatedOOMError:
                result.overhead_s += self.compile_s
                continue
            result.overhead_s += self.compile_s + self.runs_per_candidate * t
            cr = CandidateResult(cand[0], cand[1], t)
            result.evaluated.append(cr)
            if t < result.best.time_s:
                result.best = cr
        if not np.isfinite(result.best.time_s):
            raise RuntimeError("no feasible candidate found")
        return result

    @abc.abstractmethod
    def _candidates(self, A: sp.csr_matrix, J: int, result: TuningResult):
        """Yield candidates; may inspect ``result`` for adaptive search."""


class ExhaustiveTuner(BaseTuner):
    """The full sweep — SparseTIR's strategy and the Fig. 7 oracle."""

    def _candidates(self, A, J, result):
        yield from cell_candidate_space(A)


class RandomSearchTuner(BaseTuner):
    """Uniform random sampling with a fixed evaluation budget."""

    def __init__(self, budget: int = 8, seed: int = 0, **kwargs):
        super().__init__(**kwargs)
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self.seed = seed

    def _candidates(self, A, J, result):
        space = cell_candidate_space(A)
        rng = np.random.default_rng(self.seed)
        k = min(self.budget, len(space))
        for i in rng.choice(len(space), size=k, replace=False):
            yield space[int(i)]


class HillClimbTuner(BaseTuner):
    """Greedy neighbourhood descent: double/halve P or W while improving."""

    #: Descent steps before the search stops.
    max_steps = 16

    def __init__(self, start: tuple[int, int] = (1, 32), **kwargs):
        super().__init__(**kwargs)
        self.start = start

    def _candidates(self, A, J, result):
        space = set(cell_candidate_space(A))
        if not space:
            return
        p, w = self.start
        current = min(space, key=lambda c: abs(c[0] - p) + abs(np.log2(c[1]) - np.log2(max(w, 1))))
        seen = set()
        for _ in range(self.max_steps):
            if current not in seen:
                seen.add(current)
                yield current
            cp, cw = current
            neighbours = [
                c
                for c in ((cp * 2, cw), (max(1, cp // 2), cw), (cp, cw * 2), (cp, max(1, cw // 2)))
                if c in space and c not in seen
            ]
            if not neighbours:
                break
            for n in neighbours:
                seen.add(n)
                yield n
            best_time = {
                (r.num_partitions, r.max_width): r.time_s for r in result.evaluated
            }
            options = [c for c in (current, *neighbours) if c in best_time]
            nxt = min(options, key=lambda c: best_time[c])
            if nxt == current:
                break
            current = nxt
