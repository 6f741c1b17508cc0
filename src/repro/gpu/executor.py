"""SM-level thread-block scheduling for the load-imbalance tail."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling a kernel's thread blocks onto the device.

    ``makespan`` and ``mean_load`` are in the block-cost units handed in
    (flops).  ``excess = makespan - mean_load`` is the straggler tail that
    runs after the balanced phase drains; the timing model charges it at
    single-slot rates.
    """

    makespan: float
    mean_load: float
    num_waves: float

    @property
    def imbalance(self) -> float:
        if self.mean_load <= 0:
            return 1.0
        return max(1.0, self.makespan / self.mean_load)

    @property
    def excess(self) -> float:
        return max(0.0, self.makespan - self.mean_load)


#: Block counts up to which :func:`schedule` simulates greedy dispatch
#: exactly; above it, analytic bounds keep planning O(n).
EXACT_THRESHOLD = 8192


def schedule(block_costs: np.ndarray, slots: int, lpt: bool = False) -> ScheduleResult:
    """Greedy list scheduling approximating the GPU block dispatcher.

    GPUs dispatch thread blocks to SM slots as slots free up — greedy list
    scheduling in *launch order*.  Kernels that sort their work units
    longest-first (``lpt=True``, e.g. Sputnik's row swizzle) approach the
    optimal makespan; kernels issuing blocks in natural matrix order can
    expose a large straggler late in the kernel.

    For more than :data:`EXACT_THRESHOLD` blocks the exact simulation is
    replaced by tight analytic bounds.
    """
    costs = np.asarray(block_costs, dtype=np.float64)
    costs = costs[costs > 0]
    slots = max(1, int(slots))
    if costs.size == 0:
        return ScheduleResult(makespan=0.0, mean_load=0.0, num_waves=0.0)
    total = float(costs.sum())
    mean_load = total / slots
    max_cost = float(costs.max())
    if costs.size <= slots:
        makespan = max_cost
    elif costs.size <= EXACT_THRESHOLD:
        order = np.sort(costs)[::-1] if lpt else costs
        makespan = _greedy_makespan(order, slots)
    elif lpt:
        # LPT bound: balanced load plus at most one average-size block.
        makespan = max(mean_load + float(costs.mean()) * (1.0 - 1.0 / slots), max_cost)
    else:
        # Natural order: the largest block arrives at an effectively
        # arbitrary position; in expectation half of it is exposed
        # beyond the balanced drain.
        makespan = mean_load + 0.5 * max_cost
    return ScheduleResult(
        makespan=makespan,
        mean_load=mean_load,
        num_waves=costs.size / slots,
    )


def _greedy_makespan(costs: np.ndarray, slots: int) -> float:
    """Exact greedy dispatch: each block goes to the earliest-free slot."""
    heap = [0.0] * slots
    heapq.heapify(heap)
    for c in costs:
        earliest = heapq.heappop(heap)
        heapq.heappush(heap, earliest + float(c))
    return max(heap)
