"""Algorithm 3: search for the optimal maximum bucket width.

The cost of a partition as a function of its maximum bucket width is
(approximately) unimodal: widening the cap reduces the number of folded
bucket rows ``I1`` (fewer row-index reads and output writes) while
increasing padding (more index/value reads), per the trade-off discussion
of Section 5.3.  Algorithm 3 exploits this with a binary-search-like probe
that compares ``cost(mid)`` against ``cost(2 * mid)`` to decide which half
contains the optimum.

Widths are powers of two, so the search runs over exponents; the paper's
``GetAllCost(buckets)`` corresponds to :meth:`PartitionCostProfile.all_costs`,
which evaluates every candidate cap from one precomputed histogram, and
``TuneWidth(buckets, w)`` to the probes over that array (the scalar
:meth:`PartitionCostProfile.cost` remains as the per-candidate reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost_model import PartitionCostProfile


@dataclass(frozen=True)
class BucketSearchResult:
    """Chosen cap for one partition plus search telemetry."""

    max_exp: int
    cost: float
    evaluations: int

    @property
    def max_width(self) -> int:
        return 1 << self.max_exp


def build_buckets(
    profile: PartitionCostProfile,
    J: int,
    num_partitions: int = 1,
    legacy_eq7: bool = False,
) -> BucketSearchResult:
    """Algorithm 3 (``BuildBuckets``): binary search over the width cap.

    Maintains ``[lo, hi]`` exponent bounds; at each step compares the cost
    at the midpoint ``m`` with the cost one doubling up (``m + 1``): if the
    midpoint is more expensive the optimum lies to the right, else to the
    left (or at ``m``) — lines 5-14 of the paper's listing.
    """
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    # GetAllCost: every candidate cost from the profile's precomputed
    # histograms in one vectorized pass; the probes below are O(1) reads.
    costs = profile.all_costs(J, num_partitions=num_partitions, legacy_eq7=legacy_eq7)
    lo, hi = 0, profile.natural_max_exp
    evals = 0
    while lo < hi:
        mid = (lo + hi) // 2
        evals += 2
        if costs[mid] > costs[min(mid + 1, hi)]:
            lo = mid + 1
        else:
            hi = mid
    return BucketSearchResult(max_exp=lo, cost=float(costs[lo]), evaluations=evals + 1)


def tune_partition(
    profile: PartitionCostProfile,
    J: int,
    num_partitions: int = 1,
    legacy_eq7: bool = False,
) -> tuple[BucketSearchResult | None, int]:
    """Tune one partition, handling the empty case uniformly.

    Returns ``(result, width)`` where ``result`` is ``None`` and ``width``
    is 1 for a partition with no stored elements — the exact convention the
    compose fan-out, the reference builds, and ``patch_rows`` all share, so
    every path computes identical widths and identical ``predicted_cost``
    accumulation inputs.
    """
    if not profile.num_nonempty_rows:
        return None, 1
    result = build_buckets(
        profile, J, num_partitions=num_partitions, legacy_eq7=legacy_eq7
    )
    return result, 1 << result.max_exp


def exhaustive_width_search(
    profile: PartitionCostProfile,
    J: int,
    num_partitions: int = 1,
    legacy_eq7: bool = False,
) -> BucketSearchResult:
    """Brute-force sweep of every cap — the ablation reference Algorithm 3
    is compared against (and the oracle it should match on unimodal costs)."""
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    costs = profile.all_costs(J, num_partitions=num_partitions, legacy_eq7=legacy_eq7)
    best_exp = int(np.argmin(costs))  # first minimum: lowest cap wins ties
    return BucketSearchResult(
        max_exp=best_exp, cost=float(costs[best_exp]), evaluations=int(costs.size)
    )
