"""Hot-fingerprint detection over a sliding request window.

Zipf traffic (the serving workload's model, and what GNN/recommender
fleets actually see) concentrates a large share of requests on one or a
few matrices.  Consistent hashing pins each fingerprint to one shard, so
a dominant fingerprint turns its shard into the fleet's bottleneck no
matter how many shards exist.  The cluster's answer is replication: once
a key's share of the *recent* request stream crosses a threshold, its
cached plan is copied to the next shards on the ring and traffic is
spread among the replicas with power-of-two-choices routing.

:class:`WindowedFrequencySketch` supplies the detection signal: exact
per-key counts over the last :attr:`~WindowedFrequencySketch.WINDOW`
observations, held in a ring buffer so memory is O(window) no matter
how many distinct keys pass through — the bounded-memory guarantee of a
frequency sketch, with zero approximation error at serving-window
scale.  The window slides, so a key that *was* hot decays back to cold
as traffic moves on, which is what lets replication track a drifting
workload.
"""

from __future__ import annotations

from collections import Counter, deque


class WindowedFrequencySketch:
    """Exact key frequencies over the last :attr:`WINDOW` observations.

    ``observe`` is O(1): append to the ring buffer, bump the counter,
    and decrement the evicted key's count.  ``frequency`` is the key's
    share of the *current* window (not of all traffic ever), which is
    the right signal for replication — yesterday's hot matrix should not
    stay pinned to extra shards forever.
    """

    #: Sliding-window length (requests).
    WINDOW = 512

    def __init__(self):
        self._recent: deque[str] = deque()
        self._counts: Counter[str] = Counter()

    def __len__(self) -> int:
        """Observations currently inside the window."""
        return len(self._recent)

    def observe(self, key: str) -> None:
        """Record one request for ``key``, evicting the oldest if full."""
        self._recent.append(key)
        self._counts[key] += 1
        if len(self._recent) > self.WINDOW:
            evicted = self._recent.popleft()
            remaining = self._counts[evicted] - 1
            if remaining:
                self._counts[evicted] = remaining
            else:
                del self._counts[evicted]

    def count(self, key: str) -> int:
        """Occurrences of ``key`` inside the current window."""
        return self._counts.get(key, 0)

    def frequency(self, key: str) -> float:
        """``key``'s share of the current window (0.0 when empty)."""
        seen = len(self._recent)
        if not seen:
            return 0.0
        return self._counts.get(key, 0) / seen
