"""Consistent-hash ring mapping plan fingerprints to serving shards.

Sharding a plan cache is a *routing* problem: LiteForm's amortization
argument (Figures 8-9) only survives fleet scale if requests for the
same matrix fingerprint land on the shard that already holds its
composed plan.  A modulo hash would remap almost every key whenever the
fleet grows or a shard dies; a consistent-hash ring with virtual nodes
remaps only the slice of the key space the changed shard owns —
``~1/N`` of all keys for a membership change in an ``N``-shard fleet.

Mechanics (classic Karger-style ring):

* every shard owns ``virtual_nodes`` points on a 64-bit ring, placed by
  hashing ``"{shard}#{vnode}"`` with BLAKE2b — deterministic, so two
  rings built from the same membership always agree;
* a key routes to the owner of the first ring point at or clockwise
  after its own hash;
* adding a shard only captures arcs for the new shard's points;
  removing one only releases its arcs to their successors.  Keys whose
  owner did not change are untouched *by construction*.

The remigration cost of a membership change is measurable:
:meth:`ShardRing.assignment` snapshots the key→shard mapping for any key
set and :func:`remigration_fraction` compares two snapshots, which is
what the cluster benchmark's ``≤ ~1.5/N`` bound checks.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable

#: Default virtual nodes per shard.  Arc-length imbalance shrinks like
#: ``1/sqrt(virtual_nodes)``; 64 keeps the max/mean shard share within
#: ~1.3x while membership changes stay cheap to apply.
DEFAULT_VIRTUAL_NODES = 64

#: Domain-separation prefix mixed into every ring hash.
_RING_SALT = b"repro-ring-v1:"


def _hash64(token: object) -> int:
    """Deterministic 64-bit ring position of ``str(token)`` (a shard id,
    a :class:`~repro.serve.fingerprint.PlanKey`, or any routing string)."""
    digest = hashlib.blake2b(_RING_SALT + str(token).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRing:
    """Consistent-hash router over a set of named shards.

    Routing is a pure function of the live membership: the same shards
    (regardless of insertion order) produce the same ring, so a restarted
    frontend routes exactly like its predecessor — and an ``add_shard``
    followed by ``remove_shard`` of the same name restores the original
    assignment bit for bit.
    """

    def __init__(
        self,
        shards: Iterable[str] = (),
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
    ):
        if virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.virtual_nodes = int(virtual_nodes)
        self._shards: set[str] = set()
        #: Sorted ring positions and their owners (parallel lists).
        self._points: list[int] = []
        self._owners: list[str] = []
        for shard in shards:
            self.add_shard(shard)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    @property
    def shards(self) -> tuple[str, ...]:
        """Live shard ids, sorted (stable across insertion orders)."""
        return tuple(sorted(self._shards))

    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        pairs = sorted(
            (_hash64(f"{shard}#{v}"), shard)
            for shard in self._shards
            for v in range(self.virtual_nodes)
        )
        self._points = [p for p, _ in pairs]
        self._owners = [s for _, s in pairs]

    def add_shard(self, shard_id: str) -> None:
        """Join ``shard_id``; its virtual nodes capture ~1/N of the ring."""
        if not shard_id:
            raise ValueError("shard_id must be a non-empty string")
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} already on the ring")
        self._shards.add(shard_id)
        self._rebuild()

    def remove_shard(self, shard_id: str) -> None:
        """Leave the ring; the shard's arcs fall to their successors."""
        if shard_id not in self._shards:
            raise KeyError(f"shard {shard_id!r} not on the ring")
        self._shards.remove(shard_id)
        self._rebuild()

    # ------------------------------------------------------------------
    def route(self, key: object) -> str:
        """The shard owning ``key`` (first point clockwise of its hash)."""
        if not self._shards:
            raise RuntimeError("cannot route on an empty ring")
        idx = bisect_right(self._points, _hash64(key)) % len(self._points)
        return self._owners[idx]

    def route_replicas(self, key: object, k: int) -> list[str]:
        """The ``k`` distinct shards walking clockwise from ``key``.

        The first entry is :meth:`route`'s owner (the primary); the rest
        are the natural replica set — successors on the ring — so replica
        placement is as stable under membership changes as primary
        placement.  Capped at the number of live shards.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not self._shards:
            raise RuntimeError("cannot route on an empty ring")
        k = min(k, len(self._shards))
        start = bisect_right(self._points, _hash64(key))
        out: list[str] = []
        for i in range(len(self._points)):
            owner = self._owners[(start + i) % len(self._points)]
            if owner not in out:
                out.append(owner)
                if len(out) == k:
                    break
        return out

    # ------------------------------------------------------------------
    def assignment(self, keys: Iterable[str]) -> dict[str, str]:
        """Snapshot ``{key: shard}`` for a key set (remigration probes)."""
        return {key: self.route(key) for key in keys}

    def spread(self, keys: Iterable[str]) -> dict[str, int]:
        """Keys owned per shard (every live shard present, possibly 0)."""
        counts = {shard: 0 for shard in self._shards}
        for key in keys:
            counts[self.route(key)] += 1
        return counts


def remigration_fraction(before: dict[str, str], after: dict[str, str]) -> float:
    """Fraction of commonly-routed keys whose owner changed.

    Feed it two :meth:`ShardRing.assignment` snapshots taken around a
    membership change; consistent hashing promises the result stays near
    ``1/N`` (only the changed shard's arcs move), against which the
    cluster acceptance bound of ``≤ ~1.5/N`` is asserted.
    """
    common = before.keys() & after.keys()
    if not common:
        return 0.0
    moved = sum(1 for key in common if before[key] != after[key])
    return moved / len(common)
