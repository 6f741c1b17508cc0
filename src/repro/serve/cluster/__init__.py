"""Sharded serving fleet: consistent-hash routing over many servers.

One :class:`~repro.serve.server.SpMMServer` amortizes composition
through its plan cache; a *fleet* of them only keeps doing so if every
request for a fingerprint lands on the shard holding its plan.  This
package supplies that layer:

* :mod:`~repro.serve.cluster.ring` — the consistent-hash
  :class:`ShardRing` (virtual nodes, ~1/N remigration on membership
  changes, measurable via :func:`remigration_fraction`);
* :mod:`~repro.serve.cluster.hotkeys` — sliding-window
  :class:`WindowedFrequencySketch` detecting Zipf-dominant fingerprints;
* :mod:`~repro.serve.cluster.metrics` — the :class:`ClusterMetrics`
  scoreboard published on the obs registry;
* :mod:`~repro.serve.cluster.frontend` — :class:`ClusterFrontend`, the
  router owning per-shard server/scheduler instances, hot-key
  replication, failure re-routing, and elastic membership
  (:class:`MembershipChange` reports each add/remove/kill).

See docs/CLUSTER.md for the design rationale and knobs.
"""

from repro.serve.cluster.frontend import ClusterFrontend, MembershipChange
from repro.serve.cluster.hotkeys import WindowedFrequencySketch
from repro.serve.cluster.metrics import ClusterMetrics
from repro.serve.cluster.ring import (
    DEFAULT_VIRTUAL_NODES,
    ShardRing,
    remigration_fraction,
)

__all__ = [
    "ClusterFrontend",
    "ClusterMetrics",
    "MembershipChange",
    "ShardRing",
    "WindowedFrequencySketch",
    "remigration_fraction",
    "DEFAULT_VIRTUAL_NODES",
]
