"""Synthetic stand-ins for the seven GNN benchmark graphs of Table 4.

The paper evaluates on cora, citeseer, pubmed, ppi, arxiv, proteins, and
reddit.  Those datasets are not available offline, so each is replaced by a
seeded generator matched on node count, average degree, and density, using
the pattern class that best describes the original (citation graphs are
power-law; ppi/proteins/reddit have strong community structure).

The two largest graphs are scaled down by the ``scale`` factor recorded in
their spec (nodes and edges divided equally, preserving average degree);
benchmarks that depend on absolute capacity (the Triton OOM of Figure 6)
scale the simulated device's DRAM by the same factor, keeping the
footprint-to-capacity ratio faithful.  See DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.matrices.generators import community_graph, power_law_graph


@dataclass(frozen=True)
class GNNDatasetSpec:
    """Published statistics (Table 4) plus our stand-in parameters."""

    name: str
    nodes: int
    edges: int
    density: float
    pattern: str  # "power_law" | "community"
    #: Down-scale factor: nodes divided by ``scale`` and edges by
    #: ``scale**2``, preserving the published density (the property the
    #: cache/footprint models key on).
    scale: int = 1
    #: Community count used by the community generator.
    communities: int = 64

    @property
    def standin_nodes(self) -> int:
        return self.nodes // self.scale

    @property
    def standin_edges(self) -> int:
        return self.edges // (self.scale * self.scale)

    @property
    def avg_degree(self) -> float:
        return self.edges / self.nodes


#: Table 4 of the paper.  proteins and reddit are scaled (see module doc).
GNN_DATASETS: dict[str, GNNDatasetSpec] = {
    spec.name: spec
    for spec in [
        GNNDatasetSpec("cora", 2_708, 10_556, 1.44e-3, "power_law"),
        GNNDatasetSpec("citeseer", 3_327, 9_228, 8.34e-4, "power_law"),
        GNNDatasetSpec("pubmed", 19_717, 88_651, 2.28e-4, "power_law"),
        GNNDatasetSpec("ppi", 44_906, 1_271_274, 6.30e-4, "community", communities=24),
        GNNDatasetSpec("arxiv", 169_343, 1_166_243, 4.07e-5, "power_law", scale=2),
        GNNDatasetSpec(
            "proteins", 132_534, 39_561_252, 2.25e-3, "community", scale=4, communities=128
        ),
        GNNDatasetSpec(
            "reddit", 232_965, 114_615_892, 2.11e-3, "community", scale=6, communities=160
        ),
    ]
}


def make_gnn_standin(name: str, seed: int = 0) -> sp.csr_matrix:
    """Generate the synthetic stand-in adjacency matrix for a Table 4 graph."""
    try:
        spec = GNN_DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown GNN dataset {name!r}; choose from {sorted(GNN_DATASETS)}"
        ) from None
    n = spec.standin_nodes
    avg_deg = spec.standin_edges / n
    if spec.pattern == "power_law":
        return power_law_graph(n, avg_deg, seed=seed)
    return community_graph(n, avg_deg, num_communities=spec.communities, seed=seed)


# Independent seed streams so changing one knob (weights, arrivals) never
# shifts the values drawn by another — same idiom as repro.serve.workload.
_FEATURE_STREAM = 0xF0A7
_WEIGHT_STREAM = 0x3E16
_ARRIVAL_STREAM = 0xA221


@dataclass(frozen=True)
class GNNWorkloadSpec:
    """Seeded multi-epoch GNN inference workload over one stand-in graph.

    Each epoch becomes one :class:`~repro.serve.graph.GraphRequest` whose
    stages chain a full forward pass:

    * ``model="gat"`` — per layer: SDDMM attention scores over the
      adjacency, row-softmax normalize, SpMM aggregation, dense update
      (ReLU on all but the last layer).
    * ``model="gcn"`` — one SpMV degree pass plus a row-sum normalize of
      the adjacency per epoch, then per layer SpMM aggregation and dense
      update.  This variant exercises all three op kinds.

    Every epoch shares the same adjacency pattern, so a server composes
    once per pattern and re-values thereafter — the live-serving analogue of the paper's Figure 8
    amortization argument.
    """

    dataset: str = "cora"
    model: str = "gat"  # "gat" | "gcn"
    layers: int = 3
    epochs: int = 2
    feature_dim: int = 32
    hidden_dim: int = 32
    seed: int = 0
    #: Mean inter-arrival gap between epochs (exponential); 0 disables
    #: stamping and leaves every request at ``arrival_ms=0``.
    mean_gap_ms: float = 0.0
    deadline_ms: float = float("inf")


def _gat_layer(index: int, adjacency, features, weight, activation):
    """Stage chain for one GAT layer: SDDMM -> softmax -> SpMM -> dense."""
    from repro.serve.graph import OpStage

    return [
        OpStage(
            name=f"scores{index}", op="sddmm", matrix=adjacency,
            inputs=(features, features),
        ),
        OpStage(
            name=f"attn{index}", op="normalize",
            inputs=(f"@scores{index}",), kind="softmax",
        ),
        OpStage(
            name=f"agg{index}", op="spmm", matrix=f"@attn{index}",
            inputs=(features,),
        ),
        OpStage(
            name=f"update{index}", op="dense", inputs=(f"@agg{index}",),
            weight=weight, activation=activation,
        ),
    ]


def _gcn_layer(index: int, norm_ref: str, features, weight, activation):
    """Stage chain for one GCN layer: SpMM over normalized A -> dense."""
    from repro.serve.graph import OpStage

    return [
        OpStage(name=f"agg{index}", op="spmm", matrix=norm_ref, inputs=(features,)),
        OpStage(
            name=f"update{index}", op="dense", inputs=(f"@agg{index}",),
            weight=weight, activation=activation,
        ),
    ]


def generate_gnn_workload(spec: GNNWorkloadSpec) -> list:
    """Build the epoch-per-request GraphRequest list for ``spec``.

    Deterministic for a fixed spec.  Input features are fixed across
    epochs (inference replays the same graph signal); dense weights are
    redrawn per epoch so plan *values* change while the adjacency
    *pattern* does not — exactly the trace that separates per-request
    recomposition from structural reuse.
    """
    from repro.serve.graph import GraphRequest, OpStage

    if spec.model not in ("gat", "gcn"):
        raise ValueError(f"unknown GNN model {spec.model!r}; choose gat or gcn")
    if spec.layers < 1:
        raise ValueError("layers must be >= 1")
    if spec.epochs < 1:
        raise ValueError("epochs must be >= 1")

    A = make_gnn_standin(spec.dataset, seed=spec.seed)
    n = A.shape[0]
    feat_rng = np.random.default_rng((spec.seed, _FEATURE_STREAM))
    weight_rng = np.random.default_rng((spec.seed, _WEIGHT_STREAM))
    features = feat_rng.standard_normal((n, spec.feature_dim)).astype(np.float32)
    ones = np.ones(n, dtype=np.float32)

    dims = [spec.feature_dim] + [spec.hidden_dim] * spec.layers
    arrival = 0.0
    arrival_rng = np.random.default_rng((spec.seed, _ARRIVAL_STREAM))
    requests = []
    for epoch in range(spec.epochs):
        weights = [
            weight_rng.standard_normal((dims[i], dims[i + 1])).astype(np.float32)
            / np.float32(np.sqrt(dims[i]))
            for i in range(spec.layers)
        ]
        stages: list = []
        if spec.model == "gcn":
            stages.append(OpStage(name="deg", op="spmv", matrix=A, inputs=(ones,)))
            stages.append(
                OpStage(name="norm", op="normalize", inputs=(A,), kind="sum")
            )
        h: object = features
        for layer in range(spec.layers):
            activation = "relu" if layer < spec.layers - 1 else None
            if spec.model == "gat":
                stages.extend(_gat_layer(layer, A, h, weights[layer], activation))
            else:
                stages.extend(
                    _gcn_layer(layer, "@norm", h, weights[layer], activation)
                )
            h = f"@update{layer}"
        if spec.mean_gap_ms > 0:
            arrival += float(arrival_rng.exponential(spec.mean_gap_ms))
        requests.append(
            GraphRequest(
                stages=stages,
                name=f"{spec.dataset}-{spec.model}-epoch{epoch}",
                deadline_ms=spec.deadline_ms,
                arrival_ms=arrival,
            )
        )
    return requests
