"""The benchmark's three workloads: seeded inputs, serving calls, output checks.

The seed picks the random instances (matrix patterns, values, the request
sequence); the workload's shape — matrix families and sizes, popularity
ranks, J widths, model depths — is fixed, so runs on different seeds
measure the same kind of work.  The program only ever sees the generated
inputs.

* ``zipf-hot`` — plan-cache hits: a Zipf(1.1) trace over 8 matrices.
* ``cold-compose`` — plan-cache misses: every request a new pattern.
* ``gnn-fleet`` — GNN forward passes through a 2-shard cluster frontend.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core import LiteForm
from repro.kernels import spmm_reference
from repro.matrices import generators as gen
from repro.matrices.gnn import GNNWorkloadSpec, generate_gnn_workload, make_gnn_standin
from repro.serve.cluster import ClusterFrontend
from repro.serve.plan_cache import PlanCache
from repro.serve.server import OpRequest, ResponseStatus, SpMMServer
from repro.serve.workload import zipf_weights

#: Tolerance of every output check (the tier-1 kernel-test tolerance).
RTOL = ATOL = 1e-4


#: Requests per stratum: every aligned run of this many timed requests has
#: the same mix (one request per family and J; one epoch of every GNN
#: instance), so seeds reorder a run but keep its mix.  zipf-hot draws
#: each request independently.
STRATUM = {"zipf-hot": 1, "cold-compose": 16, "gnn-fleet": 8}


#: Rows compared at a time, so a check's temporaries stay small and do
#: not show in the peak memory of the run.
_CHECK_ROWS = 128


def _close(C, shape: tuple[int, int], ref_rows) -> bool:
    """Elementwise check of ``C`` against ``ref_rows(r0, r1)``, the
    reference's rows ``r0:r1``, one block of rows at a time."""
    if C is None or C.shape != shape:
        return False
    return all(
        np.allclose(C[r0 : r0 + _CHECK_ROWS], ref_rows(r0, r0 + _CHECK_ROWS), rtol=RTOL, atol=ATOL)
        for r0 in range(0, shape[0], _CHECK_ROWS)
    )


def _close_normwise(C, ref) -> bool:
    """Max-norm check, ``max|C - ref| <= ATOL + RTOL * max|ref|``.

    Used for GNN chains: stand-in adjacencies carry random-signed values,
    so a GCN row sum can nearly cancel and the float32 dense update then
    loses more than ``RTOL`` elementwise on entries far smaller than the
    output's scale.  A wrong stage still misses by orders of magnitude.
    """
    if C is None or C.shape != ref.shape:
        return False
    return float(np.max(np.abs(C - ref))) <= ATOL + RTOL * float(np.max(np.abs(ref)))


class SpMMWorkload:
    """Single-node ``SpMMServer.serve`` traffic (zipf-hot, cold-compose)."""

    def __init__(self, warmup, requests, cache_bytes: int, references=None):
        self.warmup = warmup
        self.requests = requests
        self.cache_bytes = cache_bytes
        #: id(request.matrix) -> reference output, for workloads whose
        #: (matrix, operand) pairs repeat; otherwise computed per check.
        self.references = references or {}

    def make_system(self, liteform: LiteForm, workdir: Path) -> SpMMServer:
        return SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=self.cache_bytes))

    @staticmethod
    def serve(system: SpMMServer, request):
        return system.serve(request)

    def check(self, request, response) -> bool:
        if response.status is ResponseStatus.FAILED:
            return False
        A, B = request.matrix, request.B
        ref = self.references.get(id(A))
        if ref is None:
            return _close(response.C, (A.shape[0], B.shape[1]),
                          lambda r0, r1: spmm_reference(A[r0:r1], B))
        return _close(response.C, ref.shape, lambda r0, r1: ref[r0:r1])

    @staticmethod
    def stage_responses(response) -> list:
        return [response]

    @staticmethod
    def cache_stats(system: SpMMServer) -> dict:
        return system.cache.stats()


class GraphWorkload:
    """GNN forward passes through ``ClusterFrontend.serve_graph``."""

    def __init__(self, warmup, requests):
        self.warmup = warmup
        self.requests = requests

    @staticmethod
    def make_system(liteform: LiteForm, workdir: Path) -> ClusterFrontend:
        return ClusterFrontend(liteform, num_shards=2, spill_dir=workdir / "spill")

    @staticmethod
    def serve(system: ClusterFrontend, graph):
        return system.serve_graph(graph)

    @staticmethod
    def check(graph, response) -> bool:
        if response.status is ResponseStatus.FAILED:
            return False
        return _close_normwise(response.output, forward_reference(graph))

    @staticmethod
    def stage_responses(response) -> list:
        return list(response.responses.values())

    @staticmethod
    def cache_stats(system: ClusterFrontend) -> dict:
        shards = [s["cache"] for s in system.snapshot()["shards"]]
        return {k: sum(s[k] for s in shards) for k in ("hits", "misses", "evictions", "bytes")}


# ----------------------------------------------------------------------
# zipf-hot

def _zipf_pool() -> list[tuple[sp.csr_matrix, int]]:
    """The 8 matrices of zipf-hot with their fixed J, in popularity order.

    The pool is the same on every seed: instances of one family differ by
    several percent in host cost, which would otherwise make the hottest
    instances, not the program, set a run's figures."""
    return [
        (make_gnn_standin("cora", seed=0), 32),
        (make_gnn_standin("citeseer", seed=1), 64),
        (gen.power_law_graph(3000, 10.0, seed=2), 128),
        (gen.community_graph(3500, 12.0, num_communities=32, seed=3), 32),
        (gen.rmat_graph(11, edge_factor=8, seed=4), 64),
        (gen.banded_matrix(4000, 4, fill=0.8, seed=5), 128),
        (gen.block_diagonal_matrix(2500, 8, block_density=0.8, seed=6), 32),
        (gen.mixture_matrix(3000, 8.0, seed=7), 64),
    ]


def zipf_hot(seed: int, n: int) -> SpMMWorkload:
    """``n`` timed requests of a seeded Zipf(1.1) trace over a fixed
    popularity ranking of a fixed pool; the seed draws the trace and the
    dense operands.  The warm-up touches each matrix 4 times, so the timed
    requests meet a warm plan cache."""
    rng = np.random.default_rng((seed, 1))
    pool = _zipf_pool()
    operands = [rng.standard_normal((A.shape[1], J)).astype(np.float32) for A, J in pool]
    references = {id(A): spmm_reference(A, B) for (A, _), B in zip(pool, operands)}

    def request(i: int) -> OpRequest:
        A, J = pool[i]
        return OpRequest(matrix=A, B=operands[i], J=J, name=f"zipf{i}")

    picks = rng.choice(len(pool), size=n, p=zipf_weights(len(pool), 1.1))
    return SpMMWorkload(
        warmup=[request(i) for i in range(len(pool))] * 4,
        requests=[request(int(i)) for i in picks],
        cache_bytes=256 << 20,
        references=references,
    )


# ----------------------------------------------------------------------
# cold-compose

#: Pattern families of cold-compose; request ``i`` draws family ``i % 8``
#: at a seeded size, so every request carries a new pattern while the
#: family mix stays the same on every seed.
_FAMILIES = (
    lambda n, s: gen.power_law_graph(n, 10.0, seed=s),
    lambda n, s: gen.community_graph(n, 10.0, num_communities=32, seed=s),
    lambda n, s: gen.rmat_graph(11, edge_factor=6, seed=s),
    lambda n, s: gen.banded_matrix(n, 6, fill=0.7, seed=s),
    lambda n, s: gen.block_diagonal_matrix(n, 8, block_density=0.8, seed=s),
    lambda n, s: gen.uniform_random_matrix(n, n, 3.0 / n, seed=s),
    lambda n, s: gen.mixture_matrix(n, 8.0, seed=s),
    lambda n, s: gen.with_dense_rows(gen.power_law_graph(n, 8.0, seed=s), 2, 0.2, seed=s + 1),
)


def cold_compose(seed: int, n: int) -> SpMMWorkload:
    """``n`` timed requests, each a distinct generated pattern; J alternates
    32/128 per round of families.  A 16 MiB plan cache holds far less than
    the working set, so it evicts steadily.  Dense operands are row slices
    of one array per J, so inputs cost only their sparse matrices."""
    rng = np.random.default_rng((seed, 2))
    wide = {J: rng.standard_normal((4096, J)).astype(np.float32) for J in (32, 128)}

    def request(i: int) -> OpRequest:
        rows = int(rng.integers(1500, 3001))
        A = _FAMILIES[i % len(_FAMILIES)](rows, int(rng.integers(1 << 30)))
        J = (32, 128)[(i // len(_FAMILIES)) % 2]
        return OpRequest(matrix=A, B=wide[J][: A.shape[1]], J=J, name=f"cold{i}")

    warmup = [request(i) for i in range(len(_FAMILIES))]
    return SpMMWorkload(
        warmup=warmup,
        requests=[request(i) for i in range(n)],
        cache_bytes=16 << 20,
    )


# ----------------------------------------------------------------------
# gnn-fleet

#: Seeded instances of each GNN model in gnn-fleet.  Host cost differs by
#: about 10% between stand-in graph instances; serving several per run
#: keeps one instance from setting a run's figures.
_GNN_INSTANCES = 4


def gnn_fleet(seed: int, n: int) -> GraphWorkload:
    """``n`` timed graph requests, round-robin over 4 instances each of a
    2-layer GAT on the cora stand-in and a 2-layer GCN on the citeseer
    stand-in (features and hidden width 32), one epoch per request.  The
    warm-up serves the first epoch of every instance."""
    epochs = -(-n // (2 * _GNN_INSTANCES)) + 1
    streams = [
        generate_gnn_workload(GNNWorkloadSpec(
            dataset=dataset, model=model, layers=2, epochs=epochs,
            seed=seed * 2 * _GNN_INSTANCES + 2 * k + (model == "gcn")))
        for k in range(_GNN_INSTANCES)
        for dataset, model in (("cora", "gat"), ("citeseer", "gcn"))
    ]
    graphs = [g for epoch in zip(*streams) for g in epoch]
    warm = len(streams)
    return GraphWorkload(warmup=graphs[:warm], requests=graphs[warm : warm + n])


def _row_ids(A: sp.csr_matrix) -> np.ndarray:
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))


def _ref_sddmm(A, U, V) -> sp.csr_matrix:
    rows = _row_ids(A)
    dots = np.einsum("ij,ij->i", U[rows], V[A.indices])
    return sp.csr_matrix((A.data * dots, A.indices, A.indptr), shape=A.shape)


def _ref_normalize(S: sp.csr_matrix, kind: str) -> sp.csr_matrix:
    rows = _row_ids(S)
    data = S.data.astype(np.float64)
    if kind == "softmax":
        row_max = np.full(S.shape[0], -np.inf)
        np.maximum.at(row_max, rows, data)
        data = np.exp(data - row_max[rows])
    sums = np.bincount(rows, weights=data, minlength=S.shape[0])
    sums[sums == 0.0] = 1.0
    return sp.csr_matrix((data / sums[rows], S.indices, S.indptr), shape=S.shape)


def forward_reference(graph) -> np.ndarray:
    """The graph's final output computed from its stage definitions,
    independently of the program's kernels and host stages.

    Each stage computes in float64 and rounds its output to float32, the
    precision every stage of the program hands on.  Without that rounding
    the float64 chain drifts from any float32 chain by more than the check
    tolerance where a GCN row sum nearly cancels.
    """
    out: dict = {}

    def val(ref):
        return out[ref[1:]] if isinstance(ref, str) else ref

    def dense(x) -> np.ndarray:
        return np.asarray(val(x), dtype=np.float32).astype(np.float64)

    for st in graph.stages:
        if st.op in ("spmm", "spmv", "sddmm"):
            A = val(st.matrix).astype(np.float64)
            if st.op == "sddmm":
                y = _ref_sddmm(A, dense(st.inputs[0]), dense(st.inputs[1]))
            else:
                x = dense(st.inputs[0])
                y = A @ (x.reshape(-1, 1) if st.op == "spmv" else x)
        elif st.op == "normalize":
            y = _ref_normalize(val(st.inputs[0]).astype(np.float64), st.kind)
        else:
            y = dense(st.inputs[0]) @ np.asarray(st.weight, dtype=np.float64)
            if st.activation == "relu":
                y = np.maximum(y, 0.0)
        out[st.name] = y.astype(np.float32)
    return out[graph.stages[-1].name]


WORKLOADS = {"zipf-hot": zipf_hot, "cold-compose": cold_compose, "gnn-fleet": gnn_fleet}
