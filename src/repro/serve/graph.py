"""DAG requests — GNN layer chains over the op-level serving API.

A GNN inference layer is not one SpMM: a GAT-style layer is the chain
``SDDMM (edge scores) → softmax-normalize → SpMM (aggregate) → dense
update``, and a GCN layer is the same shape with a degree-based
normalization.  Every device stage of the chain traverses the *same*
sparse adjacency structure, which is exactly the amortization the paper
measures in Fig. 8: compose once per (A, op-set), launch many.

:class:`GraphRequest` expresses one such chain as an ordered list of
:class:`OpStage` nodes with dataflow edges (``"@<stage>"`` references to
earlier stage outputs).  :class:`GraphEngine` executes it through an
:class:`~repro.serve.server.SpMMServer`:

* **device stages** (``spmm`` / ``sddmm`` / ``spmv``) become op-typed
  :class:`~repro.serve.server.OpRequest` traffic — each goes through the
  plan cache keyed on ``(fingerprint, op, J)``, and a miss whose
  sparsity pattern has a resident plan re-values that plan instead of
  re-running the pipeline, so stage outputs carrying fresh values (a
  normalized adjacency is a new value-fingerprint every layer) cost only
  a gather of their values into the shared composed structure;
* **local stages** (``normalize`` / ``dense``) run inline on the host —
  deterministic vectorized NumPy, so a chain replays bit-identically.

:meth:`GraphEngine.run_wave` replays many graphs in stage-index lockstep
and coalesces same-wave SpMM stages that share a plan key into one fused
:meth:`~repro.serve.server.SpMMServer.serve_batch` launch — the DAG
equivalent of the scheduler's fingerprint coalescing.

Each stage emits a ``stage`` span under the graph's root span, and the
server's ``serve_graph_*`` counters make chains visible to the obs
stack.  See docs/GNN.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.formats.base import VALUE_DTYPE
from repro.obs import TraceContext, get_tracer
from repro.serve.fingerprint import PlanKey, fingerprint_csr
from repro.serve.server import (
    OpRequest,
    OpResponse,
    ResponseStatus,
    SpMMServer,
)

#: Stage kinds executed on the device pool (as op-typed requests).
DEVICE_OPS = ("spmm", "sddmm", "spmv")

#: Stage kinds computed inline on the host.
LOCAL_OPS = ("normalize", "dense")


@dataclass
class OpStage:
    """One node of a graph request.

    ``matrix`` (device ops) is a literal sparse matrix or an
    ``"@<stage>"`` reference to an earlier stage's sparse output;
    ``inputs`` are dense (or sparse, for ``normalize``) operand
    references — literals or ``"@<stage>"`` strings.  Per op kind:

    * ``spmm`` — ``matrix @ inputs[0]`` (dense ``(K, J)`` operand);
    * ``spmv`` — ``matrix @ inputs[0]`` with the operand reshaped to one
      column;
    * ``sddmm`` — ``matrix .* (inputs[0] @ inputs[1].T)``;
    * ``normalize`` — row-normalize the sparse ``inputs[0]``
      (``kind="softmax"`` or ``kind="sum"``);
    * ``dense`` — ``inputs[0] @ weight`` with optional ``activation``
      (``"relu"``).
    """

    name: str
    op: str
    matrix: sp.spmatrix | str | None = None
    inputs: tuple = ()
    weight: np.ndarray | None = None
    activation: str | None = None
    kind: str = "softmax"


@dataclass
class GraphRequest:
    """A DAG of op stages served as one unit of traffic.

    Stages execute in list order; references must point backwards.
    Every device stage sharing A's sparsity pattern reuses the one
    composed structure (the server's re-value path), so compose costs
    one pipeline run per pattern, not one per stage.
    """

    stages: list[OpStage]
    name: str = ""
    deadline_ms: float | None = None
    arrival_ms: float = 0.0
    ctx: TraceContext | None = None


@dataclass
class GraphResponse:
    """Outcome of one served graph request."""

    name: str
    #: stage name -> stage output (ndarray, or CSR for sparse outputs).
    outputs: dict = field(default_factory=dict)
    #: device stage name -> the stage's :class:`OpResponse`.
    responses: dict = field(default_factory=dict)
    status: ResponseStatus = ResponseStatus.OK
    #: Sum of device-stage latencies plus host-side stage wall time.
    latency_ms: float = 0.0
    stages_total: int = 0
    device_stages: int = 0
    cache_hits: int = 0
    #: Device stages served by re-valuing a resident same-pattern plan.
    plan_reuses: int = 0
    #: Composition overhead actually paid across the chain (wall clock).
    compose_overhead_s: float = 0.0
    trace_id: str | None = None

    @property
    def ok(self) -> bool:
        return self.status is ResponseStatus.OK

    @property
    def failed(self) -> bool:
        return self.status is ResponseStatus.FAILED

    @property
    def output(self):
        """The final stage's output (the chain's result)."""
        if not self.outputs:
            return None
        return next(reversed(self.outputs.values()))


# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class GraphAnchor:
    """Routing key for a whole graph, and the stage it was taken from.

    ``stage`` is the graph's first device stage carrying a literal matrix
    (a GNN chain's anchor adjacency), ``A`` its canonical matrix and
    ``key`` its plan key.  A graph with no literal matrix has no stage and
    a name-derived key.
    """

    key: PlanKey | str
    stage: OpStage | None = None
    A: sp.csr_matrix | None = None


def graph_anchor(graph: GraphRequest) -> GraphAnchor:
    """The anchor of ``graph``.  A router that hands it to
    :meth:`GraphEngine.run` saves the anchor stage a second fingerprint."""
    for stage in graph.stages:
        if stage.op in DEVICE_OPS and sp.issparse(stage.matrix):
            A = SpMMServer._canonical(stage.matrix)
            J = 1
            first = stage.inputs[0] if stage.inputs else None
            if isinstance(first, np.ndarray) and first.ndim == 2:
                J = int(first.shape[1])
            return GraphAnchor(PlanKey(fingerprint_csr(A), stage.op, max(1, J)), stage, A)
    return GraphAnchor(f"graph:{graph.name or 'anonymous'}")


def row_softmax(S: sp.csr_matrix) -> sp.csr_matrix:
    """Row-wise softmax over the stored values (pattern preserved).

    Vectorized with ``reduceat`` over the CSR row pointer — deterministic,
    max-shifted for stability, float32 result like every kernel output.
    """
    S = S.tocsr().copy()
    lens = np.diff(S.indptr)
    nz = lens > 0
    if not nz.any():
        return S.astype(VALUE_DTYPE)
    starts = S.indptr[:-1][nz]
    data = S.data.astype(np.float64)
    row_max = np.maximum.reduceat(data, starts)
    shifted = np.exp(data - np.repeat(row_max, lens[nz]))
    sums = np.add.reduceat(shifted, starts)
    S.data = (shifted / np.repeat(sums, lens[nz])).astype(VALUE_DTYPE)
    return S


def row_sum_normalize(S: sp.csr_matrix) -> sp.csr_matrix:
    """Divide each row by its value sum (GCN-style mean aggregation)."""
    S = S.tocsr().copy()
    lens = np.diff(S.indptr)
    nz = lens > 0
    if not nz.any():
        return S.astype(VALUE_DTYPE)
    starts = S.indptr[:-1][nz]
    data = S.data.astype(np.float64)
    sums = np.add.reduceat(data, starts)
    sums[sums == 0.0] = 1.0
    S.data = (data / np.repeat(sums, lens[nz])).astype(VALUE_DTYPE)
    return S


_NORMALIZE_KINDS = {"softmax": row_softmax, "sum": row_sum_normalize}


class GraphEngine:
    """Execute graph requests against one :class:`SpMMServer`."""

    def __init__(self, server: SpMMServer):
        self.server = server

    # -- validation / resolution ---------------------------------------
    @staticmethod
    def _validate(graph: GraphRequest) -> None:
        seen: set[str] = set()
        if not graph.stages:
            raise ValueError("graph request has no stages")
        for stage in graph.stages:
            if not stage.name:
                raise ValueError("every stage needs a name")
            if stage.name in seen:
                raise ValueError(f"duplicate stage name {stage.name!r}")
            if stage.op not in DEVICE_OPS + LOCAL_OPS:
                raise ValueError(
                    f"unknown stage op {stage.op!r}; choose from "
                    f"{list(DEVICE_OPS + LOCAL_OPS)}"
                )
            for ref in list(stage.inputs) + [stage.matrix]:
                if isinstance(ref, str):
                    if not ref.startswith("@"):
                        raise ValueError(
                            f"stage {stage.name!r}: string operand {ref!r} "
                            f"must be an '@<stage>' reference"
                        )
                    if ref[1:] not in seen:
                        raise ValueError(
                            f"stage {stage.name!r}: reference {ref!r} does "
                            f"not name an earlier stage"
                        )
            n_inputs = {"spmm": 1, "spmv": 1, "sddmm": 2,
                        "normalize": 1, "dense": 1}[stage.op]
            if len(stage.inputs) != n_inputs:
                raise ValueError(
                    f"stage {stage.name!r} ({stage.op}) takes {n_inputs} "
                    f"input(s), got {len(stage.inputs)}"
                )
            if stage.op in DEVICE_OPS and stage.matrix is None:
                raise ValueError(f"stage {stage.name!r} ({stage.op}) needs a matrix")
            if stage.op == "dense" and stage.weight is None:
                raise ValueError(f"dense stage {stage.name!r} needs a weight")
            if stage.op == "normalize" and stage.kind not in _NORMALIZE_KINDS:
                raise ValueError(
                    f"unknown normalize kind {stage.kind!r}; choose from "
                    f"{list(_NORMALIZE_KINDS)}"
                )
            seen.add(stage.name)

    @staticmethod
    def _resolve(ref, outputs: dict):
        if isinstance(ref, str):
            return outputs[ref[1:]]
        return ref

    def _stage_request(
        self, graph: GraphRequest, stage: OpStage, outputs: dict,
        ctx: TraceContext | None,
    ) -> OpRequest:
        A = self._resolve(stage.matrix, outputs)
        name = f"{graph.name}/{stage.name}" if graph.name else stage.name
        common = dict(
            matrix=A,
            name=name,
            deadline_ms=graph.deadline_ms,
            ctx=ctx,
            op=stage.op,
        )
        if stage.op == "sddmm":
            U = np.asarray(self._resolve(stage.inputs[0], outputs))
            V = np.asarray(self._resolve(stage.inputs[1], outputs))
            return OpRequest(B=None, J=int(U.shape[1]), operands=(U, V), **common)
        B = np.asarray(self._resolve(stage.inputs[0], outputs))
        if stage.op == "spmv":
            B = B.reshape(-1, 1)
            return OpRequest(B=B, J=1, **common)
        return OpRequest(B=B, J=int(B.shape[1]), **common)

    @staticmethod
    def _local_stage(stage: OpStage, outputs: dict):
        x = GraphEngine._resolve(stage.inputs[0], outputs)
        if stage.op == "normalize":
            return _NORMALIZE_KINDS[stage.kind](x)
        H = np.asarray(x, dtype=VALUE_DTYPE)
        out = (H @ np.asarray(stage.weight, dtype=VALUE_DTYPE)).astype(VALUE_DTYPE)
        if stage.activation == "relu":
            out = np.maximum(out, np.float32(0.0))
        elif stage.activation is not None:
            raise ValueError(f"unknown activation {stage.activation!r}")
        return out

    # -- single-graph execution ----------------------------------------
    def run(
        self,
        graph: GraphRequest,
        anchor: GraphAnchor | None = None,
    ) -> GraphResponse:
        """Serve one graph, stages in dataflow order, each device stage
        an op-typed request under the graph's trace context.

        ``anchor`` is the :func:`graph_anchor` a router already computed;
        the anchor stage then reuses its matrix and fingerprint.
        """
        self._validate(graph)
        server = self.server
        m = server.metrics
        tracer = get_tracer()
        ctx = graph.ctx
        if ctx is None and tracer.enabled:
            ctx = TraceContext.mint("graph")
        resp = GraphResponse(
            name=graph.name,
            stages_total=len(graph.stages),
            trace_id=ctx.trace_id if ctx is not None else None,
        )
        m.graphs += 1
        with tracer.span(
            "graph", ctx=ctx, name=graph.name or "anonymous",
            stages=len(graph.stages),
        ) as g_span:
            for stage in graph.stages:
                with tracer.span("stage", name=stage.name, op=stage.op):
                    if stage.op in DEVICE_OPS:
                        request = self._stage_request(graph, stage, resp.outputs, ctx)
                        if anchor is not None and stage is anchor.stage:
                            key = PlanKey(anchor.key.fp, request.op, request.J)
                            r = server._serve_one(request, A=anchor.A, key=key)
                        else:
                            r = server._serve_one(request)
                        m.graph_stages += 1
                        self._fold_device_stage(resp, stage, r)
                        if r.failed:
                            break
                    else:
                        t0 = time.perf_counter()
                        resp.outputs[stage.name] = self._local_stage(
                            stage, resp.outputs
                        )
                        resp.latency_ms += (time.perf_counter() - t0) * 1e3
            g_span.set(
                status=resp.status.value,
                device_stages=resp.device_stages,
                plan_reuses=resp.plan_reuses,
            )
        return resp

    @staticmethod
    def _fold_device_stage(
        resp: GraphResponse, stage: OpStage, r: OpResponse
    ) -> None:
        resp.responses[stage.name] = r
        resp.outputs[stage.name] = r.C
        resp.device_stages += 1
        resp.latency_ms += r.latency_ms
        resp.compose_overhead_s += r.compose_overhead_s
        resp.cache_hits += int(r.cache_hit)
        resp.plan_reuses += int(r.plan_reused)
        if r.failed:
            resp.status = ResponseStatus.FAILED
        elif r.status is ResponseStatus.DEGRADED and resp.ok:
            resp.status = ResponseStatus.DEGRADED

    # -- cross-graph wave replay ----------------------------------------
    def run_wave(self, graphs: list[GraphRequest]) -> list[GraphResponse]:
        """Replay many graphs in stage-index lockstep.

        At each wave (stage position), SpMM stages sharing one
        ``(fingerprint, op, J)`` plan key are fused into a single
        :meth:`SpMMServer.serve_batch` launch; every other stage is
        served singly.  Stage dataflow only points backwards, so wave
        order preserves every graph's sequential semantics — per-graph
        results are bit-identical to :meth:`run`.
        """
        if not graphs:
            return []
        server = self.server
        m = server.metrics
        tracer = get_tracer()
        for g in graphs:
            self._validate(g)
        ctxs = [
            g.ctx if g.ctx is not None
            else (TraceContext.mint("graph") if tracer.enabled else None)
            for g in graphs
        ]
        out = [
            GraphResponse(
                name=g.name,
                stages_total=len(g.stages),
                trace_id=c.trace_id if c is not None else None,
            )
            for g, c in zip(graphs, ctxs)
        ]
        m.graphs += len(graphs)
        depth = max(len(g.stages) for g in graphs)
        with tracer.span("graph_wave_replay", graphs=len(graphs), waves=depth):
            for i in range(depth):
                wave = [
                    (gi, g.stages[i])
                    for gi, g in enumerate(graphs)
                    if i < len(g.stages) and not out[gi].failed
                ]
                fusable: dict[PlanKey, list] = {}
                for gi, stage in wave:
                    if stage.op not in DEVICE_OPS:
                        t0 = time.perf_counter()
                        out[gi].outputs[stage.name] = self._local_stage(
                            stage, out[gi].outputs
                        )
                        out[gi].latency_ms += (time.perf_counter() - t0) * 1e3
                        continue
                    request = self._stage_request(
                        graphs[gi], stage, out[gi].outputs, ctxs[gi]
                    )
                    m.graph_stages += 1
                    if stage.op != "spmm" or request.B is None:
                        self._fold_device_stage(
                            out[gi], stage, server._serve_one(request)
                        )
                        continue
                    A = server._canonical(request.matrix)
                    key = PlanKey(fingerprint_csr(A), "spmm", request.J)
                    fusable.setdefault(key, []).append((gi, stage, request, A))
                for key, members in fusable.items():
                    requests = [r for _, _, r, _ in members]
                    prepared = [(A, key) for _, _, _, A in members]
                    responses = server.serve_batch(requests, prepared=prepared)
                    for (gi, stage, _, _), r in zip(members, responses):
                        self._fold_device_stage(out[gi], stage, r)
        return out
