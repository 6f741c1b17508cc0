"""Span recording from outside the program: the per-layer host-cost ledger.

The traced run replaces public functions of each layer, at the place the
calling module looks them up, with wrappers that record one span per call
(layer name, start, end, parent span, request id).  Spans stay in memory
and are written out when the run ends.  A layer's self time is its spans'
durations minus the part covered by their child spans, so the self times
of all layers add up exactly to the time of the top-level request spans.

Nothing is patched in an untraced run; :class:`Ledger.installed` restores
every original attribute when it exits.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

# Layer names, as a request meets them.
SERVER = "serve.server"
FINGERPRINT = "serve.fingerprint"
PLAN_CACHE = "serve.plan_cache"
PIPELINE = "core.pipeline"
FEATURES = "matrices.features"
SELECTOR = "core.selector"
PARTITION_MODEL = "core.partition_model"
COST_MODEL = "core.cost_model"
BUCKET_SEARCH = "core.bucket_search"
CELL_BUILD = "formats.cell"
KERNEL_PLAN = "kernels.plan"
KERNEL_EXECUTE = "kernels.execute"
GPU_MEASURE = "gpu.measure"
GRAPH = "serve.graph"
CLUSTER = "serve.cluster"

LAYERS = (
    CLUSTER, GRAPH, SERVER, FINGERPRINT, PLAN_CACHE, PIPELINE, FEATURES,
    SELECTOR, PARTITION_MODEL, COST_MODEL, BUCKET_SEARCH, CELL_BUILD,
    KERNEL_PLAN, KERNEL_EXECUTE, GPU_MEASURE,
)


def _kernel_classes() -> list[type]:
    """Every kernel class of the program, including op-specific ones."""
    import repro.kernels.sddmm  # noqa: F401  (registers SDDMM kernels)
    import repro.kernels.spmv  # noqa: F401  (registers SpMV kernels)
    from repro.kernels.base import SpMMKernel

    found, todo = [], [SpMMKernel]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def wrap_points() -> list[tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every wrapped lookup site.

    Module attributes are wrapped in the module that calls them (the name
    a module imported is its own binding).  Two private boundaries are
    included because the layer has no public one: ``SpMMServer._serve_one``
    is how :class:`GraphEngine` enters the server, and
    ``CELLFormat._build_partition_buckets`` is where CELL buckets are built.
    """
    import repro.core.parallel as parallel
    import repro.core.partition_model as partition_model
    import repro.core.pipeline as pipeline
    import repro.serve.cluster.frontend as frontend
    import repro.serve.graph as graph
    import repro.serve.server as server
    from repro.core.cost_model import PartitionCostProfile
    from repro.core.partition_model import PartitionPredictor
    from repro.core.selector import FormatSelector
    from repro.formats.cell import CELLFormat
    from repro.gpu.device import SimulatedDevice
    from repro.serve.plan_cache import PlanCache

    points = [
        (frontend.ClusterFrontend, "serve_graph", CLUSTER),
        (graph.GraphEngine, "run", GRAPH),
        (server.SpMMServer, "serve", SERVER),
        (server.SpMMServer, "_serve_one", SERVER),
        (server, "fingerprint_csr", FINGERPRINT),
        (graph, "fingerprint_csr", FINGERPRINT),
        (frontend, "fingerprint_csr", FINGERPRINT),
        (PlanCache, "get", PLAN_CACHE),
        (PlanCache, "put", PLAN_CACHE),
        (pipeline.LiteForm, "compose_csr", PIPELINE),
        (pipeline, "format_selection_features", FEATURES),
        (partition_model, "partition_features", FEATURES),
        (FormatSelector, "predict_features", SELECTOR),
        (PartitionPredictor, "predict", PARTITION_MODEL),
        (PartitionCostProfile, "from_cells", COST_MODEL),
        (PartitionCostProfile, "all_costs", COST_MODEL),
        (parallel, "tune_partition", BUCKET_SEARCH),
        (pipeline, "split_csr", CELL_BUILD),
        (CELLFormat, "_build_partition_buckets", CELL_BUILD),
        (SimulatedDevice, "measure", GPU_MEASURE),
    ]
    for cls in _kernel_classes():
        for attr, layer in (("plan", KERNEL_PLAN), ("execute", KERNEL_EXECUTE)):
            fn = cls.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                points.append((cls, attr, layer))
    return points


def busy_wait(ns: int) -> None:
    """Spin on the CPU for ``ns`` nanoseconds (an injected slowdown)."""
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


class Ledger:
    """In-memory spans of one traced run.

    A span is ``[layer, start_ns, end_ns, parent_index, request_id,
    function]``, where ``function`` is the wrapped attribute's name.  A
    call into a layer from inside the same layer (a subclass calling its
    base method, ``measure_many`` calling ``measure``) extends the outer
    span instead of opening a nested one, so span counts are calls into
    the layer.

    ``slowdown`` maps a layer to a busy-wait added at the end of each of
    its spans, as a fraction of the span's time so far, so the layer gets
    that much slower at any machine speed.  The benchmark's self-test uses
    it to prove that a slowed layer shows.
    """

    def __init__(self, slowdown: dict[str, float] | None = None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1
        self.slowdown = dict(slowdown or {})

    def _wrap(self, layer: str, fn, name: str):
        spans, stack = self.spans, self._stack
        spin = self.slowdown.get(layer, 0.0)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            if not stack:
                self.request += 1
            index = len(spans)
            spans.append([layer, clock(), 0, stack[-1] if stack else -1, self.request, name])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                if spin:
                    busy_wait(int((clock() - spans[index][1]) * spin))
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        saved = []
        try:
            for owner, attr, layer in wrap_points():
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(layer, raw.__func__, attr))
                else:
                    new = self._wrap(layer, raw, attr)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def totals(self, first: int = 0) -> dict[str, dict[str, int]]:
        """Per layer, over spans from index ``first`` on: ``calls`` (spans),
        ``incl_ns`` and ``self_ns``."""
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= first:
                child_ns[parent - first] += end - start
        out = {name: {"calls": 0, "incl_ns": 0, "self_ns": 0} for name in LAYERS}
        for (layer, start, end, _, _, _), covered in zip(spans, child_ns):
            t = out[layer]
            t["calls"] += 1
            t["incl_ns"] += end - start
            t["self_ns"] += end - start - covered
        return out

    def request_ns(self, first: int = 0) -> int:
        """Summed duration of the top-level (request) spans from ``first`` on."""
        return sum(s[2] - s[1] for s in self.spans[first:] if s[3] < 0)

    def calls(self, first: int, layer: str, function: str) -> int:
        """Spans from ``first`` on of ``layer`` entered through ``function``."""
        return sum(s[0] == layer and s[5] == function for s in self.spans[first:])

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "request", "function")
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")
