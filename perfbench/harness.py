"""One benchmark run: inputs, set-up, warm-up, the timed chunks, metrics.

Every request is one closed-loop call from a single client with no think
time.  The clocks run only around the public call, so input generation,
output checks and metric bookkeeping between calls are never measured.
The request count is fixed by ``--seconds`` and the workload's nominal
rate, so two versions of the program serve exactly the same requests.

Host times are reported at a reference machine speed.  The machine this
runs on is shared, and its speed drifts by ±20% over tens of seconds, far
more than a regression worth catching.  A fixed probe of NumPy and Python
work, independent of the program, runs between chunks of requests; each
chunk's times are scaled by ``SpeedProbe.REF_MS`` over the probe time
around it.  Raw times are kept in the run details.
"""

from __future__ import annotations

import ctypes
import gc
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from perfbench import ledger as L
from perfbench.workloads import STRATUM, WORKLOADS
from repro.core import LiteForm, generate_training_data
from repro.matrices.collection import SuiteSparseLikeCollection

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

#: Timed requests per second of ``--seconds`` (about the seed program's rate).
NOMINAL_RATE = {"zipf-hot": 200, "cold-compose": 90, "gnn-fleet": 75}

#: Chunks a run is split into.  The speed probe runs between chunks; a
#: traced run alternates untraced and traced chunks.
CHUNKS = 40

#: Fewest timed requests of a run: each half of a traced run still has a
#: p90 with 10 samples beyond it.
MIN_REQUESTS = 240


def request_count(workload: str, seconds: int) -> int:
    """Timed requests of a run, in whole strata."""
    unit = STRATUM[workload]
    return max(-(-MIN_REQUESTS // unit), round(seconds * NOMINAL_RATE[workload] / unit)) * unit


def training_collection() -> list:
    """The fixed training collection the model is fitted on (the program's
    configuration, the same on every workload seed)."""
    return list(SuiteSparseLikeCollection(size=8, max_rows=4000, seed=1))


class SpeedProbe:
    """Fixed work that stands in for the machine's current speed: a sort-
    based unique, a sparse-dense product and a Python loop, the kinds of
    work the program's host path does, on data of its own."""

    #: Probe time, in ms, that defines the reference speed.
    REF_MS = 2.0

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 40, size=15_000)
        self._A = sp.random(1500, 1500, density=0.004, format="csr", random_state=1,
                            dtype=np.float32)
        self._B = rng.standard_normal((1500, 32)).astype(np.float32)

    def _once(self) -> None:
        np.unique(self._keys)
        self._A @ self._B
        sum(i * i for i in range(3000))

    def ms(self) -> float:
        """Fastest of three timed probes, in ms."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            self._once()
            times.append(time.perf_counter_ns() - t0)
        return min(times) / 1e6


def _proc_status(field_name: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"{field_name} missing from /proc/self/status")


def reset_peak_rss() -> int:
    """Hand free heap pages back to the kernel and restart its peak-RSS
    mark; returns the current RSS in bytes.  Without the trim, memory the
    input generation freed would be reused by the program unseen, by a
    different amount on every seed."""
    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return _proc_status("VmRSS")


def peak_rss() -> int:
    return _proc_status("VmHWM")


@dataclass
class Phase:
    """What a series of timed chunks measured.  Responses (and their
    outputs) are dropped right after their check; only these sums stay.
    Times are at reference speed; ``raw_*`` are as measured."""

    latency_ns: list[float] = field(default_factory=list)
    cpu_ns: list[float] = field(default_factory=list)
    raw_latency_ns: list[int] = field(default_factory=list)
    raw_cpu_ns: list[int] = field(default_factory=list)
    failed: int = 0
    sim_ms: float = 0.0
    sim_memory_ms: float = 0.0
    sim_compute_ms: float = 0.0
    flops: float = 0.0
    bytes: float = 0.0
    device_stages: int = 0
    composed: int = 0
    composed_cell: int = 0
    reuses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    cache_bytes_end: int = 0
    #: Traced chunks only: per layer ``calls``/``incl_ns``/``self_ns``,
    #: the time of the request spans, and observed plan-cache lookups.
    layers: dict = field(default_factory=lambda: {
        name: {"calls": 0, "incl_ns": 0.0, "self_ns": 0.0} for name in L.LAYERS})
    request_ns: float = 0.0
    lookups: int = 0

    @property
    def n(self) -> int:
        return len(self.latency_ns)

    def add_response(self, stages: list, ok: bool) -> None:
        self.failed += not ok
        for r in stages:
            self.device_stages += 1
            if r.measurement is not None:
                m = r.measurement
                self.sim_ms += m.time_ms
                self.sim_memory_ms += m.breakdown.memory_s * 1e3
                self.sim_compute_ms += m.breakdown.compute_s * 1e3
                self.flops += m.stats.flops
                self.bytes += m.stats.total_load_bytes + m.stats.total_store_bytes
            if not r.cache_hit:
                if r.plan_reused:
                    self.reuses += 1
                elif r.plan is not None:
                    self.composed += 1
                    self.composed_cell += bool(r.plan.use_cell)

    def add_times(self, wall_ns: list[int], cpu_ns: list[int], scale: float) -> None:
        self.raw_latency_ns += wall_ns
        self.raw_cpu_ns += cpu_ns
        self.latency_ns += [t * scale for t in wall_ns]
        self.cpu_ns += [t * scale for t in cpu_ns]

    def add_spans(self, ledger: L.Ledger, first: int, scale: float) -> None:
        for name, t in ledger.totals(first).items():
            mine = self.layers[name]
            mine["calls"] += t["calls"]
            mine["incl_ns"] += t["incl_ns"] * scale
            mine["self_ns"] += t["self_ns"] * scale
        self.request_ns += ledger.request_ns(first) * scale
        self.lookups += ledger.calls(first, L.PLAN_CACHE, "get")


@dataclass
class Chunk:
    """Requests served in a row, into ``phase``, traced when ``ledger`` is set."""

    requests: list
    phase: Phase
    ledger: L.Ledger | None = None


def serve_chunks(wl, system, chunks: list[Chunk], probe: SpeedProbe) -> None:
    """Serve each chunk, timing every call, and scale its times by the
    probe around it.  Checks run between calls with the clocks stopped."""
    speed_ms = probe.ms()
    for chunk in chunks:
        phase, ledger = chunk.phase, chunk.ledger
        before = wl.cache_stats(system)
        first_span = len(ledger.spans) if ledger is not None else 0
        wall, cpu = [], []
        with ledger.installed() if ledger is not None else nullcontext():
            for request in chunk.requests:
                c0 = time.process_time_ns()
                w0 = time.perf_counter_ns()
                response = wl.serve(system, request)
                w1 = time.perf_counter_ns()
                c1 = time.process_time_ns()
                wall.append(w1 - w0)
                cpu.append(c1 - c0)
                phase.add_response(wl.stage_responses(response), wl.check(request, response))
                del response
        after = wl.cache_stats(system)
        phase.hits += after["hits"] - before["hits"]
        phase.misses += after["misses"] - before["misses"]
        phase.evictions += after["evictions"] - before["evictions"]
        phase.cache_bytes_end = after["bytes"]
        next_ms = probe.ms()
        scale = SpeedProbe.REF_MS / ((speed_ms + next_ms) / 2)
        speed_ms = next_ms
        phase.add_times(wall, cpu, scale)
        if ledger is not None:
            phase.add_spans(ledger, first_span, scale)


def tail_latency(latency_ms: np.ndarray) -> tuple[float, int, int]:
    """The highest of p99/p95/p90 with at least 10 samples above it:
    ``(value_ms, percentile, samples_beyond)``."""
    ordered = np.sort(latency_ms)
    n = ordered.size
    for pct in (99, 95, 90):
        k = int(np.ceil(pct / 100 * n)) - 1
        if n - 1 - k >= 10:
            return float(ordered[k]), pct, n - 1 - k
    raise ValueError(f"{n} samples are too few for a p90 with 10 samples beyond it")


def end_to_end(phase: Phase, setup_s: float, mem_bytes: int) -> dict:
    lat_ms = np.asarray(phase.latency_ns) / 1e6
    tail, _, _ = tail_latency(lat_ms)
    n = phase.n
    return {
        "requests_per_s": (n / (sum(phase.latency_ns) / 1e9), "1/s"),
        "latency_p50_ms": (float(np.median(lat_ms)), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "cpu_ms_per_req": (sum(phase.cpu_ns) / 1e6 / n, "ms"),
        "sim_device_ms_per_req": (phase.sim_ms / n, "ms"),
        "success_rate": (1.0 - phase.failed / n, "fraction"),
        "setup_s": (setup_s, "s"),
        "mem_peak_mb": (mem_bytes / 2**20, "MiB"),
    }


def per_layer(phase: Phase, untraced: Phase) -> dict:
    """Per-layer metrics of the traced chunks: layer times from the spans,
    counted metrics from the responses and cache statistics they saw."""
    t = phase.layers
    n = phase.n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_req(layer: str) -> float:
        return t[layer]["self_ns"] / 1e3 / n

    def per_call(layer: str) -> float:
        return ratio(t[layer]["self_ns"] / 1e3, t[layer]["calls"])

    compose = t[L.PIPELINE]
    graphs = t[L.GRAPH]["calls"]
    return {
        "serve.server.self_us_per_req": (per_req(L.SERVER), "us"),
        "serve.fingerprint.us_per_req": (per_req(L.FINGERPRINT), "us"),
        "serve.fingerprint.calls_per_req": (t[L.FINGERPRINT]["calls"] / n, "count"),
        "serve.plan_cache.us_per_req": (per_req(L.PLAN_CACHE), "us"),
        "serve.plan_cache.hit_ratio": (ratio(phase.hits, phase.lookups), "fraction"),
        "serve.plan_cache.hits": (phase.hits, "count"),
        "serve.plan_cache.lookups": (phase.lookups, "count"),
        "serve.plan_cache.evictions_per_req": (phase.evictions / n, "count"),
        "serve.plan_cache.bytes_end": (phase.cache_bytes_end, "B"),
        "core.pipeline.compose_calls_per_req": (compose["calls"] / n, "count"),
        "core.pipeline.compose_ms_per_call": (ratio(compose["incl_ns"] / 1e6, compose["calls"]),
                                              "ms"),
        "matrices.features.us_per_call": (per_call(L.FEATURES), "us"),
        "core.selector.us_per_call": (per_call(L.SELECTOR), "us"),
        "core.partition_model.us_per_call": (per_call(L.PARTITION_MODEL), "us"),
        "core.cost_model.us_per_call": (per_call(L.COST_MODEL), "us"),
        "core.bucket_search.us_per_call": (per_call(L.BUCKET_SEARCH), "us"),
        "formats.cell.build_us_per_call": (per_call(L.CELL_BUILD), "us"),
        "core.selector.cell_share": (ratio(phase.composed_cell, phase.composed), "fraction"),
        "kernels.plan.us_per_req": (per_req(L.KERNEL_PLAN), "us"),
        "kernels.plan.calls_per_req": (t[L.KERNEL_PLAN]["calls"] / n, "count"),
        "kernels.execute.us_per_req": (per_req(L.KERNEL_EXECUTE), "us"),
        "kernels.gflop_per_req": (phase.flops / 1e9 / n, "GFLOP"),
        "kernels.mbyte_per_req": (phase.bytes / 1e6 / n, "MB"),
        "kernels.flop_per_byte": (ratio(phase.flops, phase.bytes), "flop/B"),
        "gpu.measure.us_per_req": (per_req(L.GPU_MEASURE), "us"),
        "gpu.sim_memory_ms_per_req": (phase.sim_memory_ms / n, "ms"),
        "gpu.sim_compute_ms_per_req": (phase.sim_compute_ms / n, "ms"),
        "serve.graph.self_us_per_graph": (ratio(t[L.GRAPH]["self_ns"] / 1e3, graphs), "us"),
        "serve.graph.device_stages_per_graph": (ratio(phase.device_stages, graphs), "count"),
        "serve.graph.reuse_ratio": (ratio(phase.reuses, phase.misses) if graphs else 0.0,
                                    "fraction"),
        "serve.cluster.self_us_per_req": (per_req(L.CLUSTER), "us"),
        "trace.request_us_per_req": (phase.request_ns / 1e3 / n, "us"),
        "trace.overhead_pct": (
            (np.mean(phase.cpu_ns) / np.mean(untraced.cpu_ns) - 1.0) * 100.0, "%"),
    }


@dataclass
class Prepared:
    """A workload's inputs and the program set up to serve them."""

    wl: object
    system: object
    setup_s: list[float]
    raw_setup_s: list[float]
    warm_failed: int
    base_rss: int
    probe: SpeedProbe


def prepare(workload: str, seed: int, n: int, workdir: Path,
            setup_repeats: int = SETUP_REPEATS) -> Prepared:
    """Generate the inputs, then set the program up ``setup_repeats`` times
    (keeping the last) and serve the warm-up requests.  The peak-RSS mark
    restarts just before the last set-up, so neither the inputs nor the
    set-ups thrown away count as memory the program adds."""
    probe = SpeedProbe()
    wl = WORKLOADS[workload](seed, n)
    collection = training_collection()
    setup_s, raw = [], []
    for _ in range(setup_repeats):
        system = liteform = None
        base_rss = reset_peak_rss()
        before_ms = probe.ms()
        t0 = time.perf_counter()
        liteform = LiteForm().fit(generate_training_data(collection, J_values=(32, 128)))
        system = wl.make_system(liteform, workdir)
        raw.append(time.perf_counter() - t0)
        setup_s.append(raw[-1] * SpeedProbe.REF_MS / ((before_ms + probe.ms()) / 2))
    warm_failed = sum(not wl.check(r, wl.serve(system, r)) for r in wl.warmup)
    # Long-lived objects so far (inputs, the set-up program) leave the
    # collector's generations, so the benchmark's own heap does not add
    # collection pauses to the timed requests.
    gc.collect()
    gc.freeze()
    return Prepared(wl, system, setup_s, raw, warm_failed, base_rss, probe)


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    details: dict
    ledger: L.Ledger | None = None


def run(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> Result:
    """Run ``workload`` once.

    Untraced, every timed request is measured plainly.  Traced, the run
    alternates untraced and traced chunks; the per-layer metrics come from
    the traced chunks and the tracing overhead from comparing the two.
    """
    n = request_count(workload, seconds)
    p = prepare(workload, seed, n, workdir)
    plain, traced = Phase(), Phase()
    ledger = L.Ledger() if trace else None
    chunks = [
        Chunk([p.wl.requests[j] for j in idx], traced, ledger) if trace and i % 2
        else Chunk([p.wl.requests[j] for j in idx], plain)
        for i, idx in enumerate(np.array_split(np.arange(n), CHUNKS))
    ]
    serve_chunks(p.wl, p.system, chunks, p.probe)
    if trace:
        metrics, measured = per_layer(traced, plain), traced
    else:
        mem = peak_rss() - p.base_rss
        metrics, measured = end_to_end(plain, statistics.median(p.setup_s), mem), plain
    _, pct, beyond = tail_latency(np.asarray(measured.latency_ns) / 1e6)
    raw_ms = np.asarray(measured.raw_latency_ns) / 1e6
    details = {
        "requests": measured.n,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "raw_latency_p50_ms": float(np.median(raw_ms)),
        "raw_cpu_ms_per_req": float(np.mean(measured.raw_cpu_ns) / 1e6),
        "raw_setup_s": p.raw_setup_s,
        "warmup_failed": p.warm_failed,
        "hits": measured.hits,
        "misses": measured.misses,
    }
    return Result(
        metrics=metrics,
        attempted=plain.n + traced.n + len(p.wl.warmup),
        failed=plain.failed + traced.failed + p.warm_failed,
        details=details,
        ledger=ledger,
    )
