"""Benchmark-regression harness: pinned micro-suite + snapshot comparison.

The suite re-measures the hot paths this repo cares about — CELL
composition (tune + build), the CELL SpMM kernel, the simulator's modeled
kernel time, and a small serving replay — on seeded inputs, and writes a
schema-versioned snapshot (``BENCH_<rev>.json``).  A committed baseline
snapshot lives under ``benchmarks/``; ``cli bench --check`` compares the
fresh run against it with per-metric tolerance bands and fails on
regression, which is what the CI ``bench-gate`` job runs.

Metric kinds and their comparison semantics (see docs/BENCHMARKS.md):

``wall``
    Wall-clock milliseconds, the median of ``WALL_ROUNDS`` interleaved
    rounds, each on fresh inputs.  Lower is better; noisy on shared CI
    runners, so the default band is wide.
``virtual``
    Deterministic modeled quantities (simulator time).  Any drift beyond
    float noise means the cost/timing model changed — tight band, both
    directions.
``ratio``
    Machine-relative speedups (vectorized vs. in-process reference).
    Higher is better; only a drop below the band fails.  Robust to CI
    runner speed because both sides run on the same machine.
``exact``
    Checksums and counters that must not move at all (bit-identity
    guards, deterministic telemetry).  Optional per-metric ``tol``
    relaxes this to a relative band for float checksums.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
import scipy

from repro.bench.reference import reference_compose_cell
from repro.bench.reporting import geomean
from repro.core.bucket_search import build_buckets
from repro.core.cost_model import matrix_cost_profiles
from repro.core.parallel import compose_partitions
from repro.core.pipeline import LiteForm, compose_cell_plan
from repro.core.training import generate_training_data
from repro.formats.cell import CELLFormat
from repro.gpu.device import SimulatedDevice
from repro.kernels.cell_spmm import CELLSpMM
from repro.matrices.collection import SuiteSparseLikeCollection
from repro.matrices.gnn import GNNWorkloadSpec, generate_gnn_workload
from repro.serve import OpRequest, PlanCache, SpMMServer
from repro.serve.workload import WorkloadSpec, generate_workload

SCHEMA_VERSION = 1

#: Default relative tolerance band per metric kind.
DEFAULT_TOLERANCES: dict[str, float] = {
    "wall": 0.60,  # generous: shared CI runners jitter a lot
    "virtual": 1e-6,
    "ratio": 0.35,
    "exact": 0.0,
}

#: Column-partition counts exercised by the compose benchmarks.
COMPOSE_PARTITIONS = (1, 2, 4)

#: Seeded collection the compose/kernel benchmarks run over.
SUITE_SIZE = 10
SUITE_MAX_ROWS = 8000
SUITE_SEED = 7
SUITE_J = 128
KERNEL_J = 32

#: Partitions of the per-partition compose fan-out benchmark, and the
#: worker count its LPT speedup model schedules the partition tasks onto.
PARALLEL_PARTITIONS = 4
PARALLEL_WORKERS = 4
#: Partitions and update steps of the incremental compose benchmark.
INCREMENTAL_PARTITIONS = 8
INCREMENTAL_STEPS = 6

#: Runs whose per-task minimum feeds the fan-out's speedup model.
PARALLEL_MODEL_RUNS = 3

#: Rounds of :func:`_sample_walls` behind every wall metric.
WALL_ROUNDS = 5

#: Seeded traffic of the serving benchmarks: a Zipf replay, a replay on a
#: drifting device, a sharded replay (the cluster and obs benchmarks),
#: and GAT forward passes.
SERVE_SPEC = WorkloadSpec(
    num_requests=40, num_matrices=6, J_choices=(32,), max_rows=2000, seed=5
)
ADAPTIVE_SPEC = WorkloadSpec(
    num_requests=120,
    num_matrices=3,
    J_choices=(32,),
    max_rows=2000,
    with_operands=False,
    seed=5,
)
CLUSTER_SPEC = WorkloadSpec(
    num_requests=48,
    num_matrices=8,
    J_choices=(32,),
    max_rows=2000,
    with_operands=False,
    seed=5,
)
GNN_SPEC = GNNWorkloadSpec(
    dataset="cora",
    model="gat",
    layers=2,
    epochs=2,
    feature_dim=16,
    hidden_dim=16,
    seed=23,
)


@dataclass(frozen=True)
class Metric:
    """One benchmarked quantity inside a snapshot."""

    name: str
    value: float
    kind: str  # "wall" | "virtual" | "ratio" | "exact"
    unit: str = ""
    #: Optional per-metric override of the kind's default tolerance.
    tol: float | None = None

    def to_json(self) -> dict:
        out: dict = {"value": self.value, "kind": self.kind, "unit": self.unit}
        if self.tol is not None:
            out["tol"] = self.tol
        return out

    @classmethod
    def from_json(cls, name: str, payload: dict) -> "Metric":
        return cls(
            name=name,
            value=float(payload["value"]),
            kind=str(payload["kind"]),
            unit=str(payload.get("unit", "")),
            tol=payload.get("tol"),
        )


def git_rev() -> str:
    """Short revision of the working tree, or ``local`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def default_baseline_path() -> Path:
    return Path("benchmarks") / "baseline.json"


def snapshot_filename(rev: str) -> str:
    return f"BENCH_{rev}.json"


# ---------------------------------------------------------------------------
# The pinned suite
# ---------------------------------------------------------------------------


def _tuned_compose(A, num_partitions: int, J: int = SUITE_J) -> CELLFormat:
    """Tune the per-partition width caps (Algorithm 3) and build CELL."""
    return compose_partitions(A, num_partitions, J).to_format()


def _suite_entries():
    return list(
        SuiteSparseLikeCollection(
            size=SUITE_SIZE, max_rows=SUITE_MAX_ROWS, seed=SUITE_SEED
        )
    )


def _format_checksum(formats: list[CELLFormat]) -> float:
    """Deterministic reduction over composed structures (bit-drift guard)."""
    col_sum = 0
    row_sum = 0
    val_sum = 0.0
    buckets = 0
    for fmt in formats:
        for _, b in fmt.iter_buckets():
            buckets += 1
            # each implied pad slot counts as column -1 and value 0
            pads = b.stored_elements - b.nnz
            _, indices, data = b.entries()
            col_sum += int(indices.astype(np.int64).sum()) - pads
            row_sum += int(b.row_ind.astype(np.int64).sum()) + b.block_rows
            val_sum += float(data.astype(np.float64).sum())
    return float(col_sum % (1 << 31)) + float(row_sum % (1 << 20)) + val_sum + buckets


#: A timed job: called untimed, it builds fresh inputs and returns the
#: thunk :func:`_sample_walls` times.
Job = Callable[[], Callable[[], object]]


@dataclass(frozen=True)
class Sample:
    """One job's per-round walls in ms and its last round's result."""

    walls: np.ndarray
    result: object


def _sample_walls(jobs: dict[str, Job]) -> dict[str, Sample]:
    """Time every job once per round over :data:`WALL_ROUNDS` rounds, the
    rounds cycling through all jobs.

    A median over back-to-back repeats on the same inputs misses the two
    largest noise sources on a shared runner: where the inputs sit in
    memory (on a 2-vCPU VM one build of the kernel inputs ran at 14 ms,
    the next at 26 ms, every repeat alike) and load that shifts over
    seconds.  Fresh inputs per round and samples spread over the whole
    suite let the median see both.  The deterministic metrics read the
    last round's result, so no job runs outside the rounds."""
    walls: dict[str, list[float]] = {name: [] for name in jobs}
    results: dict[str, object] = {}
    for _ in range(WALL_ROUNDS):
        for name, job in jobs.items():
            run = job()
            t0 = time.perf_counter()
            result = run()
            walls[name].append((time.perf_counter() - t0) * 1e3)
            results[name] = result
    return {name: Sample(np.asarray(walls[name]), results[name]) for name in jobs}


def _fresh_matrices(entries) -> list:
    return [e.matrix.copy() for e in entries]


def _incremental_stream():
    """Seeded row-update stream over a banded matrix: ``(A0, [(rows, A)])``."""
    from repro.matrices.generators import banded_matrix, random_row_update

    A0 = banded_matrix(4000, 24, fill=0.6, seed=SUITE_SEED)
    rng = np.random.default_rng(SUITE_SEED)
    stream = []
    A = A0
    for _ in range(INCREMENTAL_STEPS):
        rows, A = random_row_update(A, rng, num_rows=3, band=24)
        stream.append((rows, A))
    return A0, stream


def _run_patch(A0, stream):
    """Compose ``A0`` once and patch it along ``stream``: (plan, rebuilt)."""
    rebuilt = 0
    plan = compose_cell_plan(A0, INCREMENTAL_PARTITIONS, SUITE_J)
    for rows, B in stream:
        plan = plan.patch_rows(B, rows)
        rebuilt += len(plan.incremental.patched)
    return plan, rebuilt


def _run_full(A0, stream):
    """Recompose from scratch after every update of ``stream``."""
    plan = compose_cell_plan(A0, INCREMENTAL_PARTITIONS, SUITE_J)
    for _, B in stream:
        plan = compose_cell_plan(B, INCREMENTAL_PARTITIONS, SUITE_J)
    return plan


def _tune_all(matrices) -> int:
    evals = 0
    for A in matrices:
        for P in (1, 4):
            for prof in matrix_cost_profiles(A, P):
                if prof.num_nonempty_rows:
                    evals += build_buckets(prof, SUITE_J, num_partitions=P).evaluations
    return evals


def _kernel_pairs(matrices) -> list[tuple[CELLFormat, np.ndarray]]:
    rng = np.random.default_rng(3)
    return [
        (
            _tuned_compose(A, 1),
            rng.standard_normal((A.shape[1], KERNEL_J)).astype(np.float32),
        )
        for A in matrices
    ]


def _execute_all(kernel: CELLSpMM, pairs) -> list[tuple[CELLFormat, np.ndarray]]:
    return [(fmt, kernel.execute(fmt, B)) for fmt, B in pairs]


def _wall_jobs(entries, A0, stream) -> dict[str, Job]:
    """The timed jobs of the compose, parallel, incremental, tune and
    kernel benchmarks.  A compose job and its reference, and the patch and
    full jobs, sit next to each other, so each round's ratio compares two
    back-to-back runs."""

    def compose(P):
        mats = _fresh_matrices(entries)
        return lambda: [_tuned_compose(A, P) for A in mats]

    def reference(P):
        mats = _fresh_matrices(entries)
        return lambda: [reference_compose_cell(A, P, SUITE_J) for A in mats]

    def parallel():
        mats = _fresh_matrices(entries)
        return lambda: [
            compose_partitions(A, PARALLEL_PARTITIONS, SUITE_J) for A in mats
        ]

    def fresh_stream():
        return A0.copy(), [(rows, B.copy()) for rows, B in stream]

    def patch():
        return partial(_run_patch, *fresh_stream())

    def full():
        return partial(_run_full, *fresh_stream())

    def tune():
        return partial(_tune_all, _fresh_matrices(entries))

    def kernel():
        run = partial(_execute_all, CELLSpMM(), _kernel_pairs(_fresh_matrices(entries)))
        run()  # warm up before timing
        return run

    jobs: dict[str, Job] = {}
    for P in COMPOSE_PARTITIONS:
        jobs[f"compose.P{P}"] = partial(compose, P)
        jobs[f"compose.P{P}.reference"] = partial(reference, P)
    jobs["compose.parallel"] = parallel
    jobs["compose.incremental.patch"] = patch
    jobs["compose.incremental.full"] = full
    jobs["tune"] = tune
    jobs["kernel.execute"] = kernel
    return jobs


def _serving_model() -> LiteForm:
    """The seeded model every serving benchmark serves with."""
    coll = SuiteSparseLikeCollection(size=6, max_rows=2000, seed=11)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


def _fresh_requests(requests: list[OpRequest]) -> list[OpRequest]:
    """Copies of ``requests`` in new memory.  Requests that share a matrix
    or an operand share its copy, as the originals do."""
    copies: dict[int, object] = {}

    def fresh(x):
        if x is not None and id(x) not in copies:
            copies[id(x)] = x.copy()
        return None if x is None else copies[id(x)]

    return [replace(r, matrix=fresh(r.matrix), B=fresh(r.B)) for r in requests]


def _drift_replay(server: SpMMServer, device, requests):
    """Serve ``requests`` one by one, drifting ``device`` halfway through:
    ``(server, requests, simulated ms)``."""
    total_ms = 0.0
    for i, request in enumerate(requests):
        if i == len(requests) // 2:
            device.drifted = True
        total_ms += server.serve(request).measurement.time_ms
    return server, requests, total_ms


def _serve_graphs(server: SpMMServer, graphs):
    return server, graphs, [server.serve_graph(g) for g in graphs]


def _join_replay(frontend, requests):
    """Replay, add a shard, replay again: ``(frontend, membership change)``."""
    frontend.replay(requests)
    change = frontend.add_shard()
    frontend.replay(requests)
    return frontend, change


def _observed_replay(frontend, requests):
    from repro.obs import Tracer, set_tracer

    previous = set_tracer(Tracer())
    try:
        frontend.replay(requests)
    finally:
        set_tracer(previous)
    return frontend


def _serve_jobs(liteform: LiteForm) -> dict[str, Job]:
    """The timed replays of the serving benchmarks.  Each job builds its
    server and copies its traffic untimed; the traffic is generated once,
    since building the matrix pool costs more than a replay."""
    from repro.serve import ClusterFrontend, FormatBandit, FormatDriftDevice

    serve_traffic = generate_workload(SERVE_SPEC)
    adaptive_traffic = generate_workload(ADAPTIVE_SPEC)
    cluster_traffic = generate_workload(CLUSTER_SPEC)

    def serve():
        server = SpMMServer(liteform=liteform, cache=PlanCache())
        return partial(server.replay, _fresh_requests(serve_traffic))

    def adaptive():
        device = FormatDriftDevice(slowdown=4.0)
        server = SpMMServer(
            liteform=liteform,
            cache=PlanCache(),
            devices=[device],
            bandit=FormatBandit(min_obs=3, explore=0.05, seed=7),
        )
        return partial(_drift_replay, server, device, _fresh_requests(adaptive_traffic))

    def gnn():
        server = SpMMServer(liteform=liteform, cache=PlanCache())
        return partial(_serve_graphs, server, list(generate_gnn_workload(GNN_SPEC)))

    def cluster():
        frontend = ClusterFrontend(
            liteform, num_shards=4, replication=2, hot_fraction=0.2, seed=9
        )
        return partial(_join_replay, frontend, _fresh_requests(cluster_traffic))

    def obs(observed: bool):
        frontend = ClusterFrontend(liteform, num_shards=2, seed=9, slo=observed or None)
        replay = _observed_replay if observed else ClusterFrontend.replay
        return partial(replay, frontend, _fresh_requests(cluster_traffic))

    return {
        "serve.replay": serve,
        "adaptive.replay": adaptive,
        "gnn.replay": gnn,
        "cluster.replay": cluster,
        # back to back, so each round's throughput ratio pairs two runs
        "obs.untraced": partial(obs, False),
        "obs.observed": partial(obs, True),
    }


def _median_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """Median of the per-round ratios ``num / den``."""
    return float(np.median(num / np.maximum(den, 1e-9)))


def _wall_metrics(samples: dict[str, Sample]) -> Iterator[Metric]:
    """``<job>.wall_ms``, the median round, for every job but the compose
    references, which only feed the speedups."""
    for name, sample in samples.items():
        if not name.endswith(".reference"):
            yield Metric(f"{name}.wall_ms", float(np.median(sample.walls)), "wall", "ms")


def _bench_compose(samples: dict[str, Sample]) -> Iterator[Metric]:
    speedups = []
    for P in COMPOSE_PARTITIONS:
        speedup = _median_ratio(
            samples[f"compose.P{P}.reference"].walls, samples[f"compose.P{P}"].walls
        )
        speedups.append(speedup)
        yield Metric(f"compose.P{P}.speedup_vs_reference", speedup, "ratio", "x")
    yield Metric("compose.speedup_geomean", float(geomean(speedups)), "ratio", "x")

    # entry-major, as the float sum of the checksum has always run
    per_partitions = [samples[f"compose.P{P}"].result for P in COMPOSE_PARTITIONS]
    formats = [fmt for entry in zip(*per_partitions) for fmt in entry]
    yield Metric(
        "compose.structure_checksum",
        _format_checksum(formats),
        "exact",
        tol=1e-9,
    )


def _bench_parallel(entries, samples: dict[str, Sample]) -> Iterator[Metric]:
    """Per-partition compose fan-out: LPT-modeled speedup at 4 workers
    and a structure checksum of the composed formats.

    The speedup gate is *modeled* (measured per-partition task times
    scheduled LPT onto 4 workers), not a measured thread speedup —
    wall-clock parallel efficiency on an oversubscribed CI runner is
    noise, while the model is as deterministic as the wall-time band."""
    from repro.gpu.executor import schedule

    # De-jitter the model input: a single descheduled partition task can
    # balloon one wall and drag the modeled speedup toward 1, so take the
    # per-task minimum over a few serial runs before scheduling LPT.
    task_walls: list[np.ndarray] = []
    for _ in range(PARALLEL_MODEL_RUNS):
        fans = [compose_partitions(e.matrix, PARALLEL_PARTITIONS, SUITE_J) for e in entries]
        run_walls = [np.asarray(f.task_walls, dtype=np.float64) for f in fans]
        task_walls = (
            run_walls
            if not task_walls
            else [np.minimum(a, b) for a, b in zip(task_walls, run_walls)]
        )
    speedups = [
        float(w.sum())
        / max(schedule(w, PARALLEL_WORKERS, lpt=True).makespan, 1e-12)
        if w.sum() > 0.0
        else 1.0
        for w in task_walls
    ]
    yield Metric(
        "compose.parallel.speedup_model_w4",
        float(geomean(speedups)),
        "ratio",
        "x",
    )
    formats = [fan.to_format() for fan in samples["compose.parallel"].result]
    yield Metric(
        "compose.parallel.structure_checksum",
        _format_checksum(formats),
        "exact",
        tol=1e-9,
    )


def _bench_incremental(samples: dict[str, Sample]) -> Iterator[Metric]:
    """Delta patching vs. full recompose on a seeded row-update stream.

    Banded matrices keep each row inside one or two column partitions,
    so a handful of changed rows touches a strict subset of the
    partitions — the case ``patch_rows`` exists for.  The rebuilt count
    and the final structure checksum are exact (seeded updates); the
    patch/full ratio is machine-relative."""
    patch = samples["compose.incremental.patch"]
    yield Metric(
        "compose.incremental.speedup_vs_full",
        _median_ratio(samples["compose.incremental.full"].walls, patch.walls),
        "ratio",
        "x",
    )
    plan, rebuilt = patch.result
    yield Metric(
        "compose.incremental.partitions_rebuilt", float(rebuilt), "exact"
    )
    yield Metric(
        "compose.incremental.structure_checksum",
        _format_checksum([plan.fmt]),
        "exact",
        tol=1e-9,
    )


def _bench_tune(samples: dict[str, Sample]) -> Iterator[Metric]:
    yield Metric("tune.evaluations", float(samples["tune"].result), "exact")


def _bench_kernel(samples: dict[str, Sample]) -> Iterator[Metric]:
    outputs = samples["kernel.execute"].result
    checksum = float(sum(float(C.astype(np.float64).sum()) for _, C in outputs))
    yield Metric("kernel.execute.checksum", checksum, "exact", tol=1e-9)

    kernel = CELLSpMM()
    device = SimulatedDevice()
    virtual_ms = sum(
        device.measure(kernel.plan(fmt, KERNEL_J)).time_ms for fmt, _ in outputs
    )
    yield Metric("plan.virtual_ms", float(virtual_ms), "virtual", "ms")


def _bench_serve(samples: dict[str, Sample]) -> Iterator[Metric]:
    metrics = samples["serve.replay"].result
    yield Metric("serve.requests", float(metrics.requests), "exact")
    yield Metric("serve.cache_hits", float(metrics.cache_hits), "exact")


def _bench_adaptive(liteform: LiteForm, samples: dict[str, Sample]) -> Iterator[Metric]:
    """Adaptive serving under drift: the bandit's deterministic decision
    counters and the oracle-recovery ratio on a trace whose optimal format
    flips mid-replay (the live ``benchmarks/test_ext_adaptive.py`` claim,
    shrunk to gate size).

    The counters are exact — the bandit is seeded and the workload and
    drift point are pinned — so any change to the selection policy shows
    up as deterministic drift, not noise."""
    from repro.serve import FormatDriftDevice
    from repro.serve.adaptive import build_arm_plan
    from repro.serve.fingerprint import PlanKey, fingerprint_csr

    server, requests, adaptive_ms = samples["adaptive.replay"].result
    m = server.metrics
    yield Metric("adaptive.observations", float(m.bandit_observations), "exact")
    yield Metric("adaptive.overrides", float(m.bandit_overrides), "exact")
    yield Metric("adaptive.flips", float(m.bandit_flips), "exact")
    yield Metric("adaptive.failed", float(m.failed), "exact")

    # Hindsight oracle: per-request best arm, phase-aware, cached per key.
    half = len(requests) // 2
    best = {}
    oracle_ms = 0.0
    for i, request in enumerate(requests):
        drifted = i >= half
        key = (PlanKey(fingerprint_csr(request.matrix), "spmm", request.J), drifted)
        if key not in best:
            device = FormatDriftDevice(slowdown=4.0, drifted=drifted)
            times = []
            for arm in ("cell", "csr", "bcsr"):
                plan = build_arm_plan(liteform, request.matrix, request.J, arm)
                try:
                    times.append(plan.kernel.measure(plan.fmt, request.J, device).time_ms)
                except Exception:
                    continue
            best[key] = min(times)
        oracle_ms += best[key]
    yield Metric(
        "adaptive.oracle_recovery",
        oracle_ms / max(adaptive_ms, 1e-9),
        "ratio",
        "x",
        tol=0.10,
    )


def _bench_gnn(liteform: LiteForm, samples: dict[str, Sample]) -> Iterator[Metric]:
    """GNN graph-request replay: deterministic reuse counters, an output
    checksum (bit-drift guard over the chained stages), and the
    amortization ratio versus per-stage recomposition (the live Fig. 8)."""
    server, graphs, responses = samples["gnn.replay"].result
    m = server.metrics
    stages = sum(r.device_stages for r in responses)
    yield Metric("gnn.device_stages", float(stages), "exact")
    yield Metric(
        "gnn.full_composes", float(m.cache_misses - m.plan_reuses), "exact"
    )
    yield Metric("gnn.plan_reuses", float(m.plan_reuses), "exact")
    checksum = float(
        sum(float(np.asarray(r.output, dtype=np.float64).sum()) for r in responses)
    )
    yield Metric("gnn.output_checksum", checksum, "exact", tol=1e-9)
    # Naive baseline: one fresh pipeline compose per device stage.
    naive_s = 0.0
    for graph, resp in zip(graphs, responses):
        for stage in graph.stages:
            r = resp.responses.get(stage.name)
            if r is None or r.plan is None:
                continue
            naive_s += liteform.compose(
                r.plan.fmt.to_csr(), GNN_SPEC.feature_dim
            ).overhead.total_s
    amortized_s = m.compose_spent_s + m.revalue_s
    yield Metric(
        "gnn.amortization_vs_recompose",
        naive_s / max(amortized_s, 1e-9),
        "ratio",
        "x",
    )


def _bench_cluster(samples: dict[str, Sample]) -> Iterator[Metric]:
    """Sharded replay + one elastic-membership change, all deterministic:
    the remigration fraction and the fleet's simulated makespan are
    regression-gated alongside the wall time."""
    frontend, change = samples["cluster.replay"].result
    yield Metric("cluster.requests", float(frontend.metrics.completed), "exact")
    yield Metric("cluster.failed", float(frontend.metrics.failed), "exact")
    yield Metric("cluster.plans_migrated", float(change.plans_migrated), "exact")
    yield Metric(
        "cluster.remigration_fraction", change.fraction, "exact", tol=1e-9
    )
    yield Metric(
        "cluster.makespan_virtual_ms", frontend.makespan_ms, "virtual", "ms"
    )


def _bench_obs(samples: dict[str, Sample]) -> Iterator[Metric]:
    """Observability overhead: the same sharded replay with tracing, SLO
    burn-rate evaluation, and attribution fully on vs. fully off.  The
    ratio gate enforces the "telemetry is nearly free" contract (traced
    throughput within a few percent of untraced); the span count per
    request is deterministic and pins the instrumentation density."""
    observed = samples["obs.observed"]
    # Full-telemetry overhead is below the wall-clock noise floor of a
    # shared runner (see benchmarks/test_ext_obs.py for the tight
    # per-span bound), so the gate band matches observed replay jitter.
    yield Metric(
        "obs.throughput_ratio",
        _median_ratio(samples["obs.untraced"].walls, observed.walls),
        "ratio",
        "x",
        tol=0.25,
    )
    spans = sum(len(lane.spans) for lane in observed.result.lanes().values())
    yield Metric(
        "obs.spans_per_request", float(spans) / CLUSTER_SPEC.num_requests, "exact"
    )


def run_suite(include_serve: bool = True) -> dict:
    """Run the pinned benchmark suite and return a snapshot dict."""
    entries = _suite_entries()
    jobs = _wall_jobs(entries, *_incremental_stream())
    if include_serve:
        liteform = _serving_model()
        jobs.update(_serve_jobs(liteform))
    samples = _sample_walls(jobs)
    metrics = [
        *_wall_metrics(samples),
        *_bench_compose(samples),
        *_bench_parallel(entries, samples),
        *_bench_incremental(samples),
        *_bench_tune(samples),
        *_bench_kernel(samples),
    ]
    if include_serve:
        metrics += [
            *_bench_serve(samples),
            *_bench_adaptive(liteform, samples),
            *_bench_gnn(liteform, samples),
            *_bench_cluster(samples),
            *_bench_obs(samples),
        ]
    return {
        "schema": SCHEMA_VERSION,
        "rev": git_rev(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "rounds": WALL_ROUNDS,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "metrics": {m.name: m.to_json() for m in metrics},
    }


# ---------------------------------------------------------------------------
# Snapshot I/O and comparison
# ---------------------------------------------------------------------------


def write_snapshot(snapshot: dict, path: Path | str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def load_snapshot(path: Path | str) -> dict:
    path = Path(path)
    snapshot = json.loads(path.read_text())
    if not isinstance(snapshot, dict) or "schema" not in snapshot:
        raise ValueError(f"{path} is not a benchmark snapshot (no 'schema' key)")
    if snapshot["schema"] != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: snapshot schema {snapshot['schema']} != supported "
            f"{SCHEMA_VERSION}; regenerate with 'cli bench --update-baseline'"
        )
    return snapshot


@dataclass(frozen=True)
class MetricComparison:
    """Verdict for one metric of a baseline/current snapshot pair."""

    name: str
    status: str  # "ok" | "improved" | "regressed" | "missing" | "new"
    detail: str
    baseline: float | None = None
    current: float | None = None

    @property
    def failed(self) -> bool:
        return self.status in ("regressed", "missing")


@dataclass
class ComparisonReport:
    rows: list[MetricComparison] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(r.failed for r in self.rows)

    @property
    def failures(self) -> list[MetricComparison]:
        return [r for r in self.rows if r.failed]

    def render(self) -> str:
        lines = []
        width = max((len(r.name) for r in self.rows), default=4)
        for r in self.rows:
            mark = {"ok": " ", "improved": "+", "new": "*"}.get(r.status, "!")
            lines.append(f"{mark} {r.name:<{width}}  {r.status:<9}  {r.detail}")
        verdict = "PASS" if self.ok else f"FAIL ({len(self.failures)} regression(s))"
        lines.append(verdict)
        return "\n".join(lines)


def _tolerance(metric: Metric) -> float:
    if metric.tol is not None:
        return float(metric.tol)
    return DEFAULT_TOLERANCES[metric.kind]


def _compare_metric(base: Metric, cur: Metric) -> MetricComparison:
    tol = _tolerance(base)
    b, c = base.value, cur.value
    unit = base.unit or ""
    pair = f"{b:.6g}{unit} -> {c:.6g}{unit}"
    if base.kind == "exact" and tol == 0.0:
        if b == c:
            return MetricComparison(base.name, "ok", pair, b, c)
        return MetricComparison(base.name, "regressed", f"{pair} (must match exactly)", b, c)
    scale = max(abs(b), 1e-12)
    rel = (c - b) / scale
    if base.kind == "ratio":
        # Higher is better; only a drop below the band fails.
        if rel < -tol:
            return MetricComparison(
                base.name, "regressed", f"{pair} ({rel:+.1%} < -{tol:.0%})", b, c
            )
        status = "improved" if rel > tol else "ok"
        return MetricComparison(base.name, status, f"{pair} ({rel:+.1%})", b, c)
    # wall / virtual / exact-with-tol: lower (or equal) is better.
    if rel > tol:
        return MetricComparison(
            base.name, "regressed", f"{pair} ({rel:+.1%} > +{tol:.0%})", b, c
        )
    if base.kind in ("virtual", "exact") and rel < -tol:
        # Deterministic quantities moving in *either* direction means the
        # model changed; force an explicit baseline update.
        return MetricComparison(
            base.name, "regressed", f"{pair} ({rel:+.1%}, deterministic drift)", b, c
        )
    status = "improved" if rel < -tol else "ok"
    return MetricComparison(base.name, status, f"{pair} ({rel:+.1%})", b, c)


def compare_snapshots(baseline: dict, current: dict) -> ComparisonReport:
    """Compare two snapshots; regressions and vanished metrics fail."""
    for snap, label in ((baseline, "baseline"), (current, "current")):
        if snap.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"{label} snapshot schema {snap.get('schema')!r} != {SCHEMA_VERSION}"
            )
    base_metrics = {
        name: Metric.from_json(name, payload)
        for name, payload in baseline["metrics"].items()
    }
    cur_metrics = {
        name: Metric.from_json(name, payload)
        for name, payload in current["metrics"].items()
    }
    report = ComparisonReport()
    for name, base in sorted(base_metrics.items()):
        cur = cur_metrics.get(name)
        if cur is None:
            report.rows.append(
                MetricComparison(name, "missing", "metric vanished from suite", base.value)
            )
            continue
        report.rows.append(_compare_metric(base, cur))
    for name, cur in sorted(cur_metrics.items()):
        if name not in base_metrics:
            report.rows.append(
                MetricComparison(
                    name, "new", f"{cur.value:.6g}{cur.unit} (not in baseline)", None, cur.value
                )
            )
    return report
