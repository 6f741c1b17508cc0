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
    Wall-clock milliseconds, median of ``repeats`` runs (of at least
    ``MIN_WALL_ROUNDS`` rounds, each on fresh inputs, for the compose,
    tune and kernel benchmarks).  Lower is better; noisy on shared CI
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
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
import scipy

from repro.bench.reference import reference_compose_cell
from repro.bench.reporting import geomean
from repro.core.bucket_search import build_buckets
from repro.core.cost_model import matrix_cost_profiles
from repro.core.pipeline import LiteForm, compose_cell_plan
from repro.core.training import generate_training_data
from repro.formats.cell import CELLFormat, split_csr
from repro.gpu.device import SimulatedDevice
from repro.kernels.cell_spmm import CELLSpMM
from repro.matrices.collection import SuiteSparseLikeCollection
from repro.serve import PlanCache, SpMMServer
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

#: Partitions and workers of the pooled compose benchmark.
PARALLEL_PARTITIONS = 4
PARALLEL_WORKERS = 4
#: Partitions and update steps of the incremental compose benchmark.
INCREMENTAL_PARTITIONS = 8
INCREMENTAL_STEPS = 6

#: Floor on the rounds of :func:`_sample_walls` behind each wall metric of
#: the compose, tune and kernel benchmarks.
MIN_WALL_ROUNDS = 5


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


def _median_wall_ms(fn: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))


def _tuned_compose(A, num_partitions: int, J: int = SUITE_J) -> CELLFormat:
    """Tune the per-partition width caps (Algorithm 3) and build CELL."""
    cells = split_csr(A, num_partitions)
    profiles = matrix_cost_profiles(A, num_partitions, cells=cells)
    widths = [
        1 << build_buckets(p, J, num_partitions=num_partitions).max_exp
        if p.num_nonempty_rows
        else 1
        for p in profiles
    ]
    return CELLFormat.from_csr(
        A, num_partitions=num_partitions, max_widths=widths, cells=cells
    )


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
            col_sum += int(b.slab.indices.astype(np.int64).sum()) - pads
            row_sum += int(b.row_ind.astype(np.int64).sum()) + b.block_rows
            val_sum += float(b.slab.data.astype(np.float64).sum())
    return float(col_sum % (1 << 31)) + float(row_sum % (1 << 20)) + val_sum + buckets


#: A timed job: called untimed, it builds fresh inputs and returns the
#: thunk :func:`_sample_walls` times.
Job = Callable[[], Callable[[], object]]


def _sample_walls(jobs: dict[str, Job], rounds: int) -> dict[str, np.ndarray]:
    """Time every job once per round, the rounds cycling through all jobs,
    and return each job's per-round walls in ms.

    A median over back-to-back repeats on the same inputs misses the two
    largest noise sources on a shared runner: where the inputs sit in
    memory (on a 2-vCPU VM one build of the kernel inputs ran at 14 ms,
    the next at 26 ms, every repeat alike) and load that shifts over
    seconds.  Fresh inputs per round and samples spread over the whole
    suite let the median see both."""
    walls: dict[str, list[float]] = {name: [] for name in jobs}
    for _ in range(rounds):
        for name, job in jobs.items():
            run = job()
            t0 = time.perf_counter()
            run()
            walls[name].append((time.perf_counter() - t0) * 1e3)
    return {name: np.asarray(w) for name, w in walls.items()}


def _fresh_matrices(entries) -> list:
    return [e.matrix.copy() for e in entries]


def _parallel_pool():
    from repro.core.parallel import PoolSpec

    return PoolSpec(workers=PARALLEL_WORKERS, kind="thread")


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


def _execute_all(kernel: CELLSpMM, pairs) -> list[np.ndarray]:
    return [kernel.execute(fmt, B) for fmt, B in pairs]


def _wall_jobs(entries, A0, stream) -> dict[str, Job]:
    """The timed jobs of the compose, parallel, incremental, tune and
    kernel benchmarks.  A compose job and its reference, and the patch and
    full jobs, sit next to each other, so each round's ratio compares two
    back-to-back runs."""
    from repro.core.parallel import compose_partitions

    def compose(P):
        mats = _fresh_matrices(entries)
        return lambda: [_tuned_compose(A, P) for A in mats]

    def reference(P):
        mats = _fresh_matrices(entries)
        return lambda: [reference_compose_cell(A, P, SUITE_J) for A in mats]

    def parallel():
        mats, pool = _fresh_matrices(entries), _parallel_pool()
        return lambda: [
            compose_partitions(A, PARALLEL_PARTITIONS, SUITE_J, pool=pool)
            for A in mats
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


def _median_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """Median of the per-round ratios ``num / den``."""
    return float(np.median(num / np.maximum(den, 1e-9)))


def _bench_compose(entries, walls: dict[str, np.ndarray]) -> Iterator[Metric]:
    speedups = []
    for P in COMPOSE_PARTITIONS:
        vec = walls[f"compose.P{P}"]
        speedup = _median_ratio(walls[f"compose.P{P}.reference"], vec)
        speedups.append(speedup)
        yield Metric(f"compose.P{P}.wall_ms", float(np.median(vec)), "wall", "ms")
        yield Metric(f"compose.P{P}.speedup_vs_reference", speedup, "ratio", "x")
    yield Metric("compose.speedup_geomean", float(geomean(speedups)), "ratio", "x")

    formats = [
        _tuned_compose(e.matrix, P) for e in entries for P in COMPOSE_PARTITIONS
    ]
    yield Metric(
        "compose.structure_checksum",
        _format_checksum(formats),
        "exact",
        tol=1e-9,
    )


def _bench_parallel(
    entries, repeats: int, walls: dict[str, np.ndarray]
) -> Iterator[Metric]:
    """Partition-pool compose fan-out: pooled wall time, LPT-modeled
    speedup at 4 workers, and a bit-identity checksum.

    The speedup gate is *modeled* (serial-measured per-partition task
    times scheduled LPT onto 4 workers), not measured thread speedup —
    wall-clock parallel efficiency on an oversubscribed CI runner is
    noise, while the model is as deterministic as the wall-time band."""
    from repro.core.parallel import compose_partitions, lpt_makespan

    P = PARALLEL_PARTITIONS
    pool = _parallel_pool()
    yield Metric(
        "compose.parallel.wall_ms",
        float(np.median(walls["compose.parallel"])),
        "wall",
        "ms",
    )
    # De-jitter the model input: a single descheduled partition task can
    # balloon one wall and drag the modeled speedup toward 1, so take the
    # per-task minimum over a few serial runs before scheduling LPT.
    task_walls: list[np.ndarray] = []
    for _ in range(max(repeats, 3)):
        fans = [compose_partitions(e.matrix, P, SUITE_J) for e in entries]
        run_walls = [np.asarray(f.task_walls, dtype=np.float64) for f in fans]
        task_walls = (
            run_walls
            if not task_walls
            else [np.minimum(a, b) for a, b in zip(task_walls, run_walls)]
        )
    speedups = [
        float(w.sum()) / max(lpt_makespan(w.tolist(), pool.workers), 1e-12)
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
    formats = [
        compose_partitions(e.matrix, P, SUITE_J, pool=pool).to_format()
        for e in entries
    ]
    yield Metric(
        "compose.parallel.structure_checksum",
        _format_checksum(formats),
        "exact",
        tol=1e-9,
    )


def _bench_incremental(A0, stream, walls: dict[str, np.ndarray]) -> Iterator[Metric]:
    """Delta patching vs. full recompose on a seeded row-update stream.

    Banded matrices keep each row inside one or two column partitions,
    so a handful of changed rows touches a strict subset of the
    partitions — the case ``patch_rows`` exists for.  The rebuilt count
    and the final structure checksum are exact (seeded updates); the
    patch/full ratio is machine-relative."""
    wall_patch = walls["compose.incremental.patch"]
    wall_full = walls["compose.incremental.full"]
    yield Metric(
        "compose.incremental.patch.wall_ms", float(np.median(wall_patch)), "wall", "ms"
    )
    yield Metric(
        "compose.incremental.full.wall_ms", float(np.median(wall_full)), "wall", "ms"
    )
    yield Metric(
        "compose.incremental.speedup_vs_full",
        _median_ratio(wall_full, wall_patch),
        "ratio",
        "x",
    )
    plan, rebuilt = _run_patch(A0, stream)
    yield Metric(
        "compose.incremental.partitions_rebuilt", float(rebuilt), "exact"
    )
    yield Metric(
        "compose.incremental.structure_checksum",
        _format_checksum([plan.fmt]),
        "exact",
        tol=1e-9,
    )


def _bench_tune(entries, walls: dict[str, np.ndarray]) -> Iterator[Metric]:
    yield Metric("tune.wall_ms", float(np.median(walls["tune"])), "wall", "ms")
    yield Metric(
        "tune.evaluations", float(_tune_all(e.matrix for e in entries)), "exact"
    )


def _bench_kernel(entries, walls: dict[str, np.ndarray]) -> Iterator[Metric]:
    yield Metric(
        "kernel.execute.wall_ms",
        float(np.median(walls["kernel.execute"])),
        "wall",
        "ms",
    )
    kernel = CELLSpMM()
    pairs = _kernel_pairs([e.matrix for e in entries])
    checksum = float(
        sum(float(C.astype(np.float64).sum()) for C in _execute_all(kernel, pairs))
    )
    yield Metric("kernel.execute.checksum", checksum, "exact", tol=1e-9)

    device = SimulatedDevice()
    virtual_ms = sum(
        device.measure(kernel.plan(fmt, KERNEL_J)).time_ms for fmt, _ in pairs
    )
    yield Metric("plan.virtual_ms", float(virtual_ms), "virtual", "ms")


def _bench_serve(repeats: int) -> Iterator[Metric]:
    coll = SuiteSparseLikeCollection(size=6, max_rows=2000, seed=11)
    liteform = LiteForm().fit(generate_training_data(coll, J_values=(32,)))
    spec = WorkloadSpec(
        num_requests=40,
        num_matrices=6,
        J_choices=(32,),
        max_rows=2000,
        seed=5,
    )
    requests = generate_workload(spec)

    last_metrics = None

    def replay():
        nonlocal last_metrics
        server = SpMMServer(liteform=liteform, cache=PlanCache())
        server.replay(requests)
        last_metrics = server.metrics
        return server

    yield Metric("serve.replay.wall_ms", _median_wall_ms(replay, repeats), "wall", "ms")
    assert last_metrics is not None
    yield Metric("serve.requests", float(last_metrics.requests), "exact")
    yield Metric("serve.cache_hits", float(last_metrics.cache_hits), "exact")


def _bench_adaptive(repeats: int) -> Iterator[Metric]:
    """Adaptive serving under drift: replay wall time, the bandit's
    deterministic decision counters, and the oracle-recovery ratio on a
    trace whose optimal format flips mid-replay (the live
    ``benchmarks/test_ext_adaptive.py`` claim, shrunk to gate size).

    The counters are exact — the bandit is seeded and the workload and
    drift point are pinned — so any change to the selection policy shows
    up as deterministic drift, not noise."""
    from repro.serve import FormatBandit, FormatDriftDevice
    from repro.serve.adaptive import build_arm_plan
    from repro.serve.fingerprint import PlanKey, fingerprint_csr

    coll = SuiteSparseLikeCollection(size=6, max_rows=2000, seed=11)
    liteform = LiteForm().fit(generate_training_data(coll, J_values=(32,)))
    spec = WorkloadSpec(
        num_requests=120,
        num_matrices=3,
        J_choices=(32,),
        max_rows=2000,
        with_operands=False,
        seed=5,
    )
    requests = generate_workload(spec)
    half = len(requests) // 2

    last = None

    def replay():
        nonlocal last
        device = FormatDriftDevice(slowdown=4.0)
        server = SpMMServer(
            liteform=liteform,
            cache=PlanCache(),
            devices=[device],
            bandit=FormatBandit(min_obs=3, explore=0.05, seed=7),
        )
        total_ms = 0.0
        for i, request in enumerate(requests):
            if i == half:
                device.drifted = True
            total_ms += server.serve(request).measurement.time_ms
        last = (server, total_ms)
        return server

    yield Metric(
        "adaptive.replay.wall_ms", _median_wall_ms(replay, repeats), "wall", "ms"
    )
    assert last is not None
    server, adaptive_ms = last
    m = server.metrics
    yield Metric("adaptive.observations", float(m.bandit_observations), "exact")
    yield Metric("adaptive.overrides", float(m.bandit_overrides), "exact")
    yield Metric("adaptive.flips", float(m.bandit_flips), "exact")
    yield Metric("adaptive.failed", float(m.failed), "exact")

    # Hindsight oracle: per-request best arm, phase-aware, cached per key.
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


def _bench_gnn(repeats: int) -> Iterator[Metric]:
    """GNN graph-request replay: wall time, deterministic reuse counters,
    an output checksum (bit-drift guard over the chained stages), and the
    amortization ratio versus per-stage recomposition (the live Fig. 8)."""
    from repro.matrices.gnn import GNNWorkloadSpec, generate_gnn_workload

    coll = SuiteSparseLikeCollection(size=6, max_rows=2000, seed=11)
    liteform = LiteForm().fit(generate_training_data(coll, J_values=(32,)))
    spec = GNNWorkloadSpec(
        dataset="cora",
        model="gat",
        layers=2,
        epochs=2,
        feature_dim=16,
        hidden_dim=16,
        seed=23,
    )

    last = None

    def replay():
        nonlocal last
        server = SpMMServer(liteform=liteform, cache=PlanCache())
        responses = [server.serve_graph(g) for g in generate_gnn_workload(spec)]
        last = (server, responses)
        return server

    yield Metric("gnn.replay.wall_ms", _median_wall_ms(replay, repeats), "wall", "ms")
    assert last is not None
    server, responses = last
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
    for graph, resp in zip(generate_gnn_workload(spec), responses):
        for stage in graph.stages:
            r = resp.responses.get(stage.name)
            if r is None or r.plan is None:
                continue
            naive_s += liteform.compose(
                r.plan.fmt.to_csr(), spec.feature_dim
            ).overhead.total_s
    amortized_s = m.compose_spent_s + m.revalue_s
    yield Metric(
        "gnn.amortization_vs_recompose",
        naive_s / max(amortized_s, 1e-9),
        "ratio",
        "x",
    )


def _bench_cluster(repeats: int) -> Iterator[Metric]:
    """Sharded replay + one elastic-membership change, all deterministic:
    the remigration fraction and the fleet's simulated makespan are
    regression-gated alongside the wall time."""
    from repro.serve import ClusterFrontend

    coll = SuiteSparseLikeCollection(size=6, max_rows=2000, seed=11)
    liteform = LiteForm().fit(generate_training_data(coll, J_values=(32,)))
    spec = WorkloadSpec(
        num_requests=48,
        num_matrices=8,
        J_choices=(32,),
        max_rows=2000,
        with_operands=False,
        seed=5,
    )
    requests = generate_workload(spec)

    last = None

    def replay():
        nonlocal last
        frontend = ClusterFrontend(
            liteform,
            num_shards=4,
            replication=2,
            hot_fraction=0.2,
            seed=9,
        )
        frontend.replay(requests)
        change = frontend.add_shard()
        frontend.replay(requests)
        last = (frontend, change)
        return frontend

    yield Metric(
        "cluster.replay.wall_ms", _median_wall_ms(replay, repeats), "wall", "ms"
    )
    assert last is not None
    frontend, change = last
    yield Metric("cluster.requests", float(frontend.metrics.completed), "exact")
    yield Metric("cluster.failed", float(frontend.metrics.failed), "exact")
    yield Metric("cluster.plans_migrated", float(change.plans_migrated), "exact")
    yield Metric(
        "cluster.remigration_fraction", change.fraction, "exact", tol=1e-9
    )
    yield Metric(
        "cluster.makespan_virtual_ms", frontend.makespan_ms, "virtual", "ms"
    )


def _bench_obs(repeats: int) -> Iterator[Metric]:
    """Observability overhead: the same sharded replay with tracing, SLO
    burn-rate evaluation, and attribution fully on vs. fully off.  The
    ratio gate enforces the "telemetry is nearly free" contract (traced
    throughput within a few percent of untraced); the span count per
    request is deterministic and pins the instrumentation density."""
    from repro.obs import Tracer, set_tracer
    from repro.serve import ClusterFrontend

    coll = SuiteSparseLikeCollection(size=6, max_rows=2000, seed=11)
    liteform = LiteForm().fit(generate_training_data(coll, J_values=(32,)))
    spec = WorkloadSpec(
        num_requests=48,
        num_matrices=8,
        J_choices=(32,),
        max_rows=2000,
        with_operands=False,
        seed=5,
    )
    requests = generate_workload(spec)

    last_frontend = None

    def replay(observed: bool):
        nonlocal last_frontend
        frontend = ClusterFrontend(
            liteform, num_shards=2, seed=9, slo=observed or None
        )
        if observed:
            tracer = Tracer()
            previous = set_tracer(tracer)
            try:
                frontend.replay(requests)
            finally:
                set_tracer(previous)
            last_frontend = frontend
        else:
            frontend.replay(requests)
        return frontend

    replay(True)  # warm caches/JIT paths so both timings start equal
    replay(False)
    wall_plain = _median_wall_ms(lambda: replay(False), repeats)
    wall_observed = _median_wall_ms(lambda: replay(True), repeats)
    yield Metric("obs.untraced.wall_ms", wall_plain, "wall", "ms")
    yield Metric("obs.observed.wall_ms", wall_observed, "wall", "ms")
    # Full-telemetry overhead is below the wall-clock noise floor of a
    # shared runner (see benchmarks/test_ext_obs.py for the tight
    # per-span bound), so the gate band matches observed replay jitter.
    yield Metric(
        "obs.throughput_ratio",
        wall_plain / max(wall_observed, 1e-9),
        "ratio",
        "x",
        tol=0.25,
    )
    assert last_frontend is not None
    spans = sum(len(lane.spans) for lane in last_frontend.lanes().values())
    yield Metric(
        "obs.spans_per_request", float(spans) / len(requests), "exact"
    )


def run_suite(repeats: int = 3, include_serve: bool = True) -> dict:
    """Run the pinned benchmark suite and return a snapshot dict."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    entries = _suite_entries()
    A0, stream = _incremental_stream()
    walls = _sample_walls(
        _wall_jobs(entries, A0, stream), max(repeats, MIN_WALL_ROUNDS)
    )
    metrics: list[Metric] = []
    metrics.extend(_bench_compose(entries, walls))
    metrics.extend(_bench_parallel(entries, repeats, walls))
    metrics.extend(_bench_incremental(A0, stream, walls))
    metrics.extend(_bench_tune(entries, walls))
    metrics.extend(_bench_kernel(entries, walls))
    if include_serve:
        metrics.extend(_bench_serve(repeats))
        metrics.extend(_bench_adaptive(repeats))
        metrics.extend(_bench_gnn(repeats))
        metrics.extend(_bench_cluster(repeats))
        metrics.extend(_bench_obs(repeats))
    return {
        "schema": SCHEMA_VERSION,
        "rev": git_rev(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repeats": repeats,
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
