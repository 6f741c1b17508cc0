"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``compose``
    Compose a format for a Matrix Market file (or a named synthetic
    workload) and print the plan plus simulated SpMM performance.
``compare``
    Run every baseline system on the input and print a Figure 6-style row.
``train``
    Generate training data on a synthetic collection, fit LiteForm's
    predictors, and save them for later ``--models`` use.
``serve``
    Replay a seeded Zipf workload through :class:`repro.serve.SpMMServer`
    (plan caching, admission control, device pool) and print the metrics
    report.  ``--faults`` / ``--death-rate`` / ``--spike-rate`` inject
    seeded chaos into the device pool; ``--retries`` and ``--no-degrade``
    control the recovery policy.  ``--batch N`` switches to the open-loop
    :class:`repro.serve.Scheduler` — requests sharing a plan key are
    coalesced into fused launches of up to ``N`` — with ``--max-wait-ms``
    (batch timeout), ``--arrival-rate`` (Poisson arrivals, requests per
    simulated second), and ``--max-queue`` (backpressure bound; overflow
    is shed to the degraded path).  ``--speculative`` serves cache
    misses the immediate CSR plan while a background compose builds
    CELL, swapped into the cache when ready (docs/COMPOSE.md).
    ``--adaptive`` enables online adaptive format selection: a
    per-fingerprint Thompson-sampling bandit over the CELL/CSR/BCSR
    families overrides the static selector once a key has
    ``--bandit-min-obs`` observations (``--bandit-explore`` forces early
    random arms, ``--bandit-state`` persists the learned state across
    runs); ``--drift-after N`` injects a mid-trace format shift —
    kernels matching ``--drift-kernel`` run ``--drift-slowdown`` x
    slower after N launches — the scenario the bandit is built to
    recover from (docs/ADAPTIVE.md).
    ``--workload gnn`` replays seeded multi-epoch GNN forward passes as
    graph (DAG) requests instead — each epoch a chain of op-typed stages
    (SDDMM → softmax → SpMM → dense for ``--gnn-model gat``; SpMV degrees
    plus normalized SpMM/dense for ``gcn``) served end to end with one
    composed plan reused across every stage sharing the adjacency's
    sparsity pattern (docs/GNN.md).
``bench``
    Run the pinned micro-benchmark suite (:mod:`repro.bench.regress`) and
    write a schema-versioned ``BENCH_<rev>.json`` snapshot.  ``--check``
    compares against the committed ``benchmarks/baseline.json`` with
    per-metric tolerance bands and exits non-zero on regression (the CI
    ``bench-gate``); ``--update-baseline`` refreshes the baseline.  See
    docs/BENCHMARKS.md.
``info``
    Print format statistics (padding, footprint) for every format on the
    input matrix (``--profile`` adds per-kernel roofline profiles).
``stats``
    Replay a short workload against the process-wide metrics registry and
    dump it (Prometheus text exposition, or JSON with ``--json``);
    ``--attribution`` appends the p50/p95/p99 tail-latency stage
    breakdown with trace exemplars.

``compose``, ``compare``, and ``serve`` accept ``--trace out.json`` to
record nested spans of the run and export them as Chrome trace-event
JSON (open in chrome://tracing or https://ui.perfetto.dev); a flame
summary is printed to stderr.  In cluster mode (``serve --shards``) the
export is the *merged* multi-lane trace — one Perfetto process lane for
the frontend plus one per shard, stitched by trace id — and ``--slo``
adds Google-SRE multi-window burn-rate alerting (``--slo-latency-ms``,
``--slo-window-ms``, JSON artifact via ``--slo-report``).  See
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.baselines import FIG6_BASELINES, LiteFormBaseline, make_baseline
from repro.core import LiteForm, generate_training_data
from repro.core.persistence import load_liteform, save_liteform
from repro.formats import (
    BCSRFormat,
    CELLFormat,
    COOFormat,
    CSRFormat,
    ELLFormat,
    SlicedELLFormat,
)
from repro.gpu import SimulatedDevice
from repro.gpu.device import SimulatedOOMError
from repro.gpu.profiler import profile
from repro.matrices import (
    SuiteSparseLikeCollection,
    make_gnn_standin,
    read_matrix_market,
)
from repro.obs import (
    MetricsRegistry,
    SLOEngine,
    Tracer,
    default_policies,
    default_slos,
    get_registry,
    get_tracer,
    set_tracer,
)


def _load_matrix(spec: str):
    """``path.mtx`` or a named GNN stand-in like ``gnn:pubmed``."""
    if spec.startswith("gnn:"):
        name = spec.split(":", 1)[1]
        return make_gnn_standin(name, seed=1)
    path = Path(spec)
    if not path.exists():
        raise SystemExit(f"matrix file not found: {spec} (use gnn:<name> for stand-ins)")
    return read_matrix_market(path)


@contextmanager
def _maybe_trace(args, frontend=None):
    """Install a tracer for the command body when ``--trace`` was given;
    on exit, write the Chrome trace JSON and print a flame summary.

    For a :class:`~repro.serve.ClusterFrontend` the export is the
    *merged* multi-lane trace (the frontend lane plus one per shard),
    not the frontend lane alone.
    """
    path = getattr(args, "trace", None)
    if not path:
        yield None
        return
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        if frontend is not None:
            out, lanes = frontend.write_trace(path), frontend.lanes()
            print(
                f"trace: {len(lanes)} lanes ({', '.join(sorted(lanes))}) merged into {out}",
                file=sys.stderr,
            )
        else:
            out = tracer.write(path)
            print(
                f"trace: {len(tracer.spans)} spans, {tracer.coverage():.1%} of "
                f"wall time covered, written to {out}",
                file=sys.stderr,
            )
            print(tracer.flame_summary(), file=sys.stderr)


def _get_liteform(args) -> LiteForm:
    if args.models:
        try:
            return load_liteform(args.models)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load --models: {exc}") from None
    print(f"training LiteForm on a {args.train_size}-matrix collection ...", file=sys.stderr)
    coll = SuiteSparseLikeCollection(size=args.train_size, max_rows=10_000, seed=1)
    return LiteForm().fit(generate_training_data(coll, J_values=(32, 128)))


def _make_bandit(args, index: int = 0):
    """The :class:`~repro.serve.FormatBandit` of node or shard ``index``
    from the serve flags (None when ``--adaptive`` is off), seeded
    ``--seed + index``.  An existing ``--bandit-state`` file (single-node
    only) warm-starts the bandit, with this run's flags overriding the
    saved hyperparameters."""
    if not getattr(args, "adaptive", False):
        return None
    from repro.serve import FormatBandit

    params = dict(min_obs=args.bandit_min_obs, explore=args.bandit_explore, seed=args.seed + index)
    state_path = getattr(args, "bandit_state", None)
    if state_path and Path(state_path).exists():
        bandit = FormatBandit.load(state_path, **params)
        print(
            f"bandit: warm-started from {state_path} "
            f"({bandit.key_observations_total()} observations)",
            file=sys.stderr,
        )
        return bandit
    return FormatBandit(**params)


def _save_bandit(args, surface) -> None:
    """Persist the single-node bandit's state after the replay
    (``--bandit-state`` implies ``--adaptive`` without ``--shards``)."""
    state_path = getattr(args, "bandit_state", None)
    if not state_path:
        return
    bandit = getattr(surface, "server", surface).bandit
    bandit.save(state_path)
    print(
        f"bandit: state saved to {state_path} "
        f"({bandit.key_observations_total()} observations)",
        file=sys.stderr,
    )


def cmd_compose(args) -> int:
    A = _load_matrix(args.matrix)
    lf = _get_liteform(args)
    with _maybe_trace(args):
        tracer = get_tracer()
        with tracer.span("compose", matrix=args.matrix):
            plan = lf.compose(A, args.J)
        with tracer.span("measure"):
            m = lf.measure(plan, args.J)
    out = {
        "matrix": {"rows": A.shape[0], "cols": A.shape[1], "nnz": int(A.nnz)},
        "J": args.J,
        "use_cell": plan.use_cell,
        "num_partitions": plan.num_partitions,
        "max_bucket_widths": plan.max_widths,
        "format": type(plan.fmt).__name__,
        "padding_ratio": plan.fmt.padding_ratio,
        "construction_overhead_ms": plan.overhead.total_s * 1e3,
        "simulated_time_ms": m.time_ms,
        "compute_throughput": m.compute_throughput,
    }
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        for k, v in out.items():
            print(f"{k:26s} {v}")
    return 0


def cmd_compare(args) -> int:
    A = _load_matrix(args.matrix)
    lf = _get_liteform(args)
    device = SimulatedDevice()
    rows = []
    profiles: dict[str, str] = {}
    want_profile = getattr(args, "profile", False)
    with _maybe_trace(args):
        tracer = get_tracer()
        for name in FIG6_BASELINES:
            system = make_baseline(name)
            t0 = time.perf_counter()
            try:
                with tracer.span("baseline", system=name):
                    prep = system.prepare(A, args.J, device)
                    m = system.measure(prep, args.J, device)
                rows.append((name, m.time_s, prep.construction_overhead_s))
                if want_profile:
                    profiles[name] = profile(m, device.spec).render()
            except SimulatedOOMError:
                rows.append((name, float("inf"), float("nan")))
            if time.perf_counter() - t0 > 300:  # pragma: no cover - safety valve
                print(f"warning: {name} took very long", file=sys.stderr)
        with tracer.span("baseline", system="liteform"):
            prep = LiteFormBaseline(lf).prepare(A, args.J, device)
            m = prep.kernel.measure(prep.fmt, args.J, device)
        rows.append(("liteform", m.time_s, prep.construction_overhead_s))
        if want_profile:
            profiles["liteform"] = profile(m, device.spec).render()
    # The reference may itself have OOMed (or be missing entirely); print
    # "-" for the speedup column rather than inf/garbage ratios.
    ref = next((t for n, t, _ in rows if n == "cusparse" and np.isfinite(t)), None)
    print(f"{'system':10s} {'time_ms':>10s} {'vs_cusparse':>12s} {'construct_s':>12s}")
    for name, t, oh in rows:
        tt = f"{t*1e3:10.3f}" if np.isfinite(t) else f"{'OOM':>10s}"
        has_ratio = ref is not None and np.isfinite(t) and t > 0
        sp = f"{ref/t:12.2f}" if has_ratio else f"{'-':>12s}"
        print(f"{name:10s} {tt} {sp} {oh:12.4f}")
    for name, text in profiles.items():
        print(f"\n-- kernel profile: {name} --")
        print(text)
    return 0


def cmd_train(args) -> int:
    try:
        coll = SuiteSparseLikeCollection(
            size=args.train_size, max_rows=args.max_rows, seed=args.seed
        )
    except ValueError as exc:
        raise SystemExit(f"invalid training collection: {exc}") from None
    data = generate_training_data(coll)
    lf = LiteForm().fit(data)
    save_liteform(lf, args.output)
    print(f"trained on {len(data.format_samples)} matrices "
          f"({int(data.format_y.sum())} CELL-favourable); saved to {args.output}")
    return 0


def _reject_unused_flags(args) -> None:
    """Exit on a ``serve`` flag the chosen mode would silently ignore —
    the one incompatibility table of every serve mode."""
    gnn = args.workload == "gnn"
    for ignored, message in (
        (args.kill_shard is not None and not args.shards, "--kill-shard requires --shards"),
        (args.replication > 1 and not args.shards, "--replication > 1 requires --shards"),
        ((args.slo or args.slo_report) and not args.shards,
         "--slo / --slo-report require --shards (cluster mode)"),
        (args.slo_report and not args.slo, "--slo-report requires --slo"),
        (args.max_queue is not None and not args.batch, "--max-queue requires --batch"),
        (args.bandit_state and not args.adaptive, "--bandit-state requires --adaptive"),
        (args.bandit_state and args.shards,
         "--bandit-state is single-node only (each shard keeps its own bandit)"),
        (_faults(args) and args.drift_after is not None,
         "--drift-after cannot combine with fault injection"),
        (gnn and args.kill_shard is not None,
         "--kill-shard is only supported with --workload zipf"),
        (gnn and args.slo, "--slo is only supported with --workload zipf"),
    ):
        if ignored:
            raise SystemExit(message)


def _faults(args) -> bool:
    return bool(args.faults or args.death_rate or args.spike_rate)


def _device_factory(args):
    """``device_factory(shard_index, device_index)`` for the fault and
    drift flags (plain simulated devices without them).  A single node
    uses shard 0's."""
    if _faults(args):
        from repro.gpu.faults import FaultPolicy, FaultyDevice

        print(
            f"fault injection: transient OOM {args.faults:.1%}, "
            f"death {args.death_rate:.2%}, spikes {args.spike_rate:.1%} "
            f"per launch (retries={args.retries}, "
            f"degrade={'off' if args.no_degrade else 'on'})",
            file=sys.stderr,
        )
        return lambda shard, device: FaultyDevice(
            faults=FaultPolicy(
                transient_oom_rate=args.faults,
                death_rate=args.death_rate,
                latency_spike_rate=args.spike_rate,
                seed=args.seed + 1000 + shard * 100 + device,
            )
        )
    if args.drift_after is not None:
        from repro.serve import FormatDriftDevice

        print(
            f"format drift: {args.drift_kernel}* kernels "
            f"{args.drift_slowdown:g}x slower after {args.drift_after} "
            f"launches per device",
            file=sys.stderr,
        )
        return lambda shard, device: FormatDriftDevice(
            slow_prefixes=(args.drift_kernel,),
            slowdown=args.drift_slowdown,
            shift_after_launches=args.drift_after,
        )
    return lambda shard, device: SimulatedDevice()


def _build_surface(args, lf: LiteForm, registry: MetricsRegistry | None = None):
    """The serving surface the ``serve`` flags describe: a
    :class:`~repro.serve.ClusterFrontend` with ``--shards``, else one
    node.  Every node and shard comes from the same ``make_shard(index)``:
    a :class:`~repro.serve.Scheduler` over a server with ``--batch``, else
    a bare :class:`~repro.serve.SpMMServer`.  A single node publishes its
    metrics onto ``registry`` (default: a fresh one); shard servers keep
    private registries and the fleet publishes there instead."""
    from repro.serve import ClusterFrontend, PlanCache, RetryPolicy, Scheduler, SpMMServer
    from repro.serve.cluster import ClusterMetrics
    from repro.serve.metrics import ServerMetrics

    factory = _device_factory(args)
    registry = MetricsRegistry() if registry is None else registry

    def make_shard(index: int):
        server = SpMMServer(
            liteform=lf,
            cache=PlanCache(max_bytes=int(args.cache_mb * 2**20)),
            devices=[factory(index, d) for d in range(args.devices)],
            bandit=_make_bandit(args, index),
            metrics=ServerMetrics(registry=MetricsRegistry() if args.shards else registry),
            retry=RetryPolicy(max_attempts=args.retries),
            degrade_on_oom=not args.no_degrade,
            speculative=args.speculative,
        )
        if not args.batch:
            return server
        return Scheduler(
            server=server,
            max_batch=args.batch,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
        )

    if not args.shards:
        return make_shard(0)

    slo = None
    if args.slo:
        slo = SLOEngine(
            specs=default_slos(latency_threshold_ms=args.slo_latency_ms),
            policies=default_policies(args.slo_window_ms),
        )
        print(
            f"SLO engine: latency threshold {args.slo_latency_ms:g} ms, "
            f"burn-rate windows scaled to {args.slo_window_ms:g} ms",
            file=sys.stderr,
        )
    if args.adaptive:
        print(
            f"adaptive: per-shard bandits (min_obs={args.bandit_min_obs}, "
            f"explore={args.bandit_explore:g})",
            file=sys.stderr,
        )
    chaos = f", killing a shard at {args.kill_shard:g} ms" if args.kill_shard is not None else ""
    print(
        f"cluster: {args.shards} shards x {args.devices} devices, "
        f"replication {args.replication}{chaos}",
        file=sys.stderr,
    )
    return ClusterFrontend(
        lf,
        num_shards=args.shards,
        make_shard=make_shard,
        virtual_nodes=args.virtual_nodes,
        replication=args.replication,
        seed=args.seed,
        metrics=ClusterMetrics(registry=registry),
        slo=slo,
    )


def _gnn_graphs(args) -> list:
    """``--workload gnn``: seeded multi-epoch GNN forward passes as graph
    (DAG) requests — one per epoch, each a chain of
    SDDMM/normalize/SpMM/dense stages (docs/GNN.md)."""
    from repro.matrices.gnn import GNNWorkloadSpec, generate_gnn_workload

    spec = GNNWorkloadSpec(
        dataset=args.gnn_dataset,
        model=args.gnn_model,
        layers=args.layers,
        epochs=args.epochs,
        feature_dim=args.feature_dim,
        hidden_dim=args.feature_dim,
        seed=args.seed,
        mean_gap_ms=(1e3 / args.arrival_rate) if args.arrival_rate else 0.0,
        deadline_ms=args.deadline_ms if args.deadline_ms else float("inf"),
    )
    graphs = generate_gnn_workload(spec)
    print(
        f"gnn workload: {spec.dataset}/{spec.model}, {spec.layers} layers x "
        f"{spec.epochs} epochs -> {len(graphs)} graph requests "
        f"({sum(len(g.stages) for g in graphs)} stages) ...",
        file=sys.stderr,
    )
    return graphs


def _zipf_requests(args) -> list:
    """``--workload zipf``: a seeded Zipf trace of independent requests."""
    from repro.serve import WorkloadSpec, generate_workload

    try:
        spec = WorkloadSpec(
            num_requests=args.requests,
            num_matrices=args.matrices,
            zipf_s=args.zipf,
            J_choices=tuple(int(j) for j in args.J_values.split(",")),
            max_rows=args.max_rows,
            deadline_ms=args.deadline_ms,
            deadline_fraction=args.deadline_fraction if args.deadline_ms else 0.0,
            with_operands=not args.measure_only,
            arrival_rate_rps=args.arrival_rate,
            seed=args.seed,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid workload: {exc}") from None
    print(
        f"replaying {spec.num_requests} requests over {spec.num_matrices} "
        f"matrices (Zipf {spec.zipf_s}) ...",
        file=sys.stderr,
    )
    return generate_workload(spec)


def cmd_serve(args) -> int:
    _reject_unused_flags(args)
    gnn = args.workload == "gnn"
    traffic = _gnn_graphs(args) if gnn else _zipf_requests(args)
    surface = _build_surface(args, _get_liteform(args))
    # The trace region covers exactly the replay, so the exported spans
    # account for (nearly) all of the traced wall time.
    with _maybe_trace(args, frontend=surface if args.shards else None):
        if gnn:
            surface.replay_graphs(traffic)
        else:
            chaos = {"kill_shard_at_ms": args.kill_shard} if args.shards else {}
            surface.replay(traffic, **chaos)
    _save_bandit(args, surface)
    if args.slo_report:
        report_path = Path(args.slo_report)
        report_path.write_text(json.dumps(surface.slo.snapshot(), indent=2) + "\n")
        print(f"SLO report written to {report_path}", file=sys.stderr)
    print(json.dumps(surface.snapshot(), indent=2) if args.json else surface.report())
    return 0


def cmd_stats(args) -> int:
    """Replay a short workload and dump the process-wide metrics registry.

    The replay is ``serve`` with its defaults, measure-only over the J
    mix 32/64/128; a cluster also runs the stock SLO engine."""
    serve = build_parser().parse_args(["serve", "--measure-only", "--J-values", "32,64,128"])
    vars(serve).update(vars(args), slo=bool(args.shards))
    requests = _zipf_requests(serve)
    registry = get_registry()
    surface = _build_surface(serve, _get_liteform(serve), registry)
    surface.replay(requests)
    if args.json:
        out = registry.snapshot()
        if args.shards:
            out["cluster"] = surface.snapshot()
        print(json.dumps(out, indent=2))
    else:
        print(registry.render_prometheus(), end="")
        if args.shards:
            # The fleet report already carries the attribution section.
            print(surface.report())
        elif args.attribution:
            print(surface.metrics.attribution.report())
    return 0


def cmd_info(args) -> int:
    A = _load_matrix(args.matrix)
    lengths = np.diff(A.indptr)
    print(f"matrix {A.shape[0]}x{A.shape[1]} nnz={A.nnz} "
          f"rows mean={lengths.mean():.2f} max={int(lengths.max())}")
    print(f"{'format':18s} {'stored':>12s} {'padding':>9s} {'MiB':>9s}")
    for name, fmt in [
        ("COO", COOFormat.from_csr(A)),
        ("CSR", CSRFormat.from_csr(A)),
        ("ELL", ELLFormat.from_csr(A)),
        ("Sliced-ELL", SlicedELLFormat.from_csr(A)),
        ("BCSR 8x8", BCSRFormat.from_csr(A, block_shape=(8, 8))),
        ("CELL natural", CELLFormat.from_csr(A)),
        ("CELL 4 parts", CELLFormat.from_csr(A, num_partitions=min(4, A.shape[1]))),
    ]:
        print(f"{name:18s} {fmt.stored_elements:12d} {fmt.padding_ratio:8.1%} "
              f"{fmt.footprint_bytes / 2**20:9.2f}")
    if getattr(args, "profile", False):
        from repro.kernels.registry import OP_REGISTRIES, available_methods, resolve

        device = SimulatedDevice()
        print(f"\nkernel profiles at J={args.J} ({device.spec.name}):")
        for op in OP_REGISTRIES:
            J = 1 if op == "spmv" else args.J
            for name in available_methods(op=op):
                fmt_cls, kernel_cls = resolve(name, op=op)
                fmt, kernel = fmt_cls.from_csr(A), kernel_cls()
                label = name if op == "spmm" else f"{name} [{op}, J={J}]"
                print(f"\n-- {label} --")
                try:
                    m = kernel.measure(fmt, J, device)
                except SimulatedOOMError as e:
                    print(f"OOM: {e}")
                    continue
                print(f"simulated time:       {m.time_ms:.3f} ms")
                print(profile(m, device.spec).render())
    return 0


def cmd_bench(args) -> int:
    from repro.bench.regress import (
        compare_snapshots,
        default_baseline_path,
        git_rev,
        load_snapshot,
        run_suite,
        snapshot_filename,
        write_snapshot,
    )

    baseline_path = Path(args.baseline) if args.baseline else default_baseline_path()
    if args.check and not args.update_baseline and not baseline_path.exists():
        print(f"error: baseline {baseline_path} not found "
              f"(run with --update-baseline first)", file=sys.stderr)
        return 2
    snapshot = run_suite(include_serve=not args.no_serve)
    out_dir = Path(args.out) if args.out else Path(".")
    snap_path = write_snapshot(snapshot, out_dir / snapshot_filename(git_rev()))
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        width = max(len(n) for n in snapshot["metrics"])
        for name, m in sorted(snapshot["metrics"].items()):
            print(f"{name:<{width}}  {m['value']:12.6g} {m['unit']:<3} [{m['kind']}]")
        print(f"snapshot: {snap_path}", file=sys.stderr)

    if args.update_baseline:
        write_snapshot(snapshot, baseline_path)
        print(f"baseline updated: {baseline_path}", file=sys.stderr)
        return 0
    if args.check:
        try:
            baseline = load_snapshot(baseline_path)
            report = compare_snapshots(baseline, snapshot)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(report.render())
        return 0 if report.ok else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro.cli", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("matrix", help=".mtx path or gnn:<name> stand-in")
        sp.add_argument("-J", type=int, default=128, help="dense columns (default 128)")
        sp.add_argument("--models", help="saved LiteForm models (from `train`)")
        sp.add_argument("--train-size", type=int, default=16,
                        help="collection size when training ad hoc")

    def add_trace(sp):
        sp.add_argument("--trace", metavar="PATH",
                        help="record spans and write Chrome trace-event JSON here")

    sp = sub.add_parser("compose", help="compose a format with LiteForm")
    add_common(sp)
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    add_trace(sp)
    sp.set_defaults(func=cmd_compose)

    sp = sub.add_parser("compare", help="run all baselines on the input")
    add_common(sp)
    sp.add_argument("--profile", action="store_true",
                    help="print a roofline kernel profile per system")
    add_trace(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("serve", help="replay a Zipf workload through SpMMServer")
    sp.add_argument("--workload", choices=("zipf", "gnn"), default="zipf",
                    help="zipf: independent SpMM requests (default); gnn: "
                         "multi-epoch GNN forward passes as graph (DAG) "
                         "requests — see docs/GNN.md")
    sp.add_argument("--gnn-dataset", default="cora", metavar="NAME",
                    help="Table 4 stand-in graph for --workload gnn")
    sp.add_argument("--gnn-model", choices=("gat", "gcn"), default="gat",
                    help="layer chain: gat = SDDMM/softmax/SpMM/dense, "
                         "gcn = SpMV degrees + normalized SpMM/dense")
    sp.add_argument("--layers", type=int, default=3,
                    help="GNN layers per epoch (--workload gnn)")
    sp.add_argument("--epochs", type=int, default=3,
                    help="epochs, i.e. graph requests (--workload gnn)")
    sp.add_argument("--feature-dim", type=int, default=32,
                    help="feature/hidden width of the GNN layers")
    sp.add_argument("--requests", type=int, default=200, help="requests to replay")
    sp.add_argument("--matrices", type=int, default=16, help="distinct matrices in the pool")
    sp.add_argument("--zipf", type=float, default=1.1, help="popularity exponent")
    sp.add_argument("--J-values", default="32,64,128",
                    help="comma-separated J widths mixed into the trace")
    sp.add_argument("--max-rows", type=int, default=3_000,
                    help="row cap of the pool matrices")
    sp.add_argument("--deadline-ms", type=float, default=None,
                    help="composition deadline for the latency-sensitive tier")
    sp.add_argument("--deadline-fraction", type=float, default=0.25,
                    help="fraction of requests carrying the deadline")
    sp.add_argument("--cache-mb", type=float, default=256.0,
                    help="plan-cache byte budget in MiB")
    sp.add_argument("--devices", type=int, default=1, help="simulated device pool size")
    sp.add_argument("--faults", type=float, default=0.0, metavar="RATE",
                    help="inject transient OOMs at this per-launch rate")
    sp.add_argument("--death-rate", type=float, default=0.0, metavar="RATE",
                    help="per-launch probability a device dies permanently")
    sp.add_argument("--spike-rate", type=float, default=0.0, metavar="RATE",
                    help="per-launch probability of an 8x latency spike")
    sp.add_argument("--retries", type=int, default=3,
                    help="max execution attempts per request (1 = no retries)")
    sp.add_argument("--no-degrade", action="store_true",
                    help="disable CSR degradation on structural OOM")
    sp.add_argument("--speculative", action="store_true",
                    help="serve cache misses the immediate CSR plan while a "
                         "background compose builds CELL (swapped in when "
                         "ready)")
    sp.add_argument("--adaptive", action="store_true",
                    help="online adaptive format selection: a per-fingerprint "
                         "Thompson-sampling bandit over CELL/CSR/BCSR "
                         "overrides the static selector once a key has "
                         "enough reward (docs/ADAPTIVE.md)")
    sp.add_argument("--bandit-min-obs", type=int, default=3, metavar="N",
                    help="per-key observations before the bandit overrides "
                         "the static selector (--adaptive)")
    sp.add_argument("--bandit-explore", type=float, default=0.05,
                    metavar="PROB",
                    help="pre-handoff probability of playing a random arm "
                         "(--adaptive)")
    sp.add_argument("--bandit-state", metavar="PATH",
                    help="persist bandit state here after the replay (loaded "
                         "first when the file already exists; --adaptive, "
                         "single-node)")
    sp.add_argument("--drift-after", type=int, default=None, metavar="N",
                    help="chaos: after N kernel launches the device runs "
                         "kernels matching --drift-kernel "
                         "--drift-slowdown x slower (a mid-trace format "
                         "shift; see docs/ADAPTIVE.md)")
    sp.add_argument("--drift-slowdown", type=float, default=4.0, metavar="F",
                    help="latency multiplier of the drifted kernel family")
    sp.add_argument("--drift-kernel", default="cell", metavar="PREFIX",
                    help="kernel-label prefix the drift slows down "
                         "(cell / cusparse / triton)")
    sp.add_argument("--measure-only", action="store_true",
                    help="skip numeric execution, time the kernels only")
    sp.add_argument("--batch", type=int, default=0, metavar="N",
                    help="coalesce up to N same-plan requests per launch "
                         "via the open-loop batched scheduler (0 = off)")
    sp.add_argument("--max-wait-ms", type=float, default=2.0,
                    help="longest simulated wait before a partial batch "
                         "dispatches anyway")
    sp.add_argument("--arrival-rate", type=float, default=None, metavar="RPS",
                    help="Poisson arrival rate in requests per simulated "
                         "second (default: untimed closed-loop trace)")
    sp.add_argument("--shards", type=int, default=0, metavar="N",
                    help="serve through an N-shard ClusterFrontend instead of "
                         "one server (0 = single node)")
    sp.add_argument("--replication", type=int, default=1, metavar="K",
                    help="replicate hot fingerprints to K shards (cluster mode)")
    sp.add_argument("--virtual-nodes", type=int, default=64, metavar="V",
                    help="virtual nodes per shard on the consistent-hash ring")
    sp.add_argument("--kill-shard", type=float, default=None, metavar="AT_MS",
                    help="chaos: kill the busiest shard once the replay "
                         "reaches this virtual timestamp (cluster mode)")
    sp.add_argument("--max-queue", type=int, default=None, metavar="N",
                    help="bounded scheduler queue; overflow arrivals are "
                         "shed to the degraded path (default: unbounded)")
    sp.add_argument("--slo", action="store_true",
                    help="enable the SLO engine with multi-window burn-rate "
                         "alerting (cluster mode)")
    sp.add_argument("--slo-latency-ms", type=float, default=50.0,
                    metavar="MS", help="p99 latency SLO threshold")
    sp.add_argument("--slo-window-ms", type=float, default=1000.0,
                    metavar="MS",
                    help="virtual-time scale of the burn-rate windows (the "
                         "Google-SRE hour-scale policies compressed to "
                         "replay time)")
    sp.add_argument("--slo-report", metavar="PATH",
                    help="write the SLO engine's JSON snapshot (SLIs, budget "
                         "burn, fired alerts) here after the replay")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--models", help="saved LiteForm models (from `train`)")
    sp.add_argument("--train-size", type=int, default=12,
                    help="collection size when training ad hoc")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    add_trace(sp)
    sp.set_defaults(func=cmd_serve)

    sp = sub.add_parser(
        "stats", help="replay a short workload and dump the metrics registry"
    )
    sp.add_argument("--requests", type=int, default=100, help="requests to replay")
    sp.add_argument("--matrices", type=int, default=12, help="distinct matrices in the pool")
    sp.add_argument("--zipf", type=float, default=1.1, help="popularity exponent")
    sp.add_argument("--max-rows", type=int, default=2_000,
                    help="row cap of the pool matrices")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--models", help="saved LiteForm models (from `train`)")
    sp.add_argument("--train-size", type=int, default=8,
                    help="collection size when training ad hoc")
    sp.add_argument("--shards", type=int, default=0, metavar="N",
                    help="replay through an N-shard cluster and include "
                         "per-shard stats (0 = single server)")
    sp.add_argument("--json", action="store_true",
                    help="JSON snapshot instead of Prometheus text exposition")
    sp.add_argument("--attribution", action="store_true",
                    help="append the tail-latency attribution table "
                         "(p50/p95/p99 stage shares with trace exemplars)")
    sp.set_defaults(func=cmd_stats)

    sp = sub.add_parser("train", help="train and save LiteForm's predictors")
    sp.add_argument("output", help="output path (.pkl)")
    sp.add_argument("--train-size", type=int, default=64)
    sp.add_argument("--max-rows", type=int, default=20_000)
    sp.add_argument("--seed", type=int, default=1)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser(
        "bench", help="run the pinned micro-benchmark suite (regression gate)"
    )
    sp.add_argument("--check", action="store_true",
                    help="compare against the committed baseline; exit 1 on "
                         "regression (the CI bench-gate mode)")
    sp.add_argument("--update-baseline", action="store_true",
                    help="overwrite the baseline snapshot with this run")
    sp.add_argument("--baseline", metavar="PATH",
                    help="baseline snapshot path (default benchmarks/baseline.json)")
    sp.add_argument("--out", metavar="DIR",
                    help="directory for the fresh BENCH_<rev>.json (default .)")
    sp.add_argument("--no-serve", action="store_true",
                    help="skip the serving-replay benchmarks (fastest mode)")
    sp.add_argument("--json", action="store_true", help="print the snapshot as JSON")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("info", help="format statistics for a matrix")
    sp.add_argument("matrix", help=".mtx path or gnn:<name> stand-in")
    sp.add_argument("-J", type=int, default=128,
                    help="dense columns for --profile (default 128)")
    sp.add_argument("--profile", action="store_true",
                    help="print a roofline kernel profile per format/kernel pair")
    sp.set_defaults(func=cmd_info)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
