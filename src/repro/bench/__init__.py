"""Benchmark harness utilities shared by the per-figure benchmark files."""

from repro.bench.harness import (
    BENCH_J_VALUES,
    COLLECTION_SIZE,
    TRAIN_SIZE,
    phase,
    scaled_device,
)
from repro.bench.regress import (
    SCHEMA_VERSION,
    ComparisonReport,
    Metric,
    MetricComparison,
    compare_snapshots,
    default_baseline_path,
    load_snapshot,
    run_suite,
    snapshot_filename,
    write_snapshot,
)
from repro.bench.reporting import BenchTable, geomean

__all__ = [
    "BenchTable",
    "geomean",
    "BENCH_J_VALUES",
    "COLLECTION_SIZE",
    "TRAIN_SIZE",
    "phase",
    "scaled_device",
    "SCHEMA_VERSION",
    "ComparisonReport",
    "Metric",
    "MetricComparison",
    "compare_snapshots",
    "default_baseline_path",
    "load_snapshot",
    "run_suite",
    "snapshot_filename",
    "write_snapshot",
]
