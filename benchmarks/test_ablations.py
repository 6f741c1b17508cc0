"""Ablation benchmarks for the design choices DESIGN.md calls out.

These are not in the paper's evaluation; they isolate the contribution of
each CELL/LiteForm mechanism on the simulated device:

* folded rows (Section 5.3) vs leaving long rows at their natural width;
* per-partition bucket-width sets (CELL) vs a uniform set (hyb);
* the atomic-aware cost model vs the paper's simplified Eq. 7, and
  Algorithm 3's binary search vs an exhaustive width sweep;
* density features vs raw-count features for the partition predictor
  (the Section 5.2 claim).
"""

import numpy as np
import pytest

from repro.bench import BenchTable, geomean
from repro.core import (
    build_buckets,
    compose_partitions,
    exhaustive_width_search,
    matrix_cost_profiles,
)
from repro.formats import CELLFormat
from repro.kernels import CELLSpMM
from repro.matrices import (
    mixture_matrix,
    power_law_graph,
    with_dense_rows,
)
from repro.ml import RandomForestClassifier, accuracy_score, train_test_split

J = 128


@pytest.fixture(scope="module")
def skewed_matrices():
    return {
        "power_law": power_law_graph(8000, 12, seed=1),
        "dense_rows": with_dense_rows(
            power_law_graph(6000, 8, seed=2), 4, row_density=0.3, seed=3
        ),
        "mixture": mixture_matrix(6000, avg_degree=16, seed=4),
    }


def test_ablation_folding(benchmark, skewed_matrices, device):
    """Folded rows let the width search cap long rows; without folding the
    widest bucket must fit the longest row, inflating padding."""

    def run():
        rows = []
        kernel = CELLSpMM()
        for name, A in skewed_matrices.items():
            folded = compose_partitions(A, 1, J).to_format()
            natural = CELLFormat.from_csr(A, num_partitions=1)  # no folding occurs
            t_folded = kernel.measure(folded, J, device).time_s
            t_natural = kernel.measure(natural, J, device).time_s
            rows.append((name, natural.padding_ratio, folded.padding_ratio, t_natural / t_folded))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = BenchTable(
        "Ablation: folded rows (width cap) vs natural maximum width",
        ["matrix", "pad_natural", "pad_folded", "speedup_from_folding"],
    )
    for r in rows:
        table.add_row(*r)
    table.emit()
    speedups = [r[3] for r in rows]
    assert geomean(speedups) > 1.1  # folding pays on skewed inputs
    assert max(speedups) > 1.2


def test_ablation_per_partition_widths(benchmark, device):
    """CELL's per-partition width sets vs hyb's uniform set on a matrix
    whose halves have very different row-length distributions."""
    import scipy.sparse as sp

    from repro.formats.base import as_csr

    left = sp.random(6000, 3000, density=0.02, random_state=1)
    right = sp.random(6000, 3000, density=0.0005, random_state=2)
    A = as_csr(sp.hstack([left, right]).tocsr().astype(np.float32))

    def run():
        kernel = CELLSpMM()
        per_partition = compose_partitions(A, 2, J).to_format()
        uniform_width = max(per_partition.max_widths)
        uniform = CELLFormat.from_csr(A, num_partitions=2, max_widths=uniform_width)
        t_cell = kernel.measure(per_partition, J, device).time_s
        t_hyb = kernel.measure(uniform, J, device).time_s
        return per_partition.max_widths, uniform_width, t_hyb / t_cell

    widths, uniform_width, speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nper-partition widths={widths} uniform width={uniform_width} "
        f"speedup from flexibility={speedup:.3f}x"
    )
    assert widths[0] != widths[1], "halves should want different widths"
    assert speedup >= 0.99  # flexibility never loses; usually wins


def test_ablation_cost_model_variants(benchmark, skewed_matrices, device):
    """Atomic-aware cost (default) vs the paper's simplified Eq. 7, and
    Algorithm 3 vs exhaustive sweep, scored by delivered kernel time."""

    def run():
        kernel = CELLSpMM()
        rows = []
        for name, A in skewed_matrices.items():
            prof = matrix_cost_profiles(A, 1)[0]
            times = {}
            evals = {}
            for label, kwargs, searcher in (
                ("alg3_atomic", {}, build_buckets),
                ("alg3_eq7", {"legacy_eq7": True}, build_buckets),
                ("exhaustive", {}, exhaustive_width_search),
            ):
                res = searcher(prof, J, **kwargs)
                fmt = CELLFormat.from_csr(A, num_partitions=1, max_widths=res.max_width)
                times[label] = kernel.measure(fmt, J, device).time_s
                evals[label] = res.evaluations
            oracle = min(
                kernel.measure(
                    CELLFormat.from_csr(A, num_partitions=1, max_widths=1 << e), J, device
                ).time_s
                for e in range(prof.natural_max_exp + 1)
            )
            rows.append((name, times, evals, oracle))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = BenchTable(
        "Ablation: cost-model variants (loss vs time-oracle width)",
        ["matrix", "alg3_atomic", "alg3_eq7", "exhaustive", "alg3_evals"],
    )
    for name, times, evals, oracle in rows:
        table.add_row(
            name,
            times["alg3_atomic"] / oracle,
            times["alg3_eq7"] / oracle,
            times["exhaustive"] / oracle,
            evals["alg3_atomic"],
        )
    table.emit()
    for name, times, evals, oracle in rows:
        # Algorithm 3 with the atomic-aware cost lands within 15% of oracle
        # and matches the exhaustive sweep of the same cost function.
        assert times["alg3_atomic"] <= oracle * 1.15, name
        assert times["alg3_atomic"] <= times["exhaustive"] * 1.01, name
        # the calibrated cost never does worse than the simplified Eq. 7
        assert times["alg3_atomic"] <= times["alg3_eq7"] * 1.02, name


def test_ablation_density_features(benchmark, training_data):
    """Section 5.2: density features beat raw counts for partition
    prediction."""

    def run():
        X_density = training_data.partition_X
        y = training_data.partition_y
        # raw-count variant: undo the density normalization (cols known)
        X_raw = X_density.copy()
        X_raw[:, 3:7] = X_raw[:, 3:7] * X_raw[:, [1]]
        out = {}
        for label, X in (("density", X_density), ("raw", X_raw)):
            Xtr, Xte, ytr, yte = train_test_split(X, y, test_size=0.25, seed=0)
            model = RandomForestClassifier(n_estimators=50, seed=0).fit(Xtr, ytr)
            out[label] = accuracy_score(yte, model.predict(Xte))
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\npartition-model accuracy: density={out['density']:.3f} raw={out['raw']:.3f}")
    assert out["density"] >= out["raw"] - 0.05
