#!/usr/bin/env python
"""Format explorer: how each sparse format represents the same matrix.

Builds every storage format on a heterogeneous matrix (community core +
power-law overlay + dense rows) and reports storage footprint, padding
ratio, and simulated SpMM time — making the Section 2.1 trade-offs and the
Section 4 CELL design tangible.  Also sweeps CELL's two composition knobs
(partitions, max bucket width) to show the space Algorithm 3 searches.

Run:  python examples/format_explorer.py
"""

import numpy as np

from repro.core import compose_partitions
from repro.formats import (
    BCSRFormat,
    BlockedELLFormat,
    CELLFormat,
    COOFormat,
    CSRFormat,
    ELLFormat,
    SlicedELLFormat,
)
from repro.gpu import SimulatedDevice
from repro.kernels import (
    BCSRSpMM,
    CELLSpMM,
    ELLSpMM,
    RowSplitCSRSpMM,
    SlicedELLSpMM,
)
from repro.matrices import mixture_matrix

J = 128


def main() -> None:
    A = mixture_matrix(12_000, avg_degree=18, seed=11)
    device = SimulatedDevice()
    lengths = np.diff(A.indptr)
    print(
        f"matrix: {A.shape[0]}x{A.shape[1]} nnz={A.nnz} "
        f"rows: mean={lengths.mean():.1f} max={lengths.max()} "
        f"(mixture: community + power-law + dense rows)\n"
    )

    print(f"{'format':22s} {'stored':>10s} {'padding':>9s} {'MiB':>8s} {'SpMM ms':>9s}")
    cases = [
        ("COO", COOFormat.from_csr(A), None),
        ("CSR", CSRFormat.from_csr(A), RowSplitCSRSpMM()),
        ("ELL", ELLFormat.from_csr(A), ELLSpMM()),
        ("Sliced-ELL (h=32)", SlicedELLFormat.from_csr(A, slice_height=32), SlicedELLSpMM()),
        ("BCSR 8x8", BCSRFormat.from_csr(A, block_shape=(8, 8)), BCSRSpMM()),
        ("Blocked-ELL 16x16", BlockedELLFormat.from_csr(A, block_shape=(16, 16)), None),
        ("CELL (natural)", CELLFormat.from_csr(A, num_partitions=1), CELLSpMM()),
    ]
    for name, fmt, kernel in cases:
        t = (
            f"{kernel.measure(fmt, J, device).time_ms:9.3f}"
            if kernel is not None
            else f"{'-':>9s}"
        )
        print(
            f"{name:22s} {fmt.stored_elements:10d} {fmt.padding_ratio:8.1%} "
            f"{fmt.footprint_bytes / 2**20:8.2f} {t}"
        )

    print("\nCELL composition space (simulated SpMM ms):")
    kernel = CELLSpMM()
    widths = [4, 16, 64, 256]
    print(f"{'partitions':>10s} " + " ".join(f"W={w:<6d}" for w in widths) + "  Algorithm 3")
    for P in (1, 2, 4, 8):
        row = []
        for w in widths:
            fmt = CELLFormat.from_csr(A, num_partitions=P, max_widths=w)
            row.append(f"{kernel.measure(fmt, J, device).time_ms:8.3f}")
        fan = compose_partitions(A, P, J)
        alg3 = kernel.measure(fan.to_format(), J, device).time_ms
        row.append(f"{alg3:8.3f} (widths={fan.widths})")
        print(f"{P:10d} " + " ".join(row))
    print("\nAlgorithm 3 lands on (or near) the best column of each row —")
    print("without ever executing a kernel.")


if __name__ == "__main__":
    main()
