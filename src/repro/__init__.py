"""Reproduction of LiteForm (HPDC '25): lightweight automatic format
composition for sparse matrix-matrix multiplication on (simulated) GPUs.

High-level entry points:

* :class:`repro.core.LiteForm` — the paper's pipeline (Figure 2);
* :func:`repro.spmm` — one-call SpMM with any of the compared systems;
* :mod:`repro.formats` — CELL and the classic sparse formats;
* :mod:`repro.baselines` — the seven Section 7 comparison systems;
* :mod:`repro.gpu` — the analytical V100 performance model;
* :mod:`repro.serve` — the SpMM serving layer (plan cache, admission
  control, workload replay) amortizing composition across requests.

See README.md for a guided tour and DESIGN.md for the reproduction plan.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__version__ = "1.0.0"


def spmm(
    A: sp.spmatrix,
    B: np.ndarray,
    method: str = "cell",
    device=None,
    **format_kwargs,
):
    """One-call SpMM: ``C = A @ B`` through a chosen format/kernel pair.

    Parameters
    ----------
    A, B:
        Sparse matrix and dense operand.
    method:
        ``"cell"`` (CELL format, optionally with ``num_partitions`` /
        ``max_widths``), ``"csr"``, ``"sputnik"``, ``"dgsparse"``,
        ``"taco"``, ``"bcsr"``, ``"ell"``, or ``"sliced-ell"``.
    device:
        Optional :class:`repro.gpu.SimulatedDevice` for the measurement.

    Returns
    -------
    (C, measurement):
        The numeric product and the simulated-device measurement.
    """
    from repro.formats.base import as_csr
    from repro.gpu import SimulatedDevice
    from repro.kernels.registry import resolve

    fmt_cls, kernel_cls = resolve(method)
    fmt = fmt_cls.from_csr(as_csr(A), **format_kwargs)
    return kernel_cls().run(fmt, np.asarray(B), device or SimulatedDevice())


#: Serving-layer names importable from the top level (resolved lazily so
#: ``import repro`` stays light).
_SERVE_EXPORTS = (
    "SpMMServer",
    "OpRequest",
    "OpResponse",
    "ResponseStatus",
    "PlanCache",
    "WorkloadSpec",
    "generate_workload",
    "Scheduler",
    "Batcher",
    "ClusterFrontend",
    "ShardRing",
)


def __getattr__(name: str):
    if name in _SERVE_EXPORTS:
        import repro.serve as serve

        return getattr(serve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["spmm", "__version__", *_SERVE_EXPORTS]
