"""Save/load trained LiteForm pipelines.

Training data generation is the expensive, amortized step (Section 5.1);
persisting the fitted predictors lets deployments skip it entirely.  The
models are plain NumPy-backed Python objects, serialized with pickle.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro.core.pipeline import LiteForm

#: Format tag checked on load, bumped on incompatible changes.
MAGIC = "repro-liteform-v2"


def save_liteform(lf: LiteForm, path: str | Path) -> None:
    """Serialize a fitted LiteForm's predictors to ``path``."""
    if not lf._fitted:
        raise ValueError("cannot save an unfitted LiteForm; call fit() first")
    payload = {
        "magic": MAGIC,
        "selector": lf.selector,
        "partition_model": lf.partition_model,
        "block_multiple": lf.block_multiple,
        "bcsr_occupancy_threshold": lf.bcsr_occupancy_threshold,
    }
    with Path(path).open("wb") as fh:
        pickle.dump(payload, fh)


def load_liteform(path: str | Path) -> LiteForm:
    """Load a LiteForm saved by :func:`save_liteform`."""
    with Path(path).open("rb") as fh:
        try:
            payload = pickle.load(fh)
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
            # A truncated file, or a bundle naming classes this version
            # no longer has (v1 pickled the trees' node objects).
            raise ValueError(
                f"{path} does not load as a {MAGIC!r} model bundle "
                f"({type(exc).__name__}: {exc}); re-save the models with this version"
            ) from exc
    if not isinstance(payload, dict) or "magic" not in payload:
        raise ValueError(f"{path} is not a saved LiteForm model bundle")
    if payload["magic"] != MAGIC:
        raise ValueError(
            f"{path} has incompatible bundle tag {payload['magic']!r} "
            f"(expected {MAGIC!r}); re-save the models with this version"
        )
    lf = LiteForm(
        selector=payload["selector"],
        partition_model=payload["partition_model"],
        block_multiple=payload["block_multiple"],
        bcsr_occupancy_threshold=payload["bcsr_occupancy_threshold"],
    )
    lf._fitted = True
    return lf
