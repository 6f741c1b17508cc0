"""Online adaptive format selection from serving telemetry.

The Section 5 selector is trained *offline* on a static collection, but
serving traffic drifts: a kernel regression, a thermal event, or a shift
in the request mix can silently invert the CELL-vs-fixed decision the
Random Forest froze at training time.  :class:`FormatBandit` closes the
loop with a per-fingerprint contextual bandit:

* **arms** — the three format families the pipeline can produce
  (:data:`ARMS`): composed CELL (``force_cell``), plain CSR row-split,
  and 8x8 BCSR;
* **context** — the same seven Table 2 features the static selector
  uses, cached per plan key so accumulated rewards can later be turned
  back into :class:`~repro.core.training.FormatSelectionSample` rows and
  refit the offline model on matrices actually served;
* **reward** — the *simulated kernel latency* of every successful
  request (the same per-request ``exec_ms`` that feeds
  :class:`~repro.serve.metrics.ServerMetrics`), tracked per arm as
  exponentially discounted statistics so a mid-trace drift moves the
  posterior within a handful of observations;
* **selection** — seeded Gaussian Thompson sampling: each decision draws
  one latency sample per arm from ``N(mean, std / sqrt(weight))`` and
  plays the smallest draw.  Unobserved arms draw from an optimistic
  near-zero prior, so every arm is forced once before the posterior can
  converge.  The bandit stays silent (defers to the static selector)
  until some arm for the key has :attr:`~FormatBandit.min_obs`
  observations — the static model seeds the bandit's first arm, then
  hands over.

The server consults the bandit on every request (hit or miss); a
decision that differs from the arm of the cached plan *re-pins* the
cache entry to the newly chosen arm's plan.  State is pickled with a
magic tag (:data:`BANDIT_MAGIC`), and per-key state moves with its plans
on shard migration (see ``docs/ADAPTIVE.md``).

:class:`FormatDriftDevice` is the companion chaos tool: a
:class:`~repro.gpu.device.SimulatedDevice` whose latency drifts against
one kernel family mid-trace, making the statically chosen format
persistently wrong — the scenario ``benchmarks/test_ext_adaptive.py``
uses to show the bandit recovering oracle throughput.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.pipeline import ComposePlan, LiteForm, OverheadBreakdown
from repro.core.training import FormatSelectionSample, TrainingData
from repro.formats.bcsr import BCSRFormat
from repro.formats.csr import CSRFormat
from repro.gpu.device import SimulatedDevice
from repro.gpu.stats import KernelStats, Measurement
from repro.kernels.bcsr_spmm import BCSRSpMM
from repro.kernels.csr_spmm import RowSplitCSRSpMM
from repro.matrices.features import format_selection_features
from repro.serve.fingerprint import PlanKey

#: The bandit's arms — the format families the pipeline can produce.
ARMS: tuple[str, ...] = ("cell", "csr", "bcsr")

#: Format tag checked on load, bumped on incompatible changes.  v2 state is
#: keyed by :class:`~repro.serve.fingerprint.PlanKey`, v1 by key strings.
BANDIT_MAGIC = "repro-banditstate-v2"

#: Observations some arm of a key needs before the bandit overrides the
#: static selector for that key.
DEFAULT_MIN_OBS = 3

#: Probability of playing a uniformly random arm *before* the handoff
#: threshold is reached (forced early exploration; 0 = pure handoff).
DEFAULT_EXPLORE = 0.05

#: Per-observation discount of older reward statistics.  The effective
#: window is ``1 / (1 - DECAY)`` observations, so a drifted arm's
#: posterior mean crosses over within a few samples.
DECAY = 0.7


def plan_arm(plan: ComposePlan) -> str:
    """The bandit arm a composed plan corresponds to."""
    if plan.use_cell:
        return "cell"
    if isinstance(plan.fmt, BCSRFormat):
        return "bcsr"
    return "csr"


def build_arm_plan(liteform: LiteForm, A: sp.csr_matrix, J: int, arm: str) -> ComposePlan:
    """Build the plan of one bandit arm directly (no ML selection).

    The ``cell`` arm runs the full composition pipeline with the
    selector forced (``force_cell=True``); the fixed arms build their
    format in one pass, charged to the plan's build time like the
    server's CSR fallback.
    """
    if arm == "cell":
        return liteform.compose_csr(A, max(1, J), force_cell=True)
    tb = time.perf_counter()
    if arm == "csr":
        fmt, kernel = CSRFormat.from_csr(A), RowSplitCSRSpMM()
    elif arm == "bcsr":
        fmt, kernel = BCSRFormat.from_csr(A, block_shape=(8, 8)), BCSRSpMM()
    else:
        raise ValueError(f"unknown arm {arm!r}; choose from {list(ARMS)}")
    build_s = time.perf_counter() - tb
    return ComposePlan(
        use_cell=False,
        fmt=fmt,
        kernel=kernel,
        num_partitions=1,
        overhead=OverheadBreakdown(0.0, 0.0, 0.0, build_s),
    )


@dataclass
class ArmStats:
    """Exponentially discounted latency statistics of one (key, arm).

    ``count`` is the raw observation count (drives the ``min_obs``
    handoff); ``weight`` is the discounted sample weight the posterior
    width uses, capped at ``1 / (1 - decay)`` so old evidence cannot
    pin a drifted arm forever.
    """

    count: int = 0
    weight: float = 0.0
    mean_ms: float = 0.0
    var_ms2: float = 0.0

    def observe(self, value_ms: float, decay: float) -> None:
        self.count += 1
        w = self.weight * decay
        total = w + 1.0
        delta = float(value_ms) - self.mean_ms
        self.mean_ms += delta / total
        self.var_ms2 = (w * self.var_ms2 + (float(value_ms) - self.mean_ms) * delta) / total
        self.var_ms2 = max(0.0, self.var_ms2)
        self.weight = total

    @property
    def std_ms(self) -> float:
        return math.sqrt(self.var_ms2)

    def as_tuple(self) -> tuple[int, float, float, float]:
        return (self.count, self.weight, self.mean_ms, self.var_ms2)

    @classmethod
    def from_tuple(cls, t) -> "ArmStats":
        count, weight, mean_ms, var_ms2 = t
        return cls(
            count=int(count),
            weight=float(weight),
            mean_ms=float(mean_ms),
            var_ms2=float(var_ms2),
        )


class FormatBandit:
    """Per-fingerprint Thompson-sampling bandit over :data:`ARMS`.

    Fully deterministic: the same request/latency sequence under the
    same ``seed`` produces the same arm choices (the RNG is consumed in
    a fixed order per :meth:`select` call).
    """

    arms = ARMS
    decay = DECAY
    #: Spread (ms) of an untried arm's optimistic draw around zero, and
    #: the floor of every posterior's width.
    prior_std_ms = 1e-3

    def __init__(
        self,
        min_obs: int = DEFAULT_MIN_OBS,
        explore: float = DEFAULT_EXPLORE,
        seed: int = 0,
    ):
        if min_obs < 1:
            raise ValueError(f"min_obs must be >= 1, got {min_obs}")
        if not 0.0 <= explore <= 1.0:
            raise ValueError(f"explore must be in [0, 1], got {explore}")
        self.min_obs = int(min_obs)
        self.explore = float(explore)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        #: key -> arm -> discounted reward statistics.
        self._stats: dict[PlanKey, dict[str, ArmStats]] = {}
        #: key -> cached Table 2 feature vector (the bandit's context and
        #: the feature rows of :meth:`training_samples`).
        self._context: dict[PlanKey, np.ndarray] = {}
        # Lifetime counters, mirrored onto ServerMetrics by the server.
        self.observations = 0
        self.overrides = 0
        self.explorations = 0
        self.retrains = 0

    # -- reward ---------------------------------------------------------
    def observe(
        self,
        key: PlanKey,
        arm: str,
        exec_ms: float,
        A: sp.csr_matrix | None = None,
    ) -> None:
        """Record one successful request's simulated latency for ``arm``."""
        if arm not in self.arms:
            raise ValueError(f"unknown arm {arm!r}; choose from {list(self.arms)}")
        if A is not None and key not in self._context:
            self._context[key] = format_selection_features(A)
        stats = self._stats.setdefault(key, {a: ArmStats() for a in self.arms})
        stats[arm].observe(exec_ms, self.decay)
        self.observations += 1

    def key_observations(self, key: PlanKey) -> int:
        """Total observations recorded for ``key`` across all arms."""
        stats = self._stats.get(key)
        return sum(s.count for s in stats.values()) if stats else 0

    def key_observations_total(self) -> int:
        """Total observations across every tracked key (0 = no evidence)."""
        return sum(
            s.count for stats in self._stats.values() for s in stats.values()
        )

    def ready(self, key: PlanKey) -> bool:
        """True once some arm of ``key`` has ``min_obs`` observations —
        the static -> bandit handoff point."""
        stats = self._stats.get(key)
        if not stats:
            return False
        return max(s.count for s in stats.values()) >= self.min_obs

    # -- selection ------------------------------------------------------
    def select(self, key: PlanKey) -> str | None:
        """Choose an arm for ``key``, or None to defer to the static
        selector (before the handoff, modulo forced exploration)."""
        if not self.ready(key):
            if self.explore > 0.0 and float(self._rng.random()) < self.explore:
                self.explorations += 1
                return str(self.arms[int(self._rng.integers(len(self.arms)))])
            return None
        stats = self._stats[key]
        best, best_draw = None, math.inf
        for arm in self.arms:
            s = stats[arm]
            if s.count == 0:
                # Optimistic prior near zero latency: an untried arm
                # always wins its first post-handoff draw.
                draw = float(self._rng.normal(0.0, self.prior_std_ms))
            else:
                scale = max(s.std_ms, self.prior_std_ms) / math.sqrt(s.weight)
                draw = float(self._rng.normal(s.mean_ms, scale))
            if draw < best_draw:
                best, best_draw = arm, draw
        self.overrides += 1
        return best

    # -- persistence and migration --------------------------------------
    def state_dict(self, keys=None) -> dict:
        """Picklable per-key state (all keys, or a migration subset)."""
        if keys is None:
            selected = list(self._stats)
        else:
            selected = [k for k in keys if k in self._stats]
        return {
            "magic": BANDIT_MAGIC,
            "min_obs": self.min_obs,
            "explore": self.explore,
            "seed": self.seed,
            "stats": {
                k: {a: s.as_tuple() for a, s in self._stats[k].items()}
                for k in selected
            },
            "context": {
                k: np.asarray(self._context[k])
                for k in selected
                if k in self._context
            },
        }

    def merge_state(self, state: dict) -> int:
        """Adopt per-key state for keys this bandit has not seen yet
        (migration warm start; locally observed keys keep local stats).
        Returns the number of keys adopted."""
        if not isinstance(state, dict) or state.get("magic") != BANDIT_MAGIC:
            raise ValueError(
                f"not a bandit state bundle (expected magic {BANDIT_MAGIC!r})"
            )
        adopted = 0
        for key, arms in state["stats"].items():
            if key in self._stats:
                continue
            self._stats[key] = {
                a: ArmStats.from_tuple(arms.get(a, (0, 0.0, 0.0, 0.0)))
                for a in self.arms
            }
            context = state.get("context", {}).get(key)
            if context is not None:
                self._context[key] = np.asarray(context)
            adopted += 1
        return adopted

    def save(self, path: str | Path) -> None:
        """Write the full bandit state to ``path`` (magic-tagged pickle)."""
        with Path(path).open("wb") as fh:
            pickle.dump(self.state_dict(), fh)

    @classmethod
    def load(cls, path: str | Path, **overrides) -> "FormatBandit":
        """Rebuild a bandit from a :meth:`save` bundle.  Keyword
        overrides replace the saved hyperparameters (e.g. a different
        ``explore`` for the restored instance).  A ``decay`` entry, which
        bundles written before it became the constant :data:`DECAY`
        carry, is ignored."""
        with Path(path).open("rb") as fh:
            state = pickle.load(fh)
        if not isinstance(state, dict) or state.get("magic") != BANDIT_MAGIC:
            raise ValueError(f"{path} is not a saved bandit-state bundle")
        params = {
            "min_obs": state["min_obs"],
            "explore": state["explore"],
            "seed": state["seed"],
        }
        params.update(overrides)
        bandit = cls(**params)
        bandit.merge_state(state)
        return bandit

    # -- feedback into the offline model --------------------------------
    def training_samples(self) -> list[FormatSelectionSample]:
        """Turn accumulated rewards into Table 2 training rows.

        A key contributes once it has context features, at least one
        CELL observation, and at least one fixed-arm observation — the
        same label rule as offline training
        (:func:`repro.core.training.serving_format_sample`).
        """
        from repro.core.training import serving_format_sample

        samples = []
        for key, stats in self._stats.items():
            features = self._context.get(key)
            if features is None:
                continue
            cell = stats["cell"]
            fixed = [s.mean_ms for a, s in stats.items() if a != "cell" and s.count]
            if not cell.count or not fixed or cell.mean_ms <= 0.0:
                continue
            samples.append(
                serving_format_sample(
                    name=str(key),
                    features=features,
                    cell_time_s=cell.mean_ms / 1e3,
                    fixed_time_s=min(fixed) / 1e3,
                )
            )
        return samples

    def retrain(
        self,
        liteform: LiteForm,
        source: TrainingData | None = None,
        target_weight: int = 4,
    ) -> int:
        """Refit the static format selector on matrices actually served.

        Returns the number of serving-derived samples used (0 = nothing
        to learn from yet; the selector is left untouched).
        """
        from repro.core.transfer import refit_format_selector

        samples = self.training_samples()
        if not samples:
            return 0
        refit_format_selector(
            liteform,
            TrainingData(format_samples=samples),
            source=source,
            target_weight=target_weight,
        )
        self.retrains += 1
        return len(samples)


@dataclass
class FormatDriftDevice(SimulatedDevice):
    """A device whose latency drifts against one kernel family.

    Launches whose :attr:`~repro.gpu.stats.KernelStats.label` starts
    with any of ``slow_prefixes`` run ``slowdown`` times slower once the
    drift is active.  The drift activates when :attr:`drifted` is set
    directly (the benchmark's two-phase replay), or automatically after
    ``shift_after_launches`` launches (the CLI's ``--drift-after``),
    modelling e.g. a thermal event or a driver regression that hits one
    kernel family mid-trace.

    Default prefixes target the CELL kernel (labels ``cell`` /
    ``cell[w=N]``); use ``("cusparse",)`` for CSR row-split or
    ``("triton",)`` for BCSR.
    """

    slow_prefixes: tuple[str, ...] = ("cell",)
    slowdown: float = 4.0
    #: Launches before the drift activates on its own (None = only via
    #: :attr:`drifted`).
    shift_after_launches: int | None = None
    drifted: bool = False

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown}")
        self.launches = 0

    def measure(self, stats: KernelStats) -> Measurement:
        measurement = super().measure(stats)
        self.launches += 1
        if (
            not self.drifted
            and self.shift_after_launches is not None
            and self.launches > self.shift_after_launches
        ):
            self.drifted = True
        label = stats.label or ""
        if self.drifted and label.startswith(self.slow_prefixes):
            f = self.slowdown
            measurement = Measurement(
                time_s=measurement.time_s * f,
                breakdown=measurement.breakdown.scaled_to(measurement.time_s * f),
                stats=measurement.stats,
                compute_throughput=measurement.compute_throughput / f,
            )
        return measurement
