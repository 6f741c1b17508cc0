"""Nested-span tracing with Chrome trace-event export.

A :class:`Tracer` records wall-clock spans (monotonic ``perf_counter``
timestamps) arranged in a per-thread nesting stack::

    tracer = Tracer()
    with tracer.span("bucket_search", matrix=name) as s:
        ...
        s.set(buckets=len(result))

Spans can carry a **distributed trace context**: a :class:`TraceContext`
(trace id plus an optional causal parent span id) minted once at an
ingress point and threaded through every component that touches the same
logical request.  A span opened with ``tracer.span(name, ctx=ctx)``
records ``ctx.trace_id``; child spans opened below it on the same stack
inherit the trace id automatically, so one explicit ``ctx`` at the
request root tags the whole subtree — including spans recorded by a
*different* tracer in a different component (each serving shard owns a
private tracer; see :func:`repro.obs.merge.merge_traces` for stitching
the lanes back together by trace id).

Finished spans export to the Chrome trace-event JSON format (open
``chrome://tracing`` or https://ui.perfetto.dev and load the file) via
:meth:`Tracer.chrome_trace` / :meth:`Tracer.write`, and to a plain-text
flame summary via :meth:`Tracer.flame_summary`.

The module-level tracer defaults to a shared :class:`NullTracer` whose
``span`` is a no-op returning a reusable context manager, so
instrumented hot paths (``LiteForm.compose_csr``, ``SpMMServer.serve``,
``SimulatedDevice.measure``) pay only a function call and an empty
``with`` block when tracing is disabled — under 2% of a single compose
(asserted by ``tests/test_obs_integration.py``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Monotonic clock used for every span timestamp.
CLOCK = time.perf_counter

#: Process-wide source of fresh trace ids (see :func:`mint_trace_id`).
_trace_ids = itertools.count(1)


def mint_trace_id(prefix: str = "trace") -> str:
    """A fresh process-unique trace id (``prefix-000001``, ...)."""
    return f"{prefix}-{next(_trace_ids):06d}"


@dataclass(frozen=True)
class TraceContext:
    """Propagated identity of one logical request across components.

    ``trace_id`` names the request; ``parent_span_id`` optionally points
    at the span (in the *originating* tracer) that caused the work, so a
    merged trace can reconstruct causality across tracer lanes.  The
    context is immutable — hand the same instance to every component the
    request flows through.
    """

    trace_id: str
    parent_span_id: int | None = None

    @classmethod
    def mint(cls, prefix: str = "trace") -> "TraceContext":
        """Mint a context with a fresh process-unique trace id."""
        return cls(trace_id=mint_trace_id(prefix))

    def child(self, span_id: int) -> "TraceContext":
        """The same trace, re-parented under ``span_id``."""
        return TraceContext(trace_id=self.trace_id, parent_span_id=span_id)


@dataclass(slots=True)
class Span:
    """One finished (or active) traced operation.

    A span opened by :meth:`Tracer.span` is its own context manager: it
    enters the nesting stack of the thread that opened it and, on exit,
    stamps its end and joins the tracer's finished spans.
    """

    name: str
    span_id: int
    parent_id: int | None
    tid: int
    start_s: float
    end_s: float | None = None
    attributes: dict = field(default_factory=dict)
    #: Distributed trace id (inherited from the parent span or set by an
    #: explicit :class:`TraceContext`); None for untagged spans.
    trace_id: str | None = None
    #: While the span is live: the opening thread's nesting stack and the
    #: tracer's finished list.  Both are dropped when the span ends.
    _stack: list | None = field(default=None, repr=False, compare=False)
    _finished: list | None = field(default=None, repr=False, compare=False)

    def __enter__(self) -> "Span":
        self._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end_s = CLOCK()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # pragma: no cover - misuse guard (out-of-order exit)
            try:
                stack.remove(self)
            except ValueError:
                pass
        self._finished.append(self)
        self._stack = self._finished = None

    def set(self, **attributes: object) -> "Span":
        """Attach attributes to the span mid-flight; returns ``self``."""
        self.attributes.update(attributes)
        return self

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0


class _NullSpan:
    """The do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def set(self, **attributes: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


#: Single reusable no-op span: stateless, so safe to re-enter and share.
NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: ``span()`` returns the shared no-op context."""

    enabled = False

    def span(
        self, name: str, /, ctx: object = None, **attributes: object
    ) -> _NullSpan:  # noqa: ARG002
        return NULL_SPAN

    @property
    def spans(self) -> tuple[Span, ...]:
        return ()


#: The shared disabled tracer installed by default.
NULL_TRACER = NullTracer()


class Tracer:
    """Thread-safe recorder of nested wall-clock spans."""

    enabled = True

    def __init__(self, name: str = "repro"):
        self.name = name
        # Appending, clearing and copying a list are atomic, so finished
        # spans need no lock.
        self._finished: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    def span(
        self, name: str, /, ctx: TraceContext | None = None, **attributes: object
    ) -> Span:
        """Open a span; use as ``with tracer.span("stage", key=val) as s:``.

        ``ctx`` tags the span (and, via stack inheritance, its whole
        subtree) with a distributed trace id.  Without ``ctx`` the span
        inherits the trace id of its parent on the nesting stack, so only
        request roots need an explicit context.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        # ``attributes`` is this call's own fresh dict: the span keeps it.
        if ctx is not None:
            trace_id = ctx.trace_id
            if parent is None and ctx.parent_span_id is not None:
                # Causal link into another tracer's lane (e.g. the
                # cluster frontend's ingress span).
                attributes["link_span_id"] = ctx.parent_span_id
        else:
            trace_id = parent.trace_id if parent is not None else None
        # Positional in field order: keyword matching doubles the cost of
        # constructing the span on this hot path.
        return Span(
            name,
            next(self._ids),
            parent.span_id if parent is not None else None,
            threading.get_ident(),
            CLOCK(),
            None,  # end_s
            attributes,
            trace_id,
            stack,
            self._finished,
        )

    def reset(self) -> None:
        """Drop all finished spans (active spans are unaffected)."""
        self._finished.clear()

    # ------------------------------------------------------------------
    @property
    def spans(self) -> tuple[Span, ...]:
        """Finished spans in start order."""
        return tuple(sorted(self._finished, key=lambda s: s.start_s))

    def roots(self) -> tuple[Span, ...]:
        """Finished spans with no parent."""
        return tuple(s for s in self.spans if s.parent_id is None)

    def children_of(self, span: Span) -> tuple[Span, ...]:
        """Direct children of ``span``, in start order."""
        return tuple(s for s in self.spans if s.parent_id == span.span_id)

    def coverage(self) -> float:
        """Fraction of the traced wall-clock interval covered by root spans.

        The interval runs from the earliest span start to the latest span
        end; overlapping root spans (threads) are merged before summing.
        """
        roots = [s for s in self.spans if s.end_s is not None and s.parent_id is None]
        every = [s for s in self.spans if s.end_s is not None]
        if not every:
            return 0.0
        t0 = min(s.start_s for s in every)
        t1 = max(s.end_s for s in every)
        wall = t1 - t0
        if wall <= 0:
            return 1.0
        covered = 0.0
        cur_start = cur_end = None
        for s in sorted(roots, key=lambda s: s.start_s):
            if cur_end is None or s.start_s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s.start_s, s.end_s
            else:
                cur_end = max(cur_end, s.end_s)
        if cur_end is not None:
            covered += cur_end - cur_start
        return min(1.0, covered / wall)

    # ------------------------------------------------------------------
    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON object (complete ``"X"`` events).

        Loadable in ``chrome://tracing`` or Perfetto.  Timestamps are
        microseconds relative to the first span so the viewer timeline
        starts at zero.
        """
        spans = [s for s in self.spans if s.end_s is not None]
        origin = min((s.start_s for s in spans), default=0.0)
        pid = os.getpid()
        events = [span_event(s, pid=pid, origin_s=origin) for s in spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str | Path) -> Path:
        """Serialize :meth:`chrome_trace` to ``path``; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.chrome_trace(), indent=1))
        return path

    def flame_summary(self) -> str:
        """Plain-text aggregate: per span name, count / total / self time.

        *self* time excludes the time spent in a span's direct children,
        so the column sums to (roughly) the traced wall time.
        """
        spans = [s for s in self.spans if s.end_s is not None]
        if not spans:
            return "(no spans recorded)"
        child_s: dict[int, float] = {}
        for s in spans:
            if s.parent_id is not None:
                child_s[s.parent_id] = child_s.get(s.parent_id, 0.0) + s.duration_s
        agg: dict[str, list[float]] = {}
        for s in spans:
            row = agg.setdefault(s.name, [0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration_s
            row[2] += s.duration_s - child_s.get(s.span_id, 0.0)
        wall = sum(s.duration_s for s in spans if s.parent_id is None)
        lines = [f"{'span':24s} {'count':>7s} {'total_ms':>10s} {'self_ms':>10s} {'self%':>7s}"]
        for name, (count, total, self_s) in sorted(
            agg.items(), key=lambda kv: -kv[1][2]
        ):
            pct = (self_s / wall * 100.0) if wall > 0 else 0.0
            lines.append(
                f"{name:24s} {int(count):7d} {total * 1e3:10.3f} "
                f"{self_s * 1e3:10.3f} {pct:6.1f}%"
            )
        return "\n".join(lines)


def span_event(span: Span, *, pid: int, origin_s: float) -> dict:
    """One finished span as a Chrome complete (``"X"``) trace event.

    Shared by :meth:`Tracer.chrome_trace` and the cross-tracer
    :func:`repro.obs.merge.merge_traces` exporter (which assigns each
    tracer its own ``pid`` lane).  ``trace_id`` travels in ``args`` so
    Perfetto queries can follow one request across lanes.
    """
    args = {k: _jsonable(v) for k, v in span.attributes.items()}
    if span.trace_id is not None:
        args["trace_id"] = span.trace_id
    return {
        "name": span.name,
        "ph": "X",
        "ts": (span.start_s - origin_s) * 1e6,
        "dur": span.duration_s * 1e6,
        "pid": pid,
        "tid": span.tid,
        "args": args,
    }


def _jsonable(value: object) -> object:
    """Coerce a span attribute to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        try:
            return value.item()
        except Exception:  # pragma: no cover - defensive
            return str(value)
    return str(value)


# ----------------------------------------------------------------------
# Global tracer: a process-wide default so instrumentation sites do not
# need plumbing.  Defaults to the no-op tracer.
_global_tracer: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The currently installed global tracer (NullTracer by default)."""
    return _global_tracer


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install ``tracer`` globally (``None`` = disable); returns the old one."""
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Scoped installation: ``with tracing() as t: ...`` then inspect ``t``."""
    tracer = tracer or Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
