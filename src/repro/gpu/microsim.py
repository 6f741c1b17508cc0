"""Discrete-event SIMT micro-simulator.

The analytical model of :mod:`repro.gpu.timing` prices kernels from
aggregate statistics.  This module provides an independent, finer-grained
check: a queueing-network simulation of the same kernels at thread-block
granularity, with

* per-block **instruction traces** (alternating memory transactions and
  compute phases) generated from the actual format arrays;
* a shared **memory subsystem** — fixed latency plus a bandwidth-limited
  pipe that serializes transactions (the DRAM bottleneck);
* an **SM dispatcher** with a bounded number of resident-block slots per
  SM, releasing queued blocks as slots free up.

It is intended for *validation* on small matrices (the event loop is pure
Python): ``tests/test_gpu_microsim.py`` and
``benchmarks/test_ext_model_validation.py`` check that the analytical
model and the discrete-event engine rank format configurations the same
way — the property the reproduction's conclusions rest on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.formats.cell import CELLFormat
from repro.formats.csr import CSRFormat
from repro.gpu.device import GPUSpec, V100


@dataclass(frozen=True)
class TraceOp:
    """One step of a block's execution.

    Kinds: ``mem`` (amount = bytes), ``compute`` (amount = MACs), and
    ``bload`` — a gather of dense-operand rows identified by ``rows``;
    the engine resolves it against its L2 model, charging ``amount`` bytes
    per *missing* row only.
    """

    kind: str  # "mem" | "compute" | "bload"
    amount: float  # bytes for mem, MACs for compute, bytes-per-row for bload
    rows: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("mem", "compute", "bload"):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.amount < 0:
            raise ValueError("op amount must be non-negative")


#: A thread block's execution trace.
BlockTrace = list


@dataclass
class MicrosimResult:
    """Outcome of one discrete-event run."""

    cycles: float
    time_s: float
    blocks: int
    mem_busy_cycles: float
    #: Fraction of the makespan the memory pipe was busy (1.0 = saturated).
    memory_utilization: float


class MemorySubsystem:
    """Latency + bandwidth-serialized memory pipe."""

    def __init__(self, bytes_per_cycle: float, latency_cycles: float):
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency_cycles
        self.pipe_free = 0.0
        self.busy_cycles = 0.0

    def issue(self, now: float, num_bytes: float) -> float:
        """Issue a transaction at ``now``; returns its completion time."""
        start = max(now, self.pipe_free)
        service = num_bytes / self.bytes_per_cycle
        self.pipe_free = start + service
        self.busy_cycles += service
        return start + service + self.latency


class _L2Cache:
    """FIFO row cache for the dense operand (capacity in rows)."""

    def __init__(self, capacity_rows: int):
        self.capacity = max(1, int(capacity_rows))
        self._resident: dict = {}

    def access(self, rows) -> int:
        """Insert ``rows``; return how many were misses."""
        misses = 0
        for r in rows:
            if r in self._resident:
                continue
            misses += 1
            self._resident[r] = None
            if len(self._resident) > self.capacity:
                self._resident.pop(next(iter(self._resident)))
        return misses


class DiscreteEventGPU:
    """Event-driven execution of block traces on an SM array."""

    #: MACs retired per SM per cycle (warp-wide FMA pipes).
    COMPUTE_IPC = 64.0

    def __init__(self, spec: GPUSpec | None = None):
        self.spec = spec or V100

    def run(self, traces: list[BlockTrace]) -> MicrosimResult:
        spec = self.spec
        cycles_per_second = spec.clock_ghz * 1e9
        mem = MemorySubsystem(
            bytes_per_cycle=spec.mem_bandwidth_gbs * 1e9 / cycles_per_second,
            latency_cycles=400.0,
        )
        # L2 capacity in dense-operand rows; row size comes from the first
        # bload op encountered (uniform within one kernel).
        row_bytes = next(
            (op.amount for tr in traces for op in tr if op.kind == "bload"), 0.0
        )
        cache = _L2Cache(spec.l2_bytes / row_bytes) if row_bytes > 0 else None
        slots = spec.block_slots
        if not traces:
            return MicrosimResult(0.0, 0.0, 0, 0.0, 0.0)

        # Event queue holds (time, seq, block_id) "block ready for next op".
        pending = list(range(len(traces)))  # launch-order queue
        progress = [0] * len(traces)
        events: list[tuple[float, int, int]] = []
        seq = 0
        active = 0
        finished_at = 0.0

        def start_block(t: float) -> None:
            nonlocal seq, active
            if not pending:
                return
            b = pending.pop(0)
            active += 1
            heapq.heappush(events, (t, seq, b))
            seq += 1

        for _ in range(min(slots, len(traces))):
            start_block(0.0)

        while events:
            t, _, b = heapq.heappop(events)
            trace = traces[b]
            i = progress[b]
            if i >= len(trace):
                # block retired: free the slot
                active -= 1
                finished_at = max(finished_at, t)
                start_block(t)
                continue
            op = trace[i]
            progress[b] += 1
            if op.kind == "mem":
                done = mem.issue(t, op.amount)
            elif op.kind == "bload":
                misses = cache.access(op.rows) if cache is not None else len(op.rows)
                done = mem.issue(t, misses * op.amount) if misses else t
            else:
                done = t + op.amount / self.COMPUTE_IPC
            heapq.heappush(events, (done, seq, b))
            seq += 1

        makespan = finished_at
        return MicrosimResult(
            cycles=makespan,
            time_s=makespan / cycles_per_second,
            blocks=len(traces),
            mem_busy_cycles=mem.busy_cycles,
            memory_utilization=mem.busy_cycles / makespan if makespan > 0 else 0.0,
        )


# ----------------------------------------------------------------------
# Trace generation from formats
# ----------------------------------------------------------------------

def csr_rowsplit_traces(fmt: CSRFormat, J: int, rows_per_block: int = 4) -> list[BlockTrace]:
    """Traces of the cuSPARSE-style row-split kernel (Algorithm 1)."""
    if not isinstance(fmt, CSRFormat):
        raise TypeError("csr_rowsplit_traces requires CSRFormat")
    I = fmt.shape[0]
    lengths = np.diff(fmt.indptr).astype(np.int64)
    traces: list[BlockTrace] = []
    for start in range(0, I, rows_per_block):
        stop = min(start + rows_per_block, I)
        block_rows = lengths[start:stop]
        trace: BlockTrace = []
        # warps run concurrently: the block's critical path is its longest
        # row, but each row's index gather is its own (sector-rounded)
        # transaction — the pointer-chasing cost of short rows.
        longest = int(block_rows.max()) if block_rows.size else 0
        if longest:
            for l in block_rows:
                if l:
                    trace.append(TraceOp("mem", float(-(-int(l) * 8 // 32) * 32)))
            cols = fmt.indices[fmt.indptr[start] : fmt.indptr[stop]]
            trace.append(TraceOp("bload", float(J) * 4, rows=tuple(np.unique(cols))))
            trace.append(TraceOp("compute", float(longest) * J * 2))
        trace.append(TraceOp("mem", float(stop - start) * J * 4))  # C
        traces.append(trace)
    return traces


def cell_traces(fmt: CELLFormat, J: int) -> list[BlockTrace]:
    """Traces of the CELL kernel (Algorithm 2), one per 2^k-element block."""
    if not isinstance(fmt, CELLFormat):
        raise TypeError("cell_traces requires CELLFormat")
    traces: list[BlockTrace] = []
    for _, bucket in fmt.iter_buckets():
        R, W = bucket.num_rows, bucket.width
        indptr, indices, _ = bucket.entries()
        for b0 in range(0, R, bucket.block_rows):
            b1 = min(b0 + bucket.block_rows, R)
            n_rows = b1 - b0
            stored = n_rows * W
            uniq = np.unique(indices[indptr[b0] : indptr[b1]])
            trace: BlockTrace = [
                TraceOp("mem", float(n_rows) * 4),  # rowInd
                TraceOp("mem", float(stored) * 8),  # colInd + val (padded,
                # fully coalesced: exact bytes, no sector rounding)
                TraceOp("bload", float(J) * 4, rows=tuple(uniq)),
                TraceOp("compute", float(stored) * J * 2),
                TraceOp("mem", float(n_rows) * J * 4),  # C (atomic or not)
            ]
            traces.append(trace)
    return traces


def simulate_csr(fmt: CSRFormat, J: int, spec: GPUSpec | None = None) -> MicrosimResult:
    """Convenience: discrete-event run of the row-split CSR kernel."""
    return DiscreteEventGPU(spec).run(csr_rowsplit_traces(fmt, J))


def simulate_cell(fmt: CELLFormat, J: int, spec: GPUSpec | None = None) -> MicrosimResult:
    """Convenience: discrete-event run of the CELL kernel."""
    return DiscreteEventGPU(spec).run(cell_traces(fmt, J))
