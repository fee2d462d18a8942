"""Workload-independent parts of the benchmark: spans, statistics, the timed loop.

Nothing here imports numpy or pickdisc, so the runner can pin the BLAS
thread variables before either is loaded.
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# CLOCK_MONOTONIC on Linux: one clock for every process on the machine, so
# timestamps taken in a child process line up with the parent's spans.
clock_ns = time.monotonic_ns

# At least this many operations must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def tail_percentile(n_ops: int) -> float | None:
    """Highest percentile with at least TAIL_BEYOND operations beyond it.

    With nearest-rank percentiles, the value at sorted position
    ``n - TAIL_BEYOND - 1`` has exactly ``TAIL_BEYOND`` operations above it,
    and it is the ``100 * (n - TAIL_BEYOND) / n`` percentile.  Fewer than
    ``TAIL_BEYOND + 1`` operations have no such percentile.
    """
    if n_ops <= TAIL_BEYOND:
        return None
    return 100.0 * (n_ops - TAIL_BEYOND) / n_ops


def tail_value(durations: list) -> float:
    """The operation time at `tail_percentile`; the maximum when there is none."""
    ordered = sorted(durations)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1]
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def covered_length(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    """In-memory spans and counters, written out once when the run ends.

    A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the
    index of the enclosing span (or -1) and ``op`` the operation id (-1 for
    set-up).  Counters are named lists of values recorded beside the spans.
    """

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.kinds: dict = {}  # operation id -> kind of input
        self._stack: list = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock_ns(), 0, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = clock_ns()

    def add_span(self, name: str, start_ns: int, end_ns: int, parent: int | None = None) -> int:
        """Record a finished span measured elsewhere; the parent defaults to the open span."""
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent, self.op])
        return len(self.spans) - 1

    def count(self, name: str, value) -> None:
        self.counts.setdefault(name, []).append(value)

    def durations_ms(self, name: str) -> list:
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name]

    def children(self) -> dict:
        kids: dict = {}
        for index, span in enumerate(self.spans):
            kids.setdefault(span[3], []).append(index)
        return kids

    def self_times_ms(self, name: str) -> list:
        """Self time of each span called ``name``: duration minus child coverage."""
        kids = self.children()
        out = []
        for index, (span_name, start, end, _parent, _op) in enumerate(self.spans):
            if span_name != name:
                continue
            child_iv = [(self.spans[k][1], self.spans[k][2]) for k in kids.get(index, ())]
            out.append((end - start - covered_length(child_iv, start, end)) / 1e6)
        return out

    def child_overruns(self) -> int:
        """Spans whose children's durations add up to more than the span itself."""
        kids = self.children()
        bad = 0
        for index, (_name, start, end, _parent, _op) in enumerate(self.spans):
            inner = sum(self.spans[k][2] - self.spans[k][1] for k in kids.get(index, ()))
            if inner > end - start:
                bad += 1
        return bad


class NullTracer:
    """Tracing switched off: spans and counters cost one call and record nothing."""

    enabled = False
    op = -1

    @contextmanager
    def span(self, name: str):
        yield

    def add_span(self, name: str, start_ns: int, end_ns: int, parent: int | None = None) -> int:
        return -1

    def count(self, name: str, value) -> None:
        pass


def run_process(argv: list, timeout_s: float, **popen_kwargs) -> subprocess.CompletedProcess:
    """Run a child to completion, killing it after ``timeout_s``.

    `subprocess.run` with a timeout reaps the child by polling with
    sleeps of up to 50 ms, which would quantize the timings; here the
    wait blocks and a timer thread enforces the timeout.
    """
    with subprocess.Popen(argv, **popen_kwargs) as proc:
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            timer.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def median_or_zero(values) -> float:
    """Median of the values; 0 when the run made no such call."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean_or_zero(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def environment_stamp(seed: int) -> dict:
    """What two results must share before their numbers may be compared."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
    }


def run_closed_loop(workload, state, seconds: float, tracer) -> dict:
    """Run whole cycles of operations, one at a time, for at least ``seconds``.

    Each cycle's inputs are generated before it and its outputs checked
    after it, so neither counts toward the timed phase.  The loop stops at
    the first cycle boundary after ``seconds`` of timed work, which keeps
    the operation mix identical from run to run.
    """
    durations: list = []
    op_kinds: list = []
    failures: list = []
    busy_ns = 0
    index = 0
    while busy_ns < seconds * 1e9:
        batch = [workload.make_input(state, index + k) for k in range(workload.CYCLE)]
        outcomes = []
        cycle_start = clock_ns()
        for k, inp in enumerate(batch):
            tracer.op = index + k
            t0 = clock_ns()
            try:
                with tracer.span("op"):
                    out = workload.run_op(state, inp, tracer)
            except Exception as exc:  # an unexpected exception is a failed operation
                out = exc
            durations.append((clock_ns() - t0) / 1e6)
            outcomes.append(out)
        busy_ns += clock_ns() - cycle_start
        tracer.op = -1
        for k, (inp, out) in enumerate(zip(batch, outcomes)):
            kind = workload.kind(inp)
            op_kinds.append(kind)
            if tracer.enabled:
                tracer.kinds[index + k] = kind
            if isinstance(out, Exception):
                problem = f"{type(out).__name__}: {out}"
            else:
                try:
                    problem = workload.check(state, inp, out)
                except Exception as exc:  # output too malformed to check
                    problem = f"output check raised {type(exc).__name__}: {exc}"
            if problem:
                failures.append({"op": index + k, "kind": kind, "problem": problem})
        index += workload.CYCLE
    by_kind: dict = {}
    for kind, ms in zip(op_kinds, durations):
        by_kind.setdefault(kind, []).append(ms)
    return {
        "durations_ms": durations,
        "busy_s": busy_ns / 1e9,
        "mix": {kind: len(v) for kind, v in sorted(by_kind.items())},
        "kind_p50_ms": {kind: statistics.median(v) for kind, v in sorted(by_kind.items())},
        "failures": failures,
    }
