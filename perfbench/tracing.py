"""Spans and counters around the calls into each cascadeg2 layer.

While a :class:`Tracer` is active it replaces each traced public function at
every cascadeg2 module attribute that refers to it, so callers inside the
package go through the wrapper too, and counts the scipy calls that
``correlate`` and ``liouvillian`` make.  Spans are kept in memory.  Pool
workers forked during a traced request inherit the wrappers and the open
request span; each writes its spans to a file of its own when it exits, and
:meth:`Tracer.collect` merges those files.  A worker that dies without
exiting loses its spans, which trace.spans_missing then reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

# Layer functions that get a span: "<module>.<function>" under cascadeg2.
SPANS = (
    "cli.run_figure",
    "observables.degree_of_correlation",
    "observables.bell_s_shortcut",
    "correlate.correlation_curve",
    "correlate.g2_analytic",
    "correlate.g2_numeric_grid",
    "correlate.g2_avg_numeric",
    "correlate.g2_avg_analytic",
    "liouvillian.build_generator",
    "liouvillian.evolve_grid",
)

# Counter name -> (cascadeg2 module, scipy function it calls, amount per call).
COUNTERS = {
    "correlate.expm.calls": ("correlate", "expm", lambda result: 1),
    "correlate.solve_ivp.nfev": ("correlate", "solve_ivp", lambda result: result.nfev),
    "liouvillian.solve_ivp.nfev": ("liouvillian", "solve_ivp", lambda result: result.nfev),
}

AVERAGES = ("correlate.g2_avg_analytic", "correlate.g2_avg_numeric")
REQUEST = "request"

# (name, unit) of every per-layer metric, in report order.
METRICS = tuple(
    [(f"{span}.{part}", unit) for span in SPANS
     for part, unit in (("calls", "count/req"), ("busy_ms", "ms/req"), ("self_ms", "ms/req"))]
    + [(name, "count/req") for name in COUNTERS]
    + [("observables.averages_per_point", "count/point"),
       ("trace.spans_missing", "count"),
       ("trace.overhead_ms", "ms/req"),
       ("trace.overhead_pct", "%")])


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, worker_dir: Path):
        self.spans: list[tuple] = []  # (name, id, parent id, request, pid, start, end)
        self.counts: Counter = Counter()
        self.main_pid = os.getpid()
        self._pid = self.main_pid
        self._prefix = str(self.main_pid)  # of span ids made in this process
        self._worker_dir = worker_dir
        self._stack: list[tuple[str, int]] = []  # (span id, request) of open spans
        self._ids = itertools.count()
        self._recording = False
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(f"cascadeg2.{layer}")
                   for layer in ("cli", "observables", "correlate", "liouvillian",
                                 "model", "verify")]
        modules += [sys.modules["cascadeg2"]]
        for name in SPANS:
            layer, attr = name.split(".")
            fn = getattr(importlib.import_module(f"cascadeg2.{layer}"), attr, None)
            if fn is None:  # removed from the package: the span stays empty
                continue
            wrapper = self._span_wrapper(name, fn)
            for module in modules:
                if getattr(module, attr, None) is fn:
                    self._patch(module, attr, wrapper)
        for name, (layer, attr, amount) in COUNTERS.items():
            module = importlib.import_module(f"cascadeg2.{layer}")
            fn = getattr(module, attr, None)
            if fn is not None:
                self._patch(module, attr, self._count_wrapper(name, fn, amount))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Root span of one benchmark request; spans record only inside it."""
        span_id = f"{self._prefix}.{next(self._ids)}"
        self._stack.append((span_id, request_id))
        self._recording = True
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._recording = False
            self._stack.pop()
            self.spans.append((REQUEST, span_id, None, request_id, self._pid, start, end))

    def _check_process(self) -> None:
        pid = os.getpid()
        if pid != self._pid:  # first traced call in a forked pool worker
            self._pid = pid
            # A pid can come back in a later pool; the clock keeps ids unique.
            self._prefix = f"{pid}.{time.monotonic_ns()}"
            self.spans, self.counts = [], Counter()
            # Pool workers leave through os._exit, which skips atexit; their
            # multiprocessing exit hook runs finalizers of priority >= 0.
            multiprocessing.util.Finalize(None, self._write_worker_file, exitpriority=0)

    def _write_worker_file(self) -> None:
        # A fresh name per worker process, since the system may reuse pids.
        fd, _ = tempfile.mkstemp(prefix=f"worker-{self._pid}-", suffix=".json",
                                 dir=self._worker_dir)
        with open(fd, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            self._check_process()
            parent, request = self._stack[-1]
            span_id = f"{self._prefix}.{next(self._ids)}"
            self._stack.append((span_id, request))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((name, span_id, parent, request, self._pid, start, end))
        return traced

    def _count_wrapper(self, name: str, fn, amount):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._recording:
                self._check_process()
                self.counts[name] += amount(result)
            return result
        return counted

    def collect(self) -> None:
        """Merge the spans and counts that pool workers wrote."""
        for path in sorted(self._worker_dir.glob("worker-*.json")):
            worker = json.loads(path.read_text(encoding="utf-8"))
            self.spans.extend(tuple(span) for span in worker["spans"])
            self.counts.update(worker["counts"])

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("name", "id", "parent", "request", "pid", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def pool_workers_observed(self) -> int:
        """Most distinct worker processes that ran spans of one request."""
        pids = defaultdict(set)
        for _, _, _, request, pid, _, _ in self.spans:
            if pid != self.main_pid:
                pids[request].add(pid)
        return max((len(p) for p in pids.values()), default=0)


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans, counts, requests: int, points: int) -> dict[str, float]:
    """Per-layer metrics per request; self time excludes time covered by child spans.

    ``points`` is the number of sweep points the traced requests evaluated.
    Each one runs one observables call under cli.run_figure, in a pool worker
    or in-process; trace.spans_missing counts those that never reached the
    trace.
    """
    children = defaultdict(list)
    names = {}
    for name, span_id, parent, _, _, start, end in spans:
        children[parent].append((start, end))
        names[span_id] = name
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    averages = point_spans = 0
    for name, span_id, parent, _, _, start, end in spans:
        total = totals[name]
        total[0] += 1
        total[1] += end - start
        total[2] += end - start - _covered(children[span_id], start, end)
        parent_name = names.get(parent, "")
        averages += name in AVERAGES and parent_name.startswith("observables.")
        point_spans += name.startswith("observables.") and parent_name == "cli.run_figure"
    metrics = {}
    for name in SPANS:
        calls, busy, own = totals[name]
        metrics[f"{name}.calls"] = calls / requests
        metrics[f"{name}.busy_ms"] = 1e3 * busy / requests
        metrics[f"{name}.self_ms"] = 1e3 * own / requests
    for name in COUNTERS:
        metrics[name] = counts[name] / requests
    metrics["observables.averages_per_point"] = averages / points if points else 0.0
    metrics["trace.spans_missing"] = points - point_spans
    return metrics
