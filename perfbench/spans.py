"""Span recording for the traced benchmark run.

The benchmark measures each layer of ``repro`` from outside: it replaces
public functions and methods of the package with wrappers that record a
span (name, start, end, parent span, request id) around every call, keeps
the spans in memory in compact arrays, and writes them out when the run
ends.  Nothing under ``src/`` is modified; the wrappers are installed
into the already-imported classes and modules of one process.

A layer's *self time* is its spans' duration minus the part of each
span that its child spans cover (:func:`self_times`).

Three kinds of wrapper exist:

* ``call`` -- one span per call;
* ``iter`` -- the call returns an iterator, and each ``next()`` on it is
  one span (so a generator's work lands in the span of the pull that ran
  it, wherever the caller sits in the stack);
* ``inner`` -- one span per call, recorded only while a simulator pull is
  open (``Tracer.sim_depth > 0``).  The CDN serve path's components are
  also called during cache warm-up and by the trace reader
  (``BatchBuilder``); gating keeps those calls in the layer that made
  them.

Spans inside one served request carry that request's ``request_id``.
"""

from __future__ import annotations

import functools
import os
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

CALL = "call"
ITER = "iter"
INNER = "inner"
#: ``iter`` around the simulator's batch stream: opens the simulator scope
#: that ``inner`` spans require.
SIM_ITER = "sim_iter"
#: ``call`` around one served request: stamps its ``request_id`` on every
#: span opened inside it.
REQUEST = "request"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("q")
        #: Work counted at span boundaries (rows through an iterator, ...).
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.request_id = -1
        self.sim_depth = 0
        self.enabled = True

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_id: int) -> int:
        index = len(self.end)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def disable(self) -> None:
        """Turn every wrapper into a plain call (used in forked workers,
        whose spans would be lost with the worker's memory)."""
        self.enabled = False

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, kind: str = CALL, rows: str | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper of ``kind``.

        ``rows`` names a counter that an iterator wrapper adds each
        block's ``len()`` to.
        """
        original = getattr(owner, attr)
        name_id = self.name_id(name)
        if kind in (CALL, INNER):
            wrapper = self._call_wrapper(original, name_id, inner=kind == INNER)
        elif kind == REQUEST:
            wrapper = self._request_wrapper(original, name_id)
        else:
            wrapper = self._iter_wrapper(original, name_id, rows, sim=kind == SIM_ITER)
        setattr(owner, attr, functools.wraps(original)(wrapper))

    def _call_wrapper(self, original: Callable, name_id: int, inner: bool) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled or (inner and tracer.sim_depth <= 0):
                return original(*args, **kwargs)
            index = tracer.open(name_id)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    def _request_wrapper(self, original: Callable, name_id: int) -> Callable:
        tracer = self

        def traced(shard, request, *args, **kwargs):
            if not tracer.enabled:
                return original(shard, request, *args, **kwargs)
            outer = tracer.request_id
            tracer.request_id = request.request_id
            index = tracer.open(name_id)
            try:
                return original(shard, request, *args, **kwargs)
            finally:
                tracer.close(index)
                tracer.request_id = outer

        return traced

    def _iter_wrapper(self, original: Callable, name_id: int, rows: str | None, sim: bool) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            if not tracer.enabled:
                return inner
            return _TracedIterator(tracer, iter(inner), name_id, rows, sim)

        return traced

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int64).copy(),
        }

    def save(self, path: Path) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class _TracedIterator:
    """Iterator proxy: each ``next()`` on the wrapped iterator is a span."""

    __slots__ = ("_tracer", "_inner", "_name_id", "_rows", "_sim")

    def __init__(self, tracer: Tracer, inner: Iterator, name_id: int, rows: str | None, sim: bool):
        self._tracer = tracer
        self._inner = inner
        self._name_id = name_id
        self._rows = rows
        self._sim = sim

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.enabled:
            return next(self._inner)
        if self._sim:
            tracer.sim_depth += 1
        index = tracer.open(self._name_id)
        try:
            block = next(self._inner)
        finally:
            tracer.close(index)
            if self._sim:
                tracer.sim_depth -= 1
        if self._rows is not None:
            tracer.count(self._rows, len(block))
        return block


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once (the union of their intervals), so the
    result is never negative and never double-subtracts.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(start))
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((start[children], parent[children]))]
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    current = -1
    reach = 0.0
    total = 0.0
    for child in order.tolist():
        owner = parents[child]
        if owner != current:
            if current >= 0:
                covered[current] = total
            current, reach, total = owner, starts[owner], 0.0
        low = max(starts[child], reach)
        high = min(ends[child], ends[owner])
        if high > low:
            total += high - low
            reach = high
    if current >= 0:
        covered[current] = total
    return (end - start) - covered


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    spans = tracer.arrays()
    own = self_times(spans["start"], spans["end"], spans["parent"])
    duration = spans["end"] - spans["start"]
    count = len(tracer.names)
    calls = np.bincount(spans["name"], minlength=count)
    inclusive = np.bincount(spans["name"], weights=duration, minlength=count)
    exclusive = np.bincount(spans["name"], weights=own, minlength=count)
    return {
        name: {"calls": int(calls[i]), "incl_s": float(inclusive[i]), "self_s": float(exclusive[i])}
        for i, name in enumerate(tracer.names)
    }


def install(tracer: Tracer) -> None:
    """Wrap the public functions each ``repro`` layer is measured through.

    Span names are ``<layer>.<component>``; several methods can share one
    component (every ``OriginServer`` method is ``cdn.origin``).
    """
    from repro.cdn import simulator as simulator_module
    from repro.cdn.browser import BrowserCache
    from repro.cdn.cache import Cache
    from repro.cdn.chunking import Chunker
    from repro.cdn.http import ClientModel
    from repro.cdn.metrics import SimulationMetrics
    from repro.cdn.origin import OriginServer
    from repro.cdn.server import EdgeServer
    from repro.core import report as report_module
    from repro.core.dataset import DatasetBuilder
    from repro.dataflow import Plan
    from repro.trace.anonymize import Anonymizer
    from repro.trace.batch import BatchBuilder
    from repro.trace.reader import TraceReader
    from repro.trace.writer import TraceWriter
    from repro.workload.generator import WorkloadGenerator

    targets = [
        ("dataflow.plan", Plan, "run", CALL, None),
        ("workload.generate", WorkloadGenerator, "generate_all", CALL, None),
        ("workload.stamp", WorkloadGenerator, "merged_request_batches", ITER, "workload.requests"),
        ("cdn.warm", simulator_module.CdnSimulator, "warm", CALL, None),
        ("cdn.run_batches", simulator_module.CdnSimulator, "run_batches", SIM_ITER, None),
        ("cdn.serve", simulator_module.SimulatorShard, "process", REQUEST, None),
        ("cdn.rng", simulator_module, "counter_rng", INNER, None),
        ("cdn.browser", BrowserCache, "get", INNER, None),
        ("cdn.browser", BrowserCache, "put", INNER, None),
        ("cdn.browser", BrowserCache, "observe_request_time", INNER, None),
        ("cdn.edge", EdgeServer, "serve", INNER, None),
        ("cdn.chunker", Chunker, "chunks_for_range", INNER, None),
        ("cdn.cache_lookup", Cache, "lookup", INNER, None),
        ("cdn.cache_lookup", Cache, "peek", INNER, None),
        ("cdn.cache_insert", Cache, "insert", INNER, None),
        ("cdn.cache_pressure", Cache, "apply_pressure", INNER, None),
        ("cdn.origin", OriginServer, "is_published", INNER, None),
        ("cdn.origin", OriginServer, "check_access", INNER, None),
        ("cdn.origin", OriginServer, "current_version", INNER, None),
        ("cdn.origin", OriginServer, "fetch", INNER, None),
        ("cdn.http", ClientModel, "intent", INNER, None),
        ("cdn.http", simulator_module, "decide_response", INNER, None),
        ("cdn.metrics", SimulationMetrics, "record", INNER, None),
        ("cdn.emit", Anonymizer, "url", INNER, None),
        ("cdn.emit", Anonymizer, "user", INNER, None),
        ("cdn.emit", BatchBuilder, "append", INNER, None),
        ("cdn.emit", BatchBuilder, "finish", INNER, None),
        ("trace.read", TraceReader, "iter_batches", ITER, "trace.rows_read"),
        ("trace.write", TraceWriter, "write_batch", CALL, None),
        ("trace.write", TraceWriter, "close", CALL, None),
        ("core.ingest", DatasetBuilder, "add", CALL, None),
        ("core.ingest_finish", DatasetBuilder, "finish", CALL, None),
        ("core.passes", report_module, "run_passes", CALL, None),
        ("core.report", report_module.Study, "run", CALL, None),
        ("core.dtw", report_module, "cluster_popularity_trends", CALL, None),
    ]
    for name, owner, attr, kind, rows in targets:
        tracer.wrap(owner, attr, name, kind, rows)
    # Forked simulation workers inherit the wrappers; their spans would
    # die with the worker, so the wrappers fall through to plain calls there.
    os.register_at_fork(after_in_child=tracer.disable)
