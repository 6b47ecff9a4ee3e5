"""In-memory spans recorded around calls into coopsim, and their self times.

A span holds a name, a start and an end (``time.perf_counter_ns``), the
index of the span that was open when it started (-1 for none) and a trace
id.  A span with no open parent starts a new trace, and so does a wrapper
marked ``new_trace``, so each run and query is its own trace.
Spans are kept in flat typed arrays (about 40 bytes each) and written out
once, when the benchmark ends.

The tracer patches module attributes, so it records calls that the package
makes through those attributes and nothing else.  It is single-threaded:
calls made inside worker processes are not recorded.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children of one span nest inside it and do not overlap each other, so
    the covered part is the sum of the direct children's durations.
    """
    start = np.asarray(start, dtype=np.int64)
    dur = np.asarray(end, dtype=np.int64) - start
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def merge(aggregates) -> dict:
    """Sum per-name aggregates from several tracers."""
    out: dict = {}
    for agg in aggregates:
        for name, row in agg.items():
            acc = out.setdefault(name, {"calls": 0, "total_ns": 0.0, "self_ns": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out


def save_spans(path, tracers) -> None:
    """Write the spans of several tracers to one compressed ``.npz`` file.

    Name ids, parent indices and trace ids are renumbered so that they stay
    unique across tracers.
    """
    names: list[str] = []
    parts: dict = {key: [] for key in ("name_id", "start", "end", "parent", "trace")}
    first_span = first_trace = 0
    for tr in tracers:
        col = tr.columns()
        remap = []
        for name in tr.names:
            if name not in names:
                names.append(name)
            remap.append(names.index(name))
        parts["name_id"].append(np.asarray(remap, dtype=np.int64)[col["name_id"]])
        parts["start"].append(col["start"])
        parts["end"].append(col["end"])
        parts["parent"].append(np.where(col["parent"] >= 0, col["parent"] + first_span, -1))
        parts["trace"].append(col["trace"] + first_trace)
        first_span += len(col["start"])
        first_trace += tr.n_traces
    arrays = {key: np.concatenate(chunks) if chunks else np.zeros(0, np.int64) for key, chunks in parts.items()}
    np.savez_compressed(path, names=np.asarray(names), **arrays)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trace = array("q")
        self.counters: Counter = Counter()
        self.maxima: dict = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self.n_traces = 0
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, new_trace: bool) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        parent = self._stack[-1] if self._stack else -1
        if parent < 0 or new_trace:
            trace = self.n_traces
            self.n_traces += 1
        else:
            trace = self.trace[parent]
        self.name_id.append(nid)
        self.parent.append(parent)
        self.trace.append(trace)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, new_trace: bool = False):
        idx = self._open(name, new_trace)
        try:
            yield
        finally:
            self._close(idx)

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- patching ----------------------------------------------------------

    def wrap(self, module, attr: str, name, new_trace: bool = False, on_result=None) -> None:
        """Replace ``module.attr`` by a wrapper that records one span per call.

        ``name`` is the span name, or a function of the call's arguments
        that returns it.  ``on_result(tracer, result)`` runs after the span
        closes.  A missing attribute is noted in ``missing`` and skipped.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name if fixed else name(*args, **kwargs), new_trace)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def unwrap(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    # -- results -----------------------------------------------------------

    def columns(self) -> dict:
        return {
            key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
            for key in ("name_id", "start", "end", "parent", "trace")
        }

    def aggregate(self) -> dict:
        """Per span name: number of calls, total and self nanoseconds."""
        if not self.names:
            return {}
        col = self.columns()
        dur = (col["end"] - col["start"]).astype(float)
        own = self_times(col["start"], col["end"], col["parent"])
        size = len(self.names)
        calls = np.bincount(col["name_id"], minlength=size)
        total = np.bincount(col["name_id"], weights=dur, minlength=size)
        selft = np.bincount(col["name_id"], weights=own, minlength=size)
        return {
            name: {"calls": int(calls[i]), "total_ns": float(total[i]), "self_ns": float(selft[i])}
            for i, name in enumerate(self.names)
        }
