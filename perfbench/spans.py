"""In-memory span recorder and the self-time calculation.

The benchmark traces the program from outside: :func:`install` swaps a
wrapper in for a public function or method, and every call through the
wrapper records a span (name, start, end, parent span, job id, thread)
in a :class:`SpanRecorder`.  Parents come from a thread-local stack, so
spans opened on different threads never nest into each other.  Spans are
kept in memory and written out only when the run ends.

A span's *self time* is its duration minus the part of it that its
child spans cover (the union of the children's intervals, clipped to the
parent), so self times never double-count and never go negative.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: str
    parent: str | None
    name: str
    start: float
    end: float
    job: str | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans and named counts from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid()}:"

    # -- thread-local context ---------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def job(self) -> str | None:
        return getattr(self._local, "job", None)

    @job.setter
    def job(self, value: str | None) -> None:
        self._local.job = value

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> tuple[str, str | None, str, float]:
        """Push a new span on this thread's stack; returns its token."""
        stack = self._stack()
        span_id = self._prefix + str(next(self._ids))
        token = (span_id, stack[-1] if stack else None, name, time.perf_counter())
        stack.append(span_id)
        return token

    def close(self, token: tuple[str, str | None, str, float]) -> float:
        """Pop the span opened by ``token``; returns its duration."""
        end = time.perf_counter()
        span_id, parent, name, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        span = Span(span_id, parent, name, start, end, self.job, threading.get_ident())
        with self._lock:
            self.spans.append(span)
        return end - start

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    # -- persistence ---------------------------------------------------------
    def dump(self, path: str) -> None:
        with self._lock:
            doc = {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(doc, fh)

    @staticmethod
    def load(path: str) -> tuple[list[Span], dict[str, float]]:
        with open(path) as fh:
            doc = json.load(fh)
        return [Span(**s) for s in doc["spans"]], doc["counts"]


# -- wrapper installation ------------------------------------------------------
@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``"module:attr"`` or ``"module:Class.attr"``.

    ``span`` is the span name (None records no span, only the hook);
    ``hook(recorder, args, kwargs, result, seconds)`` adds counts after
    each call; ``job(args)`` names the job that spans opened during the
    call on this thread belong to.
    """

    target: str
    span: str | None
    hook: object = None
    job: object = None


def _wrap(recorder: SpanRecorder, func, probe: Probe):
    if inspect.isgeneratorfunction(func):
        # A generator does its work on each next(): one span per step.
        @functools.wraps(func)
        def gen_wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                token = recorder.open(probe.span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    recorder.close(token)
                yield item

        return gen_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        outer_job = recorder.job
        if probe.job is not None:
            recorder.job = probe.job(args)
        token = recorder.open(probe.span) if probe.span else None
        started = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            if token is not None:
                recorder.close(token)
            recorder.job = outer_job
        if probe.hook is not None:
            probe.hook(recorder, args, kwargs, result, time.perf_counter() - started)
        return result

    return wrapper


def install(recorder: SpanRecorder, probes) -> list[tuple[object, str, object]]:
    """Wrap every probe's target; returns the undo list for :func:`uninstall`.

    The wrapper goes where callers look the name up: a module attribute
    for functions imported by name, the class ``__dict__`` for methods
    (static and class methods keep their descriptor kind).
    """
    undo = []
    for probe in probes:
        module_name, _, path = probe.target.partition(":")
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        wrapper = _wrap(recorder, func, probe)
        # Name the wrapper after the place it is installed, so pickle (and
        # the cluster's closure shipping) still send it by reference and
        # the receiving process resolves its own copy of that name.
        wrapper.__module__, wrapper.__qualname__ = module_name, path
        wrapped = type(raw)(wrapper) if func is not raw else wrapper
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, raw))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)


# -- self time -----------------------------------------------------------------
def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - union_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)
