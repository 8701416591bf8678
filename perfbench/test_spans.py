"""Self-time calculation and the span recorder.

    python3 -m pytest perfbench/test_spans.py
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import (  # noqa: E402
    Probe,
    Span,
    SpanRecorder,
    install,
    self_time_by_name,
    self_times,
    union_length,
    uninstall,
)


def span(id_, parent, name, start, end, thread=1):
    return Span(id_, parent, name, start, end, None, thread)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], 2, 5) == 3
    assert union_length([(0, 1), (4, 5)], 1, 4) == 0
    assert union_length([]) == 0


def test_self_time_of_nested_spans():
    spans = [
        span("a", None, "job", 0.0, 10.0),
        span("b", "a", "align", 1.0, 5.0),
        span("c", "b", "seed", 2.0, 3.0),
        span("d", "b", "extend", 3.0, 4.5),
        span("e", "a", "caller", 6.0, 9.0),
    ]
    own = self_times(spans)
    assert own["a"] == 10.0 - 4.0 - 3.0
    assert own["b"] == 4.0 - 1.0 - 1.5
    assert own["c"] == 1.0 and own["d"] == 1.5 and own["e"] == 3.0
    # Self times partition the root span exactly.
    assert abs(sum(own.values()) - 10.0) < 1e-12


def test_overlapping_children_are_not_double_counted():
    # Two children of one parent, running on different threads at once.
    spans = [
        span("p", None, "stage", 0.0, 4.0, thread=1),
        span("x", "p", "task", 0.5, 3.0, thread=2),
        span("y", "p", "task", 1.0, 3.5, thread=3),
    ]
    own = self_times(spans)
    assert own["p"] == 4.0 - 3.0
    assert self_time_by_name(spans) == {"stage": 1.0, "task": 2.5 + 2.5}


def test_overlapping_spans_on_other_threads_do_not_nest():
    # Concurrent jobs on two threads: neither covers the other's time.
    spans = [
        span("j1", None, "job", 0.0, 4.0, thread=1),
        span("j2", None, "job", 1.0, 5.0, thread=2),
        span("s1", "j1", "seed", 1.0, 2.0, thread=1),
        span("s2", "j2", "seed", 1.5, 4.5, thread=2),
    ]
    own = self_times(spans)
    assert own["j1"] == 3.0 and own["j2"] == 1.0
    assert own["s1"] == 1.0 and own["s2"] == 3.0


def test_recorder_keeps_a_parent_stack_per_thread():
    rec = SpanRecorder()
    barrier = threading.Barrier(2)

    def work(job):
        rec.job = job
        outer = rec.open("outer")
        barrier.wait(timeout=10)
        inner = rec.open("inner")
        barrier.wait(timeout=10)
        rec.close(inner)
        rec.close(outer)

    threads = [threading.Thread(target=work, args=(f"job{i}",)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s.id: s for s in rec.spans}
    inners = [s for s in rec.spans if s.name == "inner"]
    assert len(inners) == 2
    for inner in inners:
        parent = by_id[inner.parent]
        assert parent.name == "outer"
        assert parent.thread == inner.thread and parent.job == inner.job


def test_install_wraps_functions_static_methods_and_generators():
    module = types.ModuleType("perfbench_probe_target")

    class Codec:
        @staticmethod
        def encode(values):
            return list(values)

        def iter_decode(self, values):
            yield from values

    def caller(values):
        return Codec.encode(values)

    module.Codec = Codec
    module.caller = caller
    sys.modules[module.__name__] = module
    try:
        rec = SpanRecorder()
        hooked = []
        undo = install(
            rec,
            [
                Probe(f"{module.__name__}:caller", "outer"),
                Probe(
                    f"{module.__name__}:Codec.encode",
                    "encode",
                    lambda r, args, kwargs, result, seconds: hooked.append(len(result)),
                ),
                Probe(f"{module.__name__}:Codec.iter_decode", "decode"),
            ],
        )
        assert module.caller([1, 2]) == [1, 2]
        assert list(Codec().iter_decode([1, 2, 3])) == [1, 2, 3]
        names = [s.name for s in rec.spans]
        assert names.count("encode") == 1 and names.count("outer") == 1
        # One span per generator step, plus the step that ends it.
        assert names.count("decode") == 4
        encode = next(s for s in rec.spans if s.name == "encode")
        outer = next(s for s in rec.spans if s.name == "outer")
        assert encode.parent == outer.id
        assert hooked == [2]
        # Installed wrappers still pickle by reference, under their own name.
        assert module.caller.__module__ == module.__name__
        assert pickle.loads(pickle.dumps(module.caller)) is module.caller
        uninstall(undo)
        assert module.caller is caller
        assert isinstance(Codec.__dict__["encode"], staticmethod)
        rec.spans.clear()
        module.caller([1])
        assert rec.spans == []
    finally:
        del sys.modules[module.__name__]
