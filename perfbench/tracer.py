"""Spans around the benchmark's calls into gerbedex layers.

Spans are kept in memory and written out when the run ends.  Each span
records its name, start, end, the span that caused it, and the operation it
belongs to (None during set-up).  With the tracer disabled, `call` and
`span` add one attribute test and nothing else.
"""

import contextlib
import json
import time

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.id = tracer.next_id
        tracer.next_id += 1
        self.parent = tracer.stack[-1] if tracer.stack else None
        tracer.stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer.stack.pop()
        tracer.spans.append((self.id, self.parent, tracer.op, self.name,
                             self.start, end))
        return False


class Tracer:
    """Records (id, parent, op, name, start, end) tuples while enabled."""

    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans = []
        self.stack = []
        self.next_id = 0

    def span(self, name):
        return _Span(self, name) if self.enabled else _NULL

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with _Span(self, name):
            return fn(*args, **kwargs)

    def write(self, path):
        fields = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(fields, record))) + "\n")


def span_totals(spans, phase_ops):
    """Per span name: (calls, busy seconds, self seconds) over chosen spans.

    `phase_ops` selects spans by their op field: the set-up phase is
    {None}, the measured ops are their indices.  Self time is a span's
    duration minus the durations of its direct children.
    """
    child_time = {}
    for _, parent, op, _, start, end in spans:
        if parent is not None and op in phase_ops:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals = {}
    for span_id, _, op, name, start, end in spans:
        if op not in phase_ops:
            continue
        calls, busy, own = totals.get(name, (0, 0.0, 0.0))
        duration = end - start
        totals[name] = (calls + 1, busy + duration,
                        own + duration - child_time.get(span_id, 0.0))
    return totals
