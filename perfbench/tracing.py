"""Op timing, spans and counters recorded around calls into mqca.

Spans are kept in memory and written out once, after the run.  With
tracing off, `span` hands back one shared no-op context manager, so the
timed code pays a method call per layer call and nothing else.
"""

import collections
import contextlib
import json
import time

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent,
                         tr.op_id])
        tr.stack.append(self.index)

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.stack.pop()


class Tracer:
    """Spans as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.stack = []
        self.op_id = None

    def span(self, name):
        return _Span(self, name) if self.enabled else _NULL

    def self_times(self):
        """Per span name: (calls, total self time).  Self time is the
        span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = collections.defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[i]
        return out

    def total_time(self, name):
        return sum(e - s for n, s, e, _, _ in self.spans if n == name)

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class Recorder:
    """Latency and outcome of every op in a run, and the input counters.

    An op that raises counts as attempted and failed; the exception
    still propagates so the caller can abandon the unit it belongs to.
    """

    def __init__(self):
        self.tracer = Tracer()
        self.latency = []
        self.failed = set()
        self.unit_errors = 0
        self.counts = collections.Counter()
        self.tallies = collections.defaultdict(collections.Counter)

    @property
    def attempted(self):
        return len(self.latency) + self.unit_errors

    @property
    def n_failed(self):
        return len(self.failed) + self.unit_errors

    @contextlib.contextmanager
    def op(self):
        i = len(self.latency)
        self.tracer.op_id = i
        try:
            with self.tracer.span("op"):
                t0 = time.perf_counter()
                try:
                    yield i
                finally:
                    self.latency.append(time.perf_counter() - t0)
        except BaseException:
            self.failed.add(i)
            raise
        finally:
            self.tracer.op_id = None

    def fail(self, ops):
        self.failed.update(ops)

    def count(self, name, n=1):
        self.counts[name] += n

    def tally(self, name, value):
        """Histogram of an input property, such as r or the qubit count."""
        self.tallies[name][value] += 1
