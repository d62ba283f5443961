"""In-memory stage timer for the benchmark's traced runs.

A span is one call into a layer: its name, start, end, the span that was
open when it started, and the job it belongs to.  Spans stay in memory
and are written out once, when the run ends.

`NULL` has the same `call`/`count` interface and records nothing, so one
job function serves both the untraced and the traced run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


NULL = NullTracer()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.counts = {}  # name -> list of values
        self._open = []
        self.job = None

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name, value):
        self.counts.setdefault(name, []).append(value)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "job"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                handle,
            )


@contextmanager
def patched(targets):
    """Swap public functions for instrumented ones while the block runs.

    targets holds (owner, attribute, factory) triples; the owner is a module
    or a class and factory(original) returns the replacement.  A function
    that other modules imported by name needs one entry per importing
    module.  Everything is restored on exit.
    """
    saved = []
    try:
        for owner, attr, factory in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def spanning(tracer, name):
    """Factory for `patched`: run the original inside a span called name."""

    def factory(original):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return wrapper

    return factory
