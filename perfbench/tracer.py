"""In-memory span tracer that wraps ellipfim's public functions from outside.

The package itself is not instrumented: ``patched`` swaps each target
function for a wrapper in every loaded ``ellipfim`` module that holds a
reference to it (``from .x import f`` copies the name), records one span
per call, and restores the originals on exit.  Spans are kept in memory
as ``(name, tag, start, end, parent)`` tuples; ``summarize`` derives call
counts, inclusive time and self time (duration minus the time covered by
direct child spans) per ``(name, tag)``.

Spans recorded inside worker processes stay in those processes, so a
traced run only sees the layers that execute in the calling process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.tag = ""
        self.failures = Counter()
        self.observed = defaultdict(list)
        self._stack = []

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.failures[name] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, self.tag, start, end, parent)
            if observe is not None:
                self.observed[name].append(observe(out))
            return out

        return traced

    def summarize(self):
        """{(name, tag): {"calls", "incl_s", "self_s"}} over all spans."""
        child_s = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, (name, tag, start, end, _) in enumerate(self.spans):
            row = out[(name, tag)]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child_s[i]
        return out


@contextlib.contextmanager
def patched(tracer, targets):
    """Route calls of each target through ``tracer`` for the duration.

    ``targets`` holds ``(module, attribute, span name, observe)``; an
    attribute ``Cls.meth`` wraps a method on the class itself.
    """
    saved = []
    try:
        for module, attr, name, observe in targets:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = [
                    mod
                    for key, mod in list(sys.modules.items())
                    if key == "ellipfim" or key.startswith("ellipfim.")
                ]
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, observe)
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    setattr(holder, attr, wrapper)
                    saved.append((holder, attr, original))
        yield
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)
