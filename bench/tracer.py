"""Span tracer for the benchmark's traced run.

`install` replaces every public function of a package's modules,
wherever one of those modules binds it, by a wrapper that records a
span: name, start, end and the span that called it.  Counts, inclusive
time and self time (span minus the spans it called) are folded in as
each span ends, so memory stays small; the raw spans of the first op
are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import types
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

SPAN_FIELDS = ("op", "id", "parent", "name", "start", "end")
KEEP_OPS = 1          # ops whose raw spans are kept
MAX_SPANS = 20_000    # cap on kept spans; a verify op makes ~310 000


class Tracer:
    def __init__(self):
        self.active = False
        self.op = 0
        self.calls = Counter()
        self.total = defaultdict(float)   # inclusive seconds
        self.own = defaultdict(float)     # self seconds
        self.items = Counter()            # lengths of returned lists
        self.warned = Counter()           # RuntimeWarnings inside the span
        self.runtime_warnings = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []      # [span id, seconds in children]
        self._next_id = 0

    def install(self, package: str) -> int:
        """Wrap the package's public functions in every module of the
        package that binds them; returns the number of functions."""
        wrappers = {}
        prefix = package + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(prefix)]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if (isinstance(val, types.FunctionType)
                        and not val.__name__.startswith("_")
                        and val.__module__.startswith(prefix)):
                    if val not in wrappers:
                        layer = val.__module__.rsplit(".", 1)[-1]
                        wrappers[val] = self._wrap(f"{layer}.{val.__name__}",
                                                   val)
                    setattr(mod, attr, wrappers[val])
        return len(wrappers)

    def _wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            warned = self.runtime_warnings
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.total[name] += dur
                self.own[name] += dur - frame[1]
                self.warned[name] += self.runtime_warnings - warned
                if stack:
                    stack[-1][1] += dur
                if self.op < KEEP_OPS and len(self.spans) < MAX_SPANS:
                    self.spans.append((self.op, span_id, parent, name,
                                       start, end))
            if type(result) is list:
                self.items[name] += len(result)
            return result

        return traced

    def _count_warning(self, message, category, *args, **kwargs):
        if issubclass(category, RuntimeWarning):
            self.runtime_warnings += 1

    @contextmanager
    def tracing(self):
        """Record spans, and count every RuntimeWarning, inside the block."""
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = self._count_warning
            self.active = True
            try:
                yield self
            finally:
                self.active = False

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def self_seconds(self, layer: str) -> float:
        return sum(v for k, v in self.own.items()
                   if k.startswith(layer + "."))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)
