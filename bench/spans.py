"""Span tracing of twobridge calls, attached from outside the package.

A Tracer replaces module attributes of the loaded ``twobridge`` modules
with timing wrappers while its ``with`` block is open and puts the
originals back on exit; nothing under ``src/`` is edited.  Every wrapped
call records one span (layer, start, end, parent) in memory.  A generator
function records one span per item it produces, so its time is measured
across its iteration and not only for the call that creates it.  A
layer's self time is the sum of its spans' durations minus the durations
of their direct children; the program is single-threaded, so children
never overlap.
"""

import inspect
import sys
from collections import defaultdict
from time import perf_counter


class Target:
    """One function to wrap: ``module.attr`` reported under ``layer``.

    ``counter(args, result)`` returns extra counts for one call, added
    under ``layer`` (for example letters in and out of ``reduce``); for a
    generator function it is called with each item produced instead.
    """

    def __init__(self, module, attr, layer, counter=None):
        self.module = module
        self.attr = attr
        self.layer = layer
        self.counter = counter


class Tracer:
    def __init__(self, targets):
        self.targets = targets
        self.spans = []          # [layer, start, end, parent index or -1]
        self.counts = defaultdict(int)   # (layer, name) -> count
        self._stack = []
        self._saved = []

    def __enter__(self):
        for t in self.targets:
            orig = getattr(sys.modules[t.module], t.attr)
            wrapped = self._wrap(orig, t)
            # also rebind copies made by "from .words import expand_task"
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "twobridge" and not name.startswith("twobridge."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        for mod, key, orig in reversed(self._saved):
            setattr(mod, key, orig)
        self._saved.clear()
        return False

    def take(self):
        """Return (spans, counts) recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        out = self.spans, dict(self.counts)
        self.spans = []
        self.counts = defaultdict(int)
        return out

    def _begin(self, layer):
        idx = len(self.spans)
        self.spans.append([layer, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _end(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, target):
        layer, counter = target.layer, target.counter

        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                self.counts[(layer, "calls")] += 1
                return self._iterate(layer, counter, args, fn(*args, **kwargs))
            return generator_wrapper

        def wrapper(*args, **kwargs):
            idx = self._begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            self.counts[(layer, "calls")] += 1
            if counter is not None:
                for key, n in counter(args, result).items():
                    self.counts[(layer, key)] += n
            return result
        return wrapper

    def _iterate(self, layer, counter, args, it):
        while True:
            idx = self._begin(layer)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._end(idx)
            if counter is not None:
                for key, n in counter(args, item).items():
                    self.counts[(layer, key)] += n
            yield item


def layer_times(spans):
    """Per-layer (self seconds, total seconds) from a span list."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for i, (layer, start, end, _) in enumerate(spans):
        self_s[layer] += end - start - child[i]
        total_s[layer] += end - start
    return self_s, total_s


def write_spans(path, phases):
    """Write spans as TSV: phase, id, layer, start, end, parent id."""
    with open(path, "w") as f:
        f.write("phase\tid\tlayer\tstart\tend\tparent\n")
        for phase, spans in phases:
            for i, (layer, start, end, parent) in enumerate(spans):
                f.write(f"{phase}\t{i}\t{layer}\t{start!r}\t{end!r}\t{parent}\n")
