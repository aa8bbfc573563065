"""In-memory spans and counters around calls into a program's functions.

Wrappers are installed from outside the traced package by replacing module
attributes and class methods, so the package's own files stay untouched. A
span records name, start, end and the span that was open when it began. Spans
are kept in a list and written out when the run ends.

Self time is a span's duration minus the part of it that its child spans
cover. Calls are nested on one thread, so the children of a span never
overlap and the covered part is the sum of their durations.
"""

import collections
import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self.root_counts = {}  # root span index -> counter delta inside it
        self.enabled = True
        self._stack = []
        self._undo = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """Top-level span; also records how the counters moved inside it."""
        if self._stack:
            raise RuntimeError("root span %r opened inside another span" % name)
        before = collections.Counter(self.counts)
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)
            delta = collections.Counter(self.counts)
            delta.subtract(before)
            self.root_counts[idx] = {k: v for k, v in delta.items() if v}

    @contextlib.contextmanager
    def paused(self):
        """Run code (such as output checks) without recording anything."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _replace(self, owners, attr, make):
        owners = owners if isinstance(owners, (list, tuple)) else [owners]
        original = owners[0].__dict__[attr]
        for owner in owners[1:]:
            if owner.__dict__[attr] is not original:
                raise ValueError("%s is not the same object on every owner"
                                 % attr)
        wrapper = make(original)
        for owner in owners:
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def span(self, owners, attr, name, on_result=None):
        """Wrap owner.attr so that each call records a span called name.

        on_result(counts, args, kwargs, result) runs after the span closes.
        owners may be a list when several modules hold the same function.
        """
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                idx = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if on_result is not None:
                    on_result(tracer.counts, args, kwargs, result)
                return result
            return traced

        self._replace(owners, attr, make)

    def count(self, owners, attr, counter):
        """Wrap owner.attr so that each call adds one to counts[counter]."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.enabled:
                    tracer.counts[counter] += 1
                return fn(*args, **kwargs)
            return counted

        self._replace(owners, attr, make)

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, _) in enumerate(spans)]


def summarize(spans):
    """Per root span: its name, wall time, and per span name below it the
    summed self time, the summed duration, the call count and the number of
    direct children by the parent's name (as {(parent, child): count})."""
    selfs = self_times(spans)
    roots = []
    root_of = []
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            root_of.append(len(roots))
            roots.append({"index": i, "name": name, "wall": end - start,
                          "self": collections.Counter(),
                          "total": collections.Counter(),
                          "calls": collections.Counter(),
                          "edges": collections.Counter()})
            continue
        r = roots[root_of[parent]]
        root_of.append(root_of[parent])
        r["self"][name] += selfs[i]
        r["total"][name] += end - start
        r["calls"][name] += 1
        r["edges"][(spans[parent][0], name)] += 1
    return roots
