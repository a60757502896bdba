"""Outside-in tracing of hermcycles: spans and counts from wrappers.

`Tracer.install` replaces every public function of the package modules with
a timing wrapper, under every name any package module imported it as (so
`mat_inverse` is wrapped both in `hermcycles.lattice` and in
`hermcycles.vertices`), plus the `HermLattice.dual` method.  The hot
`OHElement` operations get counting wrappers only.  Wrappers record nothing
unless a request span is open, so the benchmark can call the program
untraced between requests.

Spans are kept in memory as (request, parent, name, start_ns, end_ns) and
written out at the end.  A span's self time is its duration minus the
durations of its direct children; the self times of all spans of a request,
plus the request span's own self time, add up to the request's duration.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from collections import Counter, defaultdict

MODULES = ("cli", "padic", "ramified", "lattice", "cycles", "vertices", "global_cycles")

# OHElement methods that run millions of times per request: counted, not timed.
COUNTED_METHODS = (
    (("__mul__", "__rmul__"), "ramified.mul"),
    (("__add__", "__radd__", "__sub__", "__rsub__"), "ramified.addsub"),
    (("inverse",), "ramified.inverse"),
    (("ord",), "ramified.ord"),
)

REQUEST = "request"


def _enumeration_probe(counts, result):
    counts["vertices.vertex_count"] += len(result.vertices)
    counts["vertices.edge_count"] += len(result.poset_edges)


PROBES = {"vertices.enumerate_vertices": _enumeration_probe}


class Tracer:
    """Wraps the package's public functions and records spans and counts."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._request = -1
        self._root_start = 0
        self._patches: list = []

    # -- wrappers ----------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _span_wrapper(self, name, fn):
        idx = self._name(name)
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        probe, counts = PROBES.get(name), self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self._request, parent, idx, start, end)
            if probe is not None:
                probe(counts, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if stack:
                counts[name] += 1
            return fn(*args)

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        package = importlib.import_module("hermcycles")
        mods = {m: importlib.import_module(f"hermcycles.{m}") for m in MODULES}
        owners = [package, *mods.values()]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._span_wrapper(f"{short}.{attr}", fn)
                for owner in owners:
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, name, wrapped)
        lattice = mods["lattice"]
        self._patch(
            lattice.HermLattice, "dual",
            self._span_wrapper("lattice.dual", vars(lattice.HermLattice)["dual"]),
        )
        element = mods["ramified"].OHElement
        for attrs, name in COUNTED_METHODS:
            for attr in attrs:
                self._patch(element, attr, self._count_wrapper(name, vars(element)[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- requests ----------------------------------------------------------

    def begin(self, request: int):
        """Open the root span of request number ``request``."""
        self._request = request
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._root_start = time.perf_counter_ns()

    def end(self) -> float:
        """Close the root span; returns its duration in seconds."""
        end = time.perf_counter_ns()
        sid = self._stack.pop()
        self.spans[sid] = (self._request, -1, self._name(REQUEST), self._root_start, end)
        return (end - self._root_start) / 1e9

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per span name: [calls, inclusive ns, self ns]."""
        child = defaultdict(int)
        for request, parent, idx, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for sid, (request, parent, idx, start, end) in enumerate(self.spans):
            row = out[self.names[idx]]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[sid]
        return dict(out)

    def write(self, path):
        """Write every span as CSV: id, request, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,request,parent,name,start_ns,end_ns\n")
            for sid, (request, parent, idx, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{request},{parent},{self.names[idx]},{start},{end}\n")
