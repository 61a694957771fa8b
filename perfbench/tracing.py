"""Span tracing from outside the library, for the per-layer metrics.

``Tracer.installed()`` swaps public functions and methods of posscheck for
wrappers that record one span per call (name, start, end, parent) in memory,
plus a few counters, and restores the originals on exit.  Nothing inside
``src/`` is changed.  Self time of a span is its duration minus the
durations of its direct children; calls are synchronous on one thread, so
children never overlap.
"""

import gzip
import time
from contextlib import contextmanager

import posscheck.cli
import posscheck.factorization
import posscheck.independence
import posscheck.markov
from posscheck import PossibilityTable, TNorm, UndirectedGraph

GRAPH_METHODS = ("neighbors", "boundary", "closure", "cliques", "components", "separates")
TNORM_METHODS = ("apply_array", "residual_array", "fold_arrays")


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = {"marginalize.hits": 0, "marginalize.cells": 0,
                         "tnorm.cells": 0, "lp_calls": 0}
        self.regime = ""  # factorization regime of the operation in flight
        self._stack = []
        self._seen = {}

    # -- recording -----------------------------------------------------------

    def _enter(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _exit(self, index):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)
        return wrapper

    def _marginalize(self, fn):
        def wrapper(table, keep):
            seen = self._seen.setdefault(id(table), (table, set()))[1]
            key = frozenset(keep)
            if key in seen:
                self.counters["marginalize.hits"] += 1
            else:
                seen.add(key)
                self.counters["marginalize.cells"] += table.values.size
            index = self._enter("possibility.marginalize")
            try:
                return fn(table, keep)
            finally:
                self._exit(index)
        return wrapper

    def _tnorm(self, name, fn):
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if name != "tnorm.fold_arrays":  # its cells are its apply_array calls
                self.counters["tnorm.cells"] += getattr(out, "size", 1)
            return out
        return wrapper

    def _factorizes(self, fn):
        def wrapper(*args, **kwargs):
            index = self._enter(f"factorization.{self.regime}")
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)
        return wrapper

    def _linprog(self, fn):
        def wrapper(*args, **kwargs):
            self.counters["lp_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------------

    def _patches(self):
        yield PossibilityTable, "marginalize", self._marginalize
        for method in TNORM_METHODS:
            yield TNorm, method, lambda fn, m=method: self._tnorm(f"tnorm.{m}", fn)
        for method in GRAPH_METHODS:
            yield UndirectedGraph, method, lambda fn, m=method: self._span(f"graphs.{m}", fn)
        for prop in ("global", "local", "pairwise"):
            yield (posscheck.markov, f"{prop}_markov",
                   lambda fn, p=prop: self._span(f"markov.{p}", fn))
        yield (posscheck.independence, "scan_axioms",
               lambda fn: self._span("independence.scan_axioms", fn))
        yield posscheck.cli, "factorizes", self._factorizes
        yield posscheck.cli, "load_model", lambda fn: self._span("modelio.load", fn)
        yield posscheck.cli, "main", lambda fn: self._span("cli.main", fn)
        yield posscheck.factorization, "linprog", self._linprog

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, make in self._patches():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._seen.clear()

    # -- analysis ------------------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        durations = self.durations()
        own = list(durations)
        for parent, d in zip(self.parents, durations):
            if parent >= 0:
                own[parent] -= d
        return own

    def totals(self):
        """{span name: (calls, total seconds, self seconds)}."""
        out = {}
        for name, d, s in zip(self.names, self.durations(), self.self_times()):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + d, own + s)
        return out

    def write(self, path):
        """Spans as gzip TSV: index, name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, row in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i}\t{row[0]}\t{row[1]:.9f}\t{row[2]:.9f}\t{row[3]}\n")
