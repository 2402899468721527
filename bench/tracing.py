"""Outside-in layer tracing: timed wrappers around the program's entry points.

Nothing in the program is edited. While a phase is open, the tracer
replaces module functions (and the space instance's comparison methods)
with wrappers that record a span per call, then puts the originals back.
Spans are aggregated as they close: per (phase, layer) the tracer keeps the
number of outermost calls, the total time and the self time, which is a
span's duration minus the time of the wrapped calls made inside it.

An entry point that a later version of the program removed or renamed is
recorded as absent, and the metrics of a layer with no entry point left are
reported as absent instead of failing the run.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from sprawl import ambit, engine, hypergraph, optimize, storage

# layer -> [(owner, attribute)]; the "comparison" layer is the methods of
# the space instance that a phase names
ENTRY_POINTS = {
    "ambit": [(ambit, name) for name in sorted(vars(ambit)) if name.startswith("overlap")],
    "engine.search": [(engine, "search")],
    "engine.build": [(engine, "build_classic")],
    "engine.reduce": [(engine, "reduce_to_signed")],
    "engine.check_correct": [(engine, "check_correct_small")],
    "storage.encode": [(storage, "index_document")],
    "storage.save": [(storage, "save_index")],
    "storage.decode": [(storage, "index_from_document")],
    "storage.load": [(storage, "load_index")],
    "hypergraph.enumerate": [(hypergraph, "enumerate_repertoire")],
    "hypergraph.axioms": [(hypergraph, "check_traversal_axioms")],
    "hypergraph.traverse": [(hypergraph, "traverse")],
    "lp": [(optimize, "solve_lp")],
    "optimize": [
        (optimize, name)
        for name in ("build_training_set", "optimal_facet", "min_radius", "hull_ambit", "cluster_facets")
    ],
}
SPACE_METHODS = ("compare", "distances_from", "pairwise")


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Collects per-(phase, layer) call counts, total and self times."""

    def __init__(self):
        self.stats: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self._stack: list[list] = []
        #: layers none of whose entry points exist in this version of the program
        self.absent = sorted(
            layer
            for layer, points in ENTRY_POINTS.items()
            if not any(callable(getattr(owner, name, None)) for owner, name in points)
        )

    def stat(self, phase: str, layer: str) -> Stat:
        return self.stats.get((phase, layer), Stat())

    def _wrap(self, st: Stat, layer: str, fn):
        stack = self._stack
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]  # [layer, time of the wrapped calls inside]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                st.self_time += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if not stack or stack[-1][0] != layer:
                    st.calls += 1
                    st.total += duration

        return traced

    @contextmanager
    def phase(self, name: str, space):
        """Trace every present entry point, and `space`'s methods, until the block ends."""
        entry_points = {**ENTRY_POINTS, "comparison": [(space, m) for m in SPACE_METHODS]}
        saved = []
        for layer, points in entry_points.items():
            for owner, attr in points:
                fn = getattr(owner, attr, None)
                if not callable(fn):
                    continue
                # a module function is reassigned on the way out; a method
                # found on the instance's class is shadowed, then deleted
                saved.append((owner, attr, fn, attr in vars(owner)))
                setattr(owner, attr, self._wrap(self.stats[(name, layer)], layer, fn))
        try:
            yield self
        finally:
            for owner, attr, fn, owned in reversed(saved):
                if owned:
                    setattr(owner, attr, fn)
                else:
                    delattr(owner, attr)
