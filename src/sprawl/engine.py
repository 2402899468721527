"""The sprawl index: a region-labeled directed hypergraph over data points.

Edges carry positive (discovery) and negative (elimination) regions. A
query turns the sprawl into a signed hyperdigraph whose traversal visits
exactly the candidate points; `search` runs that traversal directly with
on-demand region evaluation, while `reduce_to_signed` materializes it for
the exhaustive correctness checkers.
"""
from __future__ import annotations

import heapq
import itertools
import logging
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple

import numpy as np

from . import ambit as ambit_mod
from .ambit import Ambit, LinearMap, table1_region
from .comparison import (
    AmbitQuery,
    Ball,
    ComparisonSpace,
    CostSession,
    ExplicitSetQuery,
    MatrixSpace,
    ProjectionSpace,
    Workload,
)
from .errors import CapabilityError, EmulationError, SizeLimitError, StructureError
from .hypergraph import Frontier, Heuristic, HyperEdge, Plan, SignedHyperdigraph, Waves, activation, successors

log = logging.getLogger(__name__)


def _exclusive(sizes: np.ndarray) -> np.ndarray:
    """Where each run starts when runs of `sizes` lie end to end."""
    return sizes.cumsum() - sizes


def _runs(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., of sizes[i] positions, for each i in turn."""
    return (starts - _exclusive(sizes)).repeat(sizes) + np.arange(sizes.sum())


# --- region labels ----------------------------------------------------------


@dataclass(frozen=True)
class Universe:
    """The whole universe; intersects every non-empty query."""


@dataclass(frozen=True)
class Empty:
    """The empty region; in N(e) it makes elimination unconditional."""


UNIVERSE = Universe()
EMPTY = Empty()


@dataclass(frozen=True)
class ExplicitRegion:
    """A finite point-set region with exact intersection (verification path)."""

    ids: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "ids", frozenset(int(i) for i in self.ids))


Region = Universe | Empty | ExplicitRegion | Ambit


@dataclass(frozen=True)
class Edge:
    """One hyperedge: all sources must be traversed before it fires."""

    sources: tuple[int, ...]
    target: int
    positive: tuple = ()
    negative: tuple = ()
    lazy: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(int(s) for s in self.sources))
        object.__setattr__(self, "target", int(self.target))
        object.__setattr__(self, "positive", tuple(self.positive))
        object.__setattr__(self, "negative", tuple(self.negative))
        if self.lazy:
            if self.positive and not all(isinstance(r, Empty) for r in self.positive):
                raise ValueError("lazy edges must be purely negative")
            if not self.negative:
                raise ValueError("lazy edges need at least one negative region")

    @property
    def is_root_edge(self) -> bool:
        return not self.sources and not self.positive and not self.negative

    @property
    def discovers(self) -> bool:
        """Whether firing may discover the target: no positive region is Empty."""
        return not any(isinstance(r, Empty) for r in self.positive)


class Fans:
    """Single-focus edges lo <= delta(source, .) <= hi, as columns.

    A fan is a run of rows from one source: fan f holds rows
    start[f]:start[f + 1], and row j is the logical edge
    len(sprawl.edges) + j into target[j]. A discovering fan's row is the
    ball delta(source, .) <= hi[j] as its positive label, with no
    negative label, the child edge of a ball-tree or pm-tree; builders
    and the index reader set its lo to hi, and nothing reads it. Any
    other row is the shell lo[j] <= delta(source, .) <= hi[j] as its
    negative label, with P = (Empty,), lazy when its fan is, as AESA,
    LAESA and pm-tree pivots give them. Discovering fans come first.
    `hi is lo` when every row is a sphere.
    """

    def __init__(self, source, start, target, lo, hi=None, discovers=None, lazy=None):
        self.source = np.asarray(source, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.int64)
        self.target = np.asarray(target, dtype=np.int64)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = self.lo if hi is None else np.asarray(hi, dtype=float)
        self.discovers = np.zeros(self.source.shape, bool) if discovers is None else np.asarray(discovers, dtype=bool)
        self.lazy = np.zeros(self.source.shape, bool) if lazy is None else np.asarray(lazy, dtype=bool)
        rows = self.target.shape
        if not (
            self.source.ndim == len(rows) == 1
            and self.source.shape == self.discovers.shape == self.lazy.shape
            and self.start.shape == (len(self.source) + 1,)
            and self.lo.shape == self.hi.shape == rows
        ):
            raise ValueError("fan columns must be 1-d with matching shapes")
        if self.start[0] != 0 or self.start[-1] != rows[0] or (np.diff(self.start) < 0).any():
            raise ValueError("fan starts must rise from 0 to the row count")
        # a NaN ball never meets a query, so its subtree would vanish; a NaN shell never misses
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise ValueError("a fan bound must not be NaN")
        if (self.lo > self.hi).any():
            raise ValueError("fan rows need lo <= hi")
        self.found = int(self.discovers.sum())  # the discovering fans, which come first
        if self.discovers[self.found :].any() or self.lazy[: self.found].any():
            raise ValueError("discovering fans come first and are never lazy")
        self.found_rows = int(self.start[self.found])
        # the source of each discovering row: what a plan, a check and the index file read
        self.ball_source = np.repeat(self.source[: self.found], np.diff(self.start[: self.found + 1]))

    def __len__(self) -> int:
        return int(self.target.shape[0])

    def edge(self, j: int) -> Edge:
        """Row j as the `Edge` it stands for."""
        f = int(np.searchsorted(self.start, j, "right")) - 1
        u, t = int(self.source[f]), int(self.target[j])
        if j < self.found_rows:
            return Edge((u,), t, (Ambit((u,), ambit_mod.BALL_MAP, (self.hi[j],)),), ())
        region = table1_region("shell", (u,), lo=self.lo[j], hi=self.hi[j])
        return Edge((u,), t, (EMPTY,), (region,), lazy=bool(self.lazy[f]))


# the fans of every sprawl built without any: every column is empty but
# `start`, which is frozen
_NO_FANS = Fans([], [0], [], [])
_NO_FANS.start.setflags(write=False)


class _BallColumns(NamedTuple):
    """Unit balls delta(source, .) <= r as columns, by source (`_by_source`):
    the balls of source v are rows start[v]:start[v + 1], its explicit
    unit ball edges in edge order, then its ball rows in fan order. Every
    plan has them. They are all a wave fires: a node with any other eager
    out-edge steps alone (see `Sprawl._plan`)."""

    start: np.ndarray
    target: np.ndarray
    r: np.ndarray
    checked: bool  # whether a target may already be done when its edge fires
    # whether anything but a wave reads the query-centre distances of the
    # nodes it measures: a wave then reads and fills the search's cache
    cached: bool


class Compiled(NamedTuple):
    """A sprawl's plan as `Sprawl._plan` compiles it, once per sprawl."""

    plan: Plan
    lazy_in: dict[int, list[int]]  # the lazy edges into each target
    lazy_rows: dict[int, list[tuple[int, float, float]]]  # (source, lo, hi) per lazy fan row into a target
    # in a dense plan, each shell fan's lo row and hi row (None for
    # spheres) by seed position, NaN where it has no row (`_shell_rows`)
    shells: tuple[list, list | None] | None
    balls: _BallColumns
    start: list[int]  # each fan's first row, and the row count
    source: list[int]  # each fan's source
    rows: list  # each node's ball rows, (targets, radii) in fan order, or None
    lean: bool  # whether a kNN search may take `_lean`'s step
    plain: dict[int, object]  # each node's value as the space measures it fastest (`ComparisonSpace.plain`)


class Sprawl:
    """Immutable-after-build index: ground set, explicit edges and fans."""

    def __init__(self, space: ComparisonSpace, nodes, edges, fans: Fans | None = None):
        self.space = space
        self.nodes: tuple[int, ...] = tuple(map(int, nodes))
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.fans = fans if fans is not None else _NO_FANS
        self._node_pos = dict(zip(self.nodes, range(len(self.nodes))))
        self._plan_cache = None
        self.validate()

    # fan row j is numbered after the explicit edges
    def logical_edge(self, idx: int) -> Edge:
        if not 0 <= idx < len(self.edges) + len(self.fans):
            raise IndexError("edge index out of range")
        return self.edges[idx] if idx < len(self.edges) else self.fans.edge(idx - len(self.edges))

    def iter_logical_edges(self):
        yield from enumerate(self.edges)
        for j in range(len(self.fans)):
            yield len(self.edges) + j, self.fans.edge(j)

    def validate(self) -> None:
        nodes, size = set(self.nodes), len(self.space)
        if len(nodes) != len(self.nodes):
            raise ValueError("node refs must be distinct")
        if nodes and not (0 <= min(nodes) and max(nodes) < size):
            raise IndexError(f"node refs must lie in [0, {size}), the refs of the space")
        pseudo = set()
        if isinstance(self.space, ProjectionSpace):
            pseudo = {self.space.axis_ref(i) for i in range(self.space.dimension)}
        for e in self.edges:
            if e.target not in nodes or any(s not in nodes for s in e.sources):
                raise IndexError(f"edge {e} refers to refs outside the ground set")
            allowed = set(e.sources) | pseudo
            for r in e.positive + e.negative:
                if isinstance(r, Ambit) and not set(r.foci) <= allowed:
                    raise ValueError(
                        f"region foci {r.foci} not covered by edge sources {e.sources}"
                    )
            if e.target in e.sources:
                warnings.warn(f"edge into {e.target} lists it as a source and can never fire usefully")
        f = self.fans
        if not (self.holds(f.source) and self.holds(f.target)):
            raise IndexError("fan refers to refs outside the ground set")
        if (f.ball_source == f.target[: f.found_rows]).any():
            warnings.warn("a ball edge into its own source can never fire usefully")

    def holds(self, refs: np.ndarray) -> bool:
        """Whether every ref of an int64 array is a node, by one lookup in
        a table by ref, so no column is sorted."""
        if not len(refs):
            return True
        known = np.zeros(len(self.space), dtype=bool)
        known[np.fromiter(self.nodes, dtype=np.int64, count=len(self.nodes))] = True
        # a negative ref would wrap round the table
        return bool(0 <= refs.min() and refs.max() < len(known) and known[refs].all())

    def _plan(self) -> Compiled:
        """The sprawl's `Compiled` plan, compiled on the first call, not
        with the sprawl, in one walk over the edges and one over the shell
        fans, with every unit ball grouped by source in numpy.

        The label-free root edges that precede every other sourceless edge
        become the plan's seeds. When every node is a seed and every eager
        edge is a shell fan, as AESA and LAESA build them, the plan is
        dense, so a kNN search can select by the fans' bounds, and a FIFO
        search over a plan with no `Waves` (AESA) by seed position.

        Shell fan f is plan edge len(edges) + f, and a node's discovering
        fans are one plan edge, numbered as the first of them. The ball
        columns group every unit ball by source (`_by_source`), explicit
        edges first, in edge order, then fan rows, in fan order, the
        order they fire in, since a node's shell fans come after them; a
        node's fan rows, the tail of its run, are also listed by node ref
        (`Compiled.rows`), which `_stepwise`'s `fire`, for every query
        kind, and `_lean`'s step read. Where no node has two discovering
        eager in-edges, a seed's root edge included, the plan's
        `sole_finder` lets a kNN search stop at its bound. Where every
        eager edge is a discovering fan, no edge or fan row is lazy and no
        ball target can be done when its edge fires (`_BallColumns.checked`
        False), as in a ball-tree, the plan is lean, for `_lean`.

        The `Waves` let a FIFO range search go a wave at a time. One rule
        keeps a wave exact: a wave fires unit balls delta(u, .) <= r only,
        and no wave node's fate or count hangs on a wave-mate. So three
        kinds of node step alone: every source of an eager edge that is
        not a unit ball (a shell fan, an eliminating edge, a discovering
        edge of another shape, a * delta(u, .) <= r with a != 1 too, an
        edge with several sources); the target of a sourceless eliminating edge,
        which fires before the first wave; and the target of a ball with
        more than one discovering in-edge, a seed's root edge included,
        which might otherwise share a wave with one of those balls' sources
        and be done before that ball tests it. A target of lazy edges or
        rows waits until their sources are traversed. Both kinds are
        marked once here (`Waves.marked`). Whatever eliminates a ball's
        target then steps alone, so a wave reads the targets' status only
        where some ball target is eliminable or found twice
        (`_BallColumns.checked`). A wave's distances go into the search's
        cache only where something else reads it: a lazy check, a node
        stepping alone, or a labelled sourceless edge, which fires before
        the first wave. Where every node is the source of an eager shell
        fan, as in AESA, every node would step alone, so the plan has no
        `Waves`; a dense plan then selects FIFO from its bound array.

        A dense plan keeps each shell fan as one row as wide as the
        seeds (`_shell_rows`), so a search fires it over the bound array
        in place, with no gather or scatter by target.
        """
        if self._plan_cache is not None:
            return self._plan_cache
        edges, nodes, fans, base = self.edges, self.nodes, self.fans, len(self.edges)
        span = max(nodes, default=-1) + 1
        eager, seeds = [], []
        seeding = True
        lazy_in: dict[int, list[int]] = {}
        finders = [0] * span  # discovering eager in-edges per target
        kills = np.zeros(span, dtype=bool)  # eliminable targets
        alone: set[int] = set()
        unit: list[tuple[int, int, float]] = []  # (source, target, r) per explicit unit ball edge
        labelled = False  # a sourceless edge with a label
        for i, e in enumerate(edges):
            if e.lazy:
                lazy_in.setdefault(e.target, []).append(i)
                continue
            t, sources = e.target, set(e.sources)
            finders[t] += e.discovers
            if seeding and e.is_root_edge:
                seeds.append(t)
                continue
            seeding = seeding and bool(sources)
            eager.append((i, e.sources))
            labelled = labelled or not (sources or e.is_root_edge)
            if e.negative:
                kills[t] = True
                if not sources:
                    alone.add(t)
            elif len(sources) == 1 and len(e.positive) == 1:
                (u,) = sources
                r = ambit_mod.ball_radius(e.positive[0], u)
                if r is not None:
                    unit.append((u, t, r))
                    continue
            alone |= sources
        found, found_rows = fans.found, fans.found_rows
        first = np.sort(np.unique(fans.source[:found], return_index=True)[1])  # each source's first ball fan
        ball_nodes = fans.source[first]
        eager += [(base + f, (u,)) for f, u in zip(first.tolist(), ball_nodes.tolist())]  # one plan edge each
        start, source = fans.start.tolist(), fans.source.tolist()
        finders = np.array(finders, dtype=np.int64) + np.bincount(fans.target[:found_rows], minlength=span)
        lazy_rows: dict[int, list[tuple[int, float, float]]] = {}  # (source, lo, hi) per lazy row into a target
        shelled = set()  # the sources of eager shell fans
        for f, lazy in enumerate(fans.lazy[found:].tolist(), found):
            u, cut = source[f], slice(start[f], start[f + 1])
            if lazy:
                for t, lo, hi in zip(fans.target[cut].tolist(), fans.lo[cut].tolist(), fans.hi[cut].tolist()):
                    lazy_rows.setdefault(t, []).append((u, lo, hi))
            else:
                eager.append((base + f, (u,)))
                shelled.add(u)
        kills[fans.target[np.repeat(~(fans.discovers | fans.lazy), np.diff(fans.start))]] = True  # eager shell rows
        explicit = np.array(unit, dtype=float).reshape(-1, 3).T  # a ref is exact as a float
        ball_source = np.concatenate([explicit[0].astype(np.int64), fans.ball_source])
        order, ball_start = _by_source(ball_source, span)
        ball_target = np.concatenate([explicit[1].astype(np.int64), fans.target[:found_rows]])[order]
        radius = np.concatenate([explicit[2], fans.hi[:found_rows]])[order]
        rows: list = [None] * span  # each node's fan rows, (targets, radii): the tail of its run
        ends = ball_start[ball_nodes + 1]
        firsts = ends - np.bincount(fans.ball_source, minlength=span)[ball_nodes]
        targets, radii = ball_target.tolist(), radius.tolist()
        for u, i, j in zip(ball_nodes.tolist(), firsts.tolist(), ends.tolist()):
            rows[u] = targets[i:j], radii[i:j]
        contested = finders[ball_target] > 1
        alone |= shelled | set(ball_target[contested].tolist())
        own = ball_target == ball_source[order]  # a ball into its own source
        checked = bool((contested | kills[ball_target] | own).any())
        cached = bool(lazy_in or lazy_rows or alone or labelled)
        columns = _BallColumns(ball_start, ball_target, radius, checked, cached)
        after: dict[int, set[int]] = {}
        for t, ids in lazy_in.items():
            after.setdefault(t, set()).update(*(edges[i].sources for i in ids))
        for t, refs in lazy_rows.items():
            after.setdefault(t, set()).update(u for u, _, _ in refs)
        after = {v: frozenset(vs) for v, vs in after.items()}
        marked = np.zeros(span, dtype=bool)  # the nodes that may cut a wave
        marked[np.fromiter(alone | after.keys(), dtype=np.int64)] = True
        waves = None if shelled >= set(nodes) else Waves(frozenset(alone), after, marked)
        # eager ids ascend, so the first is a shell fan's only if every eager edge is one
        dense = bool(eager) and eager[0][0] >= base + found and set(seeds) == set(nodes)
        plan = activation(eager, span, seeds, dense)
        plan = plan._replace(waves=waves, sole_finder=bool(finders.max(initial=0) <= 1))
        shells = _shell_rows(fans, plan.positions, len(plan.seeds)) if dense else None
        # eager ids ascend: every one is a discovering fan's if the first and the last are
        fanned = not eager or eager[0][0] >= base and eager[-1][0] < base + found
        lean = fanned and not (lazy_in or lazy_rows or checked)
        space = self.space
        plain = {v: space.plain(space.value(v)) for v in nodes}
        self._plan_cache = Compiled(plan, lazy_in, lazy_rows, shells, columns, start, source, rows, lean, plain)
        return self._plan_cache


def _by_source(source: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """The stable order that groups rows by source (each below span), and
    where each source's rows start in it, the row count last."""
    start = np.zeros(span + 1, dtype=np.int64)
    np.cumsum(np.bincount(source, minlength=span), out=start[1:])
    return np.argsort(source, kind="stable"), start


def _shell_rows(fans: Fans, positions: np.ndarray, width: int) -> tuple[list, list | None]:
    """Each shell fan of a dense plan as one row by seed position, `width`
    long, NaN where the fan has no row: the lo rows by fan, and the hi
    rows, or None where the rows are spheres (`fans.hi is fans.lo`). A
    dense plan has no discovering fan; a lazy fan's row is never fired.

    Each table is built by one flat scatter. A fan that names one target
    twice keeps the intersection of those rows, the largest lo and the
    smallest hi: its FIFO verdict is the one of any row missing, and its
    bound under "bound" the largest of theirs, bit for bit. Where such a
    merge makes a sphere fan's lo and hi differ, both tables are kept.
    """
    fanned = len(fans.source)
    flat = np.repeat(np.arange(fanned) * width, np.diff(fans.start))  # each row's place in the table
    flat += positions[fans.target]
    lows = np.full(fanned * width, np.nan)
    lows[flat] = fans.lo  # where a fan names a target twice, the last row's
    repeated = np.count_nonzero(lows == lows) < len(flat)  # fewer entries written than rows
    if repeated:
        np.maximum.at(lows, flat, fans.lo)
    highs = None
    if fans.hi is not fans.lo or repeated:
        highs = np.full(len(lows), np.nan)
        highs[flat] = fans.hi
        if repeated:
            np.minimum.at(highs, flat, fans.hi)
    return list(lows.reshape(fanned, width)), None if highs is None else list(highs.reshape(fanned, width))


# --- query evaluation -------------------------------------------------------


class _CenterDistances(dict):
    """delta(c, ref) by ref for one search, each measured and charged on its
    first read, through the centre's one `measurer`, on its plain value."""

    def __init__(self, ev: _QueryEval):
        super().__init__()
        self.ev = ev

    def __missing__(self, ref: int) -> float:
        ev = self.ev
        b = ev.plain[ref] if ref in ev.plain else ev.space.plain(ev.space.resolve(ref))
        d = self[ref] = ev.measurer(b)
        ev.session.charge()
        return d


class _QueryEval:
    """Per-search caches: query-center distances and one delta per pair of refs.

    Membership and overlap verdicts come from `ambit`; this class supplies
    the distances and dispatches on region kind: one node's distance to
    the centre through one `measurer`, a batch's through `measure_row`.
    """

    def __init__(self, space: ComparisonSpace, query, plain: dict | None = None):
        self.space = space
        self.query = query
        self.plain = plain or {}  # ref -> `space.plain` of its value, as `Compiled.plain` holds them
        self.session = CostSession()
        refs = query.foci if isinstance(query, AmbitQuery) else query.ids if isinstance(query, ExplicitSetQuery) else ()
        for ref in refs:  # a query ref outside the space is refused before any distance
            space.resolve(ref)
        if isinstance(query, AmbitQuery):  # the backward ambit of its weighted foci
            self.query_region = Ambit(query.foci, LinearMap([query.weights]), (query.radius,), "backward")
            self.linear = ambit_mod.linear_query(self.query_region, space.symmetric)
        self.warned = False  # whether `missed` has logged its sign rule's fallback
        self.region_evaluations = 0
        # delta(c, ref) per ref. A `Ball` search also reads a region focus's
        # z = delta(focus, c) here: it reaches an ambit or fan only on a
        # symmetric space (`_refuse_unsound`), where the two are equal.
        self._to_center = _CenterDistances(self)
        self._pairs: dict[tuple[int, int], float] = {}  # delta(a, b) by (a, b), for `pair`

    @cached_property
    def center(self):
        """The ball centre as the space measures it, resolved once: a
        ref's value, or a raw value coerced and checked."""
        return self.space.resolve(self.query.center)

    @cached_property
    def measurer(self):
        """The uncounted distance from `center` to a value made plain
        (`ComparisonSpace.measurer`), built once; each caller charges the
        session for each call."""
        return self.space.measurer(self.space.plain(self.center))

    def dist_to_center(self, ref: int) -> float:
        return self._to_center[ref]

    def dists_to_center(self, refs: np.ndarray, cached: bool) -> np.ndarray:
        """`dist_to_center` of each ref of an int64 array, in one
        `measure_row` call, whose rows equal `measurer` bit for bit. Only
        where `cached`, refs already in the cache are read from it and the
        others put there."""
        if not cached:
            return self.space.measure_row(self.center, refs, self.session)
        cache = self._to_center
        refs = refs.tolist()
        todo = [r for r in refs if r not in cache]
        if todo:
            d = self.space.measure_row(self.center, todo, self.session)
            cache.update(zip(todo, d.tolist()))
            if len(todo) == len(refs):
                return d
        return np.array([cache[r] for r in refs], dtype=float)

    def pair(self, a: int, b: int) -> float:
        """delta(a, b), measured once per search: every distance of a non-ball
        query (membership, explicit-set radients, `overlap_linear`'s Z) reads it."""
        d = self._pairs.get((a, b))
        if d is None:
            d = self._pairs[a, b] = self.space.compare(a, b, self.session)
        return d

    def z(self, u: int) -> float:
        """delta(c, u) for a `Ball`; for an `AmbitQuery`, Z c^ with Z the 1 x k
        distances delta(u, f), as `ambit.overlap_linear` forms it for focus u."""
        if isinstance(self.query, Ball):
            return self.dist_to_center(u)
        return (np.array([[self.pair(u, f) for f in self.query.foci]]) @ self.linear[0])[0]

    def missed(self, u: int, lo, hi, z=None):
        """Which fan rows lo <= delta(u, .) <= hi of source u (arrays or
        scalars; a ball row is the shell from -inf) surely miss the query:
        `shells_missed` at `z(u)`, or at the rows' z, for a `Ball` or, under
        its sign rule, an `AmbitQuery`; for an `ExplicitSetQuery`, the rows
        holding no id, measured by `pair` in id order until all hold one."""
        q = self.query
        if isinstance(q, ExplicitSetQuery):
            held = np.zeros(np.shape(hi), dtype=bool)
            for i in itertools.takewhile(lambda _: not held.all(), sorted(q.ids)):
                held |= ambit_mod.shells_hold(self.pair(u, i), lo, hi)
            return ~held
        z = self.z(u) if z is None else z
        _, s, upper, lower = (None, q.radius, True, True) if isinstance(q, Ball) else self.linear
        if not (self.warned or upper and (lower or np.isneginf(lo).all())):
            self.warned = True  # once per search
            log.warning("the sign rule keeps some fan rows from ruling %r out; assuming overlap there", q)
        return ambit_mod.shells_missed(z, lo if lower else -np.inf, hi, s) if upper else np.zeros(np.shape(hi), bool)

    def member(self, ref: int, s: float | None = None) -> bool:
        q = self.query
        if isinstance(q, Ball):
            radius = q.radius if s is None else s
            return self.dist_to_center(ref) <= radius
        if isinstance(q, ExplicitSetQuery):
            return ref in q.ids
        if isinstance(q, AmbitQuery):  # the backward query region reads delta(ref, f)
            return self.query_region.contains_features([self.pair(ref, f) for f in q.foci])
        raise TypeError(f"unsupported query {q!r}")

    def intersects(self, region, s: float | None = None) -> bool:
        """Conservative region/query overlap; never a false negative."""
        self.region_evaluations += 1
        q = self.query
        if isinstance(region, Empty):
            return False
        if isinstance(region, Universe):
            if isinstance(q, ExplicitSetQuery):
                return bool(q.ids)
            return True
        if isinstance(region, ExplicitRegion):
            if isinstance(q, ExplicitSetQuery):
                return bool(region.ids & q.ids)
            return any(self.member(i, s) for i in sorted(region.ids))
        if isinstance(region, Ambit):
            if isinstance(q, ExplicitSetQuery):  # each id's radients, measured only if the check reaches it
                back = region.orientation == "backward" and not self.space.symmetric
                xs = ([self.pair(i, f) if back else self.pair(f, i) for f in region.foci] for i in sorted(q.ids))
                return ambit_mod.overlap_refs(region, xs)
            if isinstance(q, Ball):
                radius = q.radius if s is None else s
                try:
                    return ambit_mod.overlap_radients(region, [self.z(p) for p in region.foci], radius)
                except CapabilityError:
                    log.warning("no sound overlap check for %r; assuming overlap", region)
                    return True
            if isinstance(q, AmbitQuery):
                if not isinstance(region.map, LinearMap):
                    log.warning("non-linear region vs ambit query; assuming overlap")
                    return True
                Z = np.array([[self.pair(p, qf) for qf in q.foci] for p in region.foci], dtype=float)
                try:
                    return ambit_mod.overlap_linear(
                        region, self.query_region, Z, symmetric=self.space.symmetric
                    )
                except CapabilityError:
                    log.warning("sign precondition failed for %r; assuming overlap", region)
                    return True
        raise CapabilityError(f"no overlap check for {type(region).__name__} vs {type(q).__name__}")


def validate_atomistic(space: ComparisonSpace, nodes, workload: Workload) -> bool:
    """Check the atomistic contract: each ground-set member of any query
    must itself appear as a singleton query."""
    if not workload.atomistic:
        return False
    singletons = set()
    for q in workload.queries:
        if isinstance(q, ExplicitSetQuery) and len(q.ids) == 1:
            singletons |= q.ids
        elif isinstance(q, Ball) and q.k is None and q.radius == 0.0:
            singletons.update(linear_scan(space, nodes, q))
    return all(singletons.issuperset(linear_scan(space, nodes, q)) for q in workload.queries)


# --- reduction and search ---------------------------------------------------


def _refuse_unsound(sprawl: Sprawl, query) -> None:
    """Fail closed where the ball overlap bound does not hold.

    Region and shell checks bound a ball by delta(p, c) <= delta(p, u) + s,
    which needs delta(u, c) <= s; on an asymmetric space ball membership
    only gives delta(c, u) <= s, so those checks could drop a member.
    """
    if isinstance(query, Ball) and not sprawl.space.symmetric and (
        len(sprawl.fans.source)
        or any(isinstance(r, Ambit) for e in sprawl.edges for r in e.positive + e.negative)
    ):
        raise CapabilityError("ball queries on an asymmetric space need a sprawl without ambit regions or fans")


def reduce_to_signed(sprawl: Sprawl, query) -> SignedHyperdigraph:
    """Evaluate every edge label against the query, keeping signed edges,
    in logical-edge order.

    An edge is positive when the query meets every region in both labels,
    negative when it misses some negative region, and dropped otherwise.
    Explicit edges go edge by edge through `_QueryEval.intersects`. Fan
    rows are read as columns, each the shell it bounds (a ball row's from
    lo = -inf), through `_QueryEval.missed`: one verdict over every row at
    each fan source's z for a `Ball` or an `AmbitQuery`, one mask per fan
    for an `ExplicitSetQuery`. A ball row, whose one label is its positive
    ball, is positive where its shell is not missed; a shell row, labelled
    P = (Empty,) and its negative shell, is negative where it is.
    """
    _refuse_unsound(sprawl, query)
    ev = _QueryEval(sprawl.space, query)
    pos, fans = sprawl._node_pos, sprawl.fans
    out = []
    for e in sprawl.edges:
        if not all([ev.intersects(r) for r in e.negative]):
            out.append(HyperEdge(frozenset(pos[s] for s in e.sources), pos[e.target], -1))
        elif all(ev.intersects(r) for r in e.positive):
            out.append(HyperEdge(frozenset(pos[s] for s in e.sources), pos[e.target], +1))
    if len(fans):
        cut, start, sources, counts = fans.found_rows, fans.start.tolist(), fans.source.tolist(), np.diff(fans.start)
        lo = np.concatenate([np.full(cut, -np.inf), fans.lo[cut:]])
        if isinstance(query, ExplicitSetQuery):
            missed = np.concatenate([ev.missed(u, lo[a:b], fans.hi[a:b]) for u, a, b in zip(sources, start, start[1:])])
        else:  # a `Ball`'s z from one distance row
            z = ev.dists_to_center(fans.source, False) if isinstance(query, Ball) else [ev.z(u) for u in sources]
            missed = ev.missed(None, lo, fans.hi, z=np.repeat(z, counts))
        found, missed = np.flatnonzero(~missed[:cut]), cut + np.flatnonzero(missed[cut:])
        at = np.zeros(len(sprawl.space), dtype=np.int64)  # each node's position, by ref
        at[np.asarray(sprawl.nodes, dtype=np.int64)] = np.arange(len(sprawl.nodes))
        source, target = at[fans.source].repeat(counts), at[fans.target]
        for rows, sign in ((found, +1), (missed, -1)):
            out += [HyperEdge(frozenset((u,)), t, sign) for u, t in zip(source[rows].tolist(), target[rows].tolist())]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SignedHyperdigraph(len(sprawl.nodes), out)


@dataclass
class SearchResult:
    members: tuple[int, ...]
    traversed: int
    distance_computations: int
    region_evaluations: int
    order: tuple[int, ...] = ()


def search(sprawl: Sprawl, query, heuristic: Heuristic | None = None) -> SearchResult:
    """Traverse the sprawl for a query, evaluating regions on demand.

    The traversal loop is `hypergraph.Frontier.run`, which keeps each
    node's status as a byte by ref in every selection form. A kNN search
    under "bound" over a lean plan with `sole_finder` (a ball-tree, as
    built or loaded; see `Sprawl._plan`) takes `_lean`'s step; every other
    search steps through `_stepwise`.
    """
    _refuse_unsound(sprawl, query)
    compiled = sprawl._plan()
    ev = _QueryEval(sprawl.space, query, compiled.plain)
    k = query.k if isinstance(query, Ball) else None
    if heuristic is None:
        heuristic = Heuristic.fifo() if k is None else Heuristic("bound")
    frontier = Frontier(compiled.plan, heuristic)
    bound = heuristic.kind == "bound"
    if k is not None and bound and compiled.plan.sole_finder and compiled.lean:
        order, members = _lean(compiled, ev, frontier, k)
    else:
        order, members = _stepwise(sprawl, compiled, ev, frontier, k, bound)
    return SearchResult(
        members=tuple(members),
        traversed=len(order),
        distance_computations=ev.session.distance_computations,
        region_evaluations=ev.region_evaluations,
        order=tuple(order),
    )


def _nearest(k: int, frontier: Frontier):
    """The k nearest of a kNN search: `admit(v, d)` keeps v, at distance
    d, if it is among the k nearest so far, cuts the frontier at the k-th
    distance whenever that falls, and returns the k-th distance (inf until
    k are kept); `ranked()` lists the k nearest by (distance, ref)."""
    worst: list[tuple[float, int]] = []  # max-heap via negation: (-(dist), -ref)
    kth = math.inf

    def admit(v: int, d: float) -> float:
        nonlocal kth
        item = (-d, -v)
        if len(worst) < k:
            heapq.heappush(worst, item)
        elif item > worst[0]:
            heapq.heapreplace(worst, item)
        else:
            return kth  # the k nearest so far are unchanged
        if len(worst) == k and -worst[0][0] != kth:  # the k-th distance fell
            kth = -worst[0][0]
            frontier.cut(ambit_mod.bound_cutoff(kth))
        return kth

    return admit, lambda: [v for _, v in sorted((-nd, -nr) for nd, nr in worst)]


def _lean(c: Compiled, ev: _QueryEval, frontier: Frontier, k: int) -> tuple[list[int], list[int]]:
    """A kNN search by the lean best-first step: one callback per selected
    node measures it once, through the centre's measurer, admits it to the
    k nearest, and returns the pairs `ambit.overlap_facet_pairs` gives for
    its ball rows (`Compiled.rows`), which `Frontier.run` queues itself;
    neither `fire` nor `Frontier.discover_at` runs. Every traversed node is
    measured exactly once and nothing else is, so the distances are charged
    in bulk. Members, order and both counts are those of `_stepwise`."""
    admit, ranked = _nearest(k, frontier)
    dist, plain, rows = ev.measurer, c.plain, c.rows

    def step(v: int) -> list:
        """Admit v at its distance, then return the (bound, target) pairs
        of its ball rows that meet the query at the k-th distance as v
        leaves it."""
        d = dist(plain[v])
        s = admit(v, d)
        if rows[v] is None:
            return []
        targets, radii = rows[v]
        ev.region_evaluations += len(targets)
        return ambit_mod.overlap_facet_pairs(radii, targets, d, s)

    order = frontier.run(None, step)
    ev.session.charge(len(order))  # each traversed node was measured once
    return order, ranked()


def _stepwise(
    sprawl: Sprawl, c: Compiled, ev: _QueryEval, frontier: Frontier, k: int | None, bound: bool
) -> tuple[list[int], list[int]]:
    """A search that selects one node at a time, in the heap or the dense
    form of `Frontier`, or, for a FIFO range search (a `Ball` with no k)
    whose plan carries `Waves`, a wave at a time.

    `visit` tests a selected node for membership; a `Ball` search reads
    every node's distance from `_QueryEval._to_center`, which measures it on
    its first read and charges one distance for it. Lazy
    negative edges and lazy fan rows are consulted (`refused`) only just
    before their target would be traversed. `fire` fires a node's ball rows
    from `Compiled.rows`, for every query kind: a `Ball` search with one
    lookup of the node's distance, one `ambit.overlap_facet_pairs` call and
    one bulk `Frontier.discover_at` (`discover_all`, at bound 0, for a range
    search), reading a target's status to count the rows evaluated only
    where some ball target may be done when its edge fires
    (`_BallColumns.checked`); any other query, as for a shell fan, with one
    `_QueryEval.missed` verdict over the rows of its live targets. A `Ball`
    search fires a shell fan by eliminating all its missed targets at once.

    For kNN the cover radius starts at infinity and falls to the k-th
    distance (`_nearest`); node priorities are the per-edge region lower
    bounds, and where the plan proves each node's bound its one discovering
    edge's (`Plan.sole_finder`), the "bound" heuristic stops once the
    smallest bound left is beyond the radius. When the frontier is dense
    under "bound" (see `Sprawl._plan`), a fired shell fan is one row by
    seed position (`Compiled.shells`) and raises each target's shell lower
    bound in place, and a bound beyond the current radius eliminates, as
    in AESA and LAESA. When it is dense under FIFO (AESA), the next node is
    the first live root, and a fired shell fan eliminates its missed
    targets by one mask store over that row, as the classic AESA range
    loop does.

    A wave goes through one callback, `wave`: one `measure_row` call tests
    the whole wave for membership, filling the centre-distance cache only
    where the plan has another reader for it (`_BallColumns.cached`). A
    wave node's eager out-edges are all unit balls, fan rows and explicit
    edges, since any node with another kind steps alone; they get one
    verdict over the plan's ball columns (`ambit.overlap_facet_columns`),
    and the surviving targets, in edge order, join the queue in one
    `Frontier.discover_all`. Members, order and both counts are those of
    the node-at-a-time form.
    """
    query, edges, fans, explicit = ev.query, sprawl.edges, sprawl.fans, len(sprawl.edges)
    balls, start, source, rows = c.balls, c.start, c.source, c.rows
    lows, highs = c.shells or (None, None)
    lazy_in, lazy_rows, found = c.lazy_in, c.lazy_rows, fans.found
    ball, knn = isinstance(query, Ball), k is not None
    s = math.inf if knn else query.radius if ball else None  # the cover radius
    if knn:
        admit, ranked = _nearest(k, frontier)
        dist, session, plain = ev.measurer, ev.session, c.plain
    steer = frontier.dense and bound and ball
    if steer:
        frontier.cut(ambit_mod.bound_cutoff(s))
    to_center = ev._to_center  # each node's distance, measured on its first read

    def fire(edge_ids) -> None:
        done = frontier.done
        for ei in edge_ids:
            f = ei - explicit
            if f < 0:  # an explicit edge
                e = edges[ei]
                t = e.target
                if t in done:
                    continue
                if not all(ev.intersects(r, s) for r in e.negative):
                    frontier.eliminate([t])
                elif all(ev.intersects(r, s) for r in e.positive):
                    if knn:  # at the largest lower bound of its linear regions
                        linear = [r for r in e.positive if isinstance(r, Ambit) and isinstance(r.map, LinearMap)]
                        reach = [ambit_mod.ball_reach(r, [ev.z(p) for p in r.foci]) for r in linear]
                        frontier.discover_at(((max([0.0, *reach]), t),))
                    else:
                        frontier.discover_all((t,))
            elif not ball:  # u's ball rows, each the shell from -inf, or a shell fan
                u = source[f]
                if f < found:
                    targets, lo, hi = np.array(rows[u][0], dtype=np.int64), -np.inf, np.array(rows[u][1])
                else:
                    targets, lo, hi = (col[start[f] : start[f + 1]] for col in (fans.target, fans.lo, fans.hi))
                live = frontier.undone(targets)
                ev.region_evaluations += int(np.count_nonzero(live))
                missed = ev.missed(u, lo if f < found else lo[live], hi[live])
                if f < found:
                    frontier.discover_all(targets[live][~missed].tolist())
                else:
                    frontier.eliminate(targets[live][missed])
            elif f < found:  # all of u's ball rows: its discovering fans' one plan edge
                u = source[f]
                targets, radii = rows[u]
                # a done target's row is not evaluated, and only where `checked` may one be done
                ev.region_evaluations += sum(t not in done for t in targets) if balls.checked else len(targets)
                pairs = ambit_mod.overlap_facet_pairs(radii, targets, to_center[u], s)
                if knn:
                    frontier.discover_at(pairs)
                else:  # at bound 0, which only a "bound" key reads
                    frontier.discover_all([t for _, t in pairs])
            else:  # a shell fan, rows first:end
                first, end, u = start[f], start[f + 1], source[f]
                z = to_center[u]
                ev.region_evaluations += end - first
                if frontier.dense:  # one full-width row by seed position, in place
                    lo, hi = lows[f], None if highs is None else highs[f]
                    if steer:
                        frontier.raise_row(
                            ambit_mod.sphere_bounds(z, lo) if hi is None else ambit_mod.shell_bounds(z, lo, hi)
                        )
                    else:
                        frontier.eliminate_row(
                            ambit_mod.spheres_missed(z, lo, s) if hi is None else ambit_mod.shells_missed(z, lo, hi, s)
                        )
                else:
                    lo, hi = fans.lo[first:end], fans.hi[first:end]
                    frontier.eliminate(fans.target[first:end][ambit_mod.shells_missed(z, lo, hi, s)])

    members: list[int] = []
    lazy = bool(lazy_in or lazy_rows)

    def refused(v: int, traversed) -> bool:
        """Whether a lazy edge or row into v that is armed, its sources all
        in traversed, misses the query; every one is armed where traversed
        is None, as for a wave node (see `Waves`)."""
        for ei in lazy_in.get(v, ()):
            e = edges[ei]
            if traversed is None or all(u in traversed for u in e.sources):
                for r in e.negative:
                    if not ev.intersects(r, s):
                        return True
        for u, lo, hi in lazy_rows.get(v, ()):
            if traversed is None or u in traversed:
                ev.region_evaluations += 1
                if ambit_mod.shells_missed(to_center[u], lo, hi, s) if ball else ev.missed(u, lo, hi):
                    return True
        return False

    def visit(v: int) -> bool:
        """Refuse v if an armed lazy edge misses the query, else record it."""
        nonlocal s
        if lazy and refused(v, frontier.traversed):
            return False
        if knn:
            d = to_center.get(v)
            if d is None:  # `to_center[v]` without its `__missing__` call: most kNN visits are first reads
                d = to_center[v] = dist(plain[v])
                session.charge()
            s = admit(v, d)
        elif ev.member(v):
            members.append(v)
        return True

    hits: list[np.ndarray] = []  # the members of each wave

    def wave(vs: np.ndarray) -> np.ndarray:
        """`visit` and `fire` for a whole wave: lazy refusals, one batched
        distance call, then one verdict for every ball row of the kept
        nodes, whose survivors are discovered in edge order."""
        if lazy:
            vs = vs[np.fromiter((not refused(v, None) for v in vs.tolist()), dtype=bool, count=len(vs))]
        z = ev.dists_to_center(vs, balls.cached)
        hits.append(vs[z <= s])
        first = balls.start[vs]
        counts = balls.start[vs + 1] - first
        rows = _runs(first, counts)  # the rows of each source in turn
        z = z.repeat(counts)
        targets = balls.target[rows]
        if balls.checked:
            live = frontier.undone(targets)
            rows, z, targets = rows[live], z[live], targets[live]
        ev.region_evaluations += len(rows)
        hit = ambit_mod.overlap_facet_columns(balls.r[rows], z, s)
        frontier.discover_all(targets[hit])
        return vs

    order = frontier.run(fire, visit, wave if ball and not knn and c.plan.waves is not None else None)
    if knn:
        return order, ranked()
    if hits:  # the members are gathered as arrays and made Python ints once
        return order, np.sort(np.concatenate([*hits, np.array(members, dtype=np.int64)])).tolist()
    return order, sorted(members)


def linear_scan(space: ComparisonSpace, nodes, query) -> tuple[int, ...]:
    """Brute-force oracle: the members of `query` among `nodes`, in node
    order; for a kNN ball, the k nodes first in (distance, ref) order, so a
    tie in distance goes to the smaller ref.

    The nodes become one int64 array, measured by one distance row (a
    ball) or one membership mask (an ambit query), so no Python runs per
    node but the space's own kernel; an explicit set is a set lookup per
    node. Every distance is measured afresh: the scan reads no search cache.
    A node ref that is negative or outside the space is refused up front.
    """
    if isinstance(nodes, range):
        refs = np.arange(nodes.start, nodes.stop, nodes.step, dtype=np.int64)
    else:
        refs = np.fromiter(nodes, dtype=np.int64)
    if len(refs) and refs.view(np.uint64).max() >= len(space):  # one pass: a negative ref views as >= 2**63
        raise IndexError(f"a node ref is negative or past the space's {len(space)} refs")
    if isinstance(query, Ball):
        dists = space.measure_row(space.resolve(query.center), refs)
        if query.k is not None:
            return tuple(refs[np.lexsort((refs, dists))[: query.k]].tolist())
        return tuple(refs[dists <= query.radius].tolist())
    ev = _QueryEval(space, query)  # refuses a query ref outside the space
    if isinstance(query, AmbitQuery):
        return tuple(refs[ambit_mod.membership_mask(space, ev.query_region, refs, tol=0.0)].tolist())
    if isinstance(query, ExplicitSetQuery):
        ids = query.ids
        return tuple(v for v in refs.tolist() if v in ids)
    raise TypeError(f"unsupported query {query!r}")


# --- exhaustive correctness -------------------------------------------------


@dataclass
class CorrectnessReport:
    correct: bool
    certificate: tuple | None = None  # (query index, maximal traversal, missing nodes)

    def __bool__(self) -> bool:
        return self.correct


def check_correct_small(sprawl: Sprawl, workload: Workload, cap: int = 8) -> CorrectnessReport:
    """Verify that every maximal traversal covers each query, by enumeration.

    Availability depends only on the traversed *set*, so the repertoire
    is explored as a DAG of bitmask states; the first maximal state
    missing a required node is expanded back into a sequence certificate.
    """
    n = len(sprawl.nodes)
    if n > cap:
        raise SizeLimitError(f"correctness check capped at {cap} nodes, sprawl has {n}")
    if any(isinstance(q, Ball) and q.k is not None for q in workload.queries):
        # a kNN query's radius is its k-th distance, known only once searched
        raise CapabilityError("the exhaustive correctness check takes range queries, not kNN")
    for qi, query in enumerate(workload.queries):
        avail = successors(reduce_to_signed(sprawl, query))
        required = sum(1 << sprawl._node_pos[v] for v in linear_scan(sprawl.space, sprawl.nodes, query))
        seen = {0}
        parent: dict[int, tuple[int, int]] = {}
        stack = [0]
        while stack:
            state = stack.pop()
            a = avail(state)
            if a == 0:
                if required & ~state:
                    seq: list[int] = []
                    cur = state
                    while cur:
                        prev, bit = parent[cur]
                        seq.append(bit.bit_length() - 1)
                        cur = prev
                    traversal = tuple(sprawl.nodes[i] for i in reversed(seq))
                    missing = tuple(
                        sprawl.nodes[i] for i in range(n) if (required & ~state) >> i & 1
                    )
                    return CorrectnessReport(False, (qi, traversal, missing))
                continue
            rest = a
            while rest:
                bit = rest & -rest
                rest ^= bit
                nxt = state | bit
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = (state, bit)
                    stack.append(nxt)
    return CorrectnessReport(True, None)


# --- DNF tautology gadget ---------------------------------------------------


Literal = tuple[int, bool]
Clause = frozenset
DnfFormula = tuple


def parse_dnf(text: str) -> tuple[DnfFormula, tuple[str, ...]]:
    """Parse e.g. "(x&y)|(!x)|(!y&x)" into clauses of (variable, polarity)."""
    names: dict[str, int] = {}
    clauses = []
    body = text.replace(" ", "")
    if not body:
        raise ValueError("empty formula")
    for part in body.split("|"):
        part = part.strip()
        if part.startswith("(") and part.endswith(")"):
            part = part[1:-1]
        if not part:
            raise ValueError(f"empty clause in {text!r}")
        clause = set()
        for lit in part.split("&"):
            lit = lit.strip()
            positive = True
            while lit.startswith("!"):
                positive = not positive
                lit = lit[1:]
            if not lit.isidentifier():
                raise ValueError(f"bad literal {lit!r} in {text!r}")
            var = names.setdefault(lit, len(names))
            clause.add((var, positive))
        clauses.append(frozenset(clause))
    return tuple(clauses), tuple(sorted(names, key=names.get))


def is_tautology(formula: DnfFormula, var_count: int) -> bool:
    """Truth-table oracle: true iff some clause holds under every assignment."""
    for bits in range(1 << var_count):
        assignment = [(bits >> i) & 1 == 1 for i in range(var_count)]
        if not any(
            all(assignment[var] == positive for var, positive in clause) for clause in formula
        ):
            return False
    return True


def build_dnf_gadget(formula: DnfFormula, cap: int = 8) -> tuple[Sprawl, Workload]:
    """Encode a DNF formula as a sprawl that is correct iff it is a tautology.

    One root per literal, with mutual unconditional negative edges per
    variable, so the traversed literals form a truth assignment; one edge
    per clause targets the formula node, guarded by an exact point region.
    """
    var_count = max((var for clause in formula for var, _ in clause), default=-1) + 1
    n = 2 * var_count + 1
    if n > cap:
        raise SizeLimitError(f"gadget needs {n} nodes, cap is {cap}")
    phi = n - 1
    space_ = MatrixSpace(np.ones((n, n)) - np.eye(n))

    def lit_node(var: int, positive: bool) -> int:
        return 2 * var + (0 if positive else 1)

    edges = []
    for v in range(var_count):
        a, b = lit_node(v, True), lit_node(v, False)
        edges.append(Edge((), a))
        edges.append(Edge((), b))
        edges.append(Edge((a,), b, (), (EMPTY,)))
        edges.append(Edge((b,), a, (), (EMPTY,)))
    for clause in formula:
        sources = tuple(sorted(lit_node(var, positive) for var, positive in clause))
        edges.append(Edge(sources, phi, (ExplicitRegion(frozenset({phi})),), ()))
    sprawl = Sprawl(space_, range(n), edges)
    return sprawl, Workload((ExplicitSetQuery(frozenset({phi})),), atomistic=False)


# --- responsibility ---------------------------------------------------------


class ResponsibilityAssignment:
    """res(e) per logical edge; unlisted edges carry no responsibilities.

    Each edge's members are kept as given, as the index reader's lists or
    a builder's tuples of refs, and made a frozenset only when `get` or
    `edge_to_nodes` asks, so loading an index builds none.
    """

    def __init__(self, edge_to_nodes: dict | None = None):
        given = edge_to_nodes or {}
        self.members = dict(zip(map(int, given), given.values()))
        self._sets: dict[int, frozenset[int]] = {}

    def get(self, edge_index: int) -> frozenset[int]:
        if edge_index not in self.members:
            return frozenset()
        got = self._sets.get(edge_index)
        if got is None:
            got = self._sets[edge_index] = frozenset(int(x) for x in self.members[edge_index])
        return got

    @property
    def edge_to_nodes(self) -> dict[int, frozenset[int]]:
        """Every listed edge's members as a frozenset."""
        return {k: self.get(k) for k in self.members}


@dataclass
class ResponsibilityReport:
    passed: bool
    violations: list = field(default_factory=list)  # (rule, edge index, node, region repr)

    def __bool__(self) -> bool:
        return self.passed


def check_responsibility(
    sprawl: Sprawl, res: ResponsibilityAssignment, workload: Workload
) -> ResponsibilityReport:
    """Local responsibility conditions for acyclic sprawls.

    L1: res(e) inside every positive region of e. L2: res(target), in the
    node shorthand, inside every negative region of e. L3: res(v) covered
    by the union of res over v's incoming edges. Point-in-region is
    decided by `region_member_mask` for explicit edges, and fan rows are
    tested a fan at a time (`_fan_violations`). Violations are listed by
    logical edge, L1 before L2, then L3 by node.
    """
    if not workload.atomistic:
        raise ValueError("responsibility is defined against an atomistic workload")
    edges, fans, base = sprawl.edges, sprawl.fans, len(sprawl.edges)
    if any(not 0 <= k < base + len(fans) for k in res.members):
        raise ValueError("a responsibility key names no logical edge")
    missing = set(sprawl.nodes) - {e.target for e in edges} - set(np.unique(fans.target).tolist())
    if missing:
        raise StructureError(f"nodes {sorted(missing)} are targeted by no edge")

    # discovery-capable edges must admit a topological node order; every ball row discovers
    order = TopologicalSorter()
    for e in edges:
        if e.discovers:
            order.add(e.target, *e.sources)
    for u, t in zip(fans.ball_source.tolist(), fans.target[: fans.found_rows].tolist()):
        order.add(t, u)
    try:
        order.prepare()
    except CycleError:
        raise StructureError("sprawl discovery edges are cyclic") from None

    owned: dict[int, list[int]] = {}  # the fan rows with responsibilities, by fan
    for j in sorted(k - base for k in res.members if k >= base):
        owned.setdefault(int(np.searchsorted(fans.start, j, "right")) - 1, []).append(j)
    node_res: dict[int, set[int]] = {v: {v} for v in sprawl.nodes}
    in_union: dict[int, set[int]] = {v: set() for v in sprawl.nodes}
    for idx, e in enumerate(edges):
        for s in set(e.sources):
            node_res[s] |= res.get(idx)
        in_union[e.target] |= res.get(idx)
    for f, rows in owned.items():
        for j in rows:
            node_res[int(fans.source[f])] |= res.get(base + j)
            in_union[int(fans.target[j])] |= res.get(base + j)

    violations = []
    for idx, e in enumerate(edges):
        for rule, regions, refs in (("L1", e.positive, res.get(idx)), ("L2", e.negative, node_res[e.target])):
            refs = sorted(refs)
            for r in regions:
                inside = region_member_mask(sprawl.space, r, refs)
                violations.extend((rule, idx, v, repr(r)) for v, ok in zip(refs, inside) if not ok)
    violations += _fan_violations(sprawl, res, owned, node_res)
    for v in sprawl.nodes:
        extra = node_res[v] - in_union[v]
        for u in sorted(extra):
            violations.append(("L3", None, v, f"responsibility {u} not covered by in-edges"))
    return ResponsibilityReport(not violations, violations)


def _fan_violations(sprawl: Sprawl, res: ResponsibilityAssignment, owned: dict, node_res: dict) -> list:
    """The L1 and L2 violations of the fan rows, in the order in which
    `check_responsibility` would find them in the rows' `Edge`s, a fan at
    a time, each fan's tests reading one distance row from its source
    (`ambit.shells_hold`). L1 tests the members of a ball fan's rows in
    `owned` against their radii; the members of a shell row in `owned` all
    fail it, as its positive label is Empty. L2 tests the node shorthand
    (`node_res`) of each shell row's target against the row's shell. A
    row's `Edge` is built only to name the region a violation fails."""
    fans, base, space = sprawl.fans, len(sprawl.edges), sprawl.space
    if fans.found < len(fans.source):  # each node's shorthand, sorted, as columns by ref
        refs = sorted(node_res)
        size = np.zeros(len(space), dtype=np.int64)
        size[refs] = [len(node_res[v]) for v in refs]
        first = _exclusive(size)
        flat = np.fromiter(itertools.chain.from_iterable(sorted(node_res[v]) for v in refs), dtype=np.int64)

    def outside(u: int, row: np.ndarray, members: np.ndarray, lo, rule: int) -> list:
        """(row, rule, member) for each member outside its row's shell."""
        held = ambit_mod.shells_hold(space.distances_from(u, members), lo, fans.hi[row])
        return [(j, rule, v) for j, v in zip(row[~held].tolist(), members[~held].tolist())]

    found: list[tuple[int, int, int]] = []  # (row, 1 or 2 for L1 or L2, member) per violation
    for f, u in enumerate(fans.source.tolist()):
        rows = owned.get(f, [])
        listed = [sorted(res.get(base + j)) for j in rows]
        if f < fans.found:  # a ball is the shell from -inf to its radius
            row = np.repeat(np.asarray(rows, dtype=np.int64), [len(vs) for vs in listed])
            members = np.fromiter(itertools.chain.from_iterable(listed), dtype=np.int64, count=len(row))
            found += outside(u, row, members, -np.inf, 1)
            continue
        fails = [(j, 1, v) for j, vs in zip(rows, listed) for v in vs]
        row = np.arange(fans.start[f], fans.start[f + 1])
        count = size[fans.target[row]]
        at = _runs(first[fans.target[row]], count)  # the shorthand of each row's target in turn
        row = row.repeat(count)
        l2 = outside(u, row, flat[at], fans.lo[row], 2)
        found += sorted(fails + l2) if fails else l2
    out = []
    for j, rule, v in found:
        e = fans.edge(j)
        out.append((f"L{rule}", base + j, v, repr(e.positive[0] if rule == 1 else e.negative[0])))
    return out


# --- classic index builders -------------------------------------------------


def brute_force_sprawl(space: ComparisonSpace, nodes) -> Sprawl:
    """Every node a root, no regions: the exhaustive-scan index."""
    return Sprawl(space, nodes, [Edge((), v) for v in nodes])


def _maxmin(space: ComparisonSpace, pts: np.ndarray, starts: np.ndarray, count: int):
    """`count` max-min pivots of each segment of the ref array `pts` at
    once, segment k running from starts[k] to the next start (the last to
    the end), each holding more than `count` refs: the ref farthest from
    the segment's first, then, in turn, the ref farthest from the pivots
    chosen so far. Each pick is the first position of its segment's
    maximum, as `np.argmax` picks it, or, where that position is a pivot
    already (every other ref coincides with a pivot), the segment's first
    position not yet chosen. Returns the pivots' positions, a row of
    `count` per segment, and each pivot's distances to its segment's
    refs, a row of len(pts) per pivot rank."""
    seg = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(pts)))
    chosen = np.zeros(len(pts), dtype=bool)
    picks = np.empty((count, len(starts)), dtype=np.int64)
    dist = np.empty((count, len(pts)))
    best = space.paired(pts[starts][seg], pts)
    for i in range(count):
        top = np.flatnonzero(best == np.maximum.reduceat(best, starts)[seg])
        pick = top[np.searchsorted(top, starts)]
        if chosen[pick].any():
            free = np.flatnonzero(~chosen)
            pick = np.where(chosen[pick], free[np.searchsorted(free, starts)], pick)
        chosen[pick] = True
        picks[i] = pick
        dist[i] = space.paired(pts[pick][seg], pts)
        best = np.minimum(best, dist[i]) if i else dist[0]
    return picks.T, dist


def _maxmin_pivots(space: ComparisonSpace, refs, count: int) -> list[int]:
    """`count` max-min pivots of `refs`, one segment of `_maxmin`, or
    every ref where there are no more."""
    refs = list(refs)
    if count >= len(refs):
        return refs
    pts = np.asarray(refs, dtype=np.int64)
    return pts[_maxmin(space, pts, np.zeros(1, dtype=np.int64), count)[0][0]].tolist()


def _tree_levels(space: ComparisonSpace, refs: np.ndarray, arity: int):
    """The metric tree over distinct `refs`, headed by refs[0], built a
    level at a time, with a fixed number of numpy calls per level, as BFS
    columns: point, parent, first child, child count and the cover of the
    edge from the node's parent, and where each level starts, then the
    node count.

    Each node heads a segment of members. Its point leaves them; if more
    than `arity` remain, they go to their first nearest of `arity` max-min
    pivots (`_maxmin`), and each non-empty group, in pivot order and with
    its members in order, is a child headed by its pivot. Otherwise, or
    if every member falls into one group, each remaining member is a
    child of its own, in order. A stable sort by group forms the next
    level's segments.

    A child's subtree is its segment, so its cover is the largest
    distance from its parent's point to the segment's members. Each
    member carries its distance to its segment's head: the root's
    members from one `distances_from` row, a split child's from its
    pivot's `_maxmin` row, so the covers take no other distance. (A pivot
    heads its own group: it is 0 from itself, and a pivot 0 from an
    earlier one is picked only when every member is 0 from some earlier
    pivot, so its group is empty.)
    """
    points, parents, firsts, counts, covers, levels = [refs[:1]], [np.full(1, -1)], [], [], [np.zeros(1)], [0, 1]
    members, starts, heads = refs, np.zeros(1, dtype=np.int64), refs[:1]
    near = space.distances_from(refs[0], refs)  # each member's distance to its segment's head
    while len(heads):
        seg = np.repeat(np.arange(len(heads)), np.diff(starts, append=len(members)))
        keep = members != heads[seg]  # each node's point leaves its members
        rest, seg, near = members[keep], seg[keep], near[keep]
        size = np.bincount(seg, minlength=len(heads))
        key, head = np.arange(len(rest)), rest.copy()  # a child of its own, headed by itself
        to_head = np.zeros(len(rest))
        big = np.flatnonzero(size[seg] > arity)
        if len(big):
            sub_size = size[size > arity]
            picks, dist = _maxmin(space, rest[big], _exclusive(sub_size), arity)
            group = np.argmin(dist, axis=0)  # the first nearest pivot
            local = np.repeat(np.arange(len(sub_size)), sub_size)
            filled = np.bincount(local * arity + group, minlength=len(sub_size) * arity).reshape(-1, arity)
            split = ((filled > 0).sum(axis=1) > 1)[local]  # a segment of one group keeps its singletons
            to_head[big[split]] = dist[group, np.arange(len(big))][split]
            at, local, group = big[split], local[split], group[split]
            key[at] = _exclusive(size)[seg[at]] + group  # inside the segment's range, as group < arity < size
            head[at] = rest[big][picks[local, group]]
        order = np.argsort(key, kind="stable")
        members, key, head, seg = rest[order], key[order], head[order], seg[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))  # each child's first member
        covers.append(np.maximum.reduceat(near[order], starts))
        near = to_head[order]
        count = np.bincount(seg[starts], minlength=len(heads))
        heads = head[starts]
        counts.append(count)
        firsts.append(levels[-1] + _exclusive(count))
        points.append(heads)
        parents.append(levels[-2] + seg[starts])
        levels.append(levels[-1] + len(heads))
    columns = points, parents, firsts, counts, covers
    return (*map(np.concatenate, columns), levels[:-1])


class _Tree(NamedTuple):
    """A metric tree's discovering fans as columns, its responsibilities,
    and each fan source's subtree as a (start, end) span of `preorder`."""

    source: np.ndarray
    start: np.ndarray
    target: np.ndarray
    cover: np.ndarray
    res: dict[int, list[int]]
    preorder: np.ndarray
    spans: np.ndarray


def _metric_tree(space: ComparisonSpace, refs: np.ndarray, arity: int) -> _Tree:
    """The metric tree over distinct `refs` (`_tree_levels`) as fans.

    Each node's subtree size, then its preorder position with its
    children taken in order and in reverse, are computed a level at a
    time, so every subtree is one slice of the preorder array. The fans
    are the nodes with children, in preorder with children in reverse
    (the pop order of a stack walk from the root); a fan's rows are its
    node's children in order, each row's cover the one `_tree_levels`
    gives the child. Responsibility 0 is the whole preorder, and row
    j's, as edge 1 + j, its child's subtree.
    """
    point, parent, first, count, link, levels = _tree_levels(space, refs, arity)
    size = np.ones(len(point), dtype=np.int64)
    for lo, mid, hi in reversed(list(zip(levels, levels[1:], levels[2:]))):
        inner = lo + np.flatnonzero(count[lo:mid])
        size[inner] += np.add.reduceat(size[mid:hi], first[inner] - mid)
    pos = np.zeros(len(point), dtype=np.int64)  # preorder, children in order
    back = np.zeros(len(point), dtype=np.int64)  # preorder, children in reverse
    for mid, hi in zip(levels[1:], levels[2:]):
        p = parent[mid:hi]
        after = np.cumsum(size[mid:hi])
        before = after - size[mid:hi]
        pos[mid:hi] = pos[p] + 1 + before - before[first[p] - mid]
        back[mid:hi] = back[p] + 1 + after[first[p] + count[p] - 1 - mid] - after
    preorder = np.empty_like(point)
    preorder[pos] = point

    inner = np.flatnonzero(count)
    inner = inner[np.argsort(back[inner])]
    rows = _runs(first[inner], count[inner])
    sizes = size[rows]
    spans = np.stack([pos[inner], pos[inner] + size[inner]], axis=1)
    flat = preorder.tolist()
    res = {0: flat}
    res.update(zip(range(1, len(rows) + 1), (flat[a : a + s] for a, s in zip(pos[rows].tolist(), sizes.tolist()))))
    start = np.concatenate([[0], np.cumsum(count[inner])])
    return _Tree(point[inner], start, point[rows], link[rows], res, preorder, spans)


def build_classic(space: ComparisonSpace, nodes, kind: str, **params):
    """Construct a classic index layout as a sprawl.

    kinds: ball-tree (arity), aesa, laesa (pivots=m), pm-tree (arity,
    pivots), sorted-interval-tree (1-d coordinate-projection spaces only).
    Returns (sprawl, responsibility assignment). Node refs must be
    distinct (`Sprawl.validate`). A ball-tree is a root edge into
    nodes[0] and the fans of `_metric_tree`; a pm-tree is that tree over
    the points that are not its max-min pivots, with a root edge and a
    lazy ring fan over the tree's fan sources per pivot.
    """
    refs = [int(v) for v in nodes]
    if not refs:
        raise ValueError("dataset must be non-empty")
    if not space.symmetric:
        # every classic layout filters through the symmetric triangle
        # inequality; a quasimetric would make the shells unsound
        raise ValueError(f"{kind} construction requires a symmetric comparison")

    if kind == "ball-tree":
        arity = int(params.get("arity", 2))
        if arity < 2:
            raise ValueError("arity must be at least 2")
        tree = _metric_tree(space, np.asarray(refs, dtype=np.int64), arity)
        fans = Fans(tree.source, tree.start, tree.target, tree.cover, discovers=np.ones(len(tree.source), dtype=bool))
        return Sprawl(space, refs, [Edge((), refs[0])], fans), ResponsibilityAssignment(tree.res)

    if kind == "aesa":
        edges = [Edge((), v) for v in refs]
        res = {i: (v,) for i, v in enumerate(refs)}
        n, off = len(refs), ~np.eye(len(refs), dtype=bool)  # node i's sphere fan: every other node, in order
        d = space.pairwise(refs, refs)
        fans = Fans(refs, np.arange(n + 1) * (n - 1), np.broadcast_to(np.asarray(refs), (n, n))[off], d[off])
        return Sprawl(space, refs, edges, fans), ResponsibilityAssignment(res)

    if kind == "laesa":
        m = int(params.get("pivots", 8))
        if not 1 <= m <= len(refs):
            raise ValueError("pivot count out of range")
        pivots = _maxmin_pivots(space, refs, m)
        others = [v for v in refs if v not in pivots]
        # pivots first in discovery order, so their shells fire before
        # any unconditionally discovered point gets examined
        ordered = list(pivots) + others
        edges = [Edge((), v) for v in ordered]
        res = {i: (v,) for i, v in enumerate(ordered)}
        rows = [space.distances_from(p, others) for p in pivots] if others else []  # one sphere fan per pivot
        starts = np.arange(len(rows) + 1) * len(others)
        fans = Fans(pivots[: len(rows)], starts, others * len(rows), np.concatenate([[], *rows]))
        return Sprawl(space, refs, edges, fans), ResponsibilityAssignment(res)

    if kind == "pm-tree":
        arity = int(params.get("arity", 2))
        if arity < 2:
            raise ValueError("arity must be at least 2")
        m = int(params.get("pivots", 4))
        if m < 1:
            raise ValueError("pivot count out of range")
        if m >= len(refs):
            raise ValueError("need more points than pivots")
        pivots = _maxmin_pivots(space, refs, m)
        tree_refs = [v for v in refs if v not in pivots]
        tree = _metric_tree(space, np.asarray(tree_refs, dtype=np.int64), arity)
        # the pivots' root edges 1..m precede the fans, so each row's id moves up by m
        edges = [Edge((), tree_refs[0])] + [Edge((), p) for p in pivots]
        res = {i + len(pivots) if i else 0: sub for i, sub in tree.res.items()}
        res.update({1 + i: (p,) for i, p in enumerate(pivots)})
        # one lazy shell fan per pivot, over the fan sources: the ring of each one's subtree
        ringed = np.asarray(pivots if len(tree.spans) else [], dtype=np.int64)
        rings = np.zeros((len(ringed), len(tree.preorder) + 1))  # a span may end at the end of a row
        for row, p in zip(rings, ringed.tolist()):
            row[:-1] = space.distances_from(p, tree.preorder)
        lo = np.minimum.reduceat(rings, tree.spans.ravel(), axis=1)[:, ::2]
        hi = np.maximum.reduceat(rings, tree.spans.ravel(), axis=1)[:, ::2]
        rows = len(tree.target) + len(tree.spans) * np.arange(1, len(ringed) + 1)
        discovers = np.arange(len(tree.source) + len(ringed)) < len(tree.source)
        fans = Fans(
            np.concatenate([tree.source, ringed]),
            np.concatenate([tree.start, rows]),
            np.concatenate([tree.target, np.tile(tree.source, len(ringed))]),
            np.concatenate([tree.cover, lo.ravel()]),
            np.concatenate([tree.cover, hi.ravel()]),
            discovers,
            ~discovers,
        )
        return Sprawl(space, refs, edges, fans), ResponsibilityAssignment(res)

    if kind == "sorted-interval-tree":
        if not isinstance(space, ProjectionSpace) or space.dimension != 1:
            raise ValueError("sorted-interval-tree requires a 1-d coordinate-projection space")
        axis = space.axis_ref(0)
        ordered = sorted(refs, key=lambda v: (float(space.points[v, 0]), v))
        edges: list[Edge] = []
        res: dict[int, tuple[int, ...]] = {}

        def build(lo_ref, hi_ref, part: list[int]):
            if not part:
                return
            mid = len(part) // 2
            v = part[mid]
            sources = tuple(r for r in (lo_ref, hi_ref) if r is not None)
            rows, radii = [], []
            if hi_ref is not None:
                rows.append([1.0])
                radii.append(float(space.points[hi_ref, 0]))
            if lo_ref is not None:
                rows.append([-1.0])
                radii.append(-float(space.points[lo_ref, 0]))
            if sources:
                region = Ambit((axis,), LinearMap(rows), tuple(radii))
                edges.append(Edge(sources, v, (region,), ()))
            else:
                edges.append(Edge((), v))
            res[len(edges) - 1] = tuple(part)
            build(lo_ref, v, part[:mid])
            build(v, hi_ref, part[mid + 1 :])

        build(None, None, ordered)
        return Sprawl(space, refs, edges), ResponsibilityAssignment(res)

    raise ValueError(f"unknown index kind {kind!r}")


# --- emulation from point-query traces --------------------------------------


def region_member_mask(space: ComparisonSpace, region, refs) -> np.ndarray:
    """Vectorized membership of each ref in the region (ambits: `ambit.membership_mask`)."""
    refs = list(refs)
    if isinstance(region, Universe):
        return np.ones(len(refs), dtype=bool)
    if isinstance(region, Empty):
        return np.zeros(len(refs), dtype=bool)
    if isinstance(region, ExplicitRegion):
        return np.array([v in region.ids for v in refs], dtype=bool)
    if isinstance(region, Ambit):
        return ambit_mod.membership_mask(space, region, refs)
    raise TypeError(f"unknown region {region!r}")


def sprawl_trace_oracle(sprawl: Sprawl):
    """Trace oracle of an existing sprawl, for emulation round-trips.

    Given a traversed set and a singleton query point, reports which
    targets the ready edges would discover or eliminate: the signed edges
    of `reduce_to_signed` for the point as an `ExplicitSetQuery`, reduced
    once per point, so calls are cheap. For one point, a region meets the
    query where it holds the point, with the slack `TOL`.
    """
    refs, pos = sprawl.nodes, sprawl._node_pos
    graphs = {v: reduce_to_signed(sprawl, ExplicitSetQuery({v})).edges for v in refs}

    def oracle(traversed, query_ref: int):
        tset = {pos[t] for t in map(int, traversed) if t in pos}  # as node positions
        discovered, eliminated = set(), set()
        for e in graphs[int(query_ref)]:
            if e.sources <= tset:
                (discovered if e.sign > 0 else eliminated).add(refs[e.target])
        return discovered, eliminated

    return oracle


def emulate_from_traces(space: ComparisonSpace, nodes, trace_oracle) -> Sprawl:
    """Reconstruct a sprawl from observed discovery/elimination behavior.

    Scans source subsets of up to three nodes breadth-first by size,
    keeping minimal sets that trigger each behavior; single positive
    regions grow to contain every discovering singleton query, single
    negative regions every non-eliminating one. Scanning stops early once
    a full size level adds no new minimal edge and every node is
    positively covered.
    """
    refs = [int(v) for v in nodes]
    n = len(refs)
    disc_min: dict[int, list[frozenset]] = {t: [] for t in refs}
    elim_min: dict[int, list[frozenset]] = {t: [] for t in refs}
    disc_votes: dict[tuple[frozenset, int], set[int]] = {}
    elim_votes: dict[tuple[frozenset, int], set[int]] = {}
    results: dict[tuple[frozenset, int], tuple[frozenset, frozenset]] = {}

    def minimal(found: list[frozenset], s: frozenset) -> bool:
        return not any(prev < s for prev in found)

    covered: set[int] = set()
    for size in range(4):
        new_edges = False
        for combo in itertools.combinations(refs, size):
            s = frozenset(combo)
            for v in refs:
                d, e = trace_oracle(s, v)
                d, e = frozenset(int(x) for x in d), frozenset(int(x) for x in e)
                results[(s, v)] = (d, e)
                if size >= 1:
                    for sub in itertools.combinations(sorted(s), size - 1):
                        prev = results.get((frozenset(sub), v))
                        if prev is not None and not prev[0] <= d:
                            raise EmulationError(
                                f"discovery is not monotone: {sorted(sub)} vs {sorted(s)} on query {v}"
                            )
                for t in d:
                    if minimal(disc_min[t], s):
                        if s not in disc_min[t]:
                            disc_min[t].append(s)
                            new_edges = True
                        disc_votes.setdefault((s, t), set()).add(v)
                        covered.add(t)
                for t in e:
                    if minimal(elim_min[t], s):
                        if s not in elim_min[t]:
                            elim_min[t].append(s)
                            new_edges = True
                        elim_votes.setdefault((s, t), set()).add(v)
        if size >= 1 and not new_edges and covered >= set(refs):
            break

    def grown_region(foci: tuple[int, ...], members: set[int]):
        if not members:
            return EMPTY
        if not foci:
            if members >= set(refs):
                return UNIVERSE
            return ExplicitRegion(frozenset(members))
        feats = np.array(
            [[space.compare(p, v) for v in sorted(members)] for p in foci], dtype=float
        )
        lo, hi = np.min(feats, axis=1), np.max(feats, axis=1)
        return table1_region("cut", foci, lo=lo, hi=hi)

    edges: list[Edge] = []
    for t in refs:
        source_sets = set(disc_min[t]) | set(elim_min[t])
        for s in sorted(source_sets, key=lambda x: (len(x), sorted(x))):
            discovers = s in disc_min[t]
            eliminates = s in elim_min[t]
            foci = tuple(sorted(s))
            positive: tuple = ()
            negative: tuple = ()
            if discovers:
                disc_pts = disc_votes.get((s, t), set())
                if not foci and disc_pts >= set(refs):
                    positive = ()  # plain root edge
                else:
                    positive = (grown_region(foci, disc_pts),)
            else:
                positive = (EMPTY,)
            if eliminates:
                keep_pts = {v for v in refs if t not in results[(s, v)][1]}
                negative = (grown_region(foci, keep_pts),) if keep_pts else (EMPTY,)
            edges.append(Edge(foci, t, positive, negative))
    return Sprawl(space, refs, edges)


# --- random small instances (verification battery) --------------------------


def random_small_sprawl(rng: np.random.Generator):
    """Seeded random 2-d sprawl of 2-6 nodes with ball/shell labels, for property checks."""
    n = int(rng.integers(2, 7))
    pts = rng.random((n, 2))
    from .comparison import EuclideanSpace

    space = EuclideanSpace(pts)
    refs = list(range(n))
    edges = [Edge((), v) for v in rng.choice(n, size=max(1, n // 3), replace=False)]
    for _ in range(int(rng.integers(1, 2 * n))):
        src = int(rng.integers(0, n))
        tgt = int(rng.integers(0, n))
        radius = float(rng.random() * 1.5)
        if rng.random() < 0.5:
            region = Ambit((src,), LinearMap([[1.0]]), (radius,))
        else:
            lo = float(rng.random() * 0.5)
            region = table1_region("shell", (src,), lo=lo, hi=lo + radius)
        if rng.random() < 0.4:
            edges.append(Edge((src,), tgt, (EMPTY,), (region,)))
        else:
            edges.append(Edge((src,), tgt, (region,), ()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Sprawl(space, refs, edges)
