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
from .hypergraph import Frontier, Heuristic, HyperEdge, SignedHyperdigraph, Waves, activation, successors

log = logging.getLogger(__name__)


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
        if j < self.found_rows:
            return self._ball_rows[j]
        f = int(np.searchsorted(self.start, j, "right")) - 1
        region = table1_region("shell", (int(self.source[f]),), lo=self.lo[j], hi=self.hi[j])
        return Edge((int(self.source[f]),), int(self.target[j]), (EMPTY,), (region,), lazy=bool(self.lazy[f]))

    @cached_property
    def _ball_rows(self) -> list[Edge]:
        """The discovering rows as `Edge`s, built on first use and kept:
        `reduce_to_signed` walks every logical edge once per query, and
        building a ball row's `Edge` costs more than its overlap check."""
        rows = slice(0, self.found_rows)
        return [
            Edge((u,), t, (Ambit((u,), ambit_mod.BALL_MAP, (r,)),), ())
            for u, t, r in zip(self.ball_source.tolist(), self.target[rows].tolist(), self.hi[rows].tolist())
        ]


# the fans of every sprawl built without any: every column is empty but
# `start`, which is frozen
_NO_FANS = Fans([], [0], [], [])
_NO_FANS.start.setflags(write=False)


class _BallColumns(NamedTuple):
    """Single-facet ball edges a * delta(source, .) <= r as columns, by
    source: the edges of source v are rows start[v]:start[v + 1], its
    explicit ball edges in edge order, then its ball rows as the plan lists
    them. Every plan has them. They are all a wave fires: a node with any
    other eager out-edge steps alone (see `Sprawl._plan`)."""

    start: np.ndarray
    target: np.ndarray
    a: np.ndarray
    l1: np.ndarray
    r: np.ndarray
    checked: bool  # whether a target may already be done when its edge fires
    # whether anything but a wave reads the query-centre distances of the
    # nodes it measures: a wave then reads and fills the search's cache
    cached: bool


class Sprawl:
    """Immutable-after-build index: ground set, explicit edges and fans."""

    def __init__(self, space: ComparisonSpace, nodes, edges, fans: Fans | None = None):
        self.space = space
        self.nodes: tuple[int, ...] = tuple(int(v) for v in nodes)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.fans = fans if fans is not None else _NO_FANS
        self._node_pos = {v: i for i, v in enumerate(self.nodes)}
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
        if not len(f.source):
            return
        known = np.zeros(size, dtype=bool)  # a lookup table, so no column is sorted
        known[np.fromiter(nodes, dtype=np.int64, count=len(nodes))] = True
        for refs in (f.source, f.target):
            # a negative ref would wrap round the table
            if len(refs) and not (0 <= refs.min() and refs.max() < size and known[refs].all()):
                raise IndexError("fan refers to refs outside the ground set")
        if (f.ball_source == f.target[: f.found_rows]).any():
            warnings.warn("a ball edge into its own source can never fire usefully")

    def _plan(self):
        """The frontier plan, the lazy edges and lazy fan rows into each
        target, the seed position of each fan row's target in a dense plan,
        the ball columns, each fan's start and source as lists, each node's
        ball rows, whether the plan is lean, and each node's value in the
        form the space measures fastest (`ComparisonSpace.plain`). It is
        compiled on the first call, not with the sprawl, in one walk over
        the edges and one over the fans.

        The label-free root edges that precede every other sourceless edge
        become the plan's seeds. When every node is a seed and every eager
        edge is a shell fan, as AESA and LAESA build them, the plan is
        dense, so a kNN search can select by the fans' bounds, and a FIFO
        search over a plan with no `Waves` (AESA) by seed position.

        Shell fan f is plan edge len(edges) + f, and a node's discovering
        fans are one plan edge, numbered as the first of them: their rows
        are listed once, by node ref, as the targets and radii of the
        node's fans in fan order, which is the order they fire in, since
        the node's explicit edges come before them and its shell fans
        after. The heap form's `fire`, the lean step and the ball columns
        all read that list. Where no node has two discovering eager
        in-edges, a seed's root edge included, the plan's `sole_finder`
        lets a kNN search stop at its bound. Where every eager edge is a
        discovering fan, no edge or fan row is lazy and no ball target can
        be done when its edge fires (`_BallColumns.checked` False), as in a
        ball-tree, the plan is lean, for the lean best-first step of
        `search`.

        The `Waves` let a FIFO range search go a wave at a time. One rule
        keeps a wave exact: a wave fires single-facet ball edges and ball
        fan rows only, and no wave node's fate or count hangs on a
        wave-mate. So three kinds of node step alone: every source of an
        eager edge that is not a single-facet ball (a shell fan, an
        eliminating edge, a discovering edge of another shape, an edge with
        several sources); the target of a sourceless eliminating edge,
        which fires before the first wave; and the target of a ball with
        more than one discovering in-edge, a seed's root edge included,
        which might otherwise share a wave with one of those balls' sources
        and be done before that ball tests it. A target of lazy edges or
        rows waits until their sources are traversed. Whatever eliminates a
        ball's target then steps alone, so a wave reads the targets' status
        only where some ball target is eliminable or found twice
        (`_BallColumns.checked`). A wave's distances go into the search's
        cache only where something else reads it: a lazy check, a node
        stepping alone, or a labelled sourceless edge, which fires before
        the first wave. Where every node is the source of an eager shell
        fan, as in AESA, every node would step alone, so the plan has no
        `Waves`; a dense plan then selects FIFO from its bound array.
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
        balls: dict[int, list] = {}  # (target, (a, ||a||_1, r)) per single-facet ball edge, by source
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
                facet = ambit_mod.ball_facet(e.positive[0], u)
                if facet is not None:
                    balls.setdefault(u, []).append((t, facet))
                    continue
            alone |= sources
        start, source = fans.start.tolist(), fans.source.tolist()
        found_target, radius = fans.target[: fans.found_rows].tolist(), fans.hi[: fans.found_rows].tolist()
        finders = np.array(finders, dtype=np.int64) + np.bincount(fans.target[: fans.found_rows], minlength=span)
        rows: list = [None] * span  # each node's ball rows, (targets, radii) in fan order
        lazy_rows: dict[int, list[tuple[int, float, float]]] = {}  # (source, lo, hi) per lazy row into a target
        shelled = set()  # the sources of eager shell fans
        for f, lazy in enumerate(fans.lazy.tolist()):
            u, first, end = source[f], start[f], start[f + 1]
            if f < fans.found:
                if rows[u] is None:
                    rows[u] = [], []
                    eager.append((base + f, (u,)))
                rows[u][0].extend(found_target[first:end])
                rows[u][1].extend(radius[first:end])
            elif lazy:
                cut = slice(first, end)
                for t, lo, hi in zip(fans.target[cut].tolist(), fans.lo[cut].tolist(), fans.hi[cut].tolist()):
                    lazy_rows.setdefault(t, []).append((u, lo, hi))
            else:
                eager.append((base + f, (u,)))
                shelled.add(u)
        kills[fans.target[np.repeat(~(fans.discovers | fans.lazy), np.diff(fans.start))]] = True  # eager shell rows
        unit = ambit_mod.BALL_FACET  # every discovering row is the ball delta(u, .) <= r
        ball_start, ball_target, facets = [0], [], []
        for u in range(span):  # by source: its ball edges in edge order, then its ball rows
            for t, facet in balls.get(u, ()):
                ball_target.append(t)
                facets.append(facet)
            if rows[u] is not None:
                ball_target += rows[u][0]
                facets += [(*unit, r) for r in rows[u][1]]
            ball_start.append(len(ball_target))
        ball_start, ball_target = np.array(ball_start, dtype=np.int64), np.array(ball_target, dtype=np.int64)
        contested = finders[ball_target] > 1
        alone |= shelled | set(ball_target[contested].tolist())
        own = ball_target == np.repeat(np.arange(span), np.diff(ball_start))  # a ball into its own source
        checked = bool((contested | kills[ball_target] | own).any())
        facets = np.array(facets, dtype=float).reshape(-1, 3)
        cached = bool(lazy_in or lazy_rows or alone or labelled)
        columns = _BallColumns(ball_start, ball_target, facets[:, 0], facets[:, 1], facets[:, 2], checked, cached)
        after: dict[int, set[int]] = {}
        for t, ids in lazy_in.items():
            after.setdefault(t, set()).update(*(edges[i].sources for i in ids))
        for t, refs in lazy_rows.items():
            after.setdefault(t, set()).update(u for u, _, _ in refs)
        after = {v: frozenset(vs) for v, vs in after.items()}
        waves = None if shelled >= set(nodes) else Waves(frozenset(alone), after)
        # eager ids ascend, so the first is a shell fan's only if every eager edge is one
        dense = bool(eager) and eager[0][0] >= base + fans.found and set(seeds) == set(nodes)
        plan = activation(eager, span, seeds, dense)
        plan = plan._replace(waves=waves, sole_finder=bool(finders.max(initial=0) <= 1))
        pos = plan.positions[fans.target] if dense else None
        # eager ids ascend: every one is a discovering fan's if the first and the last are
        fanned = not eager or eager[0][0] >= base and eager[-1][0] < base + fans.found
        lean = fanned and not (lazy_in or lazy_rows or checked)
        space = self.space
        plain = {v: space.plain(space.value(v)) for v in nodes}
        self._plan_cache = (plan, lazy_in, lazy_rows, pos, columns, start, source, rows, lean, plain)
        return self._plan_cache


# --- query evaluation -------------------------------------------------------


class _QueryEval:
    """Per-search caches: query-center distances and focal cross-distances.

    Membership and overlap verdicts come from `ambit`; this class supplies
    the distances and dispatches on region kind.
    """

    def __init__(self, space: ComparisonSpace, query):
        self.space = space
        self.query = query
        self.plain = {}  # ref -> `space.plain` of its value; `search` puts the plan's here
        self.session = CostSession()
        if isinstance(query, AmbitQuery):  # the backward ambit of its weighted foci
            self.query_region = Ambit(query.foci, LinearMap([query.weights]), (query.radius,), "backward")
        self.region_evaluations = 0
        # delta(c, ref) per ref. A `Ball` search also reads a region focus's
        # z = delta(focus, c) here: it reaches an ambit or fan only on a
        # symmetric space (`_refuse_unsound`), where the two are equal.
        self._to_center: dict[int, float] = {}
        self._cross: dict[tuple[int, int], float] = {}

    @cached_property
    def center(self):
        """The ball centre as the space measures it, resolved once: a
        ref's value, or a raw value coerced and checked."""
        return self.space.resolve(self.query.center)

    @cached_property
    def plain_center(self):
        """`center` in the form the space measures fastest."""
        return self.space.plain(self.center)

    def dist_to_center(self, ref: int) -> float:
        d = self._to_center.get(ref)
        if d is None:
            b = self.plain.get(ref)
            if b is None:
                b = self.space.plain(self.space.resolve(ref))
            d = self._to_center[ref] = self.space.measure(self.plain_center, b, self.session)
        return d

    def dists_to_center(self, refs: np.ndarray, cached: bool) -> np.ndarray:
        """`dist_to_center` of each ref of an int64 array, in one
        `measure_row` call, whose rows equal `measure` bit for bit. Only
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

    def z_of(self, foci) -> list[float]:
        return [self.dist_to_center(p) for p in foci]

    def cross(self, region_focus: int, query_focus: int) -> float:
        key = (region_focus, query_focus)
        d = self._cross.get(key)
        if d is None:
            d = self.space.compare(region_focus, query_focus, self.session)
            self._cross[key] = d
        return d

    def member(self, ref: int, s: float | None = None) -> bool:
        q = self.query
        if isinstance(q, Ball):
            radius = q.radius if s is None else s
            return self.dist_to_center(ref) <= radius
        if isinstance(q, ExplicitSetQuery):
            return ref in q.ids
        if isinstance(q, AmbitQuery):
            return ambit_mod.membership(self.space, self.query_region, ref, self.session)
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
            if isinstance(q, ExplicitSetQuery):
                return ambit_mod.overlap_refs(self.space, region, sorted(q.ids), self.session)
            if isinstance(q, Ball):
                radius = q.radius if s is None else s
                try:
                    return ambit_mod.overlap_radients(region, self.z_of(region.foci), radius)
                except CapabilityError:
                    log.warning("no sound overlap check for %r; assuming overlap", region)
                    return True
            if isinstance(q, AmbitQuery):
                if not isinstance(region.map, LinearMap):
                    log.warning("non-linear region vs ambit query; assuming overlap")
                    return True
                Z = np.array(
                    [[self.cross(p, qf) for qf in q.foci] for p in region.foci], dtype=float
                )
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
    """Evaluate every edge label against the query, keeping signed edges.

    An edge is positive when the query meets every region in both labels,
    negative when it misses some negative region, and dropped otherwise.
    """
    _refuse_unsound(sprawl, query)
    ev = _QueryEval(sprawl.space, query)
    pos = sprawl._node_pos
    out = []
    for _, e in sprawl.iter_logical_edges():
        neg_hits = [ev.intersects(r) for r in e.negative]
        if not all(neg_hits):
            out.append(HyperEdge(frozenset(pos[s] for s in e.sources), pos[e.target], -1))
        elif all(ev.intersects(r) for r in e.positive):
            out.append(HyperEdge(frozenset(pos[s] for s in e.sources), pos[e.target], +1))
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

    The traversal loop is `hypergraph.Frontier.run`; an explicit edge here
    fires by evaluating its regions against the query, and a fan fires
    its rows in row order. The frontier keeps each node's status as a byte
    by ref in every selection form, which `Frontier.done` and
    `Frontier.traversed` read. Every traversed node is tested for query
    membership; where a `Ball` search measures one node at a time, it
    takes the node's value in the plain form that the plan keeps
    (`ComparisonSpace.plain`), which gives the float a row would. Lazy
    negative edges and lazy fan rows are consulted only immediately
    before their target would be traversed. A node's ball fans are one
    plan edge, which fires the node's ball rows as the plan lists them; a
    `Ball` search fires them with one lookup of the node's distance, one
    plain-float `ambit.overlap_facet_bounds` call, which gives each row
    the verdict and the kNN bound that `intersects` and `lower_bound`
    would, and one bulk `Frontier.discover_all`; it reads no target's
    status to count the rows evaluated where the plan proves that no
    ball target is done when its edge fires (`_BallColumns.checked`
    False). It fires a shell fan by eliminating all its missed targets at
    once. For kNN queries the cover radius starts at infinity and tightens
    to the current k-th best distance whenever a traversal lowers it; node
    priorities are the per-edge region lower bounds, and where the plan
    proves each node's bound its one discovering edge's
    (`Plan.sole_finder`), the "bound" heuristic stops once the smallest
    bound left is beyond the radius, as best-first search does. When the frontier is dense under the "bound"
    heuristic (over a dense plan, see `Sprawl._plan`), a fired shell fan
    instead raises each target's shell lower bound, the next node is the
    one with the smallest bound, and a bound beyond the current radius
    eliminates, as in AESA and LAESA. When it is dense under FIFO (AESA),
    the next node is the first live root, and a fired shell fan
    eliminates its missed targets by seed position in one store, as the
    classic AESA range loop does.

    A FIFO range search (a `Ball` with no k, on a symmetric space) whose
    plan carries `Waves` (every plan but AESA-like ones, where each node
    steps alone) goes a wave at a time instead, over int64 arrays
    (see `Frontier`): one `measure_row` call tests the whole wave for
    membership, filling the centre-distance cache only where the plan has
    another reader for it (`_BallColumns.cached`). A wave node's eager
    out-edges are all ball rows and single-facet ball edges, since any
    node with another kind steps alone, through `fire`; they get one
    vectorised verdict over the plan's ball columns
    (`ambit.overlap_facet_columns`), and the surviving targets, in edge
    order, join the queue in one `Frontier.discover_all`.
    The members are gathered as arrays and made Python ints once, at the
    end. Members, order and both counts are those of the node-at-a-time
    form.

    A kNN search under "bound" over a lean plan with `sole_finder` (a
    ball-tree, as built or loaded; see `Sprawl._plan`) takes the lean
    best-first step: one callback per selected node measures it once,
    through the uncounted `ComparisonSpace.measurer` of the centre, updates
    the k nearest and the cut, and returns the (bound, target) pairs of its
    ball rows, read from the list that `fire` reads, that meet the query
    (`ambit.overlap_facet_pairs`), which `Frontier.run` queues itself;
    neither `fire` nor `Frontier.discover_all` runs. Every traversed node
    is measured exactly once there and nothing else is, so the distances
    are charged in bulk, one per traversed node. Members, order and both
    counts are those of the general heap path.
    """
    _refuse_unsound(sprawl, query)
    space = sprawl.space
    plan, lazy_in, lazy_rows, pos, balls, start, source, node_rows, lean, plain = sprawl._plan()
    ev = _QueryEval(space, query)
    ev.plain = plain
    ball = isinstance(query, Ball)
    knn = ball and query.k is not None
    if knn:
        k = query.k
        worst: list[tuple[float, int]] = []  # max-heap via negation: (-(dist), -ref)
        s_current = math.inf
    else:
        s_current = query.radius if ball else None

    if heuristic is None:
        heuristic = Heuristic("bound") if knn else Heuristic.fifo()
    frontier = Frontier(plan, heuristic)
    steer = frontier.dense and heuristic.kind == "bound" and ball
    if steer:
        frontier.cut(ambit_mod.bound_cutoff(s_current))
    edges, fans = sprawl.edges, sprawl.fans
    explicit = len(edges)
    a, l1 = ambit_mod.BALL_FACET

    def lower_bound(edge: Edge) -> float:
        lb = 0.0
        for r in edge.positive:
            if isinstance(r, Ambit) and isinstance(r.map, LinearMap):
                lb = max(lb, ambit_mod.ball_reach(r, ev.z_of(r.foci)))
        return max(lb, 0.0)

    found = fans.found if ball else 0  # the fans fired as float ball rows
    unchecked = not balls.checked  # no ball target is done when its edge fires
    to_center = ev._to_center

    def fire_fan(f: int) -> None:
        """Fire a fan other than a `Ball` search's ball fans (see `fire`)."""
        first, end, u = start[f], start[f + 1], source[f]
        if not ball:  # row by row, through the regions the rows stand for
            done = frontier.done
            # a discovering fan's plan edge fires all of u's ball rows, in row order
            ids = np.flatnonzero(fans.ball_source == u) if f < fans.found else np.arange(first, end)
            for j, t in zip(ids.tolist(), fans.target[ids].tolist()):
                if t in done:
                    continue
                e = fans.edge(j)
                if f < fans.found:
                    if ev.intersects(e.positive[0], s_current):
                        frontier.discover_all((t,))
                elif not ev.intersects(e.negative[0], s_current):
                    frontier.eliminate([t])
        else:
            z = ev.dist_to_center(u)
            ev.region_evaluations += end - first
            lo, hi = fans.lo[first:end], fans.hi[first:end]
            if steer:
                frontier.raise_bounds(pos[first:end], ambit_mod.shell_bounds(z, lo, hi))
                return
            miss = ambit_mod.shells_missed(z, lo, hi, s_current)
            if frontier.dense:
                frontier.eliminate_at(pos[first:end][miss])
            else:
                frontier.eliminate(fans.target[first:end][miss])

    def fire(edge_ids) -> None:
        done = frontier.done
        for ei in edge_ids:
            f = ei - explicit
            if 0 <= f < found:  # u's ball rows: a float verdict and bound each, as `intersects` and `lower_bound` give
                u = source[f]
                targets, radii = node_rows[u]
                live = len(targets) if unchecked or done.isdisjoint(targets) else sum(t not in done for t in targets)
                ev.region_evaluations += live
                z = to_center.get(u)  # `ev.dist_to_center(u)`, inlined: u is cached once traversed
                if z is None:
                    z = ev.dist_to_center(u)
                bounds = ambit_mod.overlap_facet_bounds(radii, l1, a, z, s_current)
                if knn:
                    frontier.discover_all(targets, bounds)
                else:
                    frontier.discover_all([t for t, b in zip(targets, bounds) if b is not None])
                continue
            if f >= 0:  # another fan's plan edge
                fire_fan(f)
                continue
            e = edges[ei]
            t = e.target
            if t in done:
                continue
            if not all(ev.intersects(r, s_current) for r in e.negative):
                frontier.eliminate([t])
            elif all(ev.intersects(r, s_current) for r in e.positive):
                frontier.discover_all((t,), (lower_bound(e),) if knn else None)

    members: list[int] = []
    lazy = bool(lazy_in or lazy_rows)
    if knn:
        measure, center, session = space.measure, ev.plain_center, ev.session

    def refused(v: int, traversed) -> bool:
        """Whether a lazy edge or row into v that is armed, its sources all
        in traversed, misses the query; every one is armed where traversed
        is None, as for a wave node (see `Waves`)."""
        for ei in lazy_in.get(v, ()):
            e = edges[ei]
            if traversed is None or all(s in traversed for s in e.sources):
                for r in e.negative:
                    if not ev.intersects(r, s_current):
                        return True
        for u, lo, hi in lazy_rows.get(v, ()):
            if traversed is None or u in traversed:
                if ball:
                    z = to_center.get(u)  # `ev.dist_to_center(u)`, inlined: u is cached once traversed
                    if z is None:
                        z = ev.dist_to_center(u)
                    ev.region_evaluations += 1
                    if ambit_mod.shells_missed(z, lo, hi, s_current):
                        return True
                elif not ev.intersects(table1_region("shell", (u,), lo=lo, hi=hi), s_current):
                    return True
        return False

    def admit(v: int, d: float) -> None:
        """Keep v, at distance d, if it is among the k nearest so far, and
        cut at the k-th distance whenever that falls."""
        nonlocal s_current
        item = (-d, -v)
        if len(worst) < k:
            heapq.heappush(worst, item)
        elif item > worst[0]:
            heapq.heapreplace(worst, item)
        else:
            return  # the k nearest so far are unchanged
        if len(worst) == k and -worst[0][0] != s_current:  # the k-th distance fell
            s_current = -worst[0][0]
            frontier.cut(ambit_mod.bound_cutoff(s_current))

    def visit(v: int) -> bool:
        """Refuse v if an armed lazy edge misses the query, else record it."""
        if lazy and refused(v, frontier.traversed):
            return False
        if knn:
            d = to_center.get(v)
            if d is None:  # `ev.dist_to_center(v)`, inlined: every traversed node pays for it
                d = to_center[v] = measure(center, plain[v], session)
            admit(v, d)
        elif ev.member(v):
            members.append(v)
        return True

    def step(v: int) -> list:
        """`visit` and `fire` of a node of a lean plan at once: admit v at
        its distance, then return the (bound, target) pairs of its ball rows
        that meet the query at the k-th distance as v leaves it."""
        d = dist(plain[v])
        admit(v, d)
        if node_rows[v] is None:
            return []
        targets, radii = node_rows[v]
        ev.region_evaluations += len(targets)
        return ambit_mod.overlap_facet_pairs(radii, targets, l1, a, d, s_current)

    hits: list[np.ndarray] = []  # the members of each wave
    if knn and heuristic.kind == "bound" and plan.sole_finder and lean:
        dist = space.measurer(center)
        order = frontier.run(None, step)
        session.charge(len(order))  # each traversed node was measured once
    elif plan.waves is None or not ball or knn or not space.symmetric:
        order = frontier.run(fire, visit)
    else:
        wave_z = np.empty(0)  # distances of the last wave's kept nodes, in order

        def visit_wave(vs: np.ndarray) -> np.ndarray:
            """`visit` for a whole wave: lazy refusals, then one batched distance call."""
            nonlocal wave_z
            if lazy:
                vs = vs[np.fromiter((not refused(v, None) for v in vs.tolist()), dtype=bool, count=len(vs))]
            wave_z = ev.dists_to_center(vs, balls.cached)
            hits.append(vs[wave_z <= s_current])
            return vs

        def fire_wave(vs: np.ndarray) -> None:
            """`fire` for a wave's out-edges, all ball rows: one verdict for
            every row, and the survivors discovered in edge order."""
            first = balls.start[vs]
            counts = balls.start[vs + 1] - first
            # the rows of each source in turn: first[i], first[i] + 1, ..., of counts[i]
            rows = (first - counts.cumsum() + counts).repeat(counts) + np.arange(counts.sum())
            z = wave_z.repeat(counts)
            targets = balls.target[rows]
            if balls.checked:
                live = frontier.undone(targets)
                rows, z, targets = rows[live], z[live], targets[live]
            ev.region_evaluations += len(rows)
            hit = ambit_mod.overlap_facet_columns(balls.r[rows], balls.l1[rows], balls.a[rows], z, s_current)
            frontier.discover_all(targets[hit])

        order = frontier.run(fire, visit, visit_wave, fire_wave)
    if knn:
        members = [v for _, v in sorted((-nd, -nr) for nd, nr in worst)]
    elif hits:
        members = np.sort(np.concatenate([*hits, np.array(members, dtype=np.int64)])).tolist()
    else:
        members.sort()
    return SearchResult(
        members=tuple(members),
        traversed=len(order),
        distance_computations=ev.session.distance_computations,
        region_evaluations=ev.region_evaluations,
        order=tuple(order),
    )


def linear_scan(space: ComparisonSpace, nodes, query) -> tuple[int, ...]:
    """Brute-force oracle. Ball: all members; kNN: k smallest (distance, id)."""
    nodes = tuple(nodes)
    if isinstance(query, Ball):
        dists = space.distances_from(query.center, nodes)
        if query.k is not None:
            ranked = sorted(zip(dists, nodes))[: query.k]
            return tuple(v for _, v in ranked)
        return tuple(v for v, d in zip(nodes, dists) if d <= query.radius)
    ev = _QueryEval(space, query)
    return tuple(v for v in nodes if ev.member(v))


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
    """res(e) per logical edge; unlisted edges carry no responsibilities."""

    def __init__(self, edge_to_nodes: dict[int, frozenset[int]] | None = None):
        self.edge_to_nodes = {
            int(k): frozenset(int(x) for x in v) for k, v in (edge_to_nodes or {}).items()
        }

    def get(self, edge_index: int) -> frozenset[int]:
        return self.edge_to_nodes.get(edge_index, frozenset())


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
    decided by `region_member_mask`.
    """
    if not workload.atomistic:
        raise ValueError("responsibility is defined against an atomistic workload")
    edges = list(sprawl.iter_logical_edges())
    targeted = {e.target for _, e in edges}
    missing = set(sprawl.nodes) - targeted
    if missing:
        raise StructureError(f"nodes {sorted(missing)} are targeted by no edge")

    # discovery-capable edges must admit a topological node order
    order = TopologicalSorter()
    for _, e in edges:
        if e.discovers:
            order.add(e.target, *e.sources)
    try:
        order.prepare()
    except CycleError:
        raise StructureError("sprawl discovery edges are cyclic") from None

    node_res: dict[int, set[int]] = {v: {v} for v in sprawl.nodes}
    for idx, e in edges:
        for s in set(e.sources):
            node_res[s] |= res.get(idx)

    violations = []
    in_union: dict[int, set[int]] = {v: set() for v in sprawl.nodes}
    for idx, e in edges:
        in_union[e.target] |= res.get(idx)
        for rule, regions, refs in (("L1", e.positive, res.get(idx)), ("L2", e.negative, node_res[e.target])):
            refs = sorted(refs)
            for r in regions:
                inside = region_member_mask(sprawl.space, r, refs)
                violations.extend((rule, idx, v, repr(r)) for v, ok in zip(refs, inside) if not ok)
    for v in sprawl.nodes:
        extra = node_res[v] - in_union[v]
        for u in sorted(extra):
            violations.append(("L3", None, v, f"responsibility {u} not covered by in-edges"))
    return ResponsibilityReport(not violations, violations)


# --- classic index builders -------------------------------------------------


def brute_force_sprawl(space: ComparisonSpace, nodes) -> Sprawl:
    """Every node a root, no regions: the exhaustive-scan index."""
    return Sprawl(space, nodes, [Edge((), v) for v in nodes])


def _maxmin_pivots(space: ComparisonSpace, refs, count: int) -> list[int]:
    refs = list(refs)
    if count >= len(refs):
        return refs
    d0 = space.distances_from(refs[0], refs)
    chosen = [refs[int(np.argmax(d0))]]
    best = space.distances_from(chosen[0], refs)
    while len(chosen) < count:
        nxt = refs[int(np.argmax(best))]
        if nxt in chosen:
            for candidate in refs:  # all remaining coincide with a pivot
                if candidate not in chosen:
                    nxt = candidate
                    break
        chosen.append(nxt)
        best = np.minimum(best, space.distances_from(nxt, refs))
    return chosen


@dataclass
class _TreeNode:
    point: int
    children: list = field(default_factory=list)
    subtree: tuple[int, ...] = ()


def _build_metric_tree(space: ComparisonSpace, refs: list[int], arity: int) -> _TreeNode:
    def build(members: list[int], rep: int) -> _TreeNode:
        rest = [r for r in members if r != rep]
        node = _TreeNode(rep)
        if rest:
            if len(rest) <= arity:
                seeds, groups = list(rest), [[r] for r in rest]
            else:
                seeds = list(dict.fromkeys(_maxmin_pivots(space, rest, arity)))
                if len(seeds) == 1:  # all remaining points coincide
                    seeds, groups = list(rest), [[r] for r in rest]
                else:
                    assign = np.argmin(space.pairwise(rest, seeds), axis=1)
                    groups = [[] for _ in seeds]
                    for r, gi in zip(rest, assign):
                        groups[int(gi)].append(r)
                    # a seed is at distance 0 from itself, so its group is non-empty
                    seeds, groups = zip(*[(s, g) for s, g in zip(seeds, groups) if g])
                    if len(groups) == 1:  # duplicates collapsed into one group
                        seeds, groups = list(rest), [[r] for r in rest]
            for seed, group in zip(seeds, groups):
                node.children.append(build(group, seed))
        node.subtree = (rep,) + tuple(v for c in node.children for v in c.subtree)
        return node

    return build(list(refs), refs[0])


def _tree_edges(space: ComparisonSpace, root: _TreeNode):
    """The root edge, the ball-labeled child edges as the columns of
    discovering fans, one per internal node (row j is edge 1 + j), and
    responsibilities, by preorder walk."""
    source: list[int] = []
    start = [0]
    target: list[int] = []
    cover: list[float] = []
    res: dict[int, frozenset[int]] = {0: frozenset(root.subtree)}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            cover.append(float(np.max(space.distances_from(node.point, child.subtree))))
            target.append(child.point)
            res[len(target)] = frozenset(child.subtree)
            stack.append(child)
        if node.children:
            source.append(node.point)
            start.append(len(target))
    return [Edge((), root.point)], (source, start, target, cover), res


def build_classic(space: ComparisonSpace, nodes, kind: str, **params):
    """Construct a classic index layout as a sprawl.

    kinds: ball-tree, aesa, laesa (pivots=m), pm-tree (arity, pivots),
    sorted-interval-tree (1-d coordinate-projection spaces only).
    Returns (sprawl, responsibility assignment).
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
        root = _build_metric_tree(space, refs, arity)
        edges, (source, start, target, cover), res = _tree_edges(space, root)
        fans = Fans(source, start, target, cover, discovers=np.ones(len(source), dtype=bool))
        return Sprawl(space, refs, edges, fans), ResponsibilityAssignment(res)

    if kind == "aesa":
        edges = [Edge((), v) for v in refs]
        res = {i: frozenset({v}) for i, v in enumerate(refs)}
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
        res = {i: frozenset({v}) for i, v in enumerate(ordered)}
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
        root = _build_metric_tree(space, tree_refs, arity)
        edges, (source, start, target, lo), tree_res = _tree_edges(space, root)
        # the pivots' root edges 1..m precede the fans, so each row's id moves up by m
        edges += [Edge((), p) for p in pivots]
        res = {i + len(pivots) if i else 0: sub for i, sub in tree_res.items()}
        res.update({1 + i: frozenset({p}) for i, p in enumerate(pivots)})
        internal: list[_TreeNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if node.children:
                internal.append(node)
        found, hi = len(source), list(lo)
        for p in pivots if internal else ():  # one lazy shell fan per pivot, over the internal nodes
            for node in internal:
                drow = space.distances_from(p, node.subtree)
                target.append(node.point)
                lo.append(float(np.min(drow)))
                hi.append(float(np.max(drow)))
            source.append(p)
            start.append(len(target))
        discovers = np.arange(len(source)) < found
        fans = Fans(source, start, target, lo, hi, discovers, ~discovers)
        return Sprawl(space, refs, edges, fans), ResponsibilityAssignment(res)

    if kind == "sorted-interval-tree":
        if not isinstance(space, ProjectionSpace) or space.dimension != 1:
            raise ValueError("sorted-interval-tree requires a 1-d coordinate-projection space")
        axis = space.axis_ref(0)
        ordered = sorted(refs, key=lambda v: (float(space.points[v, 0]), v))
        edges: list[Edge] = []
        res: dict[int, frozenset[int]] = {}

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
            res[len(edges) - 1] = frozenset(part)
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
    targets the ready edges would discover or eliminate. Region hits are
    precomputed per ground-set point, so calls are cheap.
    """
    refs = list(sprawl.nodes)
    pos_of = {v: i for i, v in enumerate(refs)}
    table = []  # (source set, target, pos_ok mask, neg_ok mask)
    for _, e in sprawl.iter_logical_edges():
        pos_ok = np.ones(len(refs), dtype=bool)
        for r in e.positive:
            pos_ok &= region_member_mask(sprawl.space, r, refs)
        neg_ok = np.ones(len(refs), dtype=bool)
        for r in e.negative:
            neg_ok &= region_member_mask(sprawl.space, r, refs)
        table.append((set(e.sources), e.target, pos_ok, neg_ok))

    def oracle(traversed, query_ref: int):
        tset = set(int(t) for t in traversed)
        j = pos_of[int(query_ref)]
        discovered, eliminated = set(), set()
        for sources, target, pos_ok, neg_ok in table:
            if not sources <= tset:
                continue
            if not neg_ok[j]:
                eliminated.add(target)
            elif pos_ok[j]:
                discovered.add(target)
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
