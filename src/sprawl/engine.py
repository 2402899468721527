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
from itertools import compress
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
from .hypergraph import Frontier, Heuristic, HyperEdge, SignedHyperdigraph, Waves, activation

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


@dataclass
class ShellGroup:
    """A fan of single-target negative shell edges sharing one source.

    Stored columnar (targets plus per-target shell bounds around the
    source) so pivot-style indexes stay compact; logically each position
    is an ordinary edge with P = (Empty,) and one shell region.
    """

    source: int
    targets: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    lazy: bool = False

    def __post_init__(self):
        self.targets = np.asarray(self.targets, dtype=np.int64)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if not (self.targets.shape == self.lo.shape == self.hi.shape):
            raise ValueError("group arrays must have matching shapes")
        if np.any(self.lo > self.hi):
            raise ValueError("shell group needs lo <= hi")

    def __len__(self) -> int:
        return int(self.targets.shape[0])

    def member_edge(self, i: int) -> Edge:
        region = table1_region("shell", (self.source,), lo=self.lo[i], hi=self.hi[i])
        return Edge((self.source,), int(self.targets[i]), (EMPTY,), (region,), lazy=self.lazy)


@dataclass
class BallTable:
    """Single-focus ball edges delta(source, .) <= radius, as columns.

    Each row is one logical edge (source,) -> target whose positive label
    is `table1_region("ball", (source,), r=radius)` and whose negative
    label is empty, the child edge of a ball-tree or pm-tree. Rows are
    numbered after the sprawl's explicit edges and before its shell-group
    members.
    """

    source: np.ndarray
    target: np.ndarray
    radius: np.ndarray

    def __post_init__(self):
        self.source = np.asarray(self.source, dtype=np.int64)
        self.target = np.asarray(self.target, dtype=np.int64)
        self.radius = np.asarray(self.radius, dtype=float)
        if not (self.source.ndim == 1 and self.source.shape == self.target.shape == self.radius.shape):
            raise ValueError("ball table columns must be 1-d with matching shapes")
        if np.isnan(self.radius).any():  # every overlap check with NaN misses, so its subtree would vanish
            raise ValueError("a ball radius must not be NaN")

    def __len__(self) -> int:
        return int(self.source.shape[0])

    def member_edges(self) -> list[Edge]:
        """Every row as the `Edge` it stands for, in row order."""
        return [
            Edge((u,), t, (Ambit((u,), ambit_mod.BALL_MAP, (r,)),), ())
            for u, t, r in zip(self.source.tolist(), self.target.tolist(), self.radius.tolist())
        ]


_NO_BALLS = BallTable([], [], [])  # shared by every sprawl without a ball table: no row to change


class _BallColumns(NamedTuple):
    """Single-facet ball edges a * delta(source, .) <= r as columns, by
    source: the edges of source v are rows start[v]:start[v + 1], in edge
    order. `by_edge` holds each one as plain floats for a node-at-a-time
    search."""

    start: np.ndarray
    target: np.ndarray
    a: np.ndarray
    l1: np.ndarray
    r: np.ndarray
    checked: bool  # whether a target may already be done when its edge fires
    others: dict[int, list[int]]  # each source's other out-edge ids, which discover nothing
    by_edge: dict[int, tuple[int, int, float, float, float]]  # edge id -> (target, source, a, ||a||_1, r)


def _ref_test(refs: set[int]):
    """A test of whether every value of an int64 array is in refs.

    Over a span of ids at most a few times the count of refs, as builders
    and the index reader give, it reads a lookup table, so no array is
    sorted; over a sparser span it falls back to `np.isin`.
    """
    known = np.fromiter(refs, dtype=np.int64, count=len(refs))
    low = min(int(known.min()), 0) if len(known) else 0
    high = int(known.max()) if len(known) else -1
    if high - low > 4 * len(known) + 64:
        return lambda values: bool(np.isin(values, known).all())
    table = np.zeros(high - low + 1, dtype=bool)
    table[known - low] = True

    def test(values: np.ndarray) -> bool:
        if not len(values):
            return True
        if values.min() < low or values.max() > high:
            return False
        return bool(table[values - low if low else values].all())

    return test


class Sprawl:
    """Immutable-after-build index: ground set, edges, ball table and shell groups."""

    def __init__(
        self, space: ComparisonSpace, nodes, edges, groups=(), balls: BallTable | None = None, validate: bool = True
    ):
        self.space = space
        self.nodes: tuple[int, ...] = tuple(int(v) for v in nodes)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.groups: tuple[ShellGroup, ...] = tuple(groups)
        self.balls: BallTable = balls if balls is not None else _NO_BALLS
        self._node_pos = {v: i for i, v in enumerate(self.nodes)}
        self._plan_cache = None
        if validate:
            self.validate()

    @cached_property
    def _ball_edges(self) -> list[Edge]:
        """The ball table's rows as `Edge`s, built once, on first use."""
        return self.balls.member_edges()

    # ball table rows are numbered after the explicit edges, group members after both
    def logical_edge(self, idx: int) -> Edge:
        if idx < 0:
            raise IndexError("edge index out of range")
        if idx < len(self.edges):
            return self.edges[idx]
        idx -= len(self.edges)
        if idx < len(self.balls):
            return self._ball_edges[idx]
        idx -= len(self.balls)
        for g in self.groups:
            if idx < len(g):
                return g.member_edge(idx)
            idx -= len(g)
        raise IndexError("edge index out of range")

    def iter_logical_edges(self):
        yield from enumerate(self.edges)
        yield from enumerate(self._ball_edges, len(self.edges))
        idx = len(self.edges) + len(self.balls)
        for g in self.groups:
            for i in range(len(g)):
                yield idx, g.member_edge(i)
                idx += 1

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(e.target for e in self.edges if e.is_root_edge)

    def validate(self) -> None:
        nodes = set(self.nodes)
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
        if not (self.groups or len(self.balls)):
            return
        # one membership test per column: each ball column, every group target at once
        known = _ref_test(nodes)
        b = self.balls
        if not (known(b.source) and known(b.target)):
            raise IndexError("ball table refers to refs outside the ground set")
        if (b.source == b.target).any():
            warnings.warn("a ball edge into its own source can never fire usefully")
        if self.groups:
            targets = np.concatenate([g.targets for g in self.groups])
            if any(g.source not in nodes for g in self.groups) or not known(targets):
                raise IndexError("shell group refers to refs outside the ground set")

    def _plan(self):
        """The frontier plan (ball row j is edge len(edges) + j, group gi
        edge len(edges) + len(balls) + gi), the lazy edges and lazy group
        positions into each target, and the plan positions of each eager
        group's targets.

        The label-free root edges that precede every other sourceless edge
        become the plan's seeds. When every node is a seed and every eager
        edge is a shell group, as AESA and LAESA build them, the plan is
        dense, so a kNN search can select by the groups' bounds, and a FIFO
        search over a plan with no `Waves` (AESA) by seed position. The plan
        also carries the `Waves` that let a FIFO range search go a wave at
        a time, and the ball columns those waves test, which also map each
        ball edge id to plain floats for the node-at-a-time path (see
        `_waves`). Where no node has two discovering eager in-edges, a
        seed's root edge included, the plan's `sole_finder` lets a kNN
        search stop at its bound. Everything is built on the first call,
        not with the sprawl.
        """
        if self._plan_cache is not None:
            return self._plan_cache
        eager, seeds = [], []
        seeding = True
        lazy_in: dict[int, list[int]] = {}
        finders: dict[int, int] = {}  # discovering eager in-edges per target
        for i, e in enumerate(self.edges):
            if e.lazy:
                lazy_in.setdefault(e.target, []).append(i)
                continue
            finders[e.target] = finders.get(e.target, 0) + e.discovers
            if seeding and e.is_root_edge:
                seeds.append(e.target)
            else:
                seeding = seeding and bool(e.sources)
                eager.append((i, e.sources))
        for t in self.balls.target.tolist():  # every row discovers
            finders[t] = finders.get(t, 0) + 1
        base = len(self.edges) + len(self.balls)
        eager += zip(range(len(self.edges), base), ((u,) for u in self.balls.source.tolist()))
        lazy_group_in: dict[int, list[tuple[int, int]]] = {}
        for gi, g in enumerate(self.groups):
            if g.lazy:
                for pos, t in enumerate(g.targets):
                    lazy_group_in.setdefault(int(t), []).append((gi, pos))
            else:
                eager.append((base + gi, (g.source,)))
        # eager ids ascend, so the first is a group's only if every eager edge is a group
        dense = bool(eager) and eager[0][0] >= base and set(seeds) == set(self.nodes)
        plan = activation(eager, seeds, dense)
        group_pos = {}
        if dense:
            order = np.asarray(plan.seeds, dtype=np.int64)
            low = int(order.min())
            at = np.empty(int(order.max()) - low + 1, dtype=np.int64)  # seed position by ref
            at[order - low] = np.arange(len(order))
            group_pos = {gi: at[g.targets - low] for gi, g in enumerate(self.groups) if not g.lazy}
        waves, balls = self._waves(lazy_in, lazy_group_in, finders)
        plan = plan._replace(waves=waves, sole_finder=max(finders.values(), default=0) <= 1)
        self._plan_cache = (plan, lazy_in, lazy_group_in, group_pos, balls)
        return self._plan_cache

    def _waves(self, lazy_in, lazy_group_in, finders):
        """The plan's `Waves` and the ball columns, or (None, None).

        A node steps alone when one of its eager out-edges has other
        sources, or discovers without being a single-facet ball about it,
        and so does the target of a sourceless eliminating edge: with no
        node alone, apart or waiting, no queued node is ever eliminated.
        Two nodes are kept apart when one's eager edge tests the other
        (a group or an eliminating edge, or an edge fired as a whole), or
        when one's edge could eliminate a target that the other's ball
        tests; a ball tested twice, or into a seed, also keeps its target
        apart from its source. A target of lazy edges waits until their
        sources are traversed. Where every node is the source of an eager
        group, as in AESA, each node's shells may eliminate the next, so
        waves would all be one node; a dense plan then selects FIFO from
        its bound array instead.
        """
        edges, groups, nodes, table = self.edges, self.groups, self.nodes, self.balls
        eager_groups = [(len(edges) + len(table) + gi, g) for gi, g in enumerate(groups) if not g.lazy]
        if {g.source for _, g in eager_groups} >= set(nodes) or min(nodes) < 0:
            return None, None
        alone: set[int] = set()
        apart: dict[int, set[int]] = {}
        kills: dict[int, set[int]] = {}  # eager eliminating sources per eliminable target
        others: dict[int, list[int]] = {}
        balls = []  # (edge id, source, target, (a, ||a||_1, r)), in edge order

        def part(u: int, v: int) -> None:
            if u != v:
                apart.setdefault(u, set()).add(v)
                apart.setdefault(v, set()).add(u)

        for i, e in enumerate(edges):
            if e.lazy:
                continue
            t, sources = e.target, set(e.sources)
            if e.negative:
                kills.setdefault(t, set()).update(sources)
                if not sources:
                    alone.add(t)
            if len(sources) > 1:
                alone |= sources
            elif sources:
                (u,) = sources
                if len(e.positive) == 1 and not e.negative:
                    facet = ambit_mod.ball_facet(e.positive[0], u)
                    if facet is not None:
                        balls.append((i, u, t, facet))
                        continue
                if e.discovers:
                    alone.add(u)
                others.setdefault(u, []).append(i)
                part(u, t)
        unit = ambit_mod.BALL_FACET  # every table row is the ball delta(u, .) <= r
        table_rows = zip(table.source.tolist(), table.target.tolist(), table.radius.tolist())
        balls += ((i, u, t, (*unit, r)) for i, (u, t, r) in enumerate(table_rows, len(edges)))
        for i, g in eager_groups:
            others.setdefault(g.source, []).append(i)
            for t in g.targets.tolist():
                kills.setdefault(t, set()).add(g.source)
                part(g.source, t)
        checked = False
        for _, u, t, _ in balls:
            contested = finders.get(t, 0) > 1
            if contested:
                part(u, t)
            for k in kills.get(t, ()):
                if k == u:
                    alone.add(u)
                part(u, k)
            checked = checked or contested or t in kills or t == u
        after: dict[int, set[int]] = {}
        for t, ids in lazy_in.items():
            after.setdefault(t, set()).update(*(edges[i].sources for i in ids))
        for t, refs in lazy_group_in.items():
            after.setdefault(t, set()).update(groups[gi].source for gi, _ in refs)
        waves = Waves(
            frozenset(alone),
            {v: frozenset(vs) for v, vs in apart.items()},
            {v: frozenset(vs) for v, vs in after.items()},
        )
        source = np.array([b[1] for b in balls], dtype=np.int64)
        start = np.zeros(max(nodes) + 2, dtype=np.int64)
        np.cumsum(np.bincount(source, minlength=max(nodes) + 1), out=start[1:])
        rows = np.argsort(source, kind="stable")  # by source, in edge order within one
        facets = np.array([b[3] for b in balls], dtype=float).reshape(-1, 3)[rows]
        columns = _BallColumns(
            start,
            np.array([b[2] for b in balls], dtype=np.int64)[rows],
            facets[:, 0],
            facets[:, 1],
            facets[:, 2],
            checked,
            others,
            {i: (t, u, *facet) for i, u, t, facet in balls},
        )
        return waves, columns


# --- query evaluation -------------------------------------------------------


class _QueryEval:
    """Per-search caches: query-center distances and focal cross-distances.

    Membership and overlap verdicts come from `ambit`; this class supplies
    the distances and dispatches on region kind.
    """

    def __init__(self, space: ComparisonSpace, query):
        self.space = space
        self.query = query
        self.session = CostSession()
        if isinstance(query, AmbitQuery):  # the backward ambit of its weighted foci
            self.query_region = Ambit(query.foci, LinearMap([query.weights]), (query.radius,), "backward")
        self.region_evaluations = 0
        self._to_center: dict[int, float] = {}
        self._from_focus: dict[int, float] = {}
        self._cross: dict[tuple[int, int], float] = {}

    @cached_property
    def center(self):
        """The ball centre, coerced once: a ref stays a ref, a raw value
        becomes what the space compares."""
        c = self.query.center
        return c if isinstance(c, (int, np.integer)) else self.space._coerce(c)

    def dist_to_center(self, ref: int) -> float:
        d = self._to_center.get(ref)
        if d is None:
            d = self.space.compare(self.center, ref, self.session)
            self._to_center[ref] = d
            if self.space.symmetric:
                self._from_focus[ref] = d
        return d

    def dists_to_center(self, refs: list[int]) -> np.ndarray:
        """`dist_to_center` of each ref, the uncached ones in one
        `distances_from` call, whose rows equal `compare` bit for bit."""
        cache = self._to_center
        todo = [r for r in refs if r not in cache]
        if todo:
            d = self.space.distances_from(self.center, todo, self.session)
            fresh = dict(zip(todo, d.tolist()))
            cache.update(fresh)
            if self.space.symmetric:
                self._from_focus.update(fresh)
            if len(todo) == len(refs):
                return d
        return np.array([cache[r] for r in refs], dtype=float)

    def dist_from_focus(self, ref: int) -> float:
        d = self._from_focus.get(ref)
        if d is None:
            d = self.space.compare(ref, self.center, self.session)
            self._from_focus[ref] = d
            if self.space.symmetric:
                self._to_center[ref] = d
        return d

    def z_of(self, foci) -> list[float]:
        return [self.dist_from_focus(p) for p in foci]

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
                return any(
                    ambit_mod.membership(self.space, region, i, self.session) for i in sorted(q.ids)
                )
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


def member_node(space: ComparisonSpace, query, ref: int) -> bool:
    """Exact membership of a ground-set point in a query."""
    return _QueryEval(space, query).member(ref)


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
            for v in nodes:
                if member_node(space, q, v):
                    singletons.add(v)
    for q in workload.queries:
        for v in nodes:
            if member_node(space, q, v) and v not in singletons:
                return False
    return True


# --- reduction and search ---------------------------------------------------


def _refuse_unsound(sprawl: Sprawl, query) -> None:
    """Fail closed where the ball overlap bound does not hold.

    Region and shell checks bound a ball by delta(p, c) <= delta(p, u) + s,
    which needs delta(u, c) <= s; on an asymmetric space ball membership
    only gives delta(c, u) <= s, so those checks could drop a member.
    """
    if isinstance(query, Ball) and not sprawl.space.symmetric and (
        sprawl.groups
        or len(sprawl.balls)
        or any(isinstance(r, Ambit) for e in sprawl.edges for r in e.positive + e.negative)
    ):
        raise CapabilityError(
            "ball queries on an asymmetric space need a sprawl without ambit regions, ball tables or shell groups"
        )


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

    The traversal loop is `hypergraph.Frontier.run`; an edge here fires by
    evaluating its regions against the query, and a shell group fires by
    eliminating all its missed targets at once. Every traversed node is
    tested for query membership. Lazy negative edges are consulted only
    immediately before their target would be traversed. A `Ball` search
    fires each single-facet ball edge of the plan with one plain-float
    `ambit.overlap_facet_bound` call, which gives the verdict and the kNN
    bound that `intersects` and `lower_bound` would. For kNN queries the cover
    radius starts at infinity and tightens to the current k-th best
    distance after every traversal; node priorities are the per-edge
    region lower bounds, and where the plan proves each node's bound its
    one discovering edge's (`Plan.sole_finder`), the "bound" heuristic
    stops once the smallest bound left is beyond the radius, as
    best-first search does. When the frontier is dense under the "bound"
    heuristic (over a dense plan, see `Sprawl._plan`), a fired group
    instead raises each target's shell lower bound, the next node is the
    one with the smallest bound, and a bound beyond the current radius
    eliminates, as in AESA and LAESA. When it is dense under FIFO (AESA),
    the next node is the first live root, and a fired group eliminates
    its missed targets by seed position in one store, as the classic
    AESA range loop does.

    A FIFO range search (a `Ball` with no k, on a symmetric space) whose
    plan carries `Waves` goes a wave at a time instead: one
    `distances_from` call tests the whole wave for membership and fills
    the caches, the wave's single-facet ball edges get one vectorised
    verdict (`ambit.overlap_facet_columns`), its other edges fire in turn
    as above, and the surviving targets, in edge order, join the queue.
    Members, order and both counts are those of the node-at-a-time form.
    """
    _refuse_unsound(sprawl, query)
    space = sprawl.space
    ev = _QueryEval(space, query)
    knn = isinstance(query, Ball) and query.k is not None
    if knn:
        k = query.k
        worst: list[tuple[float, int]] = []  # max-heap via negation: (-(dist), -ref)
        s_current = math.inf
    else:
        s_current = query.radius if isinstance(query, Ball) else None

    plan, lazy_in, lazy_group_in, group_pos, balls = sprawl._plan()
    ball_edges = balls.by_edge if balls is not None and isinstance(query, Ball) else {}
    if heuristic is None:
        heuristic = Heuristic("bound") if knn else Heuristic.fifo()
    frontier = Frontier(plan, heuristic)
    steer = frontier.dense and heuristic.kind == "bound" and isinstance(query, Ball)
    if steer:
        frontier.cut(ambit_mod.bound_cutoff(s_current))
    done = frontier.done
    edges, groups = sprawl.edges, sprawl.groups
    base = len(edges) + len(sprawl.balls)  # the first group's edge id

    def lower_bound(edge: Edge) -> float:
        lb = 0.0
        for r in edge.positive:
            if isinstance(r, Ambit) and isinstance(r.map, LinearMap):
                lb = max(lb, ambit_mod.ball_reach(r, ev.z_of(r.foci)))
        return max(lb, 0.0)

    def fire_group(gi: int) -> None:
        g = groups[gi]
        if isinstance(query, Ball):
            z = ev.dist_from_focus(g.source)
            ev.region_evaluations += len(g)
            if steer:
                frontier.raise_bounds(group_pos[gi], ambit_mod.shell_bounds(z, g.lo, g.hi))
                return
            miss = ambit_mod.shells_missed(z, g.lo, g.hi, s_current)
            if frontier.dense:
                frontier.eliminate_at(group_pos[gi][miss])
            else:
                frontier.eliminate(g.targets[miss].tolist())
        else:
            for i in range(len(g)):
                e = g.member_edge(i)
                if e.target in done:
                    continue
                if not ev.intersects(e.negative[0], s_current):
                    frontier.eliminate((e.target,))

    def fire(edge_ids) -> None:
        for ei in edge_ids:
            if ei >= base:
                fire_group(ei - base)
                continue
            ball = ball_edges.get(ei)
            if ball is not None:  # one float verdict and bound, as `intersects` and `lower_bound` give
                t, u, a, l1, r = ball
                if t in done:
                    continue
                ev.region_evaluations += 1
                bound = ambit_mod.overlap_facet_bound(r, l1, a, ev.dist_from_focus(u), s_current)
                if bound is not None:
                    frontier.discover(t, bound if knn else 0.0)
                continue
            e = sprawl.logical_edge(ei)
            t = e.target
            if t in done:
                continue
            if not all(ev.intersects(r, s_current) for r in e.negative):
                frontier.eliminate((t,))
            elif all(ev.intersects(r, s_current) for r in e.positive):
                frontier.discover(t, lower_bound(e) if knn else 0.0)

    members: list[int] = []
    lazy = bool(lazy_in or lazy_group_in)

    def refused(v: int) -> bool:
        """Whether an armed lazy edge or group into v misses the query."""
        traversed = frontier.traversed
        for ei in lazy_in.get(v, ()):
            e = edges[ei]
            if all(s in traversed for s in e.sources):
                for r in e.negative:
                    if not ev.intersects(r, s_current):
                        return True
        for gi, posn in lazy_group_in.get(v, ()):
            g = groups[gi]
            if g.source in traversed:
                if isinstance(query, Ball):
                    z = ev.dist_from_focus(g.source)
                    ev.region_evaluations += 1
                    if ambit_mod.shells_missed(z, g.lo[posn], g.hi[posn], s_current):
                        return True
                elif not ev.intersects(g.member_edge(posn).negative[0], s_current):
                    return True
        return False

    def visit(v: int) -> bool:
        """Refuse v if an armed lazy edge misses the query, else record it."""
        nonlocal s_current
        if lazy and refused(v):
            return False
        if knn:
            d = ev.dist_to_center(v)
            item = (-d, -v)
            if len(worst) < k:
                heapq.heappush(worst, item)
            elif item > worst[0]:
                heapq.heapreplace(worst, item)
            if len(worst) == k:
                s_current = -worst[0][0]
                frontier.cut(ambit_mod.bound_cutoff(s_current))
        elif ev.member(v):
            members.append(v)
        return True

    if balls is None or not isinstance(query, Ball) or knn or not space.symmetric:
        order = frontier.run(fire, visit)
    else:
        wave_z = np.empty(0)  # distances of the last wave's kept nodes, in order

        def visit_wave(vs: list[int]) -> list[int]:
            """`visit` for a whole wave: lazy refusals, then one batched distance call."""
            nonlocal wave_z
            if lazy:
                vs = [v for v in vs if not refused(v)]
            wave_z = ev.dists_to_center(vs)
            members.extend(compress(vs, (wave_z <= s_current).tolist()))
            return vs

        def fire_wave(vs: list[int]) -> None:
            """`fire` for a wave's out-edges: the others in turn, then every
            ball edge in one verdict; survivors are discovered in edge order."""
            if balls.others:
                fire([i for v in vs for i in balls.others.get(v, ())])
            src = np.asarray(vs, dtype=np.int64)
            first = balls.start[src]
            counts = balls.start[src + 1] - first
            # the rows of each source in turn: first[i], first[i] + 1, ..., of counts[i]
            rows = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
            z = np.repeat(wave_z, counts)
            targets = balls.target[rows]
            if balls.checked:
                live = np.fromiter((t not in done for t in targets.tolist()), dtype=bool, count=len(rows))
                rows, z, targets = rows[live], z[live], targets[live]
            ev.region_evaluations += len(rows)
            hit = ambit_mod.overlap_facet_columns(balls.r[rows], balls.l1[rows], balls.a[rows], z, s_current)
            frontier.discover_all(targets[hit].tolist())

        order = frontier.run(fire, visit, visit_wave, fire_wave)
    if knn:
        ranked = sorted((-nd, -nr) for nd, nr in worst)
        members = [v for _, v in ranked]
    return SearchResult(
        members=tuple(sorted(members)) if not knn else tuple(members),
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
    for qi, query in enumerate(workload.queries):
        g = reduce_to_signed(sprawl, query)
        pos_edges = [(sum(1 << s for s in e.sources), 1 << e.target) for e in g.edges if e.sign > 0]
        neg_edges = [(sum(1 << s for s in e.sources), 1 << e.target) for e in g.edges if e.sign < 0]
        required = 0
        for i, v in enumerate(sprawl.nodes):
            if member_node(sprawl.space, query, v):
                required |= 1 << i

        def avail(state: int) -> int:
            disc = elim = 0
            for src, tgt in pos_edges:
                if state & src == src:
                    disc |= tgt
            for src, tgt in neg_edges:
                if state & src == src:
                    elim |= tgt
            return disc & ~elim & ~state

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
    pairs = {
        (s, e.target)
        for _, e in edges
        if e.discovers
        for s in e.sources
    }
    succ: dict[int, set[int]] = {v: set() for v in sprawl.nodes}
    indeg = {v: 0 for v in sprawl.nodes}
    for s, t in pairs:
        succ[s].add(t)
        indeg[t] += 1
    queue = [v for v in sprawl.nodes if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for t in succ[v]:
            indeg[t] -= 1
            if indeg[t] == 0:
                queue.append(t)
    if seen != len(sprawl.nodes):
        raise StructureError("sprawl discovery edges are cyclic")

    node_res: dict[int, set[int]] = {v: {v} for v in sprawl.nodes}
    for idx, e in edges:
        for s in set(e.sources):
            node_res[s] |= res.get(idx)

    violations = []
    in_union: dict[int, set[int]] = {v: set() for v in sprawl.nodes}
    for idx, e in edges:
        in_union[e.target] |= res.get(idx)
        for r in e.positive:
            for v in sorted(res.get(idx)):
                if not region_member_mask(sprawl.space, r, [v])[0]:
                    violations.append(("L1", idx, v, repr(r)))
        for r in e.negative:
            for v in sorted(node_res[e.target]):
                if not region_member_mask(sprawl.space, r, [v])[0]:
                    violations.append(("L2", idx, v, repr(r)))
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
    """The root edge, the ball-labeled child edges as a `BallTable` (row j
    is edge 1 + j) and responsibilities, by preorder walk."""
    source: list[int] = []
    target: list[int] = []
    cover: list[float] = []
    res: dict[int, frozenset[int]] = {0: frozenset(root.subtree)}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            cover.append(float(np.max(space.distances_from(node.point, child.subtree))))
            source.append(node.point)
            target.append(child.point)
            res[len(source)] = frozenset(child.subtree)
            stack.append(child)
    return [Edge((), root.point)], BallTable(source, target, cover), res


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
        edges, balls, res = _tree_edges(space, root)
        return Sprawl(space, refs, edges, balls=balls), ResponsibilityAssignment(res)

    if kind == "aesa":
        edges = [Edge((), v) for v in refs]
        res = {i: frozenset({v}) for i, v in enumerate(refs)}
        ids = np.asarray(refs)
        d = space.pairwise(refs, refs)
        groups = []
        for i, u in enumerate(refs):
            row = np.delete(d[i], i)
            groups.append(ShellGroup(u, np.delete(ids, i), row, row, lazy=False))
        return Sprawl(space, refs, edges, groups), ResponsibilityAssignment(res)

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
        groups = []
        for p in pivots:
            if not others:
                continue
            row = space.distances_from(p, others)
            groups.append(ShellGroup(p, np.asarray(others), row, row, lazy=False))
        return Sprawl(space, refs, edges, groups), ResponsibilityAssignment(res)

    if kind == "pm-tree":
        arity = int(params.get("arity", 2))
        m = int(params.get("pivots", 4))
        if m < 1:
            raise ValueError("pivot count out of range")
        if m >= len(refs):
            raise ValueError("need more points than pivots")
        pivots = _maxmin_pivots(space, refs, m)
        tree_refs = [v for v in refs if v not in pivots]
        root = _build_metric_tree(space, tree_refs, arity)
        edges, balls, tree_res = _tree_edges(space, root)
        # the pivots' root edges 1..m precede the ball table, so each row's id moves up by m
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
        groups = []
        for p in pivots:
            targets, lo, hi = [], [], []
            for node in internal:
                drow = space.distances_from(p, node.subtree)
                targets.append(node.point)
                lo.append(float(np.min(drow)))
                hi.append(float(np.max(drow)))
            if targets:
                groups.append(
                    ShellGroup(p, np.asarray(targets), np.asarray(lo), np.asarray(hi), lazy=True)
                )
        return Sprawl(space, refs, edges, groups, balls), ResponsibilityAssignment(res)

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


def emulate_from_traces(
    space: ComparisonSpace,
    nodes,
    trace_oracle,
    max_source_size: int = 3,
) -> Sprawl:
    """Reconstruct a sprawl from observed discovery/elimination behavior.

    Scans source subsets breadth-first by size, keeping minimal sets that
    trigger each behavior; single positive regions grow to contain every
    discovering singleton query, single negative regions every
    non-eliminating one. Scanning stops early once a full size level adds
    no new minimal edge and every node is positively covered.
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
    for size in range(0, max_source_size + 1):
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


def random_small_sprawl(rng: np.random.Generator, max_nodes: int = 6):
    """Seeded random 2-d sprawl with ball/shell labels, for property checks."""
    n = int(rng.integers(2, max_nodes + 1))
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
