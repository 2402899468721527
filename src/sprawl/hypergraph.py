"""Signed directed hypergraphs and their traversal.

Positive edges discover their target once all sources are traversed;
negative edges eliminate it. `Frontier` holds the package's one traversal
loop and one node-status store, a byte per node ref, whichever way it
selects: `traverse` drives it over signed edges and `engine.search` over
region-labeled ones. The exhaustive repertoire enumerator and the
traversal-axiom checker below are the verification oracles for the rest
of the package. Both exhaustive walks, `enumerate_repertoire` and
`engine.check_correct_small`, take the nodes available next from
`successors`: a function of the traversed set alone, as bitmasks.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SizeLimitError


@dataclass(frozen=True)
class HyperEdge:
    sources: frozenset[int]
    target: int
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "sources", frozenset(int(s) for s in self.sources))
        object.__setattr__(self, "target", int(self.target))
        if self.sign not in (-1, 1):
            raise ValueError("edge sign must be +1 or -1")


class SignedHyperdigraph:
    def __init__(self, node_count: int, edges):
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        self.node_count = int(node_count)
        self.edges: tuple[HyperEdge, ...] = tuple(
            e if isinstance(e, HyperEdge) else HyperEdge(frozenset(e[0]), e[1], e[2]) for e in edges
        )
        for e in self.edges:
            if not 0 <= e.target < self.node_count or any(not 0 <= s < self.node_count for s in e.sources):
                raise IndexError(f"edge {e} refers to nodes outside [0, {self.node_count})")
            if e.target in e.sources:
                warnings.warn(f"edge into {e.target} lists it as a source and can never fire usefully")


@dataclass
class Heuristic:
    """Tie-breaking policy for the choice among available nodes.

    Kinds: "fifo" and "lifo" by discovery sequence, "priority" by
    key(node), "explicit" by position in order (stopping once no listed
    node is available), and "bound", the kNN default of `engine.search`,
    by the largest lower bound known for the node, ties by discovery
    sequence. Those bounds are the ones given with each discovery or, over
    a dense plan (in `engine.search`, AESA and LAESA), the shell bounds
    that `Frontier.raise_bounds` raises. Only this kind lets `Frontier.cut`
    rule nodes out by their bounds, and over a heap only where the plan
    proves each key a true lower bound (`Plan.sole_finder`).
    """

    kind: str
    key: object | None = None
    order: tuple[int, ...] | None = None

    @classmethod
    def fifo(cls) -> "Heuristic":
        return cls("fifo")

    @classmethod
    def lifo(cls) -> "Heuristic":
        return cls("lifo")

    @classmethod
    def priority(cls, key) -> "Heuristic":
        return cls("priority", key=key)

    @classmethod
    def explicit(cls, order) -> "Heuristic":
        order = tuple(int(v) for v in order)
        if len(set(order)) != len(order):
            raise ValueError("explicit order must not repeat nodes")
        return cls("explicit", order=order)


class Waves(NamedTuple):
    """Where a FIFO frontier may traverse a run of queued nodes at once.

    A wave is exact when no node of it can change the fate of another:
    every eager out-edge of a wave node is a ball that only discovers, no
    node that two edges discover shares a wave, and each lazy check of a
    wave node is armed before the wave. Every other node steps `alone`.
    `engine.Sprawl._plan` proves these facts per node, from the edges
    alone, so a wave is cut only by facts of its own nodes.
    """

    alone: frozenset[int]  # nodes that always step on their own
    after: dict[int, frozenset[int]]  # lazy sources, all traversed before a wave may hold the key


class Plan(NamedTuple):
    """Static input of a `Frontier`, built by `activation`."""

    out: dict[int, list[int]]  # out-edge ids per source node
    joins: dict[int, int]  # distinct-source count of each edge with more than one source
    sourceless: list[int]  # edge ids that fire before the first selection
    seeds: tuple[int, ...]  # nodes discovered, at bound 0, before those fire
    span: int  # one past the largest node ref: a frontier keeps a status byte per ref
    positions: np.ndarray | None  # seed position by ref (int64, span long), in a dense plan
    waves: Waves | None = None  # where FIFO runs may go a wave at a time
    # no node has two discovering edges, a seed's root edge included, so a
    # "bound" key is the bound its one discovering edge gave
    sole_finder: bool = False


def activation(edges, span: int, seeds=(), dense: bool = False) -> Plan:
    """Static out-edge index for a `Frontier` over node refs in [0, span).

    `edges` yields (edge id, sources) in ascending id order; only an edge
    with several sources is listed in `joins`, with their count. `seeds` are
    the targets of label-free root edges, discovered in bulk ahead of the
    sourceless edges; the discovery sequence is unchanged when those root
    edges precede every sourceless edge in id order. A `dense` plan, whose
    seeds are the whole ground set and whose edges discover nothing, lets
    a frontier select from a bound array by seed position instead of the
    heap: under the "bound" heuristic, since a shell fan raises many
    bounds at once, and under FIFO where the plan carries no `Waves`,
    since a seed's position is its discovery sequence.
    """
    out: dict[int, list[int]] = {}
    joins: dict[int, int] = {}
    sourceless: list[int] = []
    for i, sources in edges:
        sources = set(sources)
        if len(sources) > 1:
            joins[i] = len(sources)
        if not sources:
            sourceless.append(i)
        for s in sources:
            out.setdefault(s, []).append(i)
    seeds = tuple(dict.fromkeys(int(v) for v in seeds))
    positions = None
    if dense:
        positions = np.full(span, -1, dtype=np.int64)
        positions[np.asarray(seeds, dtype=np.int64)] = np.arange(len(seeds))
    return Plan(out, joins, sourceless, seeds, span, positions)


def _entry_key(h: Heuristic):
    """Heap key of a node from (node, discovery sequence, lower bound), or
    None for a node that must not enter the heap. Every key ends with the
    node, so the heap holds the keys themselves."""
    if h.kind == "fifo":
        return lambda v, seq, bound: (seq, v)
    if h.kind == "lifo":
        return lambda v, seq, bound: (-seq, v)
    if h.kind == "priority":
        return lambda v, seq, bound: (h.key(v), seq, v)
    if h.kind == "explicit":
        pos = {v: i for i, v in enumerate(h.order)}
        # unlisted nodes never queue: the traversal stops once no listed node is available
        return lambda v, seq, bound: (pos[v], v) if v in pos else None
    if h.kind == "bound":
        return lambda v, seq, bound: (bound, seq, v)
    raise ValueError(f"unknown heuristic kind {h.kind!r}")


# a frontier's status bits per ref
QUEUED, DONE, TRAVERSED = 1, 2, 4


class _Flagged:
    """The refs whose status carries a flag, read as a set: `in` and
    `isdisjoint`. A frontier's `done` and `traversed`."""

    __slots__ = ("_status", "_flag")

    def __init__(self, status: bytearray, flag: int):
        self._status = status
        self._flag = flag

    def __contains__(self, v) -> bool:
        return self._status[v] & self._flag != 0

    def isdisjoint(self, vs) -> bool:
        status, flag = self._status, self._flag
        return not any(status[v] & flag for v in vs)


class Frontier:
    """The one traversal loop and its per-traversal state.

    Both `traverse` and `engine.search` run on it; they differ only in the
    `fire` callback that turns activated edge ids into `discover_all`,
    `eliminate` and `raise_bounds` calls. Elimination is permanent, and
    since edges fired in one round all fire before the next selection, it
    beats discovery. An edge fires as soon as its source is traversed; only
    an edge with several sources counts down to the last of them.

    Node status has one store in every form: a byte per ref in
    [0, `Plan.span`), with the bits QUEUED (discovered), DONE (selected or
    eliminated) and TRAVERSED, which `done` and `traversed` read as sets.
    Selection takes one of three forms, chosen from the input alone, each
    with its own queue beside the status bytes:

    - dense: over a dense plan, under the "bound" heuristic or under FIFO
      where the plan carries no `Waves`. Every node is a seed, so its seed
      position is its discovery sequence, and no edge discovers: one argmin
      over a bound array by position selects, the first of equal bounds
      winning. Under "bound", `raise_bounds` raises many bounds at once and
      a bound above the `cut` limit eliminates; under FIFO every live bound
      stays 0, so the argmin is the first live seed. A selected or
      eliminated node's bound is inf. Only selection and `eliminate` set
      DONE here: `eliminate_at`, `raise_bounds` and `cut` write the bound
      array alone, since they run per fired shell fan, where a status
      write costs a gather more, and no edge of a dense plan reads the
      status of a node they rule out.
    - wave: under FIFO, over a plan with `Waves` and with wave callbacks
      given to `run`. Queued nodes wait in one int64 buffer, in discovery
      order, between a head and a tail position (a node joins at most
      once, so `Plan.span` slots suffice), and go a wave at a time: the
      longest run at the head of the queue whose nodes neither step
      `alone` nor wait for a lazy source (`Waves.after`), or the whole
      queue where `Waves` is empty. A node that steps alone is selected
      and fired as the heap form would.
    - heap: otherwise. Nodes wait in a heap of the heuristic's keys, each
      ending with its node, numbered by a discovery counter. Under "bound"
      over a plan with a `sole_finder`, selection stops once the smallest
      live key's bound is above the `cut` limit, leaving the rest unmarked
      too. A queued key can rise only under "bound" over a plan without
      `sole_finder`, where a node may be rediscovered; only there does the
      frontier keep each node's live key, which holds its sequence, and
      skip the stale entries a raise leaves. In the lean step (see `run`)
      one callback per selected node returns the pairs to queue.
    """

    def __init__(self, plan: Plan, h: Heuristic):
        self._plan = plan
        self._key = _entry_key(h)
        rekey = h.kind == "bound"
        self._fifo = h.kind == "fifo"
        self._flags = bytearray(plan.span)  # the status bytes by ref
        self._status = np.frombuffer(self._flags, dtype=np.uint8)  # and a view for whole arrays
        self.done = _Flagged(self._flags, DONE)
        self.traversed = _Flagged(self._flags, TRAVERSED)
        self._found = 0  # nodes discovered so far, in the heap form: the next one's sequence
        self._heap: list[tuple] = []  # heap keys, each ending with its node
        #: the live heap key of every queued node, kept only where a
        #: rediscovery may raise one: under "bound" over a plan without
        #: `sole_finder`. Elsewhere a node's first key is its only one.
        self._prio: dict[int, tuple] | None = {} if rekey and not plan.sole_finder else None
        # the wave form's queue buffer, set up by `run`, with its head and tail positions
        self._queue: np.ndarray | None = None
        self._head = self._tail = 0
        self._marked: np.ndarray | None = None  # by ref, whether a node steps alone or has lazy sources
        self._armed: set[frozenset[int]] = set()  # `Waves.after` source sets found all traversed
        self.dense = plan.positions is not None and (rekey or self._fifo and plan.waves is None)
        self._cuts = rekey and (self.dense or plan.sole_finder)
        self._limit = np.inf  # the `cut` limit
        if self.dense:
            # per seed position: the largest shell bound raised (always 0 under
            # FIFO), inf once selected or eliminated
            self._bound = np.zeros(len(plan.seeds))

    def discover_all(self, vs, bounds=None) -> None:
        """Make each node of vs available in turn, with the lower bound at
        the same place in bounds (0 without bounds); a None bound leaves
        its node alone. Under the "bound" key a rediscovery with a larger
        lower bound raises the node's key, so it is selected at its
        tightest bound. The wave form reads no bounds, as FIFO keys take
        none: it keeps the refs of vs, a sequence or an int64 array, that
        are neither queued nor done, in one step, and queues them in order,
        each once."""
        if self.dense:  # a dense plan's nodes are all available
            return
        if self._queue is not None:
            status = self._status
            vs = np.asarray(vs, dtype=np.int64)
            fresh = vs[status[vs] == 0]
            # without `sole_finder` a node may be found twice at once: it joins at its first place
            if not self._plan.sole_finder and len(fresh) > 1:
                first = np.unique(fresh, return_index=True)[1]
                if len(first) < len(fresh):
                    fresh = fresh[np.sort(first)]
            status[fresh] = QUEUED
            tail = self._tail + len(fresh)
            self._queue[self._tail : tail] = fresh
            self._tail = tail
            return
        flags, prio, found = self._flags, self._prio, self._found
        heap, push, key = self._heap, heapq.heappush, self._key
        for v, bound in zip(vs, bounds if bounds is not None else itertools.repeat(0.0)):
            if bound is None:
                continue
            if flags[v]:  # queued or done
                if prio is None or flags[v] & DONE:  # its first key is its only one
                    continue
                live = prio[v]
                entry = key(v, live[1], bound)  # a "bound" key: (bound, sequence, node)
                if entry <= live:
                    continue
            else:
                flags[v] = QUEUED
                entry = key(v, found, bound)
                found += 1
                if entry is None:
                    continue
            if prio is not None:
                prio[v] = entry
            push(heap, entry)
        self._found = found

    def eliminate(self, vs) -> None:
        """Eliminate every node of vs, a sequence or an int64 array, at
        once; traversed nodes stay traversed."""
        vs = np.asarray(vs, dtype=np.int64)  # a tuple would index as one multi-dimensional ref
        self._status[vs] |= DONE
        if self.dense:
            self._bound[self._plan.positions[vs]] = np.inf

    def undone(self, vs: np.ndarray) -> np.ndarray:
        """Whether each node of an int64 array is neither selected nor
        eliminated."""
        return self._status[vs] & DONE == 0

    def eliminate_at(self, positions) -> None:
        """Eliminate the nodes at the given seed positions (dense frontiers
        only), in the bound array alone."""
        self._bound[positions] = np.inf

    def raise_bounds(self, positions, bounds) -> None:
        """Raise the shell bounds of the nodes at the given seed positions
        (dense frontiers only); a bound above the `cut` limit eliminates."""
        self._bound[positions] = np.maximum(self._bound[positions], bounds)

    def cut(self, limit: float) -> None:
        """Rule out every node whose "bound" key exceeds limit; limits only
        fall. Selection takes the smallest bound first, so a dense frontier
        eliminates them in one masked step, once the smallest available
        bound is beyond the limit, and a heap frontier stops there. A heap
        key is the largest bound among the node's discovering edges, which
        need not bound what another of them leads to; so without the
        plan's `sole_finder`, as under any other heuristic, this does
        nothing."""
        if self._cuts:
            self._limit = limit

    def _take_wave(self, waves: Waves) -> tuple[memoryview, bool]:
        """The next wave and False, or one node that must step alone and
        True, as int64 refs in a memoryview, whose truth is its length: an
        empty one once the queue is spent.

        The wave is the longest run of queued nodes, in discovery order,
        whose members are not `alone` and have every lazy source traversed
        already; done nodes are skipped. Each test reads the node's own
        facts only, so one numpy gather over the marked bytes finds the
        nodes that may cut it, those that step alone or have lazy sources,
        and only they are tested in Python. Where `Waves` is empty,
        nothing eliminates or refuses a queued node, so the wave is the
        whole queue.
        """
        queue, head, tail = self._queue, self._head, self._tail
        if not any(waves):
            self._head = tail
            return memoryview(queue[head:tail]), False
        alone, after = waves
        flags, armed = self._flags, self._armed
        pending = queue[head:tail]
        live = np.flatnonzero(self._status[pending] & DONE == 0)  # positions in pending
        nodes = pending[live]
        marked = np.flatnonzero(self._marked[nodes])  # only a marked node can cut the wave
        for k, v in zip(marked.tolist(), nodes[marked].tolist()):
            sources = after.get(v)
            waits = sources is not None and sources not in armed
            if waits and all(flags[u] & TRAVERSED for u in sources):
                armed.add(sources)  # for good: no node is ever untraversed
                waits = False
            if v in alone or waits:
                if k:
                    self._head = head + int(live[k])
                    return memoryview(nodes[:k]), False
                self._head = head + int(live[0]) + 1
                return memoryview(nodes[:1]), True
        self._head = tail
        return memoryview(nodes), False

    def run(self, fire, visit=None, visit_wave=None, fire_wave=None) -> list[int]:
        """Traverse until no node is available; return the traversal.

        The seeds are discovered first. `fire(edge_ids)` is called with the
        sourceless edges, then after each traversal with the edges whose
        last source it was, which may be a list of the plan's own that
        `fire` must not change. `visit(v)`, if given, runs just before v would
        be traversed; when it returns False, v is eliminated instead.

        With `visit_wave` and `fire_wave` given, a FIFO frontier over a plan
        with `Waves` selects in the wave form. `visit_wave(nodes)` visits a
        whole wave, an int64 array, and returns the nodes it keeps, in
        order, as one; they are traversed and the rest eliminated, and
        `fire_wave(kept)` then fires every out-edge of the kept nodes. A
        node that must step alone is visited and fired as a heap selection
        is.

        With no `fire` given, the heap form takes the lean step of
        `engine.search`, which the caller may ask for only under "bound",
        over a plan that is not dense, has `sole_finder` and has no
        sourceless edge and no joins: `visit(v)` then traverses v, which it
        may not refuse, fires its out-edge itself (the plan's one edge for
        all of v's ball fans) and returns the (bound, target) pairs of the
        nodes it discovers, each new to the frontier, in order. The
        frontier queues each under the key (bound, sequence, target) with
        its own discovery counter, so neither `fire` nor `discover_all`
        runs.
        """
        heap, prio, flags, status = self._heap, self._prio, self._flags, self._status
        plan, cuts, dense = self._plan, self._cuts, self.dense
        out, joins, seeds = plan.out, plan.joins, plan.seeds
        waves = plan.waves if self._fifo and visit_wave is not None else None
        if waves is not None:
            self._queue = np.empty(plan.span, dtype=np.int64)
            if any(waves):
                self._marked = np.zeros(plan.span, dtype=bool)
                for vs in (waves.alone, waves.after):
                    self._marked[np.fromiter(vs, dtype=np.int64, count=len(vs))] = True
        remaining: dict[int, int] = {}  # sources not yet traversed, per edge of `joins`
        order: list[int] = []
        self.discover_all(seeds)  # none over a dense plan: its bound array holds them at 0
        found = self._found  # the discovery counter, which only a lean step reads from here on
        if fire is not None:
            fire(plan.sourceless)
        while True:
            if waves is not None:
                wave, alone = self._take_wave(waves)
                if not wave:
                    break
                if not alone:
                    nodes = np.asarray(wave)
                    status[nodes] |= DONE  # traversed, or eliminated when visit_wave refuses it
                    kept = visit_wave(nodes)
                    status[kept] |= TRAVERSED
                    order += kept.tolist()
                    fire_wave(kept)
                    continue
                v = wave[0]
            elif dense:
                bound = self._bound
                i = int(bound.argmin())  # the first of equal bounds: ties by sequence
                low = bound[i]
                if low == np.inf:
                    break
                if low > self._limit:
                    bound[bound > self._limit] = np.inf
                    continue
                bound[i] = np.inf
                v = seeds[i]
            else:
                if not heap:
                    break
                key = heapq.heappop(heap)
                v = key[-1]
                if flags[v] & DONE or prio is not None and prio[v] != key:
                    continue  # stale entry
                if cuts and key[0] > self._limit:  # so is every live key after it
                    break
            flags[v] |= DONE  # traversed, or eliminated when visit refuses it
            if fire is None:  # visit traverses v and returns the (bound, target) pairs it discovers
                flags[v] |= TRAVERSED
                order.append(v)
                for bound, t in visit(v):
                    flags[t] = QUEUED
                    heapq.heappush(heap, (bound, found, t))  # the "bound" key
                    found += 1
                continue
            if visit is not None and not visit(v):
                continue
            flags[v] |= TRAVERSED
            order.append(v)
            ready = out.get(v)
            if ready and joins:  # an edge with other sources waits for the last of them
                fired = []
                for ei in ready:
                    left = joins.get(ei)
                    if left is not None:
                        left = remaining[ei] = remaining.get(ei, left) - 1
                        if left:
                            continue
                    fired.append(ei)
                ready = fired
            if ready:
                fire(ready)
        return order


def traverse(g: SignedHyperdigraph, h: Heuristic | None = None) -> list[int]:
    """Run one traversal of g under the heuristic h (FIFO by default).

    Each active edge fires by its sign: negative edges eliminate their
    target, positive edges discover it. The loop itself is `Frontier.run`.
    """
    plan = activation(((i, e.sources) for i, e in enumerate(g.edges)), g.node_count)
    frontier = Frontier(plan, h or Heuristic.fifo())

    def fire(edge_ids):
        for i in edge_ids:
            e = g.edges[i]
            if e.sign < 0:
                frontier.eliminate((e.target,))
            else:
                frontier.discover_all((e.target,))

    return frontier.run(fire)


def successors(g: SignedHyperdigraph):
    """The nodes traversable next, as a function of the traversed *set* only.

    Returns a function from the bitmask of traversed nodes (bit i for
    node i) to the bitmask of nodes available next. Discovery and
    elimination in the traversal depend only on which nodes have been
    traversed (elimination is permanent, and the activation gate ignores
    order), so this quotient is exact.
    """
    edges = [(sum(1 << s for s in e.sources), 1 << e.target, e.sign > 0) for e in g.edges]

    def after(state: int) -> int:
        discovered = eliminated = 0
        for sources, target, positive in edges:
            if state & sources == sources:
                if positive:
                    discovered |= target
                else:
                    eliminated |= target
        return discovered & ~eliminated & ~state

    return after


def enumerate_repertoire(g: SignedHyperdigraph, cap: int = 8) -> set[tuple[int, ...]]:
    """All traversals attainable by varying the heuristic, prefixes included."""
    if g.node_count > cap:
        raise SizeLimitError(f"repertoire enumeration capped at {cap} nodes, graph has {g.node_count}")
    after = functools.cache(successors(g))
    out: set[tuple[int, ...]] = set()
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while stack:
        prefix, state = stack.pop()
        out.add(prefix)
        rest = after(state)
        while rest:
            bit = rest & -rest
            rest ^= bit
            stack.append((prefix + (bit.bit_length() - 1,), state | bit))
    return out


@dataclass
class AxiomReport:
    passed: bool
    failures: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed


def check_traversal_axioms(repertoire, node_count: int) -> AxiomReport:
    """Check T1 (non-emptiness), T2 (simplicity), T3 (heredity), T4 (interval).

    T4 is checked over traversed-set representatives: whenever sets
    A <= T <= W are realized, a continuation witnessed both after A and
    after W must be feasible after every sequence realizing T.
    """
    lang = {tuple(t) for t in repertoire}
    failures = []
    if () not in lang:
        failures.append(("T1", "empty sequence missing"))
    for t in lang:
        if len(set(t)) != len(t):
            failures.append(("T2", t))
        if t and t[:-1] not in lang:
            failures.append(("T3", t))
        if any(not 0 <= v < node_count for v in t):
            failures.append(("T2", f"node out of range in {t}"))
    if failures:
        return AxiomReport(False, failures)

    by_set: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for t in lang:
        by_set.setdefault(frozenset(t), []).append(t)
    # witnessed continuations per realized set
    cont: dict[frozenset[int], set[int]] = {s: set() for s in by_set}
    for t in lang:
        if t:
            cont[frozenset(t[:-1])].add(t[-1])
    sets = sorted(by_set, key=len)
    for a in sets:
        for w in sets:
            if not (a <= w):
                continue
            shared = cont[a] & cont[w]
            if not shared:
                continue
            for t in sets:
                if a <= t <= w:
                    for x in shared - cont[t]:
                        if x not in t:
                            failures.append(("T4", (sorted(a), sorted(t), sorted(w), x)))
                            return AxiomReport(False, failures)
    return AxiomReport(True, [])


def format_graph(g: SignedHyperdigraph) -> str:
    """Line-oriented debug dump: one `sign target <- s1 s2 ...` per edge."""
    lines = [f"nodes {g.node_count}"]
    for e in g.edges:
        sources = " ".join(str(s) for s in sorted(e.sources))
        lines.append(f"{'+' if e.sign > 0 else '-'} {e.target} <-{(' ' + sources) if sources else ''}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> SignedHyperdigraph:
    node_count = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "nodes":
            node_count = int(parts[1])
            continue
        if parts[0] not in ("+", "-") or len(parts) < 3 or parts[2] != "<-":
            raise ValueError(f"line {lineno}: expected `sign target <- sources...`")
        sign = 1 if parts[0] == "+" else -1
        target = int(parts[1])
        sources = frozenset(int(s) for s in parts[3:])
        edges.append(HyperEdge(sources, target, sign))
    if node_count is None:
        node_count = 1 + max(
            [e.target for e in edges] + [s for e in edges for s in e.sources], default=-1
        )
    return SignedHyperdigraph(node_count, edges)


def random_hyperdigraph(
    rng: np.random.Generator,
    max_nodes: int = 6,
    max_edges: int = 10,
) -> SignedHyperdigraph:
    """Seeded random instance generator for the axiom test battery. An edge
    drawn with sources keeps them with probability 1/2 and otherwise
    becomes a root edge."""
    n = int(rng.integers(1, max_nodes + 1))
    edge_count = int(rng.integers(0, max_edges + 1))
    edges = []
    for _ in range(edge_count):
        size = int(rng.integers(0, min(3, n) + 1))
        if size and rng.random() > 0.5:
            sources = frozenset(int(v) for v in rng.choice(n, size=size, replace=False))
        else:
            sources = frozenset()
        target = int(rng.integers(0, n))
        sign = -1 if rng.random() < 0.35 else 1
        edges.append(HyperEdge(sources, target, sign))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SignedHyperdigraph(n, edges)
