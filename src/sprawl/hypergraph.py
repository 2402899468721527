"""Signed directed hypergraphs and their traversal.

Positive edges discover their target once all sources are traversed;
negative edges eliminate it. `Frontier` holds the package's one traversal
loop: `traverse` drives it over signed edges and `engine.search` over
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
    none eliminates a wave-mate or a target that a wave-mate's edge would
    test, and each lazy check of a wave node is armed before the wave.
    `engine.Sprawl._plan` proves these facts per node, from the edges alone.
    """

    alone: frozenset[int]  # nodes that always step on their own
    apart: dict[int, frozenset[int]]  # nodes that never share a wave with the key (symmetric)
    after: dict[int, frozenset[int]]  # lazy sources, all traversed before a wave may hold the key


class Plan(NamedTuple):
    """Static input of a `Frontier`, built by `activation`."""

    out: dict[int, list[int]]  # out-edge ids per source node
    joins: dict[int, int]  # distinct-source count of each edge with more than one source
    sourceless: list[int]  # edge ids that fire before the first selection
    seeds: tuple[int, ...]  # nodes discovered, at bound 0, before those fire
    positions: dict[int, int] | None  # seed position of each seed, in a dense plan
    waves: Waves | None = None  # where FIFO runs may go a wave at a time
    # no node has two discovering edges, a seed's root edge included, so a
    # "bound" key is the bound its one discovering edge gave
    sole_finder: bool = False


def activation(edges, seeds=(), dense: bool = False) -> Plan:
    """Static out-edge index for a `Frontier`.

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
    positions = {v: i for i, v in enumerate(seeds)} if dense else None
    return Plan(out, joins, sourceless, seeds, positions)


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


class Frontier:
    """The one traversal loop and its per-traversal state.

    Both `traverse` and `engine.search` run on it; they differ only in the
    `fire` callback that turns activated edge ids into `discover`,
    `eliminate` and `raise_bounds` calls. Elimination is permanent, and
    since edges fired in one round all fire before the next selection, it
    beats discovery.

    Selection takes one of three forms, chosen from the input alone. Over
    a dense plan, under the "bound" heuristic or under FIFO where the plan
    carries no `Waves`, every node is a seed, so its seed position is its
    discovery sequence, and its edges discover nothing: one argmin over a
    bound array by position selects, the first of equal bounds winning.
    Under "bound", `raise_bounds` raises many bounds at once and a bound
    above the `cut` limit eliminates. Under FIFO every live bound stays 0,
    so the argmin is the first live seed, the node FIFO takes. A selected
    or eliminated node's bound is inf; `eliminate_at` eliminates by seed
    position in one store. Under FIFO, over a plan with `Waves` and with
    wave callbacks given to `run`, queued nodes wait in a list in
    discovery order and are taken a wave at a time: the longest run at the
    head of the queue that `Waves` allows. Otherwise nodes wait in a heap
    of the heuristic's keys, each ending with its node; under "bound" over
    a plan with a `sole_finder`, selection stops once the smallest live
    key's bound is above the `cut` limit. A queued key can rise only under
    "bound" over a plan without `sole_finder`, where a node may be
    rediscovered; only there does the frontier keep each node's live key
    and skip the stale entries a raise leaves. An edge fires as soon as
    its source is traversed; only an edge with several sources counts
    down to the last of them.
    """

    def __init__(self, plan: Plan, h: Heuristic):
        self._plan = plan
        self._key = _entry_key(h)
        rekey = h.kind == "bound"
        self._fifo = h.kind == "fifo"
        self._queue: list[int] | None = None  # discovery order, in the wave form
        self._head = 0  # queue position of the first node not yet taken
        self._seq: dict[int, int] = {}  # discovery sequence of every discovered node
        self._heap: list[tuple] = []  # heap keys, each ending with its node
        #: the live heap key of every queued node, kept only where a
        #: rediscovery may raise one: under "bound" over a plan without
        #: `sole_finder`. Elsewhere a node's first key is its only one.
        self._prio: dict[int, tuple] | None = {} if rekey and not plan.sole_finder else None
        #: nodes selected or eliminated by `eliminate`; nothing changes their
        #: status again. The nodes that `eliminate_at` or `cut` rules out are
        #: not listed: a dense frontier's bound array holds every status.
        self.done: set[int] = set()
        self.traversed: set[int] = set()
        self.dense = plan.positions is not None and (rekey or self._fifo and plan.waves is None)
        self._cuts = rekey and (self.dense or plan.sole_finder)
        self._limit = np.inf  # the `cut` limit
        if self.dense:
            # per seed position: the largest shell bound raised (always 0 under
            # FIFO), inf once selected or eliminated
            self._bound = np.zeros(len(plan.seeds))

    def discover(self, v: int, bound: float = 0.0) -> None:
        """Make v available. Under the "bound" key a rediscovery with a
        larger lower bound raises v's key, so it is selected at its
        tightest bound."""
        self.discover_all((v,), (bound,))

    def discover_all(self, vs, bounds=None) -> None:
        """`discover(v, bound)` for each v of vs in turn, with the bound at
        the same place in bounds (0 without bounds); a None bound leaves
        its node alone."""
        if self.dense:  # a dense plan's nodes are all available
            return
        seq, done, prio = self._seq, self.done, self._prio
        pairs = zip(vs, bounds if bounds is not None else itertools.repeat(0.0))
        if self._queue is not None:  # FIFO: a node joins the queue once
            fresh = list(dict.fromkeys(v for v, bound in pairs if bound is not None and v not in seq and v not in done))
            seq.update(zip(fresh, range(len(seq), len(seq) + len(fresh))))
            self._queue.extend(fresh)
            return
        heap, push, key = self._heap, heapq.heappush, self._key
        for v, bound in pairs:
            if bound is None or v in done:
                continue
            n = seq.get(v)
            if n is None:
                n = seq[v] = len(seq)
            elif prio is None:  # its first key is its only one
                continue
            entry = key(v, n, bound)
            if entry is None:
                continue
            if prio is not None:
                live = prio.get(v)
                if live is not None and entry <= live:
                    continue
                prio[v] = entry
            push(heap, entry)

    def eliminate(self, vs) -> None:
        """Eliminate every node in vs at once; traversed nodes stay traversed."""
        self.done.update(vs)
        if self.dense:
            self.eliminate_at(list(map(self._plan.positions.__getitem__, vs)))

    def eliminate_at(self, positions) -> None:
        """Eliminate the nodes at the given seed positions (dense frontiers
        only), without listing them in `done`."""
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

    def _take_wave(self, waves: Waves) -> tuple[list[int], bool]:
        """The next wave and False, or one node that must step alone and
        True; an empty list once the queue is spent.

        The wave is the longest run of queued nodes, in discovery order,
        whose members are not `alone`, have every lazy source traversed
        already and are not `apart` from an earlier member.
        """
        queue, done, traversed = self._queue, self.done, self.traversed
        alone, apart, after = waves
        head = self._head
        if not (alone or apart or after):  # nothing eliminates or refuses a queued node
            self._head = len(queue)
            return queue[head:], False
        wave: list[int] = []
        inside: set[int] = set()
        for i in range(head, len(queue)):
            v = queue[i]
            if v in done:
                continue
            if v in alone or v in after and not after[v] <= traversed:
                if wave:
                    self._head = i
                    return wave, False
                self._head = i + 1
                return [v], True
            if v in apart and not apart[v].isdisjoint(inside):
                self._head = i
                return wave, False
            wave.append(v)
            inside.add(v)
        self._head = len(queue)
        return wave, False

    def run(self, fire, visit=None, visit_wave=None, fire_wave=None) -> list[int]:
        """Traverse until no node is available; return the traversal.

        The seeds are discovered first. `fire(edge_ids)` is called with the
        sourceless edges, then after each traversal with the edges whose
        last source it was, which may be a list of the plan's own that
        `fire` must not change. `visit(v)`, if given, runs just before v would
        be traversed; when it returns False, v is eliminated instead.

        With `visit_wave` and `fire_wave` given, a FIFO frontier over a plan
        with `Waves` selects in the wave form. `visit_wave(nodes)` visits a
        whole wave and returns the nodes it keeps, in order; they are
        traversed and the rest eliminated, and `fire_wave(kept)` then fires
        every out-edge of the kept nodes. A node that must step alone takes
        the same path as a heap selection.
        """
        heap, prio, done, traversed = self._heap, self._prio, self.done, self.traversed
        plan, cuts, dense = self._plan, self._cuts, self.dense
        out, joins, seeds = plan.out, plan.joins, plan.seeds
        waves = plan.waves if self._fifo and visit_wave is not None else None
        if waves is not None:
            self._queue = []
        remaining: dict[int, int] = {}  # sources not yet traversed, per edge of `joins`
        order: list[int] = []
        self.discover_all(seeds)  # none over a dense plan: its bound array holds them at 0
        fire(plan.sourceless)
        while True:
            if waves is not None:
                wave, alone = self._take_wave(waves)
                if not wave:
                    break
                if not alone:
                    kept = visit_wave(wave)
                    done.update(wave)
                    traversed.update(kept)
                    order.extend(kept)
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
                if v in done or prio is not None and prio[v] != key:
                    continue  # stale entry
                if cuts and key[0] > self._limit:  # so is every live key after it
                    break
            done.add(v)  # traversed, or eliminated when visit refuses it
            if visit is not None and not visit(v):
                continue
            traversed.add(v)
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
    frontier = Frontier(activation((i, e.sources) for i, e in enumerate(g.edges)), h or Heuristic.fifo())

    def fire(edge_ids):
        for i in edge_ids:
            e = g.edges[i]
            if e.sign < 0:
                frontier.eliminate((e.target,))
            else:
                frontier.discover(e.target)

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
