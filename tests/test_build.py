"""The level-at-a-time metric-tree builder against a recursive oracle, and
the refusal of duplicate node refs that lets it assume distinct refs."""
import json
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sprawl import storage
from sprawl.cli import main
from sprawl.comparison import EuclideanSpace, MatrixSpace, StringSpace
from sprawl.engine import build_classic
from sprawl.errors import FormatError

from conftest import DYADIC


# --- the recursive oracle -----------------------------------------------------


def oracle_pivots(space, refs, count: int) -> list[int]:
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
class Node:
    point: int
    children: list = field(default_factory=list)
    subtree: tuple[int, ...] = ()


def oracle_tree(space, refs: list[int], arity: int) -> Node:
    def build(members: list[int], rep: int) -> Node:
        rest = [r for r in members if r != rep]
        node = Node(rep)
        if rest:
            if len(rest) <= arity:
                seeds, groups = list(rest), [[r] for r in rest]
            else:
                seeds = list(dict.fromkeys(oracle_pivots(space, rest, arity)))
                if len(seeds) == 1:  # all remaining points coincide
                    seeds, groups = list(rest), [[r] for r in rest]
                else:
                    assign = np.argmin(space.pairwise(rest, seeds), axis=1)
                    groups = [[] for _ in seeds]
                    for r, gi in zip(rest, assign):
                        groups[int(gi)].append(r)
                    seeds, groups = zip(*[(s, g) for s, g in zip(seeds, groups) if g])
                    if len(groups) == 1:  # duplicates collapsed into one group
                        seeds, groups = list(rest), [[r] for r in rest]
            for seed, group in zip(seeds, groups):
                node.children.append(build(group, seed))
        node.subtree = (rep,) + tuple(v for c in node.children for v in c.subtree)
        return node

    return build(list(refs), refs[0])


def oracle_fans(space, root: Node):
    """The discovering fans by stack walk: (source, start, target, cover),
    responsibilities, and the nodes with children in fan order."""
    source, start, target, cover = [], [0], [], []
    res = {0: root.subtree}
    internal = []
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            cover.append(float(np.max(space.distances_from(node.point, child.subtree))))
            target.append(child.point)
            res[len(target)] = child.subtree
            stack.append(child)
        if node.children:
            source.append(node.point)
            start.append(len(target))
            internal.append(node)
    return (source, start, target, cover), res, internal


def oracle_build(space, refs: list[int], kind: str, arity: int, pivots: int = 4):
    """(fan columns, root edge targets, responsibilities) of a ball-tree or
    pm-tree as the recursive builder made them."""
    if kind == "ball-tree":
        (source, start, target, cover), res, _ = oracle_fans(space, oracle_tree(space, refs, arity))
        return (source, start, target, cover, cover, [True] * len(source), [False] * len(source)), [refs[0]], res
    chosen = oracle_pivots(space, refs, pivots)
    tree_refs = [v for v in refs if v not in chosen]
    (source, start, target, lo), tree_res, internal = oracle_fans(space, oracle_tree(space, tree_refs, arity))
    res = {i + len(chosen) if i else 0: sub for i, sub in tree_res.items()}
    res.update({1 + i: (p,) for i, p in enumerate(chosen)})
    found, hi = len(source), list(lo)
    for p in chosen if internal else ():
        for node in internal:
            drow = space.distances_from(p, node.subtree)
            target.append(node.point)
            lo.append(float(np.min(drow)))
            hi.append(float(np.max(drow)))
        source.append(p)
        start.append(len(target))
    discovers = [f < found for f in range(len(source))]
    return (source, start, target, lo, hi, discovers, [not x for x in discovers]), [tree_refs[0], *chosen], res


COLUMNS = ("source", "start", "target", "lo", "hi", "discovers", "lazy")


def assert_matches_oracle(space, refs, kind: str, arity: int, pivots: int = 4) -> None:
    sprawl, res = build_classic(space, refs, kind, arity=arity, pivots=pivots)
    columns, roots, want = oracle_build(space, list(refs), kind, arity, pivots)
    for name, expected in zip(COLUMNS, columns):
        got = getattr(sprawl.fans, name)
        expected = np.asarray(expected, dtype=got.dtype)
        if got.dtype == float:  # bit for bit
            got, expected = got.view(np.uint64), expected.view(np.uint64)
        assert got.tolist() == expected.tolist(), name
    assert [(e.sources, e.target, e.positive, e.negative) for e in sprawl.edges] == [((), r, (), ()) for r in roots]
    assert res.edge_to_nodes == {k: frozenset(v) for k, v in want.items()}


# --- the property -------------------------------------------------------------


@st.composite
def tree_spaces(draw):
    """A symmetric space of 1-40 points: Euclidean under p = 1, 2 or inf
    (uniform, dyadic or duplicated points, 1-8 coordinates), a symmetric
    matrix with zero off-diagonal entries, or a few short strings."""
    kind = draw(st.sampled_from(["euclidean", "matrix", "strings"]))
    n = draw(st.integers(1, 40 if kind != "strings" else 14))
    if kind == "euclidean":
        d = draw(st.integers(1, 8))
        coordinate = draw(st.sampled_from([st.floats(0.0, 1.0), DYADIC]))
        point = st.lists(coordinate, min_size=d, max_size=d)
        distinct = draw(st.lists(point, min_size=1, max_size=n))
        picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
        return EuclideanSpace([distinct[i] for i in picks], draw(st.sampled_from([1.0, 2.0, np.inf])))
    if kind == "matrix":
        values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]), min_size=n * n, max_size=n * n))
        m = np.triu(np.reshape(values, (n, n)), 1)
        return MatrixSpace(m + m.T)
    return StringSpace(draw(st.lists(st.text("ab", max_size=5), min_size=n, max_size=n)))


@given(tree_spaces(), st.integers(2, 5), st.integers(1, 8), st.randoms(use_true_random=False))
def test_level_builder_matches_the_recursive_oracle(space, arity, pivots, random):
    refs = list(range(len(space)))
    random.shuffle(refs)
    assert_matches_oracle(space, refs, "ball-tree", arity)
    if pivots < len(refs):
        assert_matches_oracle(space, refs, "pm-tree", arity, pivots)


def test_level_builder_matches_the_oracle_at_scale():
    rng = np.random.default_rng(1)
    space = EuclideanSpace(rng.random((600, 8)))
    assert_matches_oracle(space, range(600), "ball-tree", 2)
    assert_matches_oracle(space, rng.permutation(600).tolist(), "pm-tree", 3, 8)


def test_a_huge_arity_allocates_nothing_by_it():
    space = EuclideanSpace(np.random.default_rng(2).random((5, 3)))
    tracemalloc.start()
    try:
        for kind in ("ball-tree", "pm-tree"):
            build_classic(space, range(5), kind, arity=10**12, pivots=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert_matches_oracle(space, range(5), "ball-tree", 10**12)
    sprawl, _ = build_classic(space, range(5), "ball-tree", arity=10**12)
    assert sprawl.fans.source.tolist() == [0] and sprawl.fans.target.tolist() == [1, 2, 3, 4]


def test_no_build_call_measures_more_pairs_than_points(monkeypatch):
    # all (fan source, descendant) pairs of a tree number n times its mean
    # depth; a build measures no more than n pairs in any one call
    n = 1000
    space = EuclideanSpace(np.random.default_rng(3).random((n, 4)))
    sizes = []
    for name in ("paired", "distances_from"):
        method = getattr(space, name)
        monkeypatch.setattr(space, name, lambda *a, m=method: sizes.append(len(a[-1])) or m(*a))
    for kind in ("ball-tree", "pm-tree"):
        sprawl, res = build_classic(space, range(n), kind, pivots=8)
        assert sum(map(len, res.members.values())) > 4 * n
    assert 0 < max(sizes) <= n


# --- distinct node refs ---------------------------------------------------------


@pytest.mark.parametrize("kind", ["ball-tree", "aesa", "laesa", "pm-tree"])
def test_builders_refuse_duplicate_node_refs(rng, kind):
    space = EuclideanSpace(rng.random((6, 2)))
    with pytest.raises(ValueError, match="distinct"):
        build_classic(space, [0, 0, 1, 2, 3, 3, 4], kind, pivots=2)


def test_an_index_file_with_a_repeated_node_is_refused(rng, tmp_path):
    space = EuclideanSpace(rng.random((6, 2)))
    sprawl, res = build_classic(space, range(6), "ball-tree")
    doc = storage.index_document(sprawl, res)
    doc["nodes"] = doc["nodes"] + [doc["nodes"][-1]]
    with pytest.raises(FormatError, match="distinct"):
        storage.index_from_document(doc)
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    assert main(["query", "--index", str(path), "--ball", "0.5,0.5:0.2"]) == 3
