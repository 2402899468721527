import json

import numpy as np
import pytest

from sprawl.ambit import Ambit, MetaballMap, PowerMap
from sprawl.comparison import EuclideanSpace, MatrixSpace, ProjectionSpace, StringSpace
from sprawl.engine import EMPTY, Edge, ExplicitRegion, Sprawl, build_classic
from sprawl.errors import FormatError
from sprawl.storage import (
    gen_points,
    index_document,
    index_from_document,
    load_index,
    load_matrix,
    load_points,
    load_strings,
    save_index,
    save_points,
)


def _assert_same_sprawl(a: Sprawl, b: Sprawl):
    assert a.nodes == b.nodes
    assert len(a.edges) == len(b.edges)
    for ea, eb in zip(a.edges, b.edges):
        assert ea == eb
    assert len(a.groups) == len(b.groups)
    for ga, gb in zip(a.groups, b.groups):
        assert np.array_equal(ga.targets, gb.targets)
        assert np.array_equal(ga.lo, gb.lo)  # bit-exact
        assert np.array_equal(ga.hi, gb.hi)
        assert ga.lazy == gb.lazy


@pytest.mark.parametrize("kind,params", [
    ("ball-tree", {}),
    ("aesa", {}),
    ("laesa", {"pivots": 3}),
    ("pm-tree", {"pivots": 3}),
])
def test_index_round_trip_bit_exact(tmp_path, rng, kind, params):
    space = EuclideanSpace(rng.random((25, 3)))
    sprawl, res = build_classic(space, range(25), kind, **params)
    path = tmp_path / "index.json"
    save_index(path, sprawl, res)
    loaded, loaded_res = load_index(path)
    _assert_same_sprawl(sprawl, loaded)
    assert np.array_equal(loaded.space.points, space.points)
    assert loaded_res.edge_to_nodes == res.edge_to_nodes
    # a second round trip is byte-identical
    doc1 = json.dumps(index_document(sprawl, res))
    doc2 = json.dumps(index_document(loaded, loaded_res))
    assert doc1 == doc2


def test_interval_tree_round_trip(tmp_path):
    space = ProjectionSpace([[float(v)] for v in range(1, 8)])
    sprawl, res = build_classic(space, range(7), "sorted-interval-tree")
    save_index(tmp_path / "i.json", sprawl, res)
    loaded, _ = load_index(tmp_path / "i.json")
    _assert_same_sprawl(sprawl, loaded)
    assert isinstance(loaded.space, ProjectionSpace)


def test_nonlinear_regions_round_trip(tmp_path, rng):
    space = EuclideanSpace(rng.random((6, 2)))
    regions = (
        Ambit((0,), PowerMap([0.7310585786300049], 0.3333333333333333), (1.2345678901234567,)),
        Ambit((0,), MetaballMap([1.5], [1.0]), (0.1,)),
    )
    edges = [Edge((), 0)] + [Edge((0,), 1 + i, (r,), ()) for i, r in enumerate(regions)]
    edges.append(Edge((0,), 3, (ExplicitRegion(frozenset({3})),), (EMPTY,)))
    edges.append(Edge((), 4))
    edges.append(Edge((), 5))
    sprawl = Sprawl(space, range(6), edges)
    save_index(tmp_path / "n.json", sprawl)
    loaded, res = load_index(tmp_path / "n.json")
    assert res is None
    _assert_same_sprawl(sprawl, loaded)
    got = loaded.edges[1].positive[0]
    assert got.map.alpha == 0.3333333333333333
    assert got.radii == (1.2345678901234567,)


def test_matrix_and_string_spaces_round_trip(tmp_path, rng):
    m = rng.random((4, 4))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    for space in (MatrixSpace(m), StringSpace(["ab", "ba", "abc"])):
        sprawl = Sprawl(space, range(3), [Edge((), v) for v in range(3)])
        save_index(tmp_path / "s.json", sprawl)
        loaded, _ = load_index(tmp_path / "s.json")
        assert type(loaded.space) is type(space)


def test_load_points_formats(tmp_path):
    p = tmp_path / "pts.txt"
    p.write_text("1.0 2.0\n3.5,4.5\n# comment\n0.1\t0.2\n")
    got = load_points(p)
    assert got.shape == (3, 2)
    assert got[1, 1] == 4.5


def test_load_points_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0 2.0\nnope 3\n")
    with pytest.raises(FormatError, match="bad.txt:2"):
        load_points(p)
    p.write_text("1.0 2.0\n3.0\n")
    with pytest.raises(FormatError, match="expected 2"):
        load_points(p)
    p.write_text("")
    with pytest.raises(FormatError, match="empty"):
        load_points(p)


def test_load_matrix_requires_square(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("0 1 2\n1 0 1\n")
    with pytest.raises(FormatError, match="square"):
        load_matrix(p)


def test_save_points_round_trip(tmp_path, rng):
    pts = rng.random((10, 3))
    save_points(tmp_path / "x.txt", pts)
    got = load_points(tmp_path / "x.txt")
    assert np.array_equal(got, pts)  # repr round-trips doubles exactly


def test_load_strings(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("alpha\nbeta\n")
    assert load_strings(p) == ["alpha", "beta"]


def test_gen_points_deterministic():
    a = gen_points("uniform", 50, 4, seed=3)
    b = gen_points("uniform", 50, 4, seed=3)
    assert np.array_equal(a, b)
    c = gen_points("clustered", 50, 4, seed=3)
    assert c.shape == (50, 4)
    assert np.all((c >= 0.0) & (c <= 1.0))
    with pytest.raises(ValueError):
        gen_points("weird", 5, 2, seed=0)


def test_index_document_rejects_bad_format():
    with pytest.raises(FormatError):
        index_from_document({"format": "other"})
    with pytest.raises(FormatError):
        index_from_document({"format": "sprawl-index", "version": 99})


def test_fuzzed_round_trips_bit_exact(rng):
    import warnings

    from conftest import random_labeled_sprawl

    for _ in range(40):
        sprawl = random_labeled_sprawl(rng)
        doc = json.loads(json.dumps(index_document(sprawl)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # fuzzed sprawls may carry self-loop edges
            loaded, _ = index_from_document(doc)
        _assert_same_sprawl(sprawl, loaded)


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"format": "sprawl-index", "version": 1},
    {"format": "sprawl-index", "version": 1, "space": {"kind": "euclidean-lp", "points": [[0.0]]}},
    {"format": "sprawl-index", "version": 1, "space": {"kind": "euclidean-lp", "points": [[0.0]]},
     "nodes": [0], "edges": [[0]]},
    {"format": "sprawl-index", "version": 1, "space": {"kind": "euclidean-lp", "points": [[0.0]]},
     "nodes": [0], "edges": [{"sources": [], "target": 5}]},
    {"format": "sprawl-index", "version": 1, "space": {"kind": "euclidean-lp", "points": [[0.0], [1.0]]},
     "nodes": [0, 1], "groups": [{"source": 0, "targets": [1], "lo": [2.0], "hi": [1.0]}]},
])
def test_index_document_missing_key_or_wrong_type(doc):
    with pytest.raises(FormatError):
        index_from_document(doc)
