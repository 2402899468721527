import base64
import json

import numpy as np
import pytest

from sprawl.ambit import Ambit, LinearMap, MetaballMap, PowerMap
from sprawl.cli import main
from sprawl.comparison import EuclideanSpace, MatrixSpace, ProjectionSpace, StringSpace
from sprawl.comparison import Ball
from sprawl.engine import (
    EMPTY,
    Edge,
    ExplicitRegion,
    Sprawl,
    build_classic,
    linear_scan,
    search,
)
from sprawl.errors import FormatError
from sprawl.hypergraph import Heuristic
from sprawl.storage import (
    FORMAT_VERSION,
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

from conftest import ball_rows, make_fans, shell_groups


def _bits(a) -> tuple:
    """Compare arrays bit for bit, so -0.0 and NaN payloads count."""
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _assert_same_sprawl(a: Sprawl, b: Sprawl):
    assert type(a.space) is type(b.space)
    for attr in ("points", "matrix", "strings"):
        if hasattr(a.space, attr):
            want, got = getattr(a.space, attr), getattr(b.space, attr)
            assert (want == got) if attr == "strings" else _bits(want) == _bits(got)
    assert a.nodes == b.nodes
    assert a.edges == b.edges
    for col in ("source", "start", "discovers", "lazy", "target", "lo", "hi"):
        assert _bits(getattr(a.fans, col)) == _bits(getattr(b.fans, col)), col
    assert (a.fans.hi is a.fans.lo) == (b.fans.hi is b.fans.lo)


def _round_trip(tmp_path, sprawl, res=None):
    path = tmp_path / "index.json"
    save_index(path, sprawl, res)
    loaded, loaded_res = load_index(path)
    _assert_same_sprawl(sprawl, loaded)
    assert json.loads(path.read_text())["version"] == FORMAT_VERSION == 4
    return loaded, loaded_res


@pytest.mark.parametrize("kind,params", [
    ("ball-tree", {}),
    ("aesa", {}),
    ("laesa", {"pivots": 3}),
    ("pm-tree", {"pivots": 3}),
])
def test_index_round_trip_bit_exact(tmp_path, rng, kind, params):
    pts = rng.random((25, 3))
    pts[::4, 1] = -0.0
    space = EuclideanSpace(pts)
    sprawl, res = build_classic(space, range(25), kind, **params)
    loaded, loaded_res = _round_trip(tmp_path, sprawl, res)
    assert loaded_res.edge_to_nodes == res.edge_to_nodes
    # a second round trip is byte-identical
    doc1 = json.dumps(index_document(sprawl, res))
    doc2 = json.dumps(index_document(loaded, loaded_res))
    assert doc1 == doc2


@pytest.mark.parametrize("kind", ["ball-tree", "aesa", "laesa", "pm-tree"])
def test_loaded_responsibility_is_built_lazily_and_saves_the_same_bytes(tmp_path, rng, kind):
    space = EuclideanSpace(rng.random((25, 3)))
    sprawl, res = build_classic(space, range(25), kind, pivots=3)
    path, again = tmp_path / "index.json", tmp_path / "again.json"
    save_index(path, sprawl, res)
    loaded, loaded_res = load_index(path)
    # the loader keeps the document's lists, and the sets are built on demand
    assert loaded_res.members == {int(k): v for k, v in json.loads(path.read_text())["responsibility"].items()}
    assert all(type(v) is list for v in loaded_res.members.values())
    assert loaded_res.edge_to_nodes == res.edge_to_nodes
    save_index(again, loaded, loaded_res)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("how", ["member 500", "member -3", "key 999", "key -1"])
def test_malformed_responsibility_is_a_format_error(tmp_path, capsys, how):
    # a member outside the sprawl's nodes, or a key naming no logical edge
    space = EuclideanSpace(gen_points("uniform", 30, 2, seed=3))
    tree, res = build_classic(space, range(30), "ball-tree")
    doc = json.loads(json.dumps(index_document(tree, res)))
    what, value = how.split()
    if what == "member":
        doc["responsibility"]["1"].append(int(value))
    else:
        doc["responsibility"][value] = [0]
    with pytest.raises(FormatError, match="responsibility"):
        index_from_document(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--responsibility", "--index", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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
    {"format": "sprawl-index", "version": 1, "space": {"kind": "euclidean-lp", "points": [[0.0], [1.0]]},
     "nodes": [0, 1], "groups": [{"source": 0, "targets": [1, 5], "lo": [1.0, 1.0]}]},
    {"format": "sprawl-index", "version": 1, "space": {"kind": "euclidean-lp", "points": [[0.0], [1.0]]},
     "nodes": [0, 1], "groups": [{"source": 7, "targets": [1], "lo": [1.0]}]},
    {"format": "sprawl-index", "version": True, "space": {"kind": "euclidean-lp", "points": [[0.0]]},
     "nodes": [0]},
])
def test_index_document_missing_key_or_wrong_type(doc):
    with pytest.raises(FormatError):
        index_from_document(doc)


# --- format version 2: numeric columns as binary blocks ------------------------


# Written by format version 1: a 3-point AESA index over points that hold
# -0.0, 1e-300 and a float with no short decimal, then a pm-tree over a
# 4 x 4 matrix, whose lazy groups have distinct lo and hi columns.
V1_AESA = """{"format": "sprawl-index", "version": 1, "space": {"kind": "euclidean-lp", "p": 2.0, \
"points": [[0.1, 0.2], [0.30000000000000004, -0.0], [1e-300, 2.5]]}, "nodes": [0, 1, 2], \
"edges": [{"sources": [], "target": 0, "positive": [], "negative": [], "lazy": false}, \
{"sources": [], "target": 1, "positive": [], "negative": [], "lazy": false}, \
{"sources": [], "target": 2, "positive": [], "negative": [], "lazy": false}], \
"groups": [{"source": 0, "targets": [1, 2], "lo": [0.28284271247461906, 2.3021728866442674], \
"hi": [0.28284271247461906, 2.3021728866442674], "lazy": false}, \
{"source": 1, "targets": [0, 2], "lo": [0.28284271247461906, 2.5179356624028344], \
"hi": [0.28284271247461906, 2.5179356624028344], "lazy": false}, \
{"source": 2, "targets": [0, 1], "lo": [2.3021728866442674, 2.5179356624028344], \
"hi": [2.3021728866442674, 2.5179356624028344], "lazy": false}], \
"responsibility": {"0": [0], "1": [1], "2": [2]}}"""

V1_MATRIX_PM_TREE = """{"format": "sprawl-index", "version": 1, "space": {"kind": "explicit-matrix", \
"symmetric": true, "matrix": [[0.0, 0.1, 0.7, 1.25], [0.1, 0.0, 0.30000000000000004, 2.0], \
[0.7, 0.30000000000000004, 0.0, 1e-300], [1.25, 2.0, 1e-300, 0.0]]}, "nodes": [0, 1, 2, 3], \
"edges": [{"sources": [], "target": 0, "positive": [], "negative": [], "lazy": false}, \
{"sources": [0], "target": 2, "positive": [{"kind": "ambit", "foci": [0], "radii": [0.7], \
"orientation": "forward", "map": {"kind": "linear", "rows": [[1.0]]}}], "negative": [], "lazy": false}, \
{"sources": [], "target": 3, "positive": [], "negative": [], "lazy": false}, \
{"sources": [], "target": 1, "positive": [], "negative": [], "lazy": false}], \
"groups": [{"source": 3, "targets": [0], "lo": [1e-300], "hi": [1.25], "lazy": true}, \
{"source": 1, "targets": [0], "lo": [0.1], "hi": [0.30000000000000004], "lazy": true}], \
"responsibility": {"0": [0, 2], "1": [2], "2": [3], "3": [1]}}"""


def test_v1_document_loads_bit_exact_and_saves_as_v2(tmp_path):
    path = tmp_path / "v1.json"
    path.write_text(V1_AESA)
    aesa, res = load_index(path)
    want = np.array([[0.1, 0.2], [0.30000000000000004, -0.0], [1e-300, 2.5]])
    assert _bits(aesa.space.points) == _bits(want)
    assert np.signbit(aesa.space.points[1, 1])
    groups = shell_groups(aesa.fans)
    assert [g.targets.tolist() for g in groups] == [[1, 2], [0, 2], [0, 1]]
    assert _bits(groups[2].lo) == _bits(np.array([2.3021728866442674, 2.5179356624028344]))
    assert all(_bits(g.hi) == _bits(g.lo) for g in groups)
    assert res.edge_to_nodes == {0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2})}
    _round_trip(tmp_path, aesa, res)

    path.write_text(V1_MATRIX_PM_TREE)
    pm, res = load_index(path)
    assert isinstance(pm.space, MatrixSpace) and pm.space.symmetric
    assert _bits(pm.space.matrix[2]) == _bits(np.array([0.7, 0.30000000000000004, 0.0, 1e-300]))
    assert [(g.lo.tolist(), g.hi.tolist(), g.lazy) for g in shell_groups(pm.fans)] == [
        ([1e-300], [1.25], True),
        ([0.1], [0.30000000000000004], True),
    ]
    loaded, loaded_res = _round_trip(tmp_path, pm, res)
    assert loaded_res.edge_to_nodes == res.edge_to_nodes
    assert loaded.edges[1].positive[0].radii == (0.7,)


def test_v2_keeps_negative_zero(tmp_path):
    # points, a comparison matrix and fan bounds all refuse NaN, so -0.0
    # is the one bit pattern a round trip could lose
    pts = np.array([[0.5, -0.0], [0.25, 1.0], [-0.0, 2.0]])
    m = np.array([[-0.0, 1.0, 4.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    lo = np.array([-0.0, 0.5])
    group = (0, [1, 2], lo, np.array([0.0, 7.5]), True)
    sphere = (1, [0, 2], lo, lo)
    for space in (EuclideanSpace(pts, p=3.0), ProjectionSpace(pts), MatrixSpace(m, symmetric=False)):
        edges = [Edge((), v) for v in range(3)]
        loaded, _ = _round_trip(tmp_path, Sprawl(space, range(3), edges, make_fans(groups=[group, sphere])))
        assert loaded.fans.hi is not loaded.fans.lo  # one group is no sphere, so every group writes hi
        assert np.signbit(shell_groups(loaded.fans)[1].hi[0])
        loaded, _ = _round_trip(tmp_path, Sprawl(space, range(3), edges, make_fans(groups=[sphere])))
        assert loaded.fans.hi is loaded.fans.lo
    edges = [Edge((), v) for v in range(3)]
    strings = Sprawl(StringSpace(["ab", "ba", "abc"]), range(3), edges, make_fans(groups=[sphere]))
    _round_trip(tmp_path, strings)


def test_sphere_groups_write_one_bound_column(tmp_path, rng):
    space = EuclideanSpace(rng.random((20, 2)))
    laesa, res = build_classic(space, range(20), "laesa", pivots=4)
    assert len(shell_groups(laesa.fans)) == 4 and laesa.fans.hi is laesa.fans.lo
    doc = index_document(laesa, res)
    assert "spheres" not in doc
    assert all("hi" not in g and isinstance(g["lo"], str) for g in doc["groups"])
    loaded, _ = _round_trip(tmp_path, laesa, res)
    assert loaded.fans.hi is loaded.fans.lo
    pm, _ = build_classic(space, range(20), "pm-tree", pivots=3)
    assert all("hi" in g for g in index_document(pm)["groups"])
    # AESA's sphere groups are the distance matrix: one triangle block, no groups
    aesa, res = build_classic(space, range(20), "aesa")
    doc = index_document(aesa, res)
    assert "groups" not in doc and list(doc["spheres"]) == ["triangle"]
    assert len(base64.b64decode(doc["spheres"]["triangle"])) == 8 * 20 * 19 // 2
    loaded, _ = _round_trip(tmp_path, aesa, res)
    assert loaded.fans.hi is loaded.fans.lo and not loaded.fans.lazy.any()


def test_aesa_index_size_gate(tmp_path):
    # format version 1 wrote this index as 11.2 MB of per-float text, version 3 as 5.4 MB
    space = EuclideanSpace(gen_points("uniform", 500, 8, seed=1))
    sprawl, res = build_classic(space, range(500), "aesa")
    path = tmp_path / "aesa.json"
    save_index(path, sprawl, res)
    assert path.stat().st_size <= 1_600_000


def _corrupt(doc: dict, how: str) -> dict:
    doc = json.loads(json.dumps(doc))
    group = doc["groups"][0]
    if how == "bad base64":
        group["targets"] = "AAAA!AAA"
    elif how == "ragged bytes":
        group["targets"] = base64.b64encode(bytes(12)).decode()
    elif how == "length differs from targets":
        group["lo"] = base64.b64encode(np.zeros(len(doc["nodes"]) + 1).tobytes()).decode()
    elif how == "shape mismatch":
        n, d = doc["space"]["shape"]
        doc["space"]["shape"] = [n, d + 1]
    elif how == "shape missing":
        del doc["space"]["shape"]
    elif how == "not a block":
        group["lo"] = 3.5
    return doc


@pytest.mark.parametrize("how", ["bad base64", "ragged bytes", "length differs from targets",
                                 "shape mismatch", "shape missing", "not a block"])
def test_corrupt_block_is_a_format_error(tmp_path, capsys, how):
    space = EuclideanSpace([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sprawl, res = build_classic(space, range(3), "laesa", pivots=1)  # an AESA writes no groups
    doc = _corrupt(index_document(sprawl, res), how)
    with pytest.raises(FormatError):
        index_from_document(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["query", "--index", str(path), "--ball", "0,0:1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# --- format version 3: the ball table ------------------------------------------


def _query_exits_3(tmp_path, capsys, doc) -> None:
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["query", "--index", str(path), "--ball", "0,0:1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_ball_tree_writes_one_balls_object(rng):
    space = EuclideanSpace(rng.random((30, 2)))
    tree, res = build_classic(space, range(30), "ball-tree")
    assert len(tree.edges) == 1 and len(tree.fans) == tree.fans.found_rows == 29
    doc = index_document(tree, res)
    assert list(doc) == ["format", "version", "space", "nodes", "edges", "balls", "groups", "responsibility"]
    assert sorted(doc["balls"]) == ["radius", "source", "target"]
    assert all(isinstance(v, str) for v in doc["balls"].values())
    aesa, _ = build_classic(space, range(30), "aesa")
    assert "balls" not in index_document(aesa)  # no rows, no object
    # a discovering fan row stands for the edge the builders made before fans existed
    source, target, radius = (col[3].item() for col in ball_rows(tree.fans))
    want = Edge((source,), target, (Ambit((source,), LinearMap([[1.0]]), (radius,)),), ())
    assert tree.logical_edge(len(tree.edges) + 3) == want


def _v2_document(sprawl: Sprawl) -> dict:
    """The document format version 2 wrote for a tree: every ball an
    explicit edge right after the root edge, then any pivot root edges."""
    logical = [e for _, e in sprawl.iter_logical_edges()][: len(sprawl.edges) + sprawl.fans.found_rows]
    first = len(sprawl.edges)
    explicit = logical[:1] + logical[first:] + logical[1:first]
    doc = index_document(Sprawl(sprawl.space, sprawl.nodes, explicit, make_fans(groups=shell_groups(sprawl.fans))))
    doc["version"] = 2
    return doc


@pytest.mark.parametrize("kind", ["ball-tree", "pm-tree"])
def test_v2_v3_and_built_trees_answer_alike(tmp_path, rng, kind):
    space = EuclideanSpace(rng.random((300, 3)))
    built, res = build_classic(space, range(300), kind, pivots=4)
    v3, _ = _round_trip(tmp_path, built, res)
    v2, _ = index_from_document(json.loads(json.dumps(_v2_document(built))))
    assert v2.fans.found_rows == 0 and len(v2.edges) == 300
    rewritten, _ = _round_trip(tmp_path, v2)  # a v2 file saved again keeps its explicit edges
    queries = []
    for c in rng.random((6, 3)):
        row = np.sort(space.distances_from(tuple(c), range(300)))
        queries += [Ball(tuple(c), float(row[3])), Ball(tuple(c), 0.0, k=10), Ball(tuple(c), 0.0, k=1)]
    for q in queries:
        oracle = linear_scan(space, range(300), q)
        for h in (Heuristic.fifo(), Heuristic("bound")):
            want = search(built, q, h)
            assert want.members == (oracle if q.k else tuple(sorted(oracle))), (kind, q)
            for other in (v3, v2, rewritten):
                got = search(other, q, h)
                assert (got.members, got.order) == (want.members, want.order), (kind, q)
                assert got.distance_computations == want.distance_computations, (kind, q)
                assert got.region_evaluations == want.region_evaluations, (kind, q)


def test_fractional_integer_column_is_a_format_error(tmp_path, capsys):
    doc = json.loads(V1_AESA)
    doc["groups"][0]["targets"] = [1.9, 2.2]  # numpy would load it as [1, 2]
    with pytest.raises(FormatError, match="not an integer"):
        index_from_document(doc)
    _query_exits_3(tmp_path, capsys, doc)
    for bad in ([1, True], [1, "2"], [1, None], [2**70, 1]):
        doc["groups"][0]["targets"] = bad
        with pytest.raises(FormatError):
            index_from_document(doc)
    doc["groups"][0]["targets"] = [1.0, 2]  # integral floats are integers
    aesa, _ = index_from_document(doc)
    assert shell_groups(aesa.fans)[0].targets.tolist() == [1, 2]


def _v3_tree_document() -> dict:
    space = EuclideanSpace([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tree, res = build_classic(space, range(4), "ball-tree")
    return json.loads(json.dumps(index_document(tree, res)))


def _corrupt_balls(how: str) -> dict:
    doc = _v3_tree_document()
    balls = doc["balls"]
    if how == "not an object":
        doc["balls"] = [balls["source"], balls["target"], balls["radius"]]
    elif how == "missing radius":
        del balls["radius"]
    elif how == "bad base64":
        balls["target"] = "AAAA!AAA"
    elif how == "target length differs":
        balls["target"] = base64.b64encode(np.zeros(2, dtype="<i8").tobytes()).decode()
    elif how == "list length differs":
        balls["source"], balls["target"], balls["radius"] = [0, 0], [1], [1.0]
    elif how == "fractional source":
        balls["source"], balls["target"], balls["radius"] = [0.5, 0, 0], [1, 2, 3], [1.0, 1.0, 1.0]
    elif how == "NaN radius":  # no ball meets a query, so its subtree would drop out of every answer
        balls["radius"] = base64.b64encode(np.array([1.0, np.nan, 1.0], dtype="<f8").tobytes()).decode()
    elif how == "target outside the ground set":
        balls["target"] = base64.b64encode(np.array([1, 2, 9], dtype="<i8").tobytes()).decode()
    elif how == "in a version-2 document":  # a version-2 reader would drop the key and every ball edge with it
        doc["version"] = 2
    elif how == "in a version-1 document":
        doc["version"] = 1
    elif how == "unknown key":
        doc["ball_table"] = doc.pop("balls")
    return doc


@pytest.mark.parametrize("how", [
    "not an object", "missing radius", "bad base64", "target length differs", "list length differs",
    "fractional source", "NaN radius", "target outside the ground set", "in a version-2 document",
    "in a version-1 document", "unknown key",
])
def test_malformed_ball_table_is_a_format_error(tmp_path, capsys, how):
    doc = _corrupt_balls(how)
    with pytest.raises(FormatError):
        index_from_document(doc)
    _query_exits_3(tmp_path, capsys, doc)


@pytest.mark.parametrize("column", ["lo", "hi"])
def test_nan_shell_bound_is_a_format_error_for_query_and_verify(tmp_path, capsys, column):
    # a NaN shell never misses, so a query would serve the index, but the
    # row's logical edge is a shell ambit with a NaN radius, which verify
    # refused: the fans refuse it for both commands alike
    space = EuclideanSpace(gen_points("uniform", 40, 2, seed=3))
    laesa, res = build_classic(space, range(40), "laesa", pivots=4)
    doc = json.loads(json.dumps(index_document(laesa, res)))
    group = doc["groups"][0]
    bounds = np.frombuffer(base64.b64decode(group["lo"]), dtype="<f8").copy()
    group["hi"] = _b64(bounds, "<f8")
    bounds[5] = np.nan
    group[column] = _b64(bounds, "<f8")
    with pytest.raises(FormatError, match="NaN"):
        index_from_document(doc)
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    for command in (["query", "--index", str(path), "--ball", "0.5,0.5:0.3"],
                    ["verify", "--responsibility", "--index", str(path)]):
        assert main(command) == 3, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_ball_table_as_plain_lists_loads():
    doc = _v3_tree_document()
    tree, _ = index_from_document(doc)
    source, target, radius = ball_rows(tree.fans)
    doc["balls"] = {"source": source.tolist(), "target": target.tolist(), "radius": radius.tolist()}
    again, _ = index_from_document(doc)
    _assert_same_sprawl(tree, again)


# --- format version 4: an AESA index as one triangle block ---------------------


def _b64(a, dtype: str) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype=dtype).tobytes()).decode()


def _v3_aesa_document(sprawl: Sprawl) -> dict:
    """The document format version 3 wrote for an AESA: one sphere group per node."""
    doc = index_document(sprawl)
    del doc["spheres"]
    doc["groups"] = [
        {"source": g.source, "targets": _b64(g.targets, "<i8"), "lo": _b64(g.lo, "<f8"), "lazy": False}
        for g in shell_groups(sprawl.fans)
    ]
    doc["version"] = 3
    return json.loads(json.dumps(doc))


def test_v3_v4_and_built_aesa_answer_alike(tmp_path, rng):
    space = EuclideanSpace(rng.random((200, 3)))
    built, res = build_classic(space, range(200), "aesa")
    v4, _ = _round_trip(tmp_path, built, res)
    v3, _ = index_from_document(_v3_aesa_document(built))
    _assert_same_sprawl(built, v3)
    queries = []
    for c in rng.random((5, 3)):
        row = np.sort(space.distances_from(tuple(c), range(200)))
        queries += [Ball(tuple(c), float(row[3])), Ball(tuple(c), 0.0, k=10), Ball(tuple(c), 0.0, k=1)]
    for q in queries:
        oracle = linear_scan(space, range(200), q)
        for h in (Heuristic.fifo(), Heuristic("bound")):
            want = search(built, q, h)
            assert want.members == (oracle if q.k else tuple(sorted(oracle))), q
            for other in (v4, v3):
                got = search(other, q, h)
                assert (got.members, got.order) == (want.members, want.order), q
                assert got.distance_computations == want.distance_computations, q
                assert got.region_evaluations == want.region_evaluations, q


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_aesa_triangle_round_trips_bit_exact(tmp_path, n):
    pts = np.arange(2.0 * n).reshape(n, 2) / 7.0
    pts[::2, 0] = -0.0
    strings = ["ab", "", "abc", "bca", "ß", "abcabc", "ba"][:n]
    for space in (EuclideanSpace(pts), StringSpace(strings)):
        aesa, res = build_classic(space, range(n), "aesa")
        assert "spheres" in index_document(aesa)
        loaded, _ = _round_trip(tmp_path, aesa, res)
        groups = shell_groups(loaded.fans)
        assert [g.targets.tolist() for g in groups] == [[v for v in range(n) if v != u] for u in range(n)]
        for q in (Ball(space.value(0), 0.5), Ball(space.value(0), 0.0, k=2)):
            assert search(loaded, q).members == search(aesa, q).members


def test_nan_in_a_comparison_matrix_is_a_format_error(tmp_path, capsys):
    # NaN passes a `< 0` check and then reads as asymmetric, since NaN != NaN
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    aesa, res = build_classic(MatrixSpace(m.copy()), range(3), "aesa")
    doc = index_document(aesa, res)
    m[0, 2] = m[2, 0] = np.nan
    doc["space"]["matrix"] = base64.b64encode(m.astype("<f8").tobytes()).decode()
    with pytest.raises(FormatError, match="not NaN"):
        index_from_document(doc)
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["query", "--index", str(path), "--ball", "0:1"]) == 3
    assert "not NaN" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["euclidean-lp", "coordinate-projection", "explicit-matrix"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_point_or_entry_is_a_format_error(tmp_path, capsys, kind, bad):
    # a space refuses a NaN or infinite coordinate, or an infinite matrix
    # entry, when it is made, so a loaded index file never holds one
    pts = np.array([[0.0, 0.5], [1.0, 0.25], [0.5, 1.0]])
    space = {
        "euclidean-lp": EuclideanSpace(pts),
        "coordinate-projection": ProjectionSpace(pts),
        "explicit-matrix": MatrixSpace(EuclideanSpace(pts).pairwise(range(3), range(3))),
    }[kind]
    aesa, res = build_classic(space, range(3), "aesa")
    doc = index_document(aesa, res)
    key = "matrix" if kind == "explicit-matrix" else "points"
    table = np.array(getattr(space, key))
    table[1, 0] = bad
    doc["space"][key] = base64.b64encode(table.astype("<f8").tobytes()).decode()
    with pytest.raises(FormatError, match="not NaN"):
        index_from_document(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["query", "--index", str(path), "--knn", "2", "--center", "0,0"]) == 3
    assert "not NaN" in capsys.readouterr().err


def test_aesa_on_signed_zeros_keeps_groups(tmp_path):
    # symmetric by value, but d(0, 1) is -0.0 and d(1, 0) is 0.0: no one triangle holds both
    m = MatrixSpace([[0.0, -0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    assert m.symmetric
    aesa, res = build_classic(m, range(3), "aesa")
    doc = index_document(aesa, res)
    assert "spheres" not in doc and len(doc["groups"]) == 3
    loaded, _ = _round_trip(tmp_path, aesa, res)
    groups = shell_groups(loaded.fans)
    assert np.signbit(groups[0].lo[0]) and not np.signbit(groups[1].lo[0])


def test_shell_groups_off_the_aesa_pattern_keep_groups(rng):
    space = EuclideanSpace(rng.random((5, 2)))
    aesa, _ = build_classic(space, range(5), "aesa")
    g = shell_groups(aesa.fans)
    reversed_lo = g[0].lo[::-1]
    shifted_lo = g[0].lo + 1e-9
    for groups in (
        g[:4],  # one group short
        g[1:] + g[:1],  # group i not from nodes[i]
        [g[0]._replace(targets=g[0].targets[::-1], lo=reversed_lo, hi=reversed_lo)] + g[1:],  # targets out of order
        [g[0]._replace(hi=g[0].lo.copy())] + g[1:],  # no sphere group
        [g[0]._replace(lazy=True)] + g[1:],  # lazy
        [g[0]._replace(lo=shifted_lo, hi=shifted_lo)] + g[1:],  # not symmetric
    ):
        sprawl = Sprawl(space, range(5), aesa.edges, make_fans(groups=groups))
        doc = index_document(sprawl)
        assert "spheres" not in doc and len(doc["groups"]) == len(groups)
        _assert_same_sprawl(sprawl, index_from_document(json.loads(json.dumps(doc)))[0])


def _aesa_document() -> dict:
    space = EuclideanSpace([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    aesa, res = build_classic(space, range(4), "aesa")
    return json.loads(json.dumps(index_document(aesa, res)))


def _corrupt_spheres(how: str) -> dict:
    doc = _aesa_document()
    spheres = doc["spheres"]
    if how == "bad base64":
        spheres["triangle"] = "AAAA!AAA"
    elif how == "ragged bytes":
        spheres["triangle"] = base64.b64encode(bytes(44)).decode()
    elif how == "one value too many":
        spheres["triangle"] = _b64(np.ones(7), "<f8")
    elif how == "one value too few":
        spheres["triangle"] = _b64(np.ones(5), "<f8")
    elif how == "list of the wrong length":
        spheres["triangle"] = [1.0] * 5
    elif how == "not a block":
        spheres["triangle"] = 3.5
    elif how == "not an object":
        doc["spheres"] = spheres["triangle"]
    elif how == "missing triangle":
        del spheres["triangle"]
    elif how == "in a version-3 document":  # a version-3 reader would drop every shell
        doc["version"] = 3
    elif how == "beside shell groups":
        doc["groups"] = _v3_aesa_document(index_from_document(_aesa_document())[0])["groups"]
    return doc


@pytest.mark.parametrize("how", [
    "bad base64", "ragged bytes", "one value too many", "one value too few", "list of the wrong length",
    "not a block", "not an object", "missing triangle", "in a version-3 document", "beside shell groups",
])
def test_malformed_sphere_triangle_is_a_format_error(tmp_path, capsys, how):
    doc = _corrupt_spheres(how)
    with pytest.raises(FormatError):
        index_from_document(doc)
    _query_exits_3(tmp_path, capsys, doc)


def test_sphere_triangle_as_plain_list_and_empty_groups_load():
    doc = _aesa_document()
    aesa, _ = index_from_document(doc)
    doc["spheres"]["triangle"] = np.frombuffer(base64.b64decode(doc["spheres"]["triangle"]), "<f8").tolist()
    doc["groups"] = []
    again, _ = index_from_document(doc)
    _assert_same_sprawl(aesa, again)


# --- refs and radii the reader refuses ------------------------------------------


def _v2_tree_document() -> dict:
    space = EuclideanSpace([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tree, res = build_classic(space, range(4), "ball-tree")
    return json.loads(json.dumps(_v2_document(tree)))


def test_nan_ambit_radius_is_a_format_error(tmp_path, capsys):
    # every overlap check with NaN misses: the edge's subtree would drop out of every answer
    doc = _v2_tree_document()
    doc["edges"][1]["positive"][0]["radii"] = [float("nan")]
    with pytest.raises(FormatError, match="NaN"):
        index_from_document(doc)
    _query_exits_3(tmp_path, capsys, doc)


def _fractional_ref(how: str) -> dict:
    doc = _v2_tree_document()
    edge = doc["edges"][1]
    if how == "node":
        doc["nodes"][3] = 3.5
    elif how == "bool node":
        doc["nodes"][0] = False
    elif how == "edge target":
        edge["target"] += 0.9
    elif how == "string edge target":
        edge["target"] = str(edge["target"])
    elif how == "edge source":
        edge["sources"] = [edge["sources"][0] + 0.5]
    elif how == "ambit focus":
        edge["positive"][0]["foci"] = [edge["positive"][0]["foci"][0] + 0.5]
    elif how == "group source":
        space = EuclideanSpace([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        doc = json.loads(json.dumps(index_document(build_classic(space, range(4), "laesa", pivots=2)[0])))
        doc["groups"][1]["source"] += 0.5
    elif how == "explicit-set id":
        doc["edges"][1]["negative"] = [{"kind": "explicit-set", "ids": [1.5]}]
    elif how == "responsibility":
        doc["responsibility"] = {"0": [0, 1.5]}
    return doc


@pytest.mark.parametrize("how", [
    "node", "bool node", "edge target", "string edge target", "edge source", "ambit focus", "group source",
    "explicit-set id", "responsibility",
])
def test_fractional_ref_is_a_format_error(tmp_path, capsys, how):
    doc = _fractional_ref(how)
    with pytest.raises(FormatError, match="not an integer"):
        index_from_document(doc)
    _query_exits_3(tmp_path, capsys, doc)


def test_integral_float_refs_load():
    doc = _v2_tree_document()
    tree, _ = index_from_document(doc)
    doc["nodes"] = [float(v) for v in doc["nodes"]]
    for e in doc["edges"]:
        e["target"] = float(e["target"])
        e["sources"] = [float(v) for v in e["sources"]]
    again, _ = index_from_document(doc)
    _assert_same_sprawl(tree, again)
