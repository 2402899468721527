import json
import re

import numpy as np
import pytest

from sprawl import plotting
from sprawl.cli import main
from sprawl.storage import load_index, save_points


@pytest.fixture
def dataset(tmp_path, rng):
    path = tmp_path / "pts.txt"
    save_points(path, rng.random((60, 3)))
    return path


def test_gen_build_query_bench(tmp_path, capsys):
    data = tmp_path / "d.txt"
    index = tmp_path / "i.json"
    assert main(["gen", "--kind", "uniform", "--count", "80", "--dims", "2",
                 "--seed", "5", "--out", str(data)]) == 0
    assert main(["build", "--dataset", str(data), "--kind", "ball-tree",
                 "--out", str(index)]) == 0
    assert main(["query", "--index", str(index), "--ball", "0.5,0.5:0.2"]) == 0
    out = capsys.readouterr().out
    assert "members:" in out
    assert main(["bench", "--index", str(index), "--queries", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "oracle agreement: true" in out


def test_build_each_kind(tmp_path, dataset):
    for kind in ("ball-tree", "aesa", "laesa", "pm-tree"):
        out = tmp_path / f"{kind}.json"
        assert main(["build", "--dataset", str(dataset), "--kind", kind,
                     "--pivots", "4", "--out", str(out)]) == 0
        sprawl, res = load_index(out)
        assert len(sprawl.nodes) == 60


@pytest.mark.parametrize("kind", ["ball-tree", "pm-tree"])
def test_build_refuses_arity_below_two(tmp_path, dataset, capsys, kind):
    out = tmp_path / "i.json"
    assert main(["build", "--dataset", str(dataset), "--kind", kind, "--arity", "1", "--out", str(out)]) == 3
    assert "arity must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_build_aesa_three_points(tmp_path, capsys):
    data = tmp_path / "three.txt"
    save_points(data, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    index = tmp_path / "aesa.json"
    assert main(["build", "--dataset", str(data), "--kind", "aesa", "--out", str(index)]) == 0
    out = capsys.readouterr().out
    assert "6 grouped shell edges" in out


def test_build_counts_ball_table_rows(tmp_path, capsys):
    # a ball-tree over n points has n logical edges: the root edge and n - 1 ball table rows
    data = tmp_path / "d.txt"
    save_points(data, np.random.default_rng(3).random((50, 2)))
    index = tmp_path / "tree.json"
    assert main(["build", "--dataset", str(data), "--kind", "ball-tree", "--out", str(index)]) == 0
    assert "1 edges + 49 ball edges + 0 grouped shell edges" in capsys.readouterr().out
    sprawl, _ = load_index(index)
    assert len(list(sprawl.iter_logical_edges())) == 50


def test_build_interval_tree(tmp_path):
    data = tmp_path / "line.txt"
    save_points(data, np.array([[float(v)] for v in range(1, 8)]))
    index = tmp_path / "interval.json"
    assert main(["build", "--dataset", str(data), "--kind", "sorted-interval-tree",
                 "--out", str(index)]) == 0
    assert main(["query", "--index", str(index), "--ball", "4:1.5"]) == 0


def test_build_empty_dataset_fails(tmp_path):
    data = tmp_path / "empty.txt"
    data.write_text("")
    assert main(["build", "--dataset", str(data), "--kind", "ball-tree",
                 "--out", str(tmp_path / "x.json")]) == 3


@pytest.mark.parametrize("fmt,text", [
    ("points", "0\ninf\n1\n2\n"),
    ("points", "0 0\n1 nan\n"),
    ("matrix", "0 1 2\n1 0 inf\n2 1 0\n"),
])
def test_build_refuses_non_finite_data(tmp_path, capsys, fmt, text):
    # an infinite point once built, and a kNN query then left it out of
    # members its own scan returned
    data = tmp_path / "d.txt"
    data.write_text(text)
    out = tmp_path / "i.json"
    assert main(["build", "--dataset", str(data), "--format", fmt, "--kind", "aesa", "--out", str(out)]) == 3
    assert "not NaN or inf" in capsys.readouterr().err
    assert not out.exists()


def test_build_and_query_refuse_overflowing_distances(tmp_path, capsys):
    # a span of 2e308 overflows every distance across it, and so does an
    # L2 distance from a unit dataset to a centre at 1e200
    data, out = tmp_path / "d.txt", tmp_path / "i.json"
    data.write_text("0\n1e308\n-1e308\n1\n")
    assert main(["build", "--dataset", str(data), "--kind", "ball-tree", "--out", str(out)]) == 3
    assert "span too far" in capsys.readouterr().err
    assert not out.exists()
    data.write_text("0\n1\n")
    assert main(["build", "--dataset", str(data), "--kind", "aesa", "--out", str(out)]) == 0
    assert main(["query", "--index", str(out), "--knn", "1", "--center", "1e200"]) == 3
    assert "too far" in capsys.readouterr().err


def test_knn_query(tmp_path, dataset):
    index = tmp_path / "i.json"
    main(["build", "--dataset", str(dataset), "--kind", "ball-tree", "--out", str(index)])
    assert main(["query", "--index", str(index), "--knn", "3", "--center", "0.5,0.5,0.5"]) == 0


def test_bench_knn(tmp_path, dataset):
    index = tmp_path / "i.json"
    main(["build", "--dataset", str(dataset), "--kind", "aesa", "--out", str(index)])
    assert main(["bench", "--index", str(index), "--queries", "10", "--knn", "5"]) == 0


def test_verify_dnf(capsys):
    # tautology: x false hits !x; x true hits x&y or !y&x
    assert main(["verify", "--dnf", "(x&y)|(!x)|(!y&x)"]) == 0
    out = capsys.readouterr().out
    assert "tautology: true" in out and "sprawl-correct: true" in out
    assert main(["verify", "--dnf", "x&y"]) == 0
    out = capsys.readouterr().out
    assert "tautology: false" in out and "sprawl-correct: false" in out


def test_verify_axioms():
    assert main(["verify", "--axioms", "--seed", "7", "--count", "25"]) == 0


def test_verify_properties():
    assert main(["verify", "--properties", "--seed", "3", "--count", "10"]) == 0


def test_verify_responsibility(tmp_path, dataset):
    index = tmp_path / "i.json"
    main(["build", "--dataset", str(dataset), "--kind", "ball-tree", "--out", str(index)])
    assert main(["verify", "--responsibility", "--index", str(index)]) == 0


def test_verify_needs_a_mode():
    assert main(["verify"]) == 3


def test_demo_dnf(capsys):
    assert main(["demo-dnf", "(x)|(!x&y)|(!y&!x)"]) == 0
    out = capsys.readouterr().out
    assert "tautology (truth table): true" in out


def test_optimize_single_facet(tmp_path, dataset, capsys):
    assert main(["optimize", "--dataset", str(dataset), "--foci", "0,1",
                 "--sample-queries", "16", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["region"]["kind"] == "ambit"
    assert doc["report"]["facets"] == 1


def test_optimize_clustered_facets(tmp_path, dataset, capsys):
    assert main(["optimize", "--dataset", str(dataset), "--foci", "0,1,2",
                 "--facets", "3", "--sample-queries", "24", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["facets"] == 3


def test_plot_deterministic(tmp_path, capsys):
    args = ["plot", "--map", "ellipse", "--foci", "0,0;1,0", "--radius", "1.7",
            "--resolution", "64"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("<svg")
    out_file = tmp_path / "r.svg"
    assert main(args + ["--out", str(out_file)]) == 0
    assert out_file.read_text() == first


def test_plot_from_index(tmp_path, capsys):
    data = tmp_path / "d.txt"
    main(["gen", "--count", "40", "--dims", "2", "--seed", "4", "--out", str(data)])
    index = tmp_path / "i.json"
    main(["build", "--dataset", str(data), "--kind", "ball-tree", "--out", str(index)])
    capsys.readouterr()
    out = tmp_path / "e.svg"
    assert main(["plot", "--index", str(index), "--edge", "1", "--resolution", "48",
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")
    assert main(["plot", "--index", str(index), "--edge", "0"]) == 3  # root edge: no region


def test_plot_power_and_hamacher(tmp_path):
    for extra in (["--map", "power", "--alpha", "0.5", "--radius", "1.5"],
                  ["--map", "hamacher", "--radius", "0.2"],
                  ["--map", "metaball", "--radius", "1.2"]):
        out = tmp_path / "p.svg"
        assert main(["plot", "--foci", "0,0;1,0", "--resolution", "48",
                     "--out", str(out)] + extra) == 0


def test_plot_linear_map_defaults_to_unit_weights(tmp_path, capsys):
    out = tmp_path / "p.svg"
    assert main(["plot", "--foci", "0,0", "--resolution", "48", "--out", str(out)]) == 0
    assert "<path" in out.read_text()  # the unit ball around the focus has a boundary
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("bounds", ["1,1,0,1", "0,1,2,-2", "0,1,0", "0,1,0,inf", "nan,1,0,1"])
def test_plot_bounds_need_positive_extent(bounds, capsys):
    assert main(["plot", "--map", "ellipse", "--foci", "0,0;1,0", "--bounds", bounds]) == 3
    assert "--bounds" in capsys.readouterr().err


@pytest.mark.parametrize("resolution", ["0", "1", "-4"])
def test_plot_resolution_needs_two_samples(resolution, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plot", "--map", "ball", "--foci", "0,0", "--resolution", resolution])
    assert exc.value.code == 2
    assert "--resolution" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["linear", "ball"])
def test_plot_refuses_nan_radius(kind, tmp_path, capsys):
    out = tmp_path / "p.svg"
    assert main(["plot", "--map", kind, "--foci", "0,0", "--radius", "nan", "--out", str(out)]) == 3
    assert "--radius" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, named",
    [
        (["--foci", "0,0", "--weights", "nan"], "NaN"),
        (["--map", "metaball", "--a", "nan", "--foci", "0,0"], "positive"),
        (["--map", "power", "--weights", "nan", "--foci", "0,0"], "NaN"),
        (["--foci", "nan,0"], "--foci"),
        (["--foci", "0,0;1,-inf"], "--foci"),
    ],
)
def test_plot_refuses_nan_parameters_and_infinite_foci(args, named, tmp_path, capsys):
    # each of these used to write an SVG with no boundary and exit 0
    out = tmp_path / "p.svg"
    assert main(["plot", *args, "--resolution", "16", "--out", str(out)]) == 3
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, named",
    [
        (["--foci", "0,0", "--weights", "inf"], "finite"),
        (["--map", "metaball", "--a", "inf", "--foci", "0,0"], "finite"),
        (["--map", "power", "--weights", "inf", "--foci", "0,0"], "finite"),
        (["--foci", "0,0", "--radius", "inf"], "--radius"),
        (["--map", "ball", "--foci", "0,0", "--radius=-inf"], "--radius"),
    ],
)
def test_plot_refuses_infinite_parameters(args, named, tmp_path, capsys):
    # each of these used to write an SVG with no boundary and exit 0
    out = tmp_path / "p.svg"
    assert main(["plot", *args, "--resolution", "16", "--out", str(out)]) == 3
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_plot_resolution_is_capped(tmp_path, capsys, monkeypatch):
    def no_grid(*args):
        raise AssertionError("the grid was built before the cap was checked")

    monkeypatch.setattr(plotting, "field_grid", no_grid)
    out = tmp_path / "p.svg"
    too_fine = str(plotting.MAX_RESOLUTION + 1)
    assert main(["plot", "--foci", "0,0", "--resolution", too_fine, "--out", str(out)]) == 2
    assert f"capped at {plotting.MAX_RESOLUTION}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit):
        main(["plot", "--help"])
    assert f"2 to {plotting.MAX_RESOLUTION}" in capsys.readouterr().out


def test_bench_exact_under_l3(tmp_path, capsys):
    # range radii are read off distances_from, so a point sits on each boundary
    data = tmp_path / "d.txt"
    index = tmp_path / "i.json"
    main(["gen", "--count", "200", "--dims", "8", "--seed", "1", "--out", str(data)])
    assert main(["build", "--dataset", str(data), "--kind", "ball-tree", "--p", "3",
                 "--out", str(index)]) == 0
    capsys.readouterr()
    assert main(["bench", "--index", str(index), "--queries", "40", "--seed", "7"]) == 0
    assert "oracle agreement: true" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["build"])  # missing required arguments
    assert exc.value.code == 2


def test_missing_file_is_io_error(tmp_path):
    assert main(["query", "--index", str(tmp_path / "nope.json"), "--ball", "0:1"]) == 3


def test_bench_deterministic_output(tmp_path, dataset, capsys):
    index = tmp_path / "i.json"
    main(["build", "--dataset", str(dataset), "--kind", "laesa", "--pivots", "4",
          "--out", str(index)])
    capsys.readouterr()
    args = ["bench", "--index", str(index), "--queries", "15", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_build_strings_dataset(tmp_path, capsys):
    data = tmp_path / "words.txt"
    data.write_text("kitten\nsitting\nmitten\nbitten\nsit\nknitting\n")
    index = tmp_path / "s.json"
    assert main(["build", "--dataset", str(data), "--format", "strings",
                 "--kind", "ball-tree", "--out", str(index)]) == 0
    assert main(["query", "--index", str(index), "--ball", "kitten:1"]) == 0
    out = capsys.readouterr().out
    assert "members: 0 2 3" in out  # kitten, mitten, bitten within one edit
    assert main(["bench", "--index", str(index), "--queries", "5", "--selectivity", "0.5"]) == 0
    assert main(["bench", "--index", str(index), "--queries", "5", "--knn", "2"]) == 0


def test_build_matrix_dataset(tmp_path):
    data = tmp_path / "m.txt"
    data.write_text("0 2 3\n2 0 2\n3 2 0\n")
    index = tmp_path / "m.json"
    assert main(["build", "--dataset", str(data), "--format", "matrix",
                 "--kind", "aesa", "--out", str(index)]) == 0
    assert main(["bench", "--index", str(index), "--queries", "5"]) == 0
    assert main(["bench", "--index", str(index), "--queries", "5", "--knn", "2"]) == 0


def test_build_refuses_nan_in_a_matrix_dataset(tmp_path, capsys):
    # a symmetric file holding a NaN used to fail as "requires a symmetric comparison"
    data = tmp_path / "m.txt"
    data.write_text("0 2 nan\n2 0 2\nnan 2 0\n")
    index = tmp_path / "m.json"
    assert main(["build", "--dataset", str(data), "--format", "matrix",
                 "--kind", "aesa", "--out", str(index)]) == 3
    assert "not NaN" in capsys.readouterr().err
    assert not index.exists()


def test_bench_false_negative_exits_1(tmp_path, dataset, monkeypatch, capsys):
    from sprawl import engine

    index = tmp_path / "i.json"
    main(["build", "--dataset", str(dataset), "--kind", "ball-tree", "--out", str(index)])
    real_search = engine.search

    def lossy_search(sprawl, query, heuristic=None):
        got = real_search(sprawl, query, heuristic)
        got.members = got.members[1:]
        return got

    monkeypatch.setattr(engine, "search", lossy_search)
    assert main(["bench", "--index", str(index), "--queries", "5"]) == 1
    assert "missed" in capsys.readouterr().err


def test_bench_prints_search_and_scan_times(tmp_path, dataset, monkeypatch, capsys):
    # the clock goes to stderr beside the counts on stdout, whatever the verdict
    from sprawl import engine

    index = tmp_path / "i.json"
    main(["build", "--dataset", str(dataset), "--kind", "ball-tree", "--out", str(index)])
    capsys.readouterr()
    for knn in ([], ["--knn", "3"]):
        assert main(["bench", "--index", str(index), "--queries", "6", *knn]) == 0
        out, err = capsys.readouterr()
        assert "distance comps:" in out and " ms" not in out
        lines = err.splitlines()
        for name in ("search ms", "scan ms"):
            (line,) = [x for x in lines if x.startswith(name + ": ")]
            p50, p95 = (float(v) for v in re.fullmatch(name + r": p50 (\S+)  p95 (\S+)", line).groups())
            assert 0.0 < p50 <= p95
    real_search = engine.search

    def lossy_search(sprawl, query, heuristic=None):
        got = real_search(sprawl, query, heuristic)
        got.members = got.members[1:]
        return got

    monkeypatch.setattr(engine, "search", lossy_search)
    assert main(["bench", "--index", str(index), "--queries", "6"]) == 1
    err = capsys.readouterr().err
    assert "search ms: p50" in err and "scan ms: p50" in err


def test_bench_refuses_unsound_quasimetric_index(tmp_path, capsys):
    from sprawl.comparison import MatrixSpace
    from sprawl.engine import Edge, Sprawl
    from sprawl.storage import save_index

    from conftest import make_fans

    space = MatrixSpace([[0, 3, 1], [3, 0, 1], [3, 5, 0]], symmetric=False)
    fans = make_fans(groups=[(0, [2], [1.0], [1.0])])
    index = tmp_path / "q.json"
    save_index(index, Sprawl(space, range(3), [Edge((), v) for v in range(3)], fans))
    assert main(["bench", "--index", str(index), "--queries", "3"]) == 2
    assert "asymmetric" in capsys.readouterr().err


def test_verify_graph_file(tmp_path, capsys):
    from sprawl.hypergraph import HyperEdge, SignedHyperdigraph, format_graph

    g = SignedHyperdigraph(3, [HyperEdge(frozenset(), 0, 1), HyperEdge(frozenset({0}), 1, 1),
                               HyperEdge(frozenset({0, 1}), 2, -1)])
    path = tmp_path / "g.txt"
    path.write_text(format_graph(g))
    assert main(["verify", "--graph", str(path)]) == 0
    assert "graph axioms: pass" in capsys.readouterr().out


def test_verify_graph_keeps_the_enumeration_cap(tmp_path, capsys):
    # 9 roots have 986,410 traversal sequences: --graph refuses them at
    # once (exit 2) under the library's cap of 8; --cap bounds only --dnf
    from sprawl.hypergraph import HyperEdge, SignedHyperdigraph, format_graph

    path = tmp_path / "roots.txt"
    path.write_text(format_graph(SignedHyperdigraph(9, [HyperEdge(frozenset(), v, 1) for v in range(9)])))
    assert main(["verify", "--graph", str(path), "--cap", "12"]) == 2
    assert "capped at 8 nodes" in capsys.readouterr().err


def test_query_matrix_index(tmp_path, capsys):
    # the centre of a matrix-space query is a point ref, not coordinates
    data = tmp_path / "m.txt"
    data.write_text("0 2 3\n2 0 2\n3 2 0\n")
    index = tmp_path / "m.json"
    assert main(["build", "--dataset", str(data), "--format", "matrix",
                 "--kind", "aesa", "--out", str(index)]) == 0
    capsys.readouterr()
    assert main(["query", "--index", str(index), "--ball", "1:2"]) == 0
    assert "members: 0 1 2" in capsys.readouterr().out
    assert main(["query", "--index", str(index), "--knn", "2", "--center", "0"]) == 0
    assert "members: 0 1" in capsys.readouterr().out
    for bad in (["--ball", "1.5:1"], ["--ball", "3:1"], ["--knn", "1", "--center", "0,0"]):
        assert main(["query", "--index", str(index)] + bad) == 3
        assert "not a point ref" in capsys.readouterr().err


def test_plot_edge_out_of_range(tmp_path, capsys):
    data = tmp_path / "d.txt"
    main(["gen", "--count", "20", "--dims", "2", "--seed", "4", "--out", str(data)])
    index = tmp_path / "i.json"
    main(["build", "--dataset", str(data), "--kind", "ball-tree", "--out", str(index)])
    capsys.readouterr()
    for edge in ("999", "-1"):
        assert main(["plot", "--index", str(index), "--edge", edge]) == 3
        assert "out of range" in capsys.readouterr().err


def test_verify_responsibility_needs_index(capsys):
    assert main(["verify", "--responsibility"]) == 3
    assert "--index" in capsys.readouterr().err


def test_malformed_index_file_is_format_error(tmp_path, capsys):
    for name, doc in (("nospace", {"format": "sprawl-index", "version": 1}), ("list", [1, 2])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["query", "--index", str(path), "--ball", "0:1"]) == 3
        assert capsys.readouterr().err.startswith("error:")


def test_index_whose_nodes_lie_outside_its_space_is_format_error(tmp_path, dataset, capsys):
    # a saved ball-tree whose points are dropped used to load, then end in
    # an IndexError traceback at its first query
    index = tmp_path / "i.json"
    assert main(["build", "--dataset", str(dataset), "--kind", "ball-tree", "--out", str(index)]) == 0
    doc = json.loads(index.read_text())
    doc["space"]["points"] = []
    index.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["query", "--index", str(index), "--ball", "0.5,0.5:0.2"]) == 3
    assert capsys.readouterr().err.startswith("error: malformed sprawl-index document")


@pytest.mark.parametrize("focus", ["999", "-1"])
def test_optimize_focus_out_of_range(tmp_path, capsys, focus):
    data = tmp_path / "d.txt"
    main(["gen", "--count", "20", "--dims", "2", "--seed", "4", "--out", str(data)])
    capsys.readouterr()
    assert main(["optimize", "--dataset", str(data), "--foci", f"0,{focus}"]) == 3
    assert f"focus {focus} is not a point" in capsys.readouterr().err


def test_optimize_foci_leave_no_point(tmp_path, capsys):
    data = tmp_path / "d.txt"
    main(["gen", "--count", "20", "--dims", "2", "--seed", "4", "--out", str(data)])
    capsys.readouterr()
    foci = ",".join(str(i) for i in range(20))
    assert main(["optimize", "--dataset", str(data), "--foci", foci]) == 3
    err = capsys.readouterr().err
    assert "none is left" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--index", "i.json", "--queries", "0"],
        ["bench", "--index", "i.json", "--queries", "-2"],
        ["optimize", "--dataset", "d.txt", "--foci", "0,1", "--sample-queries", "0"],
        ["verify", "--axioms", "--count", "-1"],
        ["verify", "--properties", "--count", "0"],
        ["verify", "--axioms", "--count", "two"],
        ["bench", "--index", "i.json", "--knn", "0"],
        ["query", "--index", "i.json", "--knn", "0", "--center", "0,0"],
        ["gen", "--count", "0", "--out", "d.txt"],
        ["gen", "--dims", "0", "--out", "d.txt"],
        ["optimize", "--dataset", "d.txt", "--foci", "0,1", "--facets", "0"],
        ["optimize", "--dataset", "d.txt", "--foci", "0,1", "--facets", "-3"],
    ],
)
def test_count_options_need_a_positive_integer(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "2", "nan"])
def test_selectivity_must_be_a_fraction(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--index", "i.json", "--selectivity", value])
    assert exc.value.code == 2
    assert "fraction in (0, 1]" in capsys.readouterr().err


def test_query_refuses_nan_radius(tmp_path, capsys):
    data = tmp_path / "d.txt"
    index = tmp_path / "i.json"
    main(["gen", "--count", "20", "--dims", "2", "--seed", "3", "--out", str(data)])
    main(["build", "--dataset", str(data), "--out", str(index)])
    capsys.readouterr()
    assert main(["query", "--index", str(index), "--ball", "0.5,0.5:nan"]) == 3
    err = capsys.readouterr().err
    assert "radius" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["--knn", "3", "--center", "nan,0.5"],
        ["--ball", "nan,0.5:0.3"],
        ["--ball", "0.5,inf:0.3"],
    ],
)
def test_query_refuses_non_finite_centre(args, tmp_path, capsys):
    # a NaN centre used to print one kNN member, or no ball member, and exit 0
    data = tmp_path / "d.txt"
    index = tmp_path / "i.json"
    main(["gen", "--count", "50", "--dims", "2", "--seed", "1", "--out", str(data)])
    main(["build", "--dataset", str(data), "--out", str(index)])
    capsys.readouterr()
    assert main(["query", "--index", str(index), *args]) == 3
    captured = capsys.readouterr()
    assert "finite" in captured.err and "members" not in captured.out
