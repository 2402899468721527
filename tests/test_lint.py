"""Source checks: no safety check may depend on `assert`, which `python -O` strips."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sprawl"


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), "package sources not found"
    assert not found, f"assert statements: {found}"


def test_engine_leaves_region_math_to_ambit():
    # engine.py supplies distances and region-kind plumbing; which map kinds
    # exist, how remoteness is computed, facet rows (as arrays or as the
    # plain-float facet cache) and the overlap slack are ambit.py's
    tree = ast.parse((SRC / "engine.py").read_text())
    found = []
    for node in ast.walk(tree):
        # a Name has .id, an attribute access .attr, an import alias .name
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in ("PowerMap", "MetaballMap", "HamacherMap", "remoteness", "matrix", "_facets", "TOL"):
            found.append(f"engine.py:{node.lineno}: {name}")
    assert not found, f"region math outside ambit.py: {found}"


# `search`, the drivers it calls to run `Frontier.run`, and their k-nearest helper
SEARCH_DRIVERS = ("search", "_nearest", "_lean", "_stepwise")


def test_one_traversal_loop():
    # traverse and search drive Frontier.run; a second loop over the
    # frontier would be a second traversal to keep in step
    found, seen = [], set()
    for module, scopes in (("hypergraph.py", ("traverse", "Frontier")), ("engine.py", SEARCH_DRIVERS)):
        tree = ast.parse((SRC / module).read_text())
        for top in tree.body:
            if getattr(top, "name", None) not in scopes:
                continue
            seen.add(top.name)
            functions = top.body if isinstance(top, ast.ClassDef) else [top]
            for fn in functions:
                if isinstance(fn, ast.FunctionDef) and f"{top.name}.{fn.name}" != "Frontier.run":
                    found += [f"{module}:{node.lineno}" for node in ast.walk(fn) if isinstance(node, ast.While)]
    assert seen == {"traverse", "Frontier", *SEARCH_DRIVERS}, f"scanned only {sorted(seen)}"
    assert not found, f"while loops outside Frontier.run: {found}"
    # every top-level function that search calls is scanned
    tree = ast.parse((SRC / "engine.py").read_text())
    search = next(top for top in tree.body if getattr(top, "name", None) == "search")
    tops = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
    called = {node.func.id for node in ast.walk(search) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called & tops <= {"_refuse_unsound", *SEARCH_DRIVERS}, f"unscanned drivers: {sorted(called & tops)}"


def test_the_compiled_plan_is_read_by_name():
    # `Sprawl._plan` returns a `Compiled` of named fields: a statement that
    # unpacks or indexes it breaks silently when a field is added or moved
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            unpacks = isinstance(node, ast.Assign) and any(isinstance(t, (ast.Tuple, ast.List)) for t in node.targets)
            if unpacks or isinstance(node, ast.Subscript):
                value = node.value
                if isinstance(value, ast.Call) and getattr(value.func, "attr", None) == "_plan":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"positional reads of _plan(): {found}"


def test_one_lp_kernel():
    # compare, distances_from and pairwise must give one float per pair; a
    # second copy of the Lp arithmetic rounds differently (scalar ** calls
    # libm's pow, numpy's power ufunc may not), and exact search then misses
    # points that lie on a radius read off a row
    tree = ast.parse((SRC / "comparison.py").read_text())
    kernels = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "lp_norm"]
    assert len(kernels) == 1, "comparison.lp_norm not found"
    inside = {id(node) for node in ast.walk(kernels[0])}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in ("sqrt", "power", "pow") or isinstance(getattr(node, "op", None), ast.Pow):
            found.append(f"comparison.py:{node.lineno}: {name or '**'}")
    assert not found, f"Lp arithmetic outside comparison.lp_norm: {found}"


def _overlap_checks_taking(*params: str) -> list[str]:
    """The overlap checks of ambit.py (its functions named overlap*, shell*
    or ball*) that take any of `params`, as "ambit.py:line: name(param)"."""
    tree = ast.parse((SRC / "ambit.py").read_text())
    checks = [
        fn
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith(("overlap", "shell", "ball"))
    ]
    assert {"overlap_radients", "overlap_refs"} <= {fn.name for fn in checks}, "ambit's overlap checks not found"
    return [
        f"ambit.py:{fn.lineno}: {fn.name}({arg.arg})"
        for fn in checks
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if arg.arg in params
    ]


def test_one_overlap_slack():
    # TOL is the one slack of every overlap check: a check with a slack of
    # its own could be called with a narrower one and drop a boundary member
    found = _overlap_checks_taking("tol")
    assert not found, f"overlap checks with a slack parameter: {found}"


def test_linear_facet_kernels_compare_with_bound_cutoff():
    # one overlap rule: each linear facet kernel compares the facet's lower
    # bound with `bound_cutoff(s)`; one that adds TOL to its own side
    # rounds differently, and a search and its per-row oracles disagree on
    # a row at the slack boundary; the sphere kernel a dense plan's rows take
    # is one of them
    kernels = (
        "_facets_meet",
        "overlap_facet_columns",
        "overlap_facet_pairs",
        "shells_missed",
        "spheres_missed",
        "overlap_linear",
    )
    tree = ast.parse((SRC / "ambit.py").read_text())
    found = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in kernels}
    assert sorted(found) == sorted(kernels), "ambit's linear facet kernels not found"
    bad = []
    for name, fn in found.items():
        names = {getattr(node, "id", None) for node in ast.walk(fn)}
        if "TOL" in names or "bound_cutoff" not in names:
            bad.append(f"ambit.py:{fn.lineno}: {name}")
    assert not bad, f"linear facet kernels that do not call bound_cutoff, or name TOL: {bad}"


def test_overlap_checks_take_distances():
    # an overlap check is a verdict on distances its caller measured: one
    # that measures for itself bypasses the search's caches and charges a
    # pair the search has already paid for
    found = _overlap_checks_taking("space", "session")
    assert not found, f"overlap checks that measure distances: {found}"


def test_fan_rows_are_never_rebuilt_as_regions():
    # a search and a reduction read a fan row from the fan columns: a row
    # rebuilt as an `Ambit` or fetched as its `Edge` is the per-row path
    # again, one region object and one overlap call per row; and the trace
    # oracle takes its verdicts from `reduce_to_signed`, evaluating no
    # region of its own
    rebuilds = ("Ambit", "table1_region", "edge", "logical_edge", "iter_logical_edges")
    evaluates = rebuilds + ("intersects", "region_member_mask", "membership_mask", "contains_features")
    scopes = {"_stepwise": rebuilds, "_lean": rebuilds, "reduce_to_signed": rebuilds, "sprawl_trace_oracle": evaluates}
    tree = ast.parse((SRC / "engine.py").read_text())
    tops = {top.name: top for top in tree.body if getattr(top, "name", None) in scopes}
    assert sorted(tops) == sorted(scopes), f"scanned only {sorted(tops)}"
    found = []
    for name, top in tops.items():
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if callee in scopes[name]:
                    found.append(f"engine.py:{node.lineno}: {name} calls {callee}")
    assert not found, f"fan rows rebuilt as regions: {found}"


# top-level names that only tests reach, each kept for a reason of its own
UNREFERENCED_ALLOWED = {
    "gift_wrap_2d",  # the reference the hull tests check `hull_ambit` against
    "validate_atomistic",  # the checker of the atomistic-workload contract
    "format_graph",  # the writer of the format that `sprawl verify --graph` reads
}


def test_every_top_level_name_is_used():
    # a function or class that nothing in the program or the benchmark
    # reaches is a second copy or dead code; the names any top-level
    # statement uses count for every definition but its own, as do string
    # constants, which name entry points for the benchmark's tracer
    bench = SRC.parents[1] / "bench"
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            own = getattr(top, "name", None) if path.parent == SRC else None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and own:
                defined.append((path.name, top.lineno, own))
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                if isinstance(name, str) and name != own:
                    used.add(name)
    assert len(defined) > 50, "package definitions not found"
    found = [f"{module}:{line}: {name}" for module, line, name in defined if name not in used | UNREFERENCED_ALLOWED]
    assert not found, f"top-level names nothing in src/ or bench/ uses: {found}"
