"""Dataset ingestion and versioned index persistence.

The index file is one self-describing JSON document: a space descriptor,
the ground set, explicit edges with region parameters as plain numeric
arrays, a columnar ball table, columnar shell groups or an AESA distance
triangle, and an optional responsibility assignment.

Format version 4, the one written, stores the numeric columns as binary
blocks: base64 text of fixed little-endian bytes, `<i8` for group targets
and ball sources and targets, `<f8` for group bounds, ball radii, point
coordinates and comparison matrices, with a `shape` beside a 2-d block. A
sphere group (`hi is lo`) writes `lo` alone. The ball table, the child
edges of a ball-tree or pm-tree, is one `"balls"` object of three blocks,
`source`, `target` and `radius`, written only when it has rows. When the
shell groups are AESA's (one eager sphere group per node, group i from
node i to every other node in node order, their bounds a matrix equal to
its transpose bit for bit), they are written as one `"spheres"` object
in place of `"groups"`: its `triangle` block holds the strict upper
triangle of that matrix, n(n - 1)/2 values row by row, and the reader
rebuilds the same groups in the same order. Each block keeps every bit
of its floats, -0.0 and NaN payloads included. The dtype of a block comes
from its field, never from the file.

Versions 1 to 3 still load. Version 3 had no triangle: it wrote every
AESA group. Version 2 wrote the same blocks but had no ball table: its
files store every ball as an explicit edge, and load with those edges and
their numbering unchanged. Version 1 wrote the columns as plain lists of
shortest-repr numbers; a plain list where a block is expected still
decodes, and in an integer column every value must be integral, as must
every ref (node, edge source and target, group source, ambit focus). A
top-level key that the document's version does not define, such as
`"balls"` in a version-2 file or `"spheres"` in a version-3 file, is
refused: a reader that skipped it would lose edges.
"""
from __future__ import annotations

import base64
import binascii
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .ambit import Ambit, HamacherMap, LinearMap, MetaballMap, PowerMap
from .comparison import ComparisonSpace, EuclideanSpace, MatrixSpace, ProjectionSpace, StringSpace
from .engine import (
    EMPTY,
    UNIVERSE,
    BallTable,
    Edge,
    Empty,
    ExplicitRegion,
    ResponsibilityAssignment,
    ShellGroup,
    Sprawl,
    Universe,
)
from .errors import FormatError

FORMAT_NAME = "sprawl-index"
FORMAT_VERSION = 4
_V1_KEYS = frozenset({"format", "version", "space", "nodes", "edges", "groups", "responsibility"})
_V3_KEYS = _V1_KEYS | {"balls"}
READ_KEYS = {1: _V1_KEYS, 2: _V1_KEYS, 3: _V3_KEYS, 4: _V3_KEYS | {"spheres"}}  # the top-level keys of each version
READ_VERSIONS = tuple(READ_KEYS)

_I8 = np.dtype("<i8")
_F8 = np.dtype("<f8")


# --- datasets ----------------------------------------------------------------


def load_points(path) -> np.ndarray:
    """One point per line, whitespace- or comma-separated decimals."""
    rows = []
    width = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(f"{path}:{lineno}: expected {width} coordinates, got {len(row)}")
        rows.append(row)
    if not rows:
        raise FormatError(f"{path}: dataset is empty")
    return np.array(rows, dtype=float)


def load_strings(path) -> list[str]:
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln]
    if not lines:
        raise FormatError(f"{path}: dataset is empty")
    return lines


def load_matrix(path) -> np.ndarray:
    m = load_points(path)
    if m.shape[0] != m.shape[1]:
        raise FormatError(f"{path}: matrix must be square, got {m.shape}")
    return m


def save_points(path, points: np.ndarray) -> None:
    lines = [" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(points)]
    Path(path).write_text("\n".join(lines) + "\n")


def gen_points(
    kind: str,
    count: int,
    dims: int,
    seed: int,
    clusters: int = 8,
    spread: float = 0.05,
) -> np.ndarray:
    """Synthetic datasets in [0, 1]^dims: uniform or gaussian-clustered."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.random((count, dims))
    if kind == "clustered":
        centers = rng.random((clusters, dims))
        assign = rng.integers(0, clusters, size=count)
        pts = centers[assign] + rng.normal(scale=spread, size=(count, dims))
        return np.clip(pts, 0.0, 1.0)
    raise ValueError(f"unknown dataset kind {kind!r}")


# --- space and region descriptors --------------------------------------------


def describe_space(space: ComparisonSpace) -> dict:
    if isinstance(space, (EuclideanSpace, ProjectionSpace)):
        doc = {"kind": space.kind, "shape": list(space.points.shape), "points": _block(space.points, _F8)}
        if isinstance(space, EuclideanSpace):
            doc["p"] = space.p
        return doc
    if isinstance(space, MatrixSpace):
        return {
            "kind": space.kind,
            "symmetric": space.symmetric,
            "shape": list(space.matrix.shape),
            "matrix": _block(space.matrix, _F8),
        }
    if isinstance(space, StringSpace):
        return {"kind": space.kind, "strings": list(space.strings)}
    raise TypeError(f"cannot serialize space {space!r}")


def space_from_descriptor(doc: dict) -> ComparisonSpace:
    kind = doc.get("kind")
    if kind == "euclidean-lp":
        return EuclideanSpace(_table(doc, "points"), p=doc.get("p", 2.0))
    if kind == "coordinate-projection":
        return ProjectionSpace(_table(doc, "points"))
    if kind == "explicit-matrix":
        return MatrixSpace(_table(doc, "matrix"), symmetric=doc.get("symmetric"))
    if kind == "levenshtein-strings":
        return StringSpace(doc["strings"])
    raise FormatError(f"unknown space kind {kind!r}")


def _floats(xs) -> list[float]:
    return [float(v) for v in xs]


def _block(xs, dtype: np.dtype) -> str:
    """A numeric column or table as base64 text of its `dtype` bytes, in C order."""
    return base64.b64encode(np.ascontiguousarray(xs, dtype=dtype).tobytes()).decode("ascii")


def _integral(v) -> bool:
    """Whether a JSON value is an integer: an int or a float with no
    fraction. numpy and `int()` would truncate 1.9 to 1; a bool is no
    integer either."""
    return type(v) is int or (type(v) is float and v.is_integer())


def _ref(v) -> int:
    if not _integral(v):
        raise FormatError(f"ref {v!r} is not an integer")
    return int(v)


def _refs(values) -> list[int]:
    """A list of refs read from a document, each one integral."""
    if not isinstance(values, list):
        raise FormatError(f"expected a list of refs, got {type(values).__name__}")
    if {int}.issuperset(map(type, values)):  # the common case, checked without a call per ref
        return values
    return [_ref(v) for v in values]


def _column(value, dtype: np.dtype, count: int | None = None) -> np.ndarray:
    """Decode one block of `dtype` items, `count` of them when given, or a
    version-1 plain list. A decoded block is read-only."""
    if isinstance(value, list):
        if dtype.kind == "i" and not all(map(_integral, value)):
            raise FormatError("integer column holds a value that is not an integer")
        if count is not None and len(value) != count:
            raise FormatError(f"column holds {len(value)} items where {count} are needed")
        return np.array(value, dtype=dtype)
    if not isinstance(value, str):
        raise FormatError(f"expected a base64 block, got {type(value).__name__}")
    try:
        raw = base64.b64decode(value, validate=True)
    except binascii.Error as exc:
        raise FormatError(f"bad base64 block: {exc}") from None
    if len(raw) % dtype.itemsize:
        raise FormatError(f"block of {len(raw)} bytes is not a whole number of {dtype.itemsize}-byte items")
    if count is not None and len(raw) != count * dtype.itemsize:
        raise FormatError(f"block holds {len(raw) // dtype.itemsize} items where {count} are needed")
    return np.frombuffer(raw, dtype=dtype)


def _table(doc: dict, key: str):
    """The float table under `key`: a block shaped by the descriptor's
    `shape`, or a version-1 list of rows."""
    value = doc[key]
    if isinstance(value, list):
        return value
    shape = doc.get("shape")
    if not (
        isinstance(shape, list)
        and len(shape) == 2
        and all(type(n) is int and n >= 0 for n in shape)
    ):
        raise FormatError(f"{key} block needs a shape of two non-negative integers, got {shape!r}")
    return _column(value, _F8, math.prod(shape)).reshape(shape)


def describe_region(region) -> dict:
    if isinstance(region, Universe):
        return {"kind": "universe"}
    if isinstance(region, Empty):
        return {"kind": "empty"}
    if isinstance(region, ExplicitRegion):
        return {"kind": "explicit-set", "ids": sorted(region.ids)}
    if isinstance(region, Ambit):
        return {
            "kind": "ambit",
            "foci": list(region.foci),
            "radii": _floats(region.radii),
            "orientation": region.orientation,
            "map": region.map.describe(),
        }
    raise TypeError(f"cannot serialize region {region!r}")


def region_from_descriptor(doc: dict):
    kind = doc.get("kind")
    if kind == "universe":
        return UNIVERSE
    if kind == "empty":
        return EMPTY
    if kind == "explicit-set":
        return ExplicitRegion(frozenset(_refs(doc["ids"])))
    if kind == "ambit":
        m = doc["map"]
        mk = m.get("kind")
        if mk == "linear":
            remote = LinearMap(m["rows"])
        elif mk == "power":
            remote = PowerMap(m["weights"], m["alpha"])
        elif mk == "metaball":
            remote = MetaballMap(m["a"], m["b"], offset=m.get("offset", False))
        elif mk == "hamacher":
            remote = HamacherMap()
        else:
            raise FormatError(f"unknown remoteness kind {mk!r}")
        return Ambit(tuple(_refs(doc["foci"])), remote, tuple(doc["radii"]), doc.get("orientation", "forward"))
    raise FormatError(f"unknown region kind {kind!r}")


# --- index files --------------------------------------------------------------


def index_document(sprawl: Sprawl, res: ResponsibilityAssignment | None = None) -> dict:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "space": describe_space(sprawl.space),
        "nodes": list(sprawl.nodes),
        "edges": [
            {
                "sources": list(e.sources),
                "target": e.target,
                "positive": [describe_region(r) for r in e.positive],
                "negative": [describe_region(r) for r in e.negative],
                "lazy": e.lazy,
            }
            for e in sprawl.edges
        ],
    }
    b = sprawl.balls
    if len(b):
        doc["balls"] = {
            "source": _block(b.source, _I8),
            "target": _block(b.target, _I8),
            "radius": _block(b.radius, _F8),
        }
    triangle = _sphere_triangle(sprawl)
    if triangle is None:
        doc["groups"] = [_describe_group(g) for g in sprawl.groups]
    else:
        doc["spheres"] = {"triangle": _block(triangle, _F8)}
    if res is not None:
        doc["responsibility"] = {str(k): sorted(v) for k, v in sorted(res.edge_to_nodes.items())}
    return doc


def _upper(n: int) -> np.ndarray:
    """Where an AESA's n x (n - 1) bound table, row i being group i's
    bounds, holds the upper triangle: entry [i, j] with j >= i is
    d(i, j + 1), so the table read through this mask is the strict upper
    triangle of the distance matrix, row by row. Entry [i, j] with j < i
    is d(i, j), the mirror of [j, i - 1]."""
    return ~np.tri(n, n - 1, -1, dtype=bool)


def _sphere_triangle(sprawl: Sprawl) -> np.ndarray | None:
    """The strict upper triangle of the distance matrix, row by row, when
    the sprawl's shell groups are AESA's: one eager sphere group per node,
    group i from nodes[i] to every other node in node order, and the
    matrix they assemble equal to its transpose bit for bit (so -0.0
    against 0.0, or two NaN payloads, keep the groups). Else None."""
    nodes, groups = sprawl.nodes, sprawl.groups
    n = len(nodes)
    if not n or len(groups) != n:
        return None
    ids = np.asarray(nodes, dtype=np.int64)
    for i, (u, g) in enumerate(zip(nodes, groups)):
        t = g.targets
        if g.lazy or g.hi is not g.lo or g.source != u or t.shape != (n - 1,):
            return None
        if not (np.array_equal(t[:i], ids[:i]) and np.array_equal(t[i:], ids[i + 1 :])):
            return None
    table = np.concatenate([g.lo for g in groups]).reshape(n, n - 1)
    bits = table.view(np.int64)
    below = np.tri(n - 1, dtype=bool)  # entry [i + 1, j], j <= i, is d(i + 1, j), the mirror of [j, i]
    if not np.array_equal(bits[1:][below], bits[:-1].T[below]):
        return None
    return table[_upper(n)]


def _spheres_from_descriptor(doc: dict, nodes: list[int]) -> list[ShellGroup]:
    """The n sphere groups of an AESA sprawl from its triangle block."""
    n = len(nodes)
    triangle = _column(doc["triangle"], _F8, n * (n - 1) // 2)
    upper = _upper(n)
    table = np.empty((n, n - 1))
    table[upper] = triangle
    np.copyto(table[1:], table[:-1].T, where=np.tri(n - 1, dtype=bool))  # the mirrors, as in _sphere_triangle
    ids = np.asarray(nodes, dtype=np.int64)
    targets = np.where(upper, ids[1:], ids[:-1])
    table.flags.writeable = targets.flags.writeable = False  # read-only, as a decoded block is
    return [ShellGroup(u, t, row, row) for u, t, row in zip(nodes, targets, table)]


def _describe_group(g: ShellGroup) -> dict:
    doc = {"source": g.source, "targets": _block(g.targets, _I8), "lo": _block(g.lo, _F8)}
    if g.hi is not g.lo:  # a sphere group writes its one bound column once
        doc["hi"] = _block(g.hi, _F8)
    doc["lazy"] = g.lazy
    return doc


def _group_from_descriptor(doc: dict) -> ShellGroup:
    targets = _column(doc["targets"], _I8)
    lo = _column(doc["lo"], _F8, len(targets))
    hi = _column(doc["hi"], _F8, len(targets)) if "hi" in doc else lo
    return ShellGroup(_ref(doc["source"]), targets, lo, hi, lazy=doc.get("lazy", False))


def _balls_from_descriptor(doc: dict) -> BallTable:
    source = _column(doc["source"], _I8)
    return BallTable(source, _column(doc["target"], _I8, len(source)), _column(doc["radius"], _F8, len(source)))


def save_index(path, sprawl: Sprawl, res: ResponsibilityAssignment | None = None) -> None:
    Path(path).write_text(json.dumps(index_document(sprawl, res)) + "\n")


def index_from_document(doc: dict) -> tuple[Sprawl, ResponsibilityAssignment | None]:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise FormatError(f"not a {FORMAT_NAME} document")
    version = doc.get("version")
    if type(version) is not int or version not in READ_VERSIONS:
        raise FormatError(f"unsupported format version {version!r}")
    unknown = doc.keys() - READ_KEYS[version]
    if unknown:
        raise FormatError(f"format version {version} defines no key {sorted(unknown)[0]!r}")
    try:
        space = space_from_descriptor(doc["space"])
        nodes = _refs(doc["nodes"])
        edges = [
            Edge(
                tuple(_refs(e["sources"])),
                _ref(e["target"]),
                tuple(region_from_descriptor(r) for r in e.get("positive", [])),
                tuple(region_from_descriptor(r) for r in e.get("negative", [])),
                lazy=e.get("lazy", False),
            )
            for e in doc.get("edges", [])
        ]
        if "spheres" not in doc:
            groups = [_group_from_descriptor(g) for g in doc.get("groups", [])]
        elif doc.get("groups"):
            raise FormatError("a document holds spheres or shell groups, not both")
        else:
            groups = _spheres_from_descriptor(doc["spheres"], nodes)
        balls = _balls_from_descriptor(doc["balls"]) if "balls" in doc else None
        sprawl = Sprawl(space, nodes, edges, groups, balls)
        res = None
        if "responsibility" in doc:
            owned = doc["responsibility"]
            _refs(list(itertools.chain.from_iterable(owned.values())))  # every member at once
            res = ResponsibilityAssignment({int(k): v for k, v in owned.items()})  # it makes the frozensets
        return sprawl, res
    except (KeyError, TypeError, AttributeError, IndexError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed {FORMAT_NAME} document: {exc!r}") from None


def load_index(path) -> tuple[Sprawl, ResponsibilityAssignment | None]:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return index_from_document(doc)
