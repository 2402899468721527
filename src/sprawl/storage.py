"""Dataset ingestion and versioned index persistence.

The index file is one self-describing JSON document: a space descriptor,
the ground set, explicit edges with region parameters as plain numeric
arrays, the sprawl's `Fans` as a columnar ball table and columnar shell
groups or an AESA distance triangle, and an optional responsibility
assignment.

Format version 4, the one written, stores the numeric columns as binary
blocks: base64 text of fixed little-endian bytes, `<i8` for group targets
and ball sources and targets, `<f8` for group bounds, ball radii, point
coordinates and comparison matrices, with a `shape` beside a 2-d block.
The discovering fans, the child edges of a ball-tree or pm-tree, are one
`"balls"` object of three blocks, `source`, `target` and `radius`, one
row per fan row, written only when there are rows; the reader makes each
run of rows from one source one fan. Every other fan is one shell group,
and when every shell row is a sphere (`hi is lo`) each group writes `lo`
alone. When the shell fans are AESA's (one eager sphere fan per node, fan
i from node i to every other node in node order, their bounds a matrix
equal to its transpose bit for bit), they are written as one `"spheres"`
object in place of `"groups"`: its `triangle` block holds the strict
upper triangle of that matrix, n(n - 1)/2 values row by row, and the
reader rebuilds the same fans in the same order. Each block keeps every
bit of its floats, -0.0 and NaN payloads included, though `Fans` refuses
a NaN bound. The dtype of a block comes from its field, never from the
file.

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
    Edge,
    Empty,
    ExplicitRegion,
    Fans,
    ResponsibilityAssignment,
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
    fans = sprawl.fans
    if fans.found_rows:  # the discovering fans, as one ball table
        balls = slice(0, fans.found_rows)
        doc["balls"] = {
            "source": _block(fans.ball_source, _I8),
            "target": _block(fans.target[balls], _I8),
            "radius": _block(fans.hi[balls], _F8),
        }
    triangle = _sphere_triangle(sprawl)
    if triangle is None:
        doc["groups"] = [_describe_group(fans, f) for f in range(fans.found, len(fans.source))]
    else:
        doc["spheres"] = {"triangle": _block(triangle, _F8)}
    if res is not None:
        doc["responsibility"] = {str(k): sorted(set(map(int, v))) for k, v in sorted(res.members.items())}
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
    the sprawl's shell fans are AESA's: one eager sphere fan per node, fan
    i from nodes[i] to every other node in node order, and the matrix they
    assemble equal to its transpose bit for bit (so -0.0 against 0.0, or
    two NaN payloads, keep the groups). Else None."""
    nodes, fans = sprawl.nodes, sprawl.fans
    n, first = len(nodes), fans.found_rows
    if not n or len(fans.source) - fans.found != n or fans.hi is not fans.lo or fans.lazy.any():
        return None
    ids = np.asarray(nodes, dtype=np.int64)
    if not (
        np.array_equal(fans.source[fans.found :], ids)
        and np.array_equal(fans.start[fans.found :] - first, np.arange(n + 1) * (n - 1))
        and np.array_equal(fans.target[first:].reshape(n, n - 1), np.where(_upper(n), ids[1:], ids[:-1]))
    ):
        return None
    table = fans.lo[first:].reshape(n, n - 1)
    bits = table.view(np.int64)
    below = np.tri(n - 1, dtype=bool)  # entry [i + 1, j], j <= i, is d(i + 1, j), the mirror of [j, i]
    if not np.array_equal(bits[1:][below], bits[:-1].T[below]):
        return None
    return table[_upper(n)]


def _describe_group(fans: Fans, f: int) -> dict:
    rows = slice(fans.start[f], fans.start[f + 1])
    doc = {"source": int(fans.source[f]), "targets": _block(fans.target[rows], _I8), "lo": _block(fans.lo[rows], _F8)}
    if fans.hi is not fans.lo:  # sphere fans write their one bound column once
        doc["hi"] = _block(fans.hi[rows], _F8)
    doc["lazy"] = bool(fans.lazy[f])
    return doc


def _fans_from_document(doc: dict, nodes: list[int]) -> Fans:
    """The document's fans: one per run of ball rows from one source, then
    one per node of an AESA triangle or one per shell group."""
    balls = doc.get("balls", {"source": [], "target": [], "radius": []})
    source = _column(balls["source"], _I8)
    radius = _column(balls["radius"], _F8, len(source))
    first = np.flatnonzero(np.diff(source, prepend=source[:1] - 1))  # where each run of one source starts
    target = _column(balls["target"], _I8, len(source))
    # per piece: fan sources, row counts and lazy flags, then row targets, lo and hi
    pieces = [(source[first], np.diff(first, append=len(source)), [False] * len(first), target, radius, radius)]
    if "spheres" in doc:
        n = len(nodes)
        triangle = _column(doc["spheres"]["triangle"], _F8, n * (n - 1) // 2)
        upper = _upper(n)
        table = np.empty((n, n - 1))
        table[upper] = triangle
        np.copyto(table[1:], table[:-1].T, where=np.tri(n - 1, dtype=bool))  # the mirrors, as in _sphere_triangle
        ids = np.asarray(nodes, dtype=np.int64)
        targets = np.where(upper, ids[1:], ids[:-1])
        table.flags.writeable = targets.flags.writeable = False  # read-only, as a decoded block is
        bounds = table.ravel()
        pieces.append((ids, [n - 1] * n, [False] * n, targets.ravel(), bounds, bounds))
    for g in doc.get("groups", []):
        t = _column(g["targets"], _I8)
        lo = _column(g["lo"], _F8, len(t))
        hi = _column(g["hi"], _F8, len(t)) if "hi" in g else lo
        pieces.append(([_ref(g["source"])], [len(t)], [g.get("lazy", False)], t, lo, hi))
    sources, counts, lazy, target, lo, hi = zip(*pieces)
    sources = np.concatenate(sources)
    return Fans(
        sources,
        np.concatenate([[0], *counts]).cumsum(),
        _joined(target),
        _joined(lo),
        None if all(h is low for h, low in zip(hi, lo)) else _joined(hi),  # spheres: one bound column
        np.arange(len(sources)) < len(first),
        np.concatenate(lazy),
    )


def _joined(pieces: list[np.ndarray]) -> np.ndarray:
    """The pieces end to end: the one non-empty piece itself when there is
    one, so an AESA's columns are not copied."""
    full = [p for p in pieces if len(p)]
    return full[0] if len(full) == 1 else np.concatenate(pieces)


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
        if "spheres" in doc and doc.get("groups"):
            raise FormatError("a document holds spheres or shell groups, not both")
        sprawl = Sprawl(space, nodes, edges, _fans_from_document(doc, nodes))
        res = None
        if "responsibility" in doc:
            res = ResponsibilityAssignment(doc["responsibility"])  # it keeps the lists
            keys = res.members.keys()
            if keys and not (0 <= min(keys) and max(keys) < len(edges) + len(sprawl.fans)):
                raise FormatError("a responsibility key names no logical edge")
            members = _refs(list(itertools.chain.from_iterable(res.members.values())))  # every member at once
            if not sprawl.holds(np.fromiter(members, dtype=np.int64, count=len(members))):
                raise FormatError("a responsibility member is not a node")
        return sprawl, res
    except (KeyError, TypeError, AttributeError, IndexError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed {FORMAT_NAME} document: {exc!r}") from None


def load_index(path) -> tuple[Sprawl, ResponsibilityAssignment | None]:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return index_from_document(doc)
