"""Shared generators for the test batteries."""
from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from sprawl.ambit import Ambit, LinearMap, MetaballMap, PowerMap, table1_region
from sprawl.comparison import EuclideanSpace, MatrixSpace
from sprawl.engine import EMPTY, Edge, Fans, Sprawl

# Property tests draw their examples from a seed derived from each test, so
# every run tries the same inputs, and write no example database; no deadline,
# since a shared host's clock varies more than any one example's cost.
settings.register_profile("tier1", max_examples=150, deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")


def make_fans(balls=(), groups=()) -> Fans:
    """Fans from ball rows, (source, target, radius) each, one fan per run
    of one source, then from shell groups, (source, targets, lo, hi) each
    with an optional fifth item, lazy; hi is lo when every group passes its
    lo as its hi."""
    source, ends, target, lo, hi, lazy = [], [], [], [], [], []
    for u, t, r in balls:
        if not source or source[-1] != u:
            source.append(u)
            ends.append(0)
            lazy.append(False)
        target.append(t)
        lo.append(r)
        hi.append(r)
        ends[-1] = len(target)
    found, spheres = len(source), True
    for u, targets, group_lo, group_hi, *rest in groups:
        source.append(u)
        lazy.append(bool(rest and rest[0]))
        target += list(targets)
        lo += list(group_lo)
        hi += list(group_hi)
        ends.append(len(target))
        spheres = spheres and group_hi is group_lo
    return Fans(source, [0] + ends, target, lo, None if spheres else hi, np.arange(len(source)) < found, lazy)


class Group(NamedTuple):
    """One shell fan, its row columns as slices; hi is lo when the fans' are."""

    source: int
    targets: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    lazy: bool


def shell_groups(fans: Fans) -> list[Group]:
    """Each shell fan as a `Group`, in fan order."""
    out = []
    for f in range(fans.found, len(fans.source)):
        rows = slice(fans.start[f], fans.start[f + 1])
        lo = fans.lo[rows]
        hi = lo if fans.hi is fans.lo else fans.hi[rows]
        out.append(Group(int(fans.source[f]), fans.target[rows], lo, hi, bool(fans.lazy[f])))
    return out


def ball_rows(fans: Fans) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The discovering rows as (source, target, radius) columns."""
    rows = slice(0, fans.found_rows)
    source = np.repeat(fans.source[: fans.found], np.diff(fans.start[: fans.found + 1]))
    return source, fans.target[rows], fans.hi[rows]


def random_quasimetric(rng: np.random.Generator, n: int) -> MatrixSpace:
    """Random asymmetric distance matrix closed under shortest paths.

    Shortest-path closure of positive arc weights gives zero diagonal,
    non-negative entries, and the oriented triangle inequality.
    """
    w = rng.random((n, n)) * 9.0 + 1.0
    np.fill_diagonal(w, 0.0)
    d = w.copy()
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    np.fill_diagonal(d, 0.0)
    return MatrixSpace(d, symmetric=False)


def random_metric(rng: np.random.Generator, n: int) -> MatrixSpace:
    w = rng.random((n, n)) * 9.0 + 1.0
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    d = w.copy()
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    np.fill_diagonal(d, 0.0)
    return MatrixSpace(d, symmetric=True)


def uniform_space(rng: np.random.Generator, n: int, dims: int) -> EuclideanSpace:
    return EuclideanSpace(rng.random((n, dims)))


def random_labeled_sprawl(rng: np.random.Generator, n_max: int = 12) -> Sprawl:
    """Random sprawl with mixed region kinds; includes irresponsible ones."""
    n = int(rng.integers(3, n_max + 1))
    space = EuclideanSpace(rng.random((n, 2)))
    edges = [Edge((), int(v)) for v in rng.choice(n, size=max(1, n // 3), replace=False)]
    for _ in range(int(rng.integers(2, 3 * n))):
        srcs = tuple(int(v) for v in rng.choice(n, size=int(rng.integers(1, 3)), replace=False))
        tgt = int(rng.integers(0, n))
        kind = rng.random()
        focus = srcs[int(rng.integers(0, len(srcs)))]
        if kind < 0.3:
            region = Ambit((focus,), LinearMap([[1.0]]), (float(rng.random() * 1.2),))
        elif kind < 0.5:
            lo = float(rng.random() * 0.4)
            region = table1_region("shell", (focus,), lo=lo, hi=lo + float(rng.random()))
        elif kind < 0.65:
            region = Ambit((focus,), PowerMap([1.0], 0.5), (float(rng.random() * 1.1),))
        elif kind < 0.8:
            region = Ambit((focus,), MetaballMap([1.5]), (float(rng.random() * 0.8),))
        else:
            region = EMPTY
        if rng.random() < 0.45:
            edges.append(Edge(srcs, tgt, (EMPTY,), (region,)))
        else:
            positive = (region,) if not isinstance(region, type(EMPTY)) else ()
            edges.append(Edge(srcs, tgt, positive, ()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Sprawl(space, range(n), edges)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
