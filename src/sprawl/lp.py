"""Dense two-phase primal simplex.

Small in-house solver: the shape-optimization programs here have at most
a few thousand rows and a handful of structural columns, so a dense
tableau with Bland's anti-cycling rule is plenty.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 50_000  # per phase: a runaway ends in SolverError


@dataclass
class LpProblem:
    """maximize c @ x subject to row-wise (A x sense b), x >= 0 unless free."""

    objective: np.ndarray
    constraints: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    free: np.ndarray | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.constraints = np.atleast_2d(np.asarray(self.constraints, dtype=float))
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.senses = tuple(self.senses)
        n = self.objective.shape[0]
        m = self.constraints.shape[0]
        if self.constraints.shape != (m, n) or self.rhs.shape != (m,) or len(self.senses) != m:
            raise ValueError("inconsistent problem dimensions")
        if any(s not in ("<=", ">=", "=") for s in self.senses):
            raise ValueError("row senses must be <=, >= or =")
        if self.free is None:
            self.free = np.zeros(n, dtype=bool)
        else:
            self.free = np.asarray(self.free, dtype=bool)
            if self.free.shape != (n,):
                raise ValueError("free mask must have one entry per variable")


@dataclass
class LpResult:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective: float | None = None


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def _bland_iterate(T: np.ndarray, basis: list[int], ncols: int) -> str:
    """Run simplex pivots until optimal or unbounded (objective in last row)."""
    for _ in range(_MAX_PIVOTS):
        z = T[-1, :ncols]
        candidates = np.nonzero(z < -_PIVOT_TOL)[0]
        if candidates.size == 0:
            return "optimal"
        col = int(candidates[0])  # Bland: lowest eligible index enters
        rows = np.nonzero(T[:-1, col] > _PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / T[rows, col]
        best = np.min(ratios)
        tied = rows[ratios <= best + 1e-12]
        row = int(min(tied, key=lambda r: basis[r]))  # Bland: lowest basic index leaves
        _pivot(T, row, col)
        basis[row] = col
    raise SolverError("pivot limit exceeded")


def solve_lp(problem: LpProblem) -> LpResult:
    """Two-phase simplex; optimal solutions are basic and within ~1e-7."""
    n = problem.objective.shape[0]
    split = np.nonzero(problem.free)[0]

    def expand(vec: np.ndarray) -> np.ndarray:
        return np.concatenate([vec, -vec[split]])

    c = expand(problem.objective)
    A = np.hstack([problem.constraints, -problem.constraints[:, split]]) if split.size else problem.constraints.copy()
    b = problem.rhs.copy()
    senses = list(problem.senses)
    for i, s in enumerate(senses):
        if s == ">=":
            A[i] *= -1.0
            b[i] *= -1.0
            senses[i] = "<="

    m = A.shape[0]
    slack_cols = [i for i, s in enumerate(senses) if s == "<="]
    nstruct = A.shape[1]
    nslack = len(slack_cols)
    full = np.zeros((m, nstruct + nslack))
    full[:, :nstruct] = A
    for j, i in enumerate(slack_cols):
        full[i, nstruct + j] = 1.0
    neg = b < 0
    full[neg] *= -1.0
    b = np.where(neg, -b, b)

    # rows whose slack still reads +1 start basic; the rest get artificials
    basis = [-1] * m
    for j, i in enumerate(slack_cols):
        if not neg[i]:
            basis[i] = nstruct + j
    art_rows = [i for i in range(m) if basis[i] < 0]
    ncols = nstruct + nslack
    T = np.zeros((m + 1, ncols + len(art_rows) + 1))
    T[:m, :ncols] = full
    T[:m, -1] = b
    for j, i in enumerate(art_rows):
        T[i, ncols + j] = 1.0
        basis[i] = ncols + j

    if art_rows:
        # phase 1: minimize the artificial sum
        T[-1, :] = 0.0
        T[-1, ncols : ncols + len(art_rows)] = 1.0
        for i in art_rows:
            T[-1, :] -= T[i, :]
        status = _bland_iterate(T, basis, ncols + len(art_rows))
        if status != "optimal" or T[-1, -1] < -1e-7:
            return LpResult("infeasible")
        for i in range(m):  # drive leftover artificials out of the basis
            if basis[i] >= ncols:
                pivots = np.nonzero(np.abs(T[i, :ncols]) > _PIVOT_TOL)[0]
                if pivots.size:
                    _pivot(T, i, int(pivots[0]))
                    basis[i] = int(pivots[0])

    keep = [i for i in range(m) if basis[i] < ncols]
    rows = [T[i] for i in keep]
    basis = [basis[i] for i in keep]
    T2 = np.zeros((len(keep) + 1, ncols + 1))
    for i, r in enumerate(rows):
        T2[i, :ncols] = r[:ncols]
        T2[i, -1] = r[-1]
    T2[-1, :nstruct] = -c  # slack columns carry no objective
    for i, bj in enumerate(basis):
        if abs(T2[-1, bj]) > 0.0:
            T2[-1, :] -= T2[-1, bj] * T2[i, :]
    status = _bland_iterate(T2, basis, ncols)
    if status == "unbounded":
        return LpResult("unbounded")

    x_full = np.zeros(ncols)
    for i, bj in enumerate(basis):
        x_full[bj] = T2[i, -1]
    x = x_full[:n]
    if split.size:
        x = x.copy()
        x[split] -= x_full[nstruct - split.size + np.arange(split.size)]
    return LpResult("optimal", x, float(problem.objective @ x))
