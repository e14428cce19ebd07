"""Closed-form PSD tests for star and tree sparsity patterns.

A star matrix has center diagonal p1, leaf diagonals p2..p_{d+1}, first-row
entries alpha2..alpha_{d+1}, and zeros elsewhere.  Tree patterns are tested by
leaf elimination with scalar Schur complements and never touch an eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .graphs import EliminationPlan, Graph, elimination_plan
from .matrices import DEFAULT_PSD_TOL, MatrixError


@dataclass(frozen=True)
class StarMatrix:
    """Star-patterned symmetric matrix: p has length d+1, alpha has length d."""

    p: tuple
    alpha: tuple

    def __post_init__(self):
        if len(self.p) != len(self.alpha) + 1:
            raise MatrixError(
                f"need len(p) == len(alpha) + 1, got {len(self.p)} and {len(self.alpha)}"
            )
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        object.__setattr__(self, "alpha", tuple(float(x) for x in self.alpha))

    @property
    def d(self) -> int:
        return len(self.alpha)

    def to_dense(self) -> np.ndarray:
        n = self.d + 1
        a = np.zeros((n, n))
        a[np.arange(n), np.arange(n)] = self.p
        a[0, 1:] = self.alpha
        a[1:, 0] = self.alpha
        return a


@dataclass(frozen=True)
class StarVerdict:
    is_psd: bool
    failed_condition: Optional[int]  # 1, 2 or 3; None when PSD


def star_psd_check(s: StarMatrix) -> StarVerdict:
    """PSD iff all p_i >= 0, (p_i = 0 implies alpha_i = 0), and
    p1 >= sum of alpha_i^2 / p_i over leaves with p_i != 0."""
    if any(pi < 0 for pi in s.p):
        return StarVerdict(False, 1)
    for pi, ai in zip(s.p[1:], s.alpha):
        if pi == 0.0 and ai != 0.0:
            return StarVerdict(False, 2)
    load = sum(ai * ai / pi for pi, ai in zip(s.p[1:], s.alpha) if pi != 0.0)
    if s.p[0] < load:
        return StarVerdict(False, 3)
    return StarVerdict(True, None)


def star_det(s: StarMatrix) -> float:
    """prod p_i  -  sum_i alpha_i^2 * prod of the other leaf diagonals."""
    total = math.prod(s.p)
    for i, ai in enumerate(s.alpha):
        rest = math.prod(pj for j, pj in enumerate(s.p[1:]) if j != i)
        total -= ai * ai * rest
    return total


def plan_psd_check(
    plan: EliminationPlan,
    diag: np.ndarray,
    edge: np.ndarray,
    tol: float = DEFAULT_PSD_TOL,
) -> bool:
    """Leaf-elimination PSD test in O(n) on entries aligned with plan: diagonal
    diag and edge[v] on (v, parent[v]).

    Each vertex is eliminated by a scalar Schur complement into its parent; a
    pivot within tol * max(1, max |entry|) of zero counts as zero.
    """
    thr = tol * max(1.0, float(np.max(np.abs(diag))), float(np.max(np.abs(edge))))
    d = np.asarray(diag, dtype=float).tolist()
    a = np.asarray(edge, dtype=float).tolist()
    parent = plan.parent
    for v in plan.order:
        u = parent[v]
        if u < 0:
            if d[v] < -thr:
                return False
        elif d[v] > thr:
            d[u] -= a[v] * a[v] / d[v]
        elif d[v] >= -thr:
            if abs(a[v]) > thr:
                return False
        else:
            return False
    return True


def tree_psd_check_sparse(
    t: Graph,
    diag: np.ndarray,
    off: Dict[Tuple[int, int], float],
    tol: float = DEFAULT_PSD_TOL,
) -> bool:
    """Leaf-elimination PSD test on sparse (diag, off) entries with pattern in
    the forest t; off is keyed by (i, j), i < j."""
    plan = elimination_plan(t)
    for (i, j), val in off.items():
        if val != 0.0 and not t.has_edge(i, j):
            raise MatrixError(f"entry {(i, j)} violates the tree pattern")
    edge = np.zeros(t.n)
    for v, u in enumerate(plan.parent):
        if u >= 0:
            edge[v] = off.get((min(u, v), max(u, v)), 0.0)
    return plan_psd_check(plan, diag, edge, tol)


def tree_psd_check(a: np.ndarray, t: Graph, tol: float = DEFAULT_PSD_TOL) -> bool:
    """Dense front end for the leaf-elimination PSD test."""
    a = np.asarray(a, dtype=float)
    if a.shape != (t.n, t.n):
        raise MatrixError(f"graph has {t.n} vertices, matrix has shape {a.shape}")
    # the plain comparison is the fast path; NaN entries need the second
    if not (np.array_equal(a, a.T) or np.array_equal(a, a.T, equal_nan=True)):
        raise MatrixError("matrix is not exactly symmetric")
    plan = elimination_plan(t)
    parent = np.array(plan.parent, dtype=np.intp)
    rows, cols = np.nonzero(a)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    stray = (parent[rows] != cols) & (parent[cols] != rows)
    if stray.any():
        k = int(np.argmax(stray))
        i, j = sorted((int(rows[k]), int(cols[k])))
        raise MatrixError(f"entry {(i, j)} violates the tree pattern")
    child = np.nonzero(parent >= 0)[0]
    edge = np.zeros(t.n)
    edge[child] = a[child, parent[child]]
    return plan_psd_check(plan, np.diag(a), edge, tol)


def random_star(d: int, rng: np.random.Generator) -> StarMatrix:
    """Star matrix with i.i.d. uniform entries on [-2, 2) (not necessarily PSD)."""
    return StarMatrix(tuple(rng.uniform(-2.0, 2.0, d + 1)), tuple(rng.uniform(-2.0, 2.0, d)))


def random_psd_star(d: int, rng: np.random.Generator) -> StarMatrix:
    """PSD star sample; with probability 0.3 the center diagonal sits exactly
    at the leaf load, which is where nontrivial kernels live.  Some draws also
    force alpha_i = p_i on a leaf to populate the joint kernel."""
    p_leaf = rng.uniform(0.1, 2.0, d)
    alpha = rng.uniform(-1.0, 1.0, d) * np.sqrt(p_leaf)
    if d >= 1 and rng.uniform() < 0.3:
        i = int(rng.integers(d))
        alpha[i] = p_leaf[i]
    # accumulate exactly like star_psd_check so boundary draws land on the
    # criterion's notion of equality, not one ulp below it
    load = sum(ai * ai / pi for pi, ai in zip(p_leaf, alpha) if pi != 0.0)
    if rng.uniform() < 0.3:
        p1 = load
    else:
        p1 = load * (1.0 + rng.uniform(0.0, 1.0)) + rng.uniform(0.0, 0.5)
    return StarMatrix((p1,) + tuple(p_leaf), tuple(alpha))
