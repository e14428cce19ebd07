"""Closed-form PSD tests for star and tree sparsity patterns.

A star matrix has center diagonal p1, leaf diagonals p2..p_{d+1}, first-row
entries alpha2..alpha_{d+1}, and zeros elsewhere.  Tree patterns are tested by
leaf elimination with scalar Schur complements and never touch an eigensolver.
The spectral oracle of stacked stars, padded to one width or not, calls
eigvalsh only on the stars whose verdict neither their diagonal nor the star
criterion applied to A -+ tau I decides, which in star-suite are the stars in
the boundary band.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .graphs import EliminationPlan, Graph, elimination_plan
from .matrices import DEFAULT_PSD_TOL, MatrixError, spectral_boundary_band


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
        if not all(map(math.isfinite, self.p + self.alpha)):
            raise MatrixError("star matrix has non-finite entries")


def stacked_dense(p: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Dense star matrices (B, d+1, d+1) from rows of p (B, d+1) and alpha (B, d)."""
    b, n = p.shape
    a = np.zeros((b, n, n))
    a[:, np.arange(n), np.arange(n)] = p
    a[:, 0, 1:] = alpha
    a[:, 1:, 0] = alpha
    return a


def stacked_oracle(p: np.ndarray, alpha: np.ndarray, tol: float = DEFAULT_PSD_TOL,
                   degree: Optional[np.ndarray] = None):
    """spectral_boundary_band's (is_psd, boundary) for the stars stacked as
    rows of p (B, d+1) and alpha (B, d), with eigvalsh run only on the rows
    whose verdict neither their diagonal nor the star criterion shifted by
    -+tau decides.

    Row k has degree[k] leaves, its trailing leaves padding with p_i =
    alpha_i = 0; by default every row has d.  With G = ||A||_inf and tau =
    2 tol max(1, G) + 1e-12 G, a row is PSD outside the band when A - tau I
    is positive definite, and neither PSD nor in the band when its least
    diagonal entry lies below -tau or A + tau I is not PSD; the criterion
    decides the shifted matrices only by a margin that covers its rounding
    (README).  The other rows go to spectral_boundary_band unpadded, in one
    stack per degree, since a zero leaf would add an eigenvalue 0.
    """
    g = np.maximum(np.abs(p[:, 0]) + np.abs(alpha).sum(axis=1),
                   (np.abs(p[:, 1:]) + np.abs(alpha)).max(axis=1, initial=0.0))
    g1 = np.maximum(1.0, g)
    tau = 2.0 * tol * g1 + 1e-12 * g
    if degree is None:
        degree = np.full(len(p), p.shape[1] - 1)
    s, bound, q = _shifted_schur(p, alpha, -tau, tau, g1)
    pad = np.arange(q.shape[1]) >= degree[:, None]
    psd = ((q > 0.0) | pad).all(axis=1) & (s > bound)
    s, bound, _ = _shifted_schur(p, alpha, tau, tau, g1)
    open_ = ~(psd | (p.min(axis=1) < -tau) | (s < -bound))
    boundary = np.zeros(len(p), dtype=bool)
    for d in range(p.shape[1]):
        rows = np.flatnonzero(open_ & (degree == d))
        if rows.size:
            psd[rows], boundary[rows], _ = spectral_boundary_band(
                stacked_dense(p[rows, :d + 1], alpha[rows, :d]), tol)
    return psd, boundary


def _shifted_schur(p, alpha, shift, tau, g1):
    """(s, bound, q) of the stars stacked as rows of p and alpha, shifted to
    A + shift I, shift = -tau or +tau per row: q their leaf diagonals, s
    their center's Schur complement p1 + shift - sum alpha_i (alpha_i / q_i)
    over the leaves with q_i > 0, folded left to right, and bound >= |s - S|
    for the exact complement S wherever every q_i > 0.

    bound is (d + 4) eps (|p1| + tau + load) + g1 * 2^-1022, with d leaf
    columns and g1 = max(1, ||A||_inf): the first term covers the relative
    errors of d + 3 roundings, the second those of underflow (README).
    alpha_i (alpha_i / q_i) keeps these near g1 * 2^-1074 per leaf, where
    alpha_i^2 / q_i would let them grow as 1 / q_i.
    """
    q = p[:, 1:] + shift[:, None]
    # an overflow makes s or bound infinite, or s NaN, which decides nothing
    with np.errstate(over="ignore"):
        load = _fold(alpha * np.divide(alpha, q, out=np.zeros(q.shape), where=q > 0.0))
        gamma = (q.shape[1] + 4) * np.finfo(float).eps
        bound = gamma * ((np.abs(p[:, 0]) + tau) + load) + np.finfo(float).tiny * g1
        return (p[:, 0] + shift) - load, bound, q


def _fold(terms):
    """The rows of terms (B, d) summed left to right, one column at a time;
    a 1-D terms is one row."""
    total = 0.0
    for column in terms.T:
        total = total + column
    return total


@dataclass(frozen=True)
class StarVerdict:
    is_psd: bool
    failed_condition: Optional[int]  # 1, 2 or 3; None when PSD


def leaf_load(p_leaf, alpha):
    """Sum of alpha_i^2 / p_i over the leaves with p_i != 0: a float for one
    star's leaf diagonals and first-row entries, an array for stars stacked
    as rows.

    The sum is folded left to right, one leaf at a time.  Builtin sum
    compensates float sums from Python 3.12 on, and the boundary draws of
    random_psd_star, p1 = load, must equal the load the criterion computes
    bit for bit on every Python version.
    """
    p_leaf = np.asarray(p_leaf, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    return _fold(np.divide(alpha * alpha, p_leaf, out=np.zeros(p_leaf.shape),
                           where=p_leaf != 0.0))


def stacked_criterion(p: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The star criterion on stars stacked as rows of p (B, d+1) and alpha
    (B, d): per row the first failed condition, 1, 2 or 3, and 0 when PSD."""
    failed = np.zeros(len(p), dtype=int)
    failed[p[:, 0] < leaf_load(p[:, 1:], alpha)] = 3
    failed[((p[:, 1:] == 0.0) & (alpha != 0.0)).any(axis=1)] = 2
    failed[(p < 0.0).any(axis=1)] = 1
    return failed


def star_psd_check(s: StarMatrix) -> StarVerdict:
    """PSD iff all p_i >= 0, (p_i = 0 implies alpha_i = 0), and
    p1 >= sum of alpha_i^2 / p_i over leaves with p_i != 0."""
    failed = int(stacked_criterion(np.array([s.p]), np.array([s.alpha]))[0])
    return StarVerdict(not failed, failed or None)


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
    return eliminate(plan, np.asarray(diag, dtype=float).tolist(),
                     np.asarray(edge, dtype=float).tolist(), [thr]) is None


def eliminate(plan: EliminationPlan, d: list, a: list, thr: list,
              start: int = 0) -> Optional[int]:
    """plan_psd_check's Schur loop on lists d (diagonal, overwritten) and a
    (edges), tree by tree, with a pivot within the tree's threshold of zero
    counted as zero: the first vertex in plan.order[start:] whose pivot
    fails, or None when the matrix is PSD.

    thr holds one threshold per tree, in the order the plan finishes its
    trees from start on, and the last one also holds for every tree after
    it: a tree ends at its root, so the plan must eliminate each tree's
    vertices together, as prufer_plan's forests do, and start must be where
    a tree begins.  One threshold serves any plan.
    """
    order, parent = plan.order, plan.parent
    thr = iter(thr)
    t = next(thr)
    for v in itertools.islice(order, start, None):
        u = parent[v]
        if u < 0:
            if d[v] < -t:
                return v
            t = next(thr, t)
        elif d[v] > t:
            d[u] -= a[v] * a[v] / d[v]
        elif d[v] >= -t:
            if abs(a[v]) > t:
                return v
        else:
            return v
    return None


def exact_plan_psd_check(plan: EliminationPlan, diag, edge) -> bool:
    """plan_psd_check in Fraction arithmetic, with no threshold: whether the
    matrix of the floats diag and edge, aligned with plan, is PSD exactly.
    It stops at the first pivot that fails, and a NaN or +-inf entry fails."""
    diag = np.asarray(diag, dtype=float).tolist()
    edge = np.asarray(edge, dtype=float).tolist()
    if not all(map(math.isfinite, diag + edge)):
        return False
    from fractions import Fraction

    d = [Fraction(x) for x in diag]
    for v in plan.order:
        u = plan.parent[v]
        if d[v] < 0:
            return False
        if u >= 0:
            if d[v] > 0:
                d[u] -= Fraction(edge[v]) ** 2 / d[v]
            elif edge[v] != 0.0:
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


def random_star(b: int, d: int, rng: np.random.Generator):
    """b stars of degree d with i.i.d. uniform entries on [-2, 2), not
    necessarily PSD, stacked as rows (p, alpha) of shapes (b, d+1), (b, d)."""
    return rng.uniform(-2.0, 2.0, (b, d + 1)), rng.uniform(-2.0, 2.0, (b, d))


def random_psd_star(b: int, d: int, rng: np.random.Generator):
    """b PSD stars of degree d >= 1, stacked as random_star's are.  In about
    30 % of the rows a random leaf has alpha_i = p_i, which populates the
    joint kernel; in about 30 % the center diagonal sits exactly at the leaf
    load, which is where nontrivial kernels live."""
    p_leaf = rng.uniform(0.1, 2.0, (b, d))
    alpha = rng.uniform(-1.0, 1.0, (b, d)) * np.sqrt(p_leaf)
    rows = np.flatnonzero(rng.uniform(size=b) < 0.3)
    leaf = rng.integers(d, size=rows.size)
    alpha[rows, leaf] = p_leaf[rows, leaf]
    # the criterion's own load, so boundary draws land on its notion of
    # equality, not one ulp below it
    load = leaf_load(p_leaf, alpha)
    at_load = rng.uniform(size=b) < 0.3
    above = load * (1.0 + rng.uniform(0.0, 1.0, b)) + rng.uniform(0.0, 0.5, b)
    return np.column_stack([np.where(at_load, load, above), p_leaf]), alpha
