"""Closed-form PSD tests for star and tree sparsity patterns.

A star matrix has center diagonal p1, leaf diagonals p2..p_{d+1}, first-row
entries alpha2..alpha_{d+1}, and zeros elsewhere.  Tree patterns are tested by
leaf elimination with scalar Schur complements and never touch an eigensolver:
every tree check, preserver-test's trials too, is first_failing_block, one
float pass of the exact elimination rule whose fails are re-checked in
Fraction arithmetic.
Stars stacked leaf-major, column k star k, padded to one width or not, get
the float criterion's claims and their exact verdicts in one pass
(stacked_verdicts) over contiguous rows: the criterion's first two
conditions, then the sign of the center's Schur complement, told in floats,
then in double-double, then in integers, each stage on the stars the one
before leaves open; no eigensolver runs.  star_psd_check is that pass on one
star, so its verdict is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .graphs import EliminationPlan, Graph, elimination_plan
from .matrices import MatrixError

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # 2^-1022


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


def stacked_verdicts(p: np.ndarray, alpha: np.ndarray):
    """The float criterion's claims on the stars stacked leaf-major in p
    (d+1, B) and alpha (d, B), column k star k, finite and padded with zero
    leaves or not, their exact PSD verdicts, and the stage that decided
    each: (claim, psd, stage), all of shape (B,), in one pass whose every
    condition and fold runs over contiguous rows.

    claim is the criterion's first failed condition, 1, 2 or 3, and 0 where
    it calls the star PSD.  Its load is _criterion_load's, the one that
    random_psd_star puts its boundary centers at.

    Stage 0 is those two conditions, p >= 0 and alpha_i = 0 where p_i = 0,
    which compare floats exactly.  A star that meets both is PSD iff S = p1
    - sum alpha_i^2 / p_i over its leaves with p_i > 0 is >= 0, and three
    stages tell the sign of S, each on the stars the one before leaves
    open: 1 floats, s = p1 minus the stage's own load, the left fold of
    fl(alpha_i fl(alpha_i / p_i)), decided where |s| > margin, which also
    proves the claim there; 2 double-double, decided where |s| > bound
    (_double_double_schur); 3 integers, which decide every star (README).
    The float stage does not reuse the claim's load: then the claim would
    agree with every star it decides by construction.

    The margin is (d + 4) eps (|p1| + 2 load) + 2^-1022 (1 + sum (alpha_i^2
    + 1 / p_i)): the first term covers the relative errors of both loads,
    the second those of underflow, which in the criterion's alpha_i^2 / p_i
    grow as 1 / p_i.  An overflow in either load, or in an alpha_i^2, makes
    s or the margin infinite, which decides nothing.
    """
    leaf = p[1:]
    negative = np.logical_or.reduce(p < 0.0)
    loose = np.logical_or.reduce((leaf == 0.0) & (alpha != 0.0))
    psd = ~(negative | loose)
    # on a star that meets both conditions p_i != 0 just where p_i > 0, and
    # elsewhere alpha_i = 0, which over p_i = inf adds 0 to every load below
    q = np.where(leaf > 0.0, leaf, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        square = alpha * alpha
        claim = np.where(p[0] < _criterion_load(leaf, alpha), 3, 0)
        load = _fold(alpha * (alpha / q))
        margin = ((len(leaf) + 4) * _EPS * (np.abs(p[0]) + 2.0 * load)
                  + _TINY * (1.0 + _fold(1.0 / q + square)))
        s = p[0] - load
    claim[loose] = 2
    claim[negative] = 1
    decided = psd & (np.abs(s) > margin)
    stage = decided.astype(np.intp)
    psd &= (s > 0.0) | ~decided
    cols = np.flatnonzero(psd & ~decided)
    if len(cols):
        s, bound = _double_double_schur(p[:, cols], alpha[:, cols])
        decided = np.abs(s) > bound
        psd[cols[decided]] = s[decided] > 0.0
        stage[cols[decided]] = 2
        cols = cols[~decided]
    for k in cols.tolist():
        psd[k] = _integer_schur_sign(p[:, k].tolist(), alpha[:, k].tolist()) >= 0
    stage[cols] = 3
    return claim, psd, stage


# Dekker's splitting constant 2^27 + 1, and the range [2^-200, 2^200] in
# which every nonzero entry of a star must lie for the double-double stage:
# then none of its operations underflows or overflows (README).
_SPLIT = 134217729.0
_DD_RANGE = (2.0 ** -200, 2.0 ** 200)


def _split(x):
    """Veltkamp's split of x into a high half and x minus it, 26 bits each."""
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


def _two_product(a, b):
    """(x, e) with x = fl(a b) and x + e = a b exactly (Dekker)."""
    x = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return x, al * bl - (((x - ah * bh) - al * bh) - ah * bl)


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _double_double_schur(p, alpha):
    """(s, bound) of the stars stacked leaf-major in p >= 0 and alpha: s =
    fl(h + l), which has the sign of h + l, for a double-double complement
    h + l, and bound >= (1 + 2^-53) |h + l - S|, so that |s| > bound gives
    the sign of S; a star with a nonzero entry outside _DD_RANGE gets bound
    NaN, which decides nothing.

    Each leaf with p_i > 0 gives r = fl(alpha / p_i), the exact remainder
    rho = alpha - r p_i, and alpha r = m + n exactly, so that alpha^2 / p_i
    = m + n + alpha rho / p_i.  The m are summed from p1 down by TwoSum,
    exactly, and their errors, the n and fl(alpha fl(rho / p_i)), in a
    float left fold; bound is (d + 2)^2 eps^2 (|p1| + sum m), which holds
    for any order of that fold (README).
    """
    leaf = p[1:]
    pos = leaf > 0.0
    q = np.where(pos, leaf, 1.0)
    a = np.where(pos, alpha, 0.0)
    lo, hi = _DD_RANGE
    safe = np.ones(p.shape[1], dtype=bool)
    for x in (np.abs(p), np.abs(a)):
        safe &= np.logical_and.reduce((x == 0.0) | ((x >= lo) & (x <= hi)))
    # a star outside the range may overflow, which its NaN bound discards
    with np.errstate(over="ignore", invalid="ignore"):
        r = a / q
        ph, pl = _two_product(r, q)
        rho = (a - ph) - pl
        m, n = _two_product(a, r)
        c = a * (rho / q)
        s = p[0]
        errors = np.empty(m.shape)
        for k, row in enumerate(-m):
            s, errors[k] = _two_sum(s, row)
        low = _fold((errors - n) - c)
        bound = (len(leaf) + 2) ** 2 * _EPS ** 2 * (np.abs(p[0]) + _fold(m))
        return s + low, np.where(safe, bound, np.nan)


def _integer_schur_sign(p, alpha) -> int:
    """The sign of S, -1, 0 or 1, for one star given as lists of floats p
    and alpha with p >= 0, in integers: every float is an integer over a
    power of two."""
    num, den = p[0].as_integer_ratio()
    for x, a in zip(p[1:], alpha):
        if x > 0.0 and a != 0.0:
            an, ad = a.as_integer_ratio()
            xn, xd = x.as_integer_ratio()
            tn, td = an * an * xd, ad * ad * xn
            num, den = num * td - tn * den, den * td
    return (num > 0) - (num < 0)


def _fold(terms):
    """terms summed over its leading axis left to right, one row at a time:
    B sums for a leaf-major (d, B) stack, one for a vector (d,)."""
    total = 0.0
    for row in terms:
        total = total + row
    return total


def _criterion_load(leaf, alpha):
    """The float criterion's load of the stars stacked leaf-major in leaf
    (d, B) and alpha (d, B), or of one star's vectors (d,): the left fold of
    fl(fl(alpha_i^2) / p_i) over the leaves with p_i > 0.  stacked_verdicts'
    claim and random_psd_star's boundary centers, p1 = load, both take it
    here, so they agree bit for bit; a fold, not builtin sum, which
    compensates float sums from Python 3.12 on."""
    return _fold(alpha * alpha / np.where(leaf > 0.0, leaf, np.inf))


@dataclass(frozen=True)
class StarVerdict:
    is_psd: bool
    failed_condition: Optional[int]  # 1, 2 or 3; None when PSD


def star_psd_check(s: StarMatrix) -> StarVerdict:
    """The exact verdict on s: PSD iff all p_i >= 0, (p_i = 0 implies
    alpha_i = 0), and S = p1 - sum of alpha_i^2 / p_i over leaves with
    p_i != 0 is >= 0 exactly, with the first condition that fails; 3 means
    S < 0, which the float criterion may miss at the load."""
    claim, psd, stage = stacked_verdicts(np.array(s.p)[:, None], np.array(s.alpha)[:, None])
    if psd[0]:
        return StarVerdict(True, None)
    # the conditions decide exactly the stars whose claim fails them
    return StarVerdict(False, int(claim[0]) if stage[0] == 0 else 3)


def first_failing_block(plan: EliminationPlan, diag, edge, bounds) -> Optional[int]:
    """The first block j, vertices bounds[j] .. bounds[j + 1] - 1, whose
    matrix is not PSD exactly, or None, on entries aligned with plan:
    diagonal diag and edge[v] on (v, parent[v]).  A block is all of any
    plan, or one tree of a forest that plan.block can cut.

    One eliminate pass runs over the blocks in floats; a block it fails is
    re-checked exactly (exact_plan_psd_check), and if that block is PSD the
    pass resumes at the next.  So a False is exact, and a True is the float
    pass's.
    """
    diag, edge = np.asarray(diag, dtype=float), np.asarray(edge, dtype=float)
    # read as NaN, which fails every branch of eliminate, a +-inf entry fails
    # the float pass, and the exact re-check fails it; as a pivot, +inf
    # would be eliminated as if its row were 0
    d = np.where(np.isinf(diag), np.nan, diag).tolist()
    a = np.where(np.isinf(edge), np.nan, edge).tolist()
    start = 0
    while (v := eliminate(plan, d, a, start)) is not None:
        k = int(np.searchsorted(bounds, v, side="right")) - 1
        lo, start = int(bounds[k]), int(bounds[k + 1])
        if not exact_plan_psd_check(plan.block(lo, start), diag[lo:start], edge[lo:start]):
            return k
    return None


def plan_psd_check(plan: EliminationPlan, diag: np.ndarray, edge: np.ndarray) -> bool:
    """Leaf-elimination PSD test in O(n) on entries aligned with plan:
    first_failing_block on the one block of all vertices; a False is exact."""
    return first_failing_block(plan, diag, edge, [0, len(plan.parent)]) is None


def eliminate(plan: EliminationPlan, d: list, a: list, start: int = 0) -> Optional[int]:
    """Exact leaf elimination on lists d (diagonal, overwritten) and a
    (edges), in floats or in Fraction arithmetic: the first vertex in
    plan.order[start:] whose pivot fails, or None when the matrix is PSD.

    A root needs d >= 0; a pivot d > 0 is eliminated into its parent u, d[u]
    -= a^2 / d; a pivot d = 0 needs a zero edge; any other pivot, NaN
    included, fails.  start must be where a tree begins, so that the plan
    eliminates each tree's vertices together, as prufer_plan's forests do.
    """
    order, parent = plan.order, plan.parent
    # 0 of d's own type: a float compared with the int 0, or a Fraction
    # with 0.0, costs more per pivot
    zero = type(d[0])() if d else 0
    for v in itertools.islice(order, start, None):
        u = parent[v]
        if u < 0:
            if not d[v] >= zero:
                return v
        elif d[v] > zero:
            d[u] -= a[v] * a[v] / d[v]
        elif d[v] != zero or a[v] != zero:
            return v
    return None


def exact_plan_psd_check(plan: EliminationPlan, diag, edge) -> bool:
    """eliminate in Fraction arithmetic: whether the matrix of the floats
    diag and edge, aligned with plan, is PSD exactly.  A NaN or +-inf entry
    fails."""
    diag = np.asarray(diag, dtype=float).tolist()
    edge = np.asarray(edge, dtype=float).tolist()
    if not all(map(math.isfinite, diag + edge)):
        return False
    from fractions import Fraction

    return eliminate(plan, list(map(Fraction, diag)), list(map(Fraction, edge))) is None


def tree_psd_check_sparse(
    t: Graph,
    diag: np.ndarray,
    off: Dict[Tuple[int, int], float],
) -> bool:
    """Leaf-elimination PSD test on sparse (diag, off) entries with pattern in
    the forest t; off is keyed by (i, j), i < j, and any other key raises."""
    plan = elimination_plan(t)
    for (i, j), val in off.items():
        if i >= j:
            raise MatrixError(f"entry {(i, j)} must have i < j")
        if val != 0.0 and not t.has_edge(i, j):
            raise MatrixError(f"entry {(i, j)} violates the tree pattern")
    edge = np.zeros(t.n)
    for v, u in enumerate(plan.parent):
        if u >= 0:
            edge[v] = off.get((min(u, v), max(u, v)), 0.0)
    return plan_psd_check(plan, diag, edge)


def tree_psd_check(a: np.ndarray, t: Graph) -> bool:
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
    return plan_psd_check(plan, np.diag(a), edge)


def random_star(degree: np.ndarray, rng: np.random.Generator):
    """Stars with i.i.d. uniform entries on [-2, 2), not necessarily PSD, row
    k with degree[k] leaves, stacked as rows (p, alpha) padded to the largest
    degree w: shapes (b, w+1) and (b, w), absent leaves p_i = alpha_i = 0.
    One generator call per array."""
    pad = _absent_leaves(degree)
    p = rng.uniform(-2.0, 2.0, (len(pad), pad.shape[1] + 1))
    alpha = rng.uniform(-2.0, 2.0, pad.shape)
    p[:, 1:][pad] = alpha[pad] = 0.0
    return p, alpha


def random_psd_star(degree: np.ndarray, rng: np.random.Generator):
    """Stars that are PSD by the float criterion, row k with degree[k] >= 1
    leaves, stacked and padded as random_star's are, with one generator call
    per array.  In about 30 % of the rows a random leaf has alpha_i = p_i,
    which populates the joint kernel; in about 30 % the center diagonal sits
    exactly at the criterion's leaf load, which is where nontrivial kernels
    live.  That load is rounded, and a third to a half of the rows at it,
    by degree, lie below the exact load, so that they are not PSD exactly."""
    pad = _absent_leaves(degree)
    b = len(pad)
    p_leaf = rng.uniform(0.1, 2.0, pad.shape)
    alpha = rng.uniform(-1.0, 1.0, pad.shape) * np.sqrt(p_leaf)
    rows = np.flatnonzero(rng.uniform(size=b) < 0.3)
    leaf = rng.integers(np.asarray(degree)[rows])
    alpha[rows, leaf] = p_leaf[rows, leaf]
    p_leaf[pad] = alpha[pad] = 0.0
    # the criterion's own load, so boundary draws land on its notion of
    # equality, not one ulp below it; absent leaves add + 0.0 to it
    load = _criterion_load(p_leaf.T, alpha.T)
    at_load = rng.uniform(size=b) < 0.3
    above = load * (1.0 + rng.uniform(0.0, 1.0, b)) + rng.uniform(0.0, 0.5, b)
    return np.column_stack([np.where(at_load, load, above), p_leaf]), alpha


def _absent_leaves(degree):
    """The mask (b, w) of the absent leaves of rows with degree[k] leaves, w
    the largest degree (0 for no rows)."""
    degree = np.asarray(degree)
    return np.arange(degree.max(initial=0)) >= degree[:, None]
