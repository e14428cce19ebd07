"""Constructive objects: coefficient thresholds for keeping superadditivity
and multiplicative convexity with negative middle terms, tree-preserver
polynomials that are not absolutely monotonic, partial sums of an entire
function with long negative-coefficient runs, and counterexample matrices."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .graphs import Graph, GraphError, find_open_triangle
from .functions import EntrywiseFunction, FunctionError


@dataclass(frozen=True)
class ThresholdReport:
    kind: str  # "superadditive" or "mult_convex"
    threshold: float
    exponents: Tuple[float, ...]
    coefficients: Tuple[float, ...]


def superadditivity_threshold(r: float, s: float, c_r: float, c_s: float) -> ThresholdReport:
    """Budget nu' = r(r-1)/(s(s-1)) * min(c_r, c_s): any single middle term
    c x^b with r < b < s and c > -nu' keeps c_r x^r + c x^b + c_s x^s
    nonnegative, increasing and superadditive on [0, oo)."""
    if not (1.0 < r < s):
        raise FunctionError(f"need 1 < r < s, got r={r}, s={s}")
    if c_r <= 0 or c_s <= 0:
        raise FunctionError("flank coefficients must be positive")
    # as two ratios, so that large r and s do not overflow
    nu = (r / s) * ((r - 1.0) / (s - 1.0)) * min(c_r, c_s)
    return ThresholdReport("superadditive", nu, (r, s), (c_r, c_s))


def mult_convexity_threshold(
    r_prime: float,
    r: float,
    s: float,
    s_prime: float,
    c_rp: float,
    c_r: float,
    c_s: float,
    c_sp: float,
) -> ThresholdReport:
    """Budget for a negative middle term in the five-term power sum
    c_rp x^r' + c_r x^r + c x^b + c_s x^s + c_sp x^s', r' < r < b < s < s'.

    The indicator psi of the sum has flanking positive terms with exponents
    r+r'-1 and s+s'-1; the superadditivity budget mechanism applied to
    x*psi, split over the four negative cross-term families, gives nu''.
    lambda = nu'' / (max coeff * (s'-r')^2) then bounds |c|.
    """
    if not (0.0 <= r_prime < r < s < s_prime):
        raise FunctionError("need 0 <= r' < r < s < s'")
    if min(c_rp, c_r, c_s, c_sp) <= 0:
        raise FunctionError("flank coefficients must be positive")
    lo_exp, hi_exp = r + r_prime, s + s_prime
    if lo_exp <= 1.0:
        raise FunctionError("need r + r' > 1 for the budget mechanism")
    lo_coef = c_r * c_rp * (r - r_prime) ** 2
    hi_coef = c_s * c_sp * (s - s_prime) ** 2
    nu2 = (lo_exp / hi_exp) * ((lo_exp - 1.0) / (hi_exp - 1.0)) * min(lo_coef, hi_coef)
    nu2 /= 4.0  # four negative cross terms share the budget
    lam = nu2 / (max(c_rp, c_r, c_s, c_sp) * (s_prime - r_prime) ** 2)
    return ThresholdReport(
        "mult_convex", lam, (r_prime, r, s, s_prime), (c_rp, c_r, c_s, c_sp)
    )


def build_tree_preserver_poly(n_neg: int) -> EntrywiseFunction:
    """Polynomial with exactly n_neg negative interior coefficients that is
    superadditive and multiplicatively midpoint-convex but not absolutely
    monotonic: block n_neg of the entire-function construction at r_n = 1.

    Exponents are 1, 2 (positive), 3..n_neg+2 (negative), n_neg+3, n_neg+4
    (positive).  Each negative coefficient gets half the tighter of the two
    budgets, split evenly over the middle block."""
    if n_neg < 1:
        raise FunctionError("need at least one negative coefficient")
    return EntrywiseFunction(tuple(_entire_block_terms(n_neg, 1)))


def _entire_block_terms(n: int, r_n: int):
    """Coefficient block n of the entire-function construction: exponents
    r_n .. r_n+n+3, positives at offsets {0, 1, n+2, n+3}, negatives at
    2..n+1, sized from the two budgets."""
    lo, hi = float(r_n + 1), float(r_n + n + 2)
    nu = superadditivity_threshold(lo, hi, 1.0, 1.0).threshold
    lam = mult_convexity_threshold(
        float(r_n), lo, hi, float(r_n + n + 3), 1.0, 1.0, 1.0, 1.0
    ).threshold
    c_neg = -0.5 * min(nu, lam, 2.0) / n
    terms = [(1.0, float(r_n)), (1.0, lo)]
    terms += [(c_neg, float(r_n + k)) for k in range(2, n + 2)]
    terms += [(1.0, hi), (1.0, float(r_n + n + 3))]
    return terms


def max_entire_blocks() -> int:
    """Largest block count before the factorial scaling underflows in floats."""
    n, r_n = 0, 0
    while True:
        n += 1
        r_n += n + 4
        if math.factorial(r_n + n + 3) > sys.float_info.max:
            return n - 1


def build_entire_function_partial(n_blocks: int) -> EntrywiseFunction:
    """Partial sum of an entire preserver whose coefficient sequence contains
    a run of at least n_blocks consecutive negatives.

    Block n spans degrees r_n..r_n+n+3 with r_n = sum_{k<=n} (k+4) and is
    scaled by 1/(r_n+n+3)!."""
    if n_blocks < 1:
        raise FunctionError("need at least one block")
    limit = max_entire_blocks()
    if n_blocks > limit:
        raise FunctionError(
            f"factorial scaling underflows beyond {limit} blocks (requested {n_blocks})"
        )
    terms = []
    r_n = 0
    for n in range(1, n_blocks + 1):
        r_n += n + 4
        scale = 1.0 / float(math.factorial(r_n + n + 3))
        terms += [(c * scale, e) for c, e in _entire_block_terms(n, r_n)]
    return EntrywiseFunction(tuple(terms))


def longest_negative_run(f: EntrywiseFunction) -> int:
    """Longest run of consecutive integer degrees with negative coefficients."""
    coefs = {e: c for c, e in f.terms}
    if any(not float(e).is_integer() for e in coefs):
        raise FunctionError("coefficient runs need integer exponents")
    best = run = 0
    top = int(max(coefs)) if coefs else 0
    for k in range(top + 1):
        if coefs.get(float(k), 0.0) < 0.0:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best


def superadditivity_counterexample(g: Graph, x: float, y: float) -> np.ndarray:
    """B(x+y, x, y) = [[x+y, x, y], [x, x, 0], [y, 0, y]] on the first open
    triangle (i; j, k) of g (find_open_triangle), zero elsewhere.

    For x, y >= 0, B = x (e_i + e_j)(e_i + e_j)^T + y (e_i + e_k)(e_i + e_k)^T
    is PSD with its pattern in g, and f[B] is PSD only if
    f(x+y) >= f(x) + f(y), the pivot left at i once j and k are eliminated.
    So a pair where superadditivity fails gives a PSD matrix that f does not
    keep PSD: x = y = 0 does when f(0) > 0."""
    tri = find_open_triangle(g)
    if tri is None:
        raise GraphError("graph has no open triangle")
    i, j, k = tri
    a = np.zeros((g.n, g.n))
    a[i, i] = x + y
    a[i, j] = a[j, i] = a[j, j] = x
    a[i, k] = a[k, i] = a[k, k] = y
    return a
