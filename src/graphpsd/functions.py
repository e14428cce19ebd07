"""Finite power sums sum_i c_i x^{e_i} on [0, oo) and the predicates used on
them over [0, R], R the bound each takes (the CLI's --range): nonnegativity,
superadditivity, multiplicative midpoint convexity and absolute monotonicity
via forward differences.

decide_tree_conditions decides the first three exactly, in integers, for
power sums with nonnegative coefficients, for f(0) != 0, for monomials and
for integer power sums; its "holds" is a proof and its witness a checked
counterexample.
The grid checks are the fallback, and they only falsify: "holds" means no
violation was found at the given resolution.  They carry a 1e-12 relative
slack so rounding noise is not reported as a violation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

DEFAULT_GRID_STEP = 1.0 / 64.0
DEFAULT_GRID_BOUND = 8.0
REL_SLACK = 1e-12


class FunctionError(ValueError):
    pass


class DomainError(FunctionError):
    pass


@dataclass(frozen=True)
class EntrywiseFunction:
    """sum of terms c * x^e with distinct exponents e >= 0, on [0, oo).

    Uses the convention 0**0 = 1.  Exact k-th derivatives come from the
    falling-factorial rule on each term.
    """

    terms: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        cleaned = []
        for c, e in self.terms:
            c, e = float(c), float(e)
            if not (math.isfinite(c) and math.isfinite(e)):
                raise FunctionError(f"term {c!r}*x^{e!r} is not finite")
            if c == 0.0:
                continue
            if e < 0:
                raise FunctionError(f"exponent {e} must be nonnegative")
            cleaned.append((c, e))
        cleaned.sort(key=lambda t: t[1])
        for (_, e1), (_, e2) in zip(cleaned, cleaned[1:]):
            if e1 == e2:
                raise FunctionError(f"duplicate exponent {e1}")
        object.__setattr__(self, "terms", tuple(cleaned))

    def _check_domain(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise DomainError("argument outside [0, oo)")
        return x

    def value(self, x):
        """Vectorized evaluation; scalar in, scalar out."""
        x = self._check_domain(x)
        out = np.zeros_like(x, dtype=float)
        # an overflow gives inf (inf - inf gives NaN), which callers read
        with np.errstate(over="ignore", invalid="ignore"):
            for c, e in self.terms:
                out += c * np.power(x, e)  # np.power(0., 0.) == 1.
        return float(out) if out.ndim == 0 else out

    def __call__(self, x):
        return self.value(x)

    def deriv(self, x, k: int):
        """Exact k-th derivative; k = 0 is plain evaluation."""
        if k < 0:
            raise FunctionError("derivative order must be nonnegative")
        if k == 0:
            return self.value(x)
        x = self._check_domain(x)
        at_zero = np.any(x == 0.0)
        out = np.zeros_like(x, dtype=float)
        for c, e in self.terms:
            falling = 1.0
            for j in range(k):
                falling *= e - j
            if falling == 0.0:
                continue
            if e - k < 0 and at_zero:
                raise DomainError(f"derivative of order {k} singular at 0 for exponent {e}")
            with np.errstate(divide="ignore"):
                out += c * falling * np.power(x, e - k)
        return float(out) if out.ndim == 0 else out

    def literal(self) -> str:
        return ", ".join(f"{c!r}*x^{e!r}" for c, e in self.terms)


# a decimal number as float() reads it, without "inf", "nan" or underscores
_NUMBER = r"(?:\d+\.?\d*|\.\d+)"
_TERM_RE = re.compile(rf"^\s*([+-]?{_NUMBER}(?:[eE][+-]?\d+)?)\s*\*\s*x\s*\^\s*({_NUMBER})\s*$")


def parse_function(text: str) -> EntrywiseFunction:
    """Parse the CLI literal syntax: comma-separated "coef*x^exp" terms."""
    terms = []
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        m = _TERM_RE.match(chunk)
        if not m:
            raise FunctionError(f"cannot parse term {chunk!r}")
        terms.append((float(m.group(1)), float(m.group(2))))
    if not terms:
        raise FunctionError("empty function literal")
    return EntrywiseFunction(tuple(terms))


def power_function(exponent: float) -> EntrywiseFunction:
    return EntrywiseFunction(((1.0, float(exponent)),))


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Optional[tuple]
    margin: float


_MAX_GRID_POINTS = np.iinfo(np.intp).max // np.dtype(float).itemsize
_TOO_MANY_POINTS = "grid of step {!r} up to {!r} has too many points"


def _grid_count(step: float, bound: float, min_count: int) -> int:
    """Index of the last grid point h * count <= bound."""
    if step <= 0:
        raise FunctionError("grid step must be positive")
    quotient = bound / step
    # np.arange refuses a grid whose size in bytes overflows intp
    if not (math.isfinite(quotient) and quotient < _MAX_GRID_POINTS):
        raise FunctionError(_TOO_MANY_POINTS.format(step, bound))
    count = int(math.floor(quotient))
    if count < min_count:
        raise FunctionError("grid is empty for the given step and bound")
    return count


def _grid_values(f: EntrywiseFunction, step: float, bound: float, min_count: int):
    """The grid {0, h, ..., count * h} and f on it, or too many points to allocate."""
    try:
        xs = np.arange(_grid_count(step, bound, min_count) + 1) * step
        return xs, f.value(xs)
    except MemoryError:
        raise FunctionError(_TOO_MANY_POINTS.format(step, bound)) from None


# entries per row block of a triangle scan: big enough that per-block numpy
# overhead is small, small enough that the temporaries stay in cache
_BLOCK_PAIRS = 8192


def _scan_rows(first, stops, block):
    """Scan the pairs (i, j), i = first, first + 1, ... and
    i <= j < stops[i - first], in row-major order.

    Every row must be nonempty and stops must not increase, so a block of
    whole rows starting at row r lies in the rectangle r <= j < stops[r - first].
    Rows are taken in blocks whose rectangle holds at most _BLOCK_PAIRS
    entries (a longer row makes a block alone).  block(rows, cols) maps the
    rectangle's row and column slices to fresh 2-D arrays (lhs, bad), which
    the walker masks in place: j < i only occurs in the first m - 1 columns
    of an m-row block, and j >= stop only past the last row's stop.

    Returns (margin, witness): margin is the least row minimum of lhs over
    every row up to and including the one holding the first bad pair, and
    witness is that pair (i, j), or None.  A row whose minimum is NaN leaves
    the margin as it was, as a row-by-row min() would.
    """
    margin = math.inf
    k = 0
    while k < stops.size:
        lo, hi = first + k, int(stops[k])
        m = min(stops.size - k, max(1, _BLOCK_PAIRS // (hi - lo)))
        lhs, bad = block(slice(lo, lo + m), slice(lo, hi))
        i, stop = np.arange(lo, lo + m)[:, None], stops[k : k + m, None]
        for a, b in ((lo, min(lo + m - 1, hi)), (int(stops[k + m - 1]), hi)):
            if a < b:
                j = np.arange(a, b)
                outside = (j < i) | (j >= stop)
                np.putmask(lhs[:, a - lo : b - lo], outside, math.inf)
                np.putmask(bad[:, a - lo : b - lo], outside, False)
        row_min = lhs.min(axis=1).tolist()
        if bad.any():
            r, c = divmod(int(bad.argmax()), hi - lo)
            return min(margin, *row_min[: r + 1]), (lo + r, lo + c)
        margin = min(margin, *row_min)
        k += m
    return margin, None


def check_superadditive(
    f: EntrywiseFunction,
    step: float = DEFAULT_GRID_STEP,
    bound: float = DEFAULT_GRID_BOUND,
) -> Verdict:
    """Scan f(x+y) - f(x) - f(y) over the grid {h, 2h, ...} with x + y <= bound.

    The witness, when present, is the lexicographically smallest violating
    pair (x, y)."""
    xs, vals = _grid_values(f, step, bound, 2)
    count = xs.size - 1
    # sums[i, j] = vals[i + j], a view; past the grid it reads zeros, which
    # fall in a block's masked entries
    sums = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([vals, np.zeros(count // 2)]), count + 1)

    def block(rows, cols):
        total = sums[rows, cols]
        lhs = total - vals[rows, None] - vals[cols]
        return lhs, lhs < -REL_SLACK * (1.0 + np.abs(total))

    # x ascending, then y ascending: the first hit is the lexicographically
    # smallest violating pair
    with np.errstate(over="ignore", invalid="ignore"):
        margin, hit = _scan_rows(1, count + 1 - np.arange(1, count // 2 + 1), block)
    if hit is None:
        return Verdict(True, None, margin)
    return Verdict(False, (hit[0] * step, float(hit[1]) * step), margin)


def check_mult_midpoint_convex(
    f: EntrywiseFunction,
    step: float = DEFAULT_GRID_STEP,
    bound: float = DEFAULT_GRID_BOUND,
) -> Verdict:
    """Grid check of f(sqrt(xy))^2 <= f(x) f(y) on {0, h, 2h, ...} up to bound.

    For x, y >= 0, f(sqrt(xy)) = sum_k c_k x^{e_k/2} y^{e_k/2}, and 0^0 = 1
    keeps f(0) = c_0.  So the midpoint values on the grid form the Gram
    matrix S diag(c) S^T with S[i, k] = x_i^{e_k/2}: one half-power table
    per scan and one (rows x K) by (K x cols) product per row block, not one
    evaluation of f per pair.  The witness, when present, is the
    lexicographically smallest violating pair (x, y) with x <= y."""
    xs, vals = _grid_values(f, step, bound, 1)

    def block(rows, cols):
        # einsum sums over k in the same order whatever the block's shape,
        # so an entry does not depend on the block it falls in
        mids = np.einsum("ik,kj->ij", left[rows], half[:, cols])
        lhs = vals[rows, None] * vals[cols] * (1.0 + REL_SLACK) - mids * mids
        return lhs, lhs < 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        half = np.array([np.power(xs, e / 2.0) for _, e in f.terms])  # (K, n)
        left = np.ascontiguousarray((np.array([c for c, _ in f.terms])[:, None] * half).T)
        margin, hit = _scan_rows(0, np.full(xs.size, xs.size), block)
    if hit is None:
        return Verdict(True, None, margin)
    return Verdict(False, (float(xs[hit[0]]), float(xs[hit[1]])), margin)


def check_abs_monotonic(
    f: EntrywiseFunction,
    n_max: int,
    step: float = DEFAULT_GRID_STEP,
    bound: float = DEFAULT_GRID_BOUND,
) -> Verdict:
    """All forward differences of order 0..n_max nonnegative on the grid.

    Reports the first violating (n, x, h); scan is by ascending order, then
    ascending grid point, with h fixed at the grid step.  The margin of a
    violation is its forward difference, finite and negative (a violation
    needs a finite scale); a pass has the least difference of the orders
    free of NaN as margin."""
    xs, vals = _grid_values(f, step, bound, 1)
    margin = math.inf
    for n in range(n_max + 1):
        length = xs.size - n
        if length <= 0:
            break
        diff = np.zeros(length)
        scale = np.zeros(length)
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(n + 1):
                coef = (-1) ** (n - m) * math.comb(n, m)
                window = vals[m : m + length]
                diff += coef * window
                scale += abs(coef) * np.abs(window)
        bad = np.nonzero(diff < -REL_SLACK * (1.0 + scale))[0]
        if bad.size:
            return Verdict(False, (n, float(bad[0] * step), step), float(diff[bad[0]]))
        margin = min(margin, float(np.min(diff)))
    return Verdict(True, None, margin)


@dataclass(frozen=True)
class ExactVerdict:
    """What decide_tree_conditions decided on [0, bound].  failed is None when
    f is nonnegative, superadditive and multiplicatively midpoint-convex
    there; otherwise it names the condition that fails at witness, a tuple of
    floats checked in exact arithmetic: (x,) with f(x) < 0 ("nonnegative"),
    (x, y) with f(x + y) < f(x) + f(y) and x + y exact ("superadditive"), or
    (x, y) with f(sqrt(xy))^2 > f(x) f(y) and sqrt(xy) exact ("mult_convex");
    a condition before it may be undecided rather than proved."""

    failed: Optional[str]
    witness: tuple = ()


def decide_tree_conditions(f: EntrywiseFunction,
                           bound: float = DEFAULT_GRID_BOUND) -> Optional[ExactVerdict]:
    """Decide f >= 0, superadditivity and multiplicative midpoint convexity
    on [0, bound] exactly, or return None (undecided).  bound is R, the one
    bound on the entries (the CLI's --range), read as the float it is.

    Nonnegative coefficients on exponents >= 1 give all three, for any real
    exponents.  Three rules refute f from the sign of a coefficient or the
    size of an exponent: f(0) < 0 fails f >= 0 at 0; f(0) > 0 fails
    superadditivity at (0, 0), since f(0) < 2 f(0); and a monomial c x^a
    fails f >= 0 at a power of two x if c < 0, or superadditivity at (x, x)
    if c > 0 and a < 1, since (2x)^a = 2^a x^a < 2 x^a.  Otherwise f must be
    an integer power sum with f(0) = 0 and degree at most
    _exact.EXACT_MAX_DEGREE.  Then f > 0 on (0, bound], the
    superadditivity polynomial H(w, t) >= 0 and the log-convexity polynomial
    P(x) >= 0 are read off integer Bernstein coefficients, with midpoint
    subdivision; a box where every coefficient is negative gives the
    witness; the first witness is final.  A zero of f in (0, bound] leaves
    f > 0 undecided, and with it midpoint convexity, which P >= 0 shows only
    for f > 0; superadditivity is still decided.  README gives the proofs."""
    if all(c >= 0.0 and e >= 1.0 for c, e in f.terms):
        return ExactVerdict(None)
    c, a = f.terms[0]  # terms are sorted by exponent: a = 0 is the constant term
    if a == 0.0:
        return ExactVerdict("nonnegative", (0.0,)) if c < 0.0 else \
            ExactVerdict("superadditive", (0.0, 0.0))
    if len(f.terms) == 1:
        # x = 1 where bound allows, else the largest power of two that fits:
        # exact, and so is x + x
        top = math.frexp(bound)[1]
        if c < 0.0:
            return ExactVerdict("nonnegative", (math.ldexp(1.0, min(0, top - 1)),))
        x = math.ldexp(1.0, min(0, top - 2))  # a < 1 here, by the first rule
        return ExactVerdict("superadditive", (x, x)) if x > 0.0 else None
    # imported on first use, as fractions is elsewhere: start-up, and every
    # command but preserver-test, does not load the rules
    from . import _exact
    coefs = _exact.integer_coefficients(f)
    if coefs is None:
        return None
    proved = True
    for name, decide in (("nonnegative", _exact.positive),
                         ("superadditive", _exact.superadditive),
                         ("mult_convex", _exact.mult_convex)):
        if not proved and name == "mult_convex":
            break  # the midpoint rule needs f > 0 on (0, bound], which the first one proves
        found = decide(coefs, bound)
        if found is None:
            proved = False  # the superadditivity rule needs no sign of f
        elif found is not True:
            return ExactVerdict(name, found)
    return ExactVerdict(None) if proved else None
