"""The row-block grid scans against the row-by-row scans they replaced.

The references below are the loops that evaluated one grid row at a time.
The block scans use the same elementwise expressions in the same operand
order, so every Verdict (holds, witness and margin) must be equal, not close.
The midpoint reference evaluates f(sqrt(xy)) in the scan's Gram form; a
second check holds that form to the direct evaluation f.value(sqrt(xy)).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphpsd.constructors import build_tree_preserver_poly
from graphpsd.functions import (
    REL_SLACK,
    EntrywiseFunction,
    FunctionError,
    Verdict,
    _BLOCK_PAIRS,
    check_abs_monotonic,
    check_mult_midpoint_convex,
    check_superadditive,
    parse_function,
    power_function,
)


def reference_superadditive(f, step, bound):
    if step <= 0:
        raise FunctionError("grid step must be positive")
    count = int(math.floor(bound / step))
    if count < 2:
        raise FunctionError("grid is empty for the given step and bound")
    vals = f.value(np.arange(count + 1) * step)
    margin = math.inf
    for i in range(1, count // 2 + 1):
        js = np.arange(i, count - i + 1)
        if js.size == 0:
            continue
        lhs = vals[i + js] - vals[i] - vals[js]
        slack = -REL_SLACK * (1.0 + np.abs(vals[i + js]))
        margin = min(margin, float(np.min(lhs)))
        bad = np.nonzero(lhs < slack)[0]
        if bad.size:
            return Verdict(False, (i * step, float(js[bad[0]]) * step), margin)
    return Verdict(True, None, margin)


def gram_midpoints(f, xs):
    """f(sqrt(x_i x_j)), j >= i, as the Gram form sum_k (c_k x_i^{e_k/2}) x_j^{e_k/2}."""
    half = np.array([np.power(xs, e / 2.0) for _, e in f.terms])
    left = np.ascontiguousarray((np.array([c for c, _ in f.terms])[:, None] * half).T)
    return lambda i: np.einsum("ik,kj->ij", left[i : i + 1], half[:, i:])[0]


def direct_midpoints(f, xs):
    """f(sqrt(x_i x_j)), j >= i, evaluated at each midpoint."""
    return lambda i: f.value(np.sqrt(xs[i] * xs[i:]))


def reference_mult_midpoint_convex(f, step, bound, midpoints=gram_midpoints):
    if step <= 0:
        raise FunctionError("grid step must be positive")
    count = int(math.floor(bound / step))
    if count < 1:
        raise FunctionError("grid is empty for the given step and bound")
    xs = np.arange(count + 1) * step
    vals = f.value(xs)
    row_midpoints = midpoints(f, xs)
    margin = math.inf
    for i in range(count + 1):
        ys = xs[i:]
        mids = row_midpoints(i)
        lhs = vals[i] * vals[i:] * (1.0 + REL_SLACK) - mids * mids
        margin = min(margin, float(np.min(lhs)))
        bad = np.nonzero(lhs < 0.0)[0]
        if bad.size:
            return Verdict(False, (float(xs[i]), float(ys[bad[0]])), margin)
    return Verdict(True, None, margin)


SCANS = [(check_superadditive, reference_superadditive),
         (check_mult_midpoint_convex, reference_mult_midpoint_convex)]
GRIDS = [(1.0 / 64.0, 8.0), (0.05, 4.0), (0.01, 8.0)]

# superadditive on row 1 but not at (0.34375, 0.875), row 22 of the default
# grid, which lies in the second block
LATE_SUPERADDITIVE = "1.313*x^2, -0.941*x^4, 0.255*x^6"
# the multiplicative-midpoint-convexity witness of this one is (4.34375,
# 7.96875) on the default grid, row 278
WRONG_PASS = ("0.8226067272402589*x^2, 0.9171177984138357*x^3, "
              "-0.4675362118938841*x^4, 0.7430217329347985*x^6")

FIXED = [build_tree_preserver_poly(n) for n in (1, 2, 3)] + [
    parse_function(lit) for lit in (
        WRONG_PASS,
        LATE_SUPERADDITIVE,
        "1*x^0.5",  # the equality case of midpoint convexity
        "1*x^1, -0.9*x^2, 1*x^3",
        "1*x^2, -1*x^1",
        "1*x^1, 1*x^2, -0.1*x^3, 1*x^4, 1*x^5",
        "2*x^0, 1*x^1",
        "1*x^400",  # overflows to inf on the grid: NaN rows in both scans
    )
] + [EntrywiseFunction(((1.0, 0.5), (-0.2, 2.0)))]


def assert_same(scan, reference, f, step, bound):
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = scan(f, step, bound), reference(f, step, bound)
    assert got == want, (f.literal(), step, bound)
    assert repr(got) == repr(want)
    return got


@pytest.mark.parametrize("scan,reference", SCANS)
@pytest.mark.parametrize("step,bound", GRIDS)
@pytest.mark.parametrize("f", FIXED, ids=lambda f: f.literal()[:40])
def test_fixed_functions_match_reference(scan, reference, f, step, bound):
    assert_same(scan, reference, f, step, bound)


def first_row_pairs(row, count, scan):
    """Pairs scanned before the given row of the triangle."""
    if scan is check_superadditive:
        return sum(count - 2 * i + 1 for i in range(1, row))
    return sum(count + 1 - i for i in range(row))


@pytest.mark.parametrize("scan,reference,lit", [
    (check_superadditive, reference_superadditive, LATE_SUPERADDITIVE),
    (check_mult_midpoint_convex, reference_mult_midpoint_convex, WRONG_PASS),
])
def test_first_violation_past_the_first_block(scan, reference, lit):
    got = assert_same(scan, reference, parse_function(lit), 1.0 / 64.0, 8.0)
    assert not got.holds
    row = round(got.witness[0] * 64)
    assert first_row_pairs(row, 512, scan) > _BLOCK_PAIRS


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-3, 3).filter(lambda c: abs(c) > 1e-3),
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0]),
        ),
        min_size=1,
        max_size=5,
        unique_by=lambda t: t[1],
    ),
    st.sampled_from(GRIDS[:2]),
)
# two margins that cancel terms near 8e8 (f(x) f(y) and f(sqrt(xy))^2 at
# (7.5625, 8)) or near 1e-3, whose Gram and direct forms differ by a few ulps
@example(terms=[(0.5, 3.0), (-1.0, 1.0), (-1.0, 5.0), (-1.5, 2.0)], grid=(1.0 / 64.0, 8.0))
@example(terms=[(0.0703125, 1.5), (-2.0, 1.0), (-0.5, 0.0)], grid=(1.0 / 64.0, 8.0))
def test_power_sums_match_reference(terms, grid):
    f = EntrywiseFunction(tuple(terms))
    for scan, reference in SCANS:
        assert_same(scan, reference, f, *grid)
    assert_gram_form_agrees(f, *grid)


# The Gram and direct margins share f(x) f(y) (1 + REL_SLACK) bit for bit and
# differ only in m = f(sqrt(xy)).  Let u = 2^-53, K be the number of terms, E
# the largest exponent and M = sum_k |c_k| (xy)^(e_k/2), and let libm's pow
# be within one ulp (2u):
# - Gram form, sum_k (c_k x^(e/2)) y^(e/2): two powers and two products per
#   term, then a K-term sum: |m_gram - m| <= (K + 5) u M;
# - direct form, sum_k c_k sqrt(xy)^e: the base within 1.5u, raised to e <= E
#   gives 1.5 E u, pow's own 2u, the coefficient u, the sum (K - 1) u:
#   |m_direct - m| <= (1.5 E + K + 2) u M.
# So |m_gram - m_direct| <= (1.5 E + 2K + 7) u M, and squaring each, with one
# more rounding of at most u M^2 each, moves the subtrahend by at most
# (3E + 4K + 16) u M^2; the subtraction rounds each side's margin term by
# u |term|.  The two terms differ by at most (3E + 4K + 16) u M^2 + 2u |term|
# to first order in u; the envelope takes twice that.  Subnormal results
# round to an absolute 2^-1075 instead, so a few of those are added.  A margin of -12.9 that cancels two terms near 8e8 carries about
# 1e-7 of rounding on each side: a bound relative to the margin itself, such
# as 1e-9, lies below both sides' rounding error.
def midpoint_margin_envelope(f, step, bound, rows):
    """[lo, hi] holding every margin whose pairs each lie within the bound
    above of the direct form's, over the scan's first rows grid rows; each
    row's minimum is folded as the scans fold it, so a NaN row leaves the
    bounds as they were."""
    u = 2.0 ** -53
    rounding = (3 * max(e for _, e in f.terms) + 4 * len(f.terms) + 16) * u
    xs = np.arange(int(math.floor(bound / step)) + 1) * step
    vals = f.value(xs)
    mids = direct_midpoints(f, xs)
    lo = hi = math.inf
    for i in range(rows):
        lhs = vals[i] * vals[i:] * (1.0 + REL_SLACK) - mids(i) * mids(i)
        scale = sum(abs(c) * (xs[i] * xs[i:]) ** (e / 2.0) for c, e in f.terms)
        err = 2 * (rounding * scale * scale + 2 * u * np.abs(lhs)) + 8 * 2.0 ** -1074
        lo = min(lo, float(np.min(lhs - err)))
        hi = min(hi, float(np.min(lhs + err)))
    return lo, hi


def assert_gram_form_agrees(f, step, bound):
    # the Gram form rounds differently: the verdict and witness must be the
    # same, a finite margin may move by the rounding of the terms it cancels
    with np.errstate(over="ignore", invalid="ignore"):
        got = check_mult_midpoint_convex(f, step, bound)
        want = reference_mult_midpoint_convex(f, step, bound, midpoints=direct_midpoints)
        rows = (int(round(got.witness[0] / step)) + 1 if got.witness
                else int(math.floor(bound / step)) + 1)
        lo, hi = midpoint_margin_envelope(f, step, bound, rows)
    assert (got.holds, got.witness) == (want.holds, want.witness), (f.literal(), step, bound)
    if math.isfinite(want.margin):
        assert lo <= want.margin <= hi and lo <= got.margin <= hi, (f.literal(), step, bound)
    else:
        assert got.margin == want.margin


PERFECT_SQUARES = ["1*x^2, -2*x^1, 1*x^0", "1*x^4, -4*x^3, 6*x^2, -4*x^1, 1*x^0"]


@pytest.mark.parametrize("step,bound", GRIDS)
@pytest.mark.parametrize("f", FIXED + [parse_function(lit) for lit in PERFECT_SQUARES],
                         ids=lambda f: f.literal()[:40])
def test_gram_form_agrees_with_direct_evaluation(f, step, bound):
    assert_gram_form_agrees(f, step, bound)


def test_midpoint_scan_evaluates_f_once(monkeypatch):
    # 2049 grid points take hundreds of row blocks, and f is evaluated once,
    # on the grid: the midpoints come from the half-power table
    sizes = []
    value = EntrywiseFunction.value

    def counted(self, x):
        sizes.append(np.size(x))
        return value(self, x)

    monkeypatch.setattr(EntrywiseFunction, "value", counted)
    assert check_mult_midpoint_convex(power_function(2), step=1.0 / 256.0, bound=8.0).holds
    assert sizes == [2049]


@pytest.mark.parametrize("scan,reference", SCANS)
@pytest.mark.parametrize("step,bound", [(0.0, 8.0), (-0.1, 8.0), (1.0, 0.5)])
def test_empty_grid_raises(scan, reference, step, bound):
    f = power_function(2)
    for fn in (scan, reference):
        with pytest.raises(FunctionError):
            fn(f, step, bound)


def test_two_point_grid_superadditive_only_rejects():
    # one grid step: midpoint convexity has the pairs (0, 0), (0, h), (h, h),
    # superadditivity has no pair with x + y <= bound
    f = power_function(2)
    with pytest.raises(FunctionError):
        check_superadditive(f, 1.0, 1.5)
    assert_same(check_mult_midpoint_convex, reference_mult_midpoint_convex, f, 1.0, 1.5)


def test_midpoint_scan_memory_is_one_block():
    # 2049 grid points, 2.1 M pairs: one float64 temporary over the whole
    # triangle would take about 17 MB
    tracemalloc.start()
    try:
        verdict = check_mult_midpoint_convex(power_function(2), step=1.0 / 256.0, bound=8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds
    assert peak < 2 * 1024 * 1024


def nonnegative(f, bound=8.0):
    """preserver-test's f >= 0 scan: the order-0 forward differences."""
    return check_abs_monotonic(f, 0, step=1.0 / 64.0, bound=bound)


def test_nonnegative_scan():
    assert nonnegative(parse_function("1*x^2, -1*x^1, 0.25*x^0")).holds  # (x - 1/2)^2
    v = nonnegative(parse_function("1*x^2, -1*x^1"))  # negative on (0, 1)
    assert (v.holds, v.witness) == (False, (0, 1 / 64, 1 / 64))
    assert v.margin == (1 / 64) ** 2 - 1 / 64  # the difference at the witness
    # superadditive and midpoint convex on the grid, and still negative
    f = parse_function("-1*x^1")
    assert check_superadditive(f).holds and check_mult_midpoint_convex(f).holds
    assert nonnegative(f).witness == (0, 1 / 64, 1 / 64)
    assert nonnegative(parse_function("-1*x^0, 1*x^3")).witness == (0, 0.0, 1 / 64)
    # the scan reads the grid up to bound, not past it
    assert nonnegative(parse_function("1*x^1, -0.25*x^2"), bound=4.0).holds
    assert nonnegative(parse_function("1*x^1, -0.25*x^2"), bound=5.0).witness == \
        (0, 4.015625, 1 / 64)
