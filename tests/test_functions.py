import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphpsd.functions import (
    DomainError,
    EntrywiseFunction,
    FunctionError,
    check_abs_monotonic,
    check_mult_midpoint_convex,
    check_superadditive,
    parse_function,
    power_function,
)
from oracles import check_psi_nonnegative, forward_difference, psi


def psi_direct(f, x):
    """x (f'' f - f'^2) + f f', the defining expression for the indicator
    that psi expands over exponent pairs: the oracle for psi."""
    if x <= 0:
        raise FunctionError("psi is defined for x > 0")
    v, d1, d2 = f.value(x), f.deriv(x, 1), f.deriv(x, 2)
    return x * (d2 * v - d1 * d1) + v * d1


THEOREM_B_POLY = parse_function("1*x^1, 1*x^2, -0.1*x^3, 1*x^4, 1*x^5")


def test_eval_and_derivatives():
    assert power_function(2)(3.0) == 9.0
    assert math.isclose(THEOREM_B_POLY.deriv(0.0, 3), -0.6)
    assert math.isclose(power_function(1.5).deriv(4.0, 1), 3.0)


def test_zero_to_zero_convention():
    # 0^0 = 1: a constant term survives at x = 0
    f = parse_function("2*x^0, 1*x^1")
    assert f(0.0) == 2.0


def test_singular_derivative_at_zero_rejected():
    with pytest.raises(DomainError):
        power_function(1.5).deriv(0.0, 2)


def test_parse_rejects_duplicates():
    with pytest.raises(FunctionError):
        parse_function("1*x^2, 2*x^2")


def test_literal_roundtrip():
    f = parse_function("1*x^1, -0.25*x^2.5")
    assert parse_function(f.literal()).terms == f.terms


def test_superadditive_square():
    assert check_superadditive(power_function(2), step=0.05, bound=4.0).holds


def test_superadditive_sqrt_witness():
    v = check_superadditive(power_function(0.5))
    assert not v.holds
    x, y = v.witness
    assert math.sqrt(x + y) < math.sqrt(x) + math.sqrt(y)
    # lexicographically smallest grid violation: the very first point
    assert x == 1.0 / 64.0 and y == 1.0 / 64.0


def test_superadditive_theorem_b_poly():
    assert check_superadditive(THEOREM_B_POLY).holds


def test_mult_convex_powers_hold():
    for a in (0.0, 0.5, 1.0, 2.7):
        assert check_mult_midpoint_convex(power_function(a)).holds


def test_mult_convex_witness_location():
    v = check_mult_midpoint_convex(parse_function("1*x^2, -0.1*x^3, 1*x^4"))
    assert not v.holds
    x, y = v.witness
    # known failure region near (0.01, 0.04); grid is 1/64
    assert x < 0.2 and y < 0.2 and x != y


def test_mult_convex_one_plus_x():
    assert check_mult_midpoint_convex(parse_function("1*x^0, 1*x^1")).holds


def test_psi_single_term_vanishes():
    for a in (0.5, 1.0, 3.0):
        f = power_function(a)
        for x in (0.1, 1.0, 2.0):
            assert psi(f, x) == 0.0


def test_psi_pair_value():
    f = parse_function("1*x^1, 1*x^3")
    assert math.isclose(psi(f, 1.0), 4.0)
    assert math.isclose(psi_direct(f, 1.0), 4.0)


def test_psi_theorem_b_expansion():
    # expected: x^2 - 0.4x^3 + 8.9x^4 + 20x^5 + 8.9x^6 - 0.4x^7 + x^8
    coef = {2: 1.0, 3: -0.4, 4: 8.9, 5: 20.0, 6: 8.9, 7: -0.4, 8: 1.0}
    for x in np.linspace(0.05, 10.0, 50):
        expected = sum(c * x ** e for e, c in coef.items())
        assert math.isclose(psi(THEOREM_B_POLY, x), expected, rel_tol=1e-10)
        assert expected >= 0.0
    assert check_psi_nonnegative(THEOREM_B_POLY, bound=10.0).holds


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.floats(-3, 3).filter(lambda c: abs(c) > 1e-3),
            st.integers(0, 6),
        ),
        min_size=1,
        max_size=5,
        unique_by=lambda t: t[1],
    ),
    st.floats(0.05, 4.0),
)
def test_psi_pair_vs_direct(terms, x):
    f = EntrywiseFunction(tuple((c, float(e)) for c, e in terms))
    a, b = psi(f, x), psi_direct(f, x)
    # the direct formula cancels terms of this size, so scale the tolerance
    scale = 1.0 + abs(x * f.deriv(x, 1) ** 2) + abs(f(x) * f.deriv(x, 1))
    assert abs(a - b) <= 1e-10 * scale


def test_forward_difference_values():
    assert forward_difference(power_function(2), 0.0, 1.0, 2) == 2.0
    assert forward_difference(power_function(3), 0.0, 1.0, 3) == 6.0
    d3 = forward_difference(THEOREM_B_POLY, 0.0, 0.01, 3)
    # h^3 f'''(0) = -6e-7 is the leading term; higher derivatives pull the
    # exact difference up to -2.25e-7
    assert d3 <= -1e-7
    assert math.isclose(d3, -2.25e-7, rel_tol=1e-6)


def test_abs_monotonic_truncated_exp():
    assert check_abs_monotonic(parse_function("1*x^0, 1*x^1, 0.5*x^2"), n_max=5).holds


def test_abs_monotonic_theorem_b_fails_order3():
    v = check_abs_monotonic(THEOREM_B_POLY, n_max=5)
    assert not v.holds
    n, x, h = v.witness
    assert n == 3 and x < 0.25


def test_abs_monotonic_power_3_2_fails():
    v = check_abs_monotonic(power_function(1.5), n_max=4)
    assert not v.holds
    assert v.witness[0] == 3
