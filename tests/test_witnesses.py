import json
import math
import warnings
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from graphpsd.functions import parse_function, power_function
from graphpsd.graphs import complete_graph, path_graph, random_tree, star_graph
from graphpsd.matrices import hadamard_power, quadratic_form
from graphpsd.star_tree import StarMatrix, random_psd_star
from graphpsd.witnesses import (
    POSITIVITY_TOL,
    WitnessError,
    _distinct,
    derivative_sign_estimate,
    k_lower_bound,
    nk_membership,
    nk_residuals,
    star_witnesses,
    vandermonde_witnesses,
)
from oracles import eta_bound, kernel_stability_loop, star_sample, witness_search

K2_EDGE = np.array([[1.0, 1.5], [1.5, 2.0]])


def test_nk_membership_k2():
    beta = np.array([1.0, -1.0])
    assert nk_membership(K2_EDGE, beta, 2)
    resid, margin = nk_residuals(K2_EDGE, beta, 2)
    assert resid <= 1e-12
    assert math.isclose(margin * float(beta @ beta), 0.5)


def test_nk_membership_k1():
    a = np.array([[1.0, 1.25], [1.25, 4.0]])
    beta = np.array([1.0, -1.0])
    assert nk_membership(a, beta, 1)
    assert quadratic_form(a, beta) == 2.5


def test_nk_membership_zero_vector_false():
    for k in range(4):
        assert not nk_membership(K2_EDGE, np.zeros(2), k)


def test_eta_bound():
    b211 = np.array([[2.0, 1, 1], [1, 1, 0], [1, 0, 1]])
    assert eta_bound(b211) == 2
    assert eta_bound(np.zeros((3, 3))) == 0
    assert eta_bound(np.array([[1.0, 2], [2, 3]])) == 3


def test_vandermonde_two_points():
    ws = vandermonde_witnesses((1.0, 2.0))
    assert [w.k for w in ws.witnesses] == [1]
    assert ws.recertify()
    # the classical hand witness
    assert nk_membership(ws.matrix, np.array([1.0, -1.0]), 1)
    assert quadratic_form(ws.matrix, np.array([1.0, -1.0])) == 1.0


def test_vandermonde_three_points():
    ws = vandermonde_witnesses((1.0, 2.0, 3.0))
    assert [w.k for w in ws.witnesses] == [1, 2]
    beta2 = np.array([1.0, -2.0, 1.0])
    assert nk_membership(ws.matrix, beta2, 2)
    assert quadratic_form(hadamard_power(ws.matrix, 2), beta2) == 4.0
    # no order-3 witness: eta counts columns of powers that already span
    assert witness_search(ws.matrix, 3, trials=2000, seed=0) is None


def test_vandermonde_rejects_bad_alphas():
    with pytest.raises(WitnessError):
        vandermonde_witnesses((1.0, 1.0, 2.0))
    with pytest.raises(WitnessError):
        vandermonde_witnesses((0.0, 1.0))


@pytest.mark.parametrize("seed", range(20))
def test_vandermonde_random_draws(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    alphas = rng.uniform(-3, 3, size=n)
    while np.any(np.abs(alphas) < 0.05) or np.unique(alphas).size != n:
        alphas = rng.uniform(-3, 3, size=n)
    ws = vandermonde_witnesses(alphas)
    assert len(ws.witnesses) == n - 1
    assert all(w.kernel_residual <= 1e-10 for w in ws.witnesses)
    assert all(w.positivity_margin > 1e-8 for w in ws.witnesses)


def test_star_witnesses_d2_literal():
    ws = star_witnesses(2, (5.0, 1.0, 2.0), 3)
    assert np.array_equal(ws.matrix, [[5, 1, 2], [1, 0, 0], [2, 0, 0]])
    assert [w.k for w in ws.witnesses] == [1, 2]
    # hand-checked top-order witness
    beta2 = np.array([1.0, 1.5, -2.0])
    assert quadratic_form(hadamard_power(ws.matrix, 0), beta2) == 0.0
    assert quadratic_form(ws.matrix, beta2) == 0.0
    assert quadratic_form(hadamard_power(ws.matrix, 2), beta2) == 12.0
    assert nk_membership(ws.matrix, beta2, 2)


def test_star_witnesses_d5():
    ws = star_witnesses(5, (11.0, 1.0, 2.0, 3.0, 4.0, 5.0), 6)
    assert [w.k for w in ws.witnesses] == [1, 2, 3, 4, 5]
    assert all(w.kernel_residual <= 1e-10 for w in ws.witnesses)
    assert all(w.positivity_margin > 1e-8 for w in ws.witnesses)


def test_star_witnesses_no_dominance_below_top():
    # center alpha NOT dominant: orders 1..d-1 still work
    ws = star_witnesses(3, (1.0, 5.0, 2.0, 3.0), 4, max_order=2)
    assert [w.k for w in ws.witnesses] == [1, 2]


def test_star_witnesses_dominance_failure_names_final_step():
    # (2-5)(2-1) < 0 puts the top power vector on the wrong side of the span
    with pytest.raises(WitnessError, match="center alpha"):
        star_witnesses(2, (2.0, 5.0, 1.0), 3)


def test_star_witnesses_embedding():
    ws = star_witnesses(2, (5.0, 1.0, 2.0), 5, vertices=[3, 0, 4])
    assert ws.matrix[3, 3] == 5.0 and ws.matrix[3, 0] == 1.0 and ws.matrix[3, 4] == 2.0
    assert ws.recertify()


def test_star_set_recertifies_from_its_closed_form():
    ws = star_witnesses(5, (11.0, 1.0, 2.0, 3.0, 4.0, 5.0), 8, vertices=[2, 0, 1, 4, 6, 7])
    assert ws.center == 2 and ws.factor.tolist() == [1, 2, 11, 0, 3, 0, 4, 5]
    assert ws.recertify()
    # the closed form gives the forms of the matrix: each witness also
    # passes the dense check
    assert all(nk_membership(ws.matrix, np.array(w.beta), w.k) for w in ws.witnesses)
    # a beta moved off the kernel of a lower power fails recertification
    records = list(ws.witnesses)
    records[2] = replace(records[2], beta=tuple(b + 1e-3 for b in records[2].beta))
    assert not replace(ws, witnesses=tuple(records)).recertify()


def test_star_witnesses_past_float_range():
    # degree 199 with the alphas of k_lower_bound: A^(k) reaches 399^199,
    # far past float range, and no numpy warning is raised on the way
    d = 199
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ws = star_witnesses(d, [2.0 * d + 1.0] + [float(i) for i in range(1, d + 1)], d + 1)
        assert ws.recertify()
        text = ws.to_json()
    assert [w.k for w in ws.witnesses] == list(range(1, d + 1))
    assert all(w.kernel_residual <= 1e-10 for w in ws.witnesses)
    # a margin beyond float range is its decimal string; the others are floats
    margins = [Decimal(w.positivity_margin) if isinstance(w.positivity_margin, str)
               else w.positivity_margin for w in ws.witnesses]
    assert all(m > POSITIVITY_TOL for m in margins)
    assert max(margins) > Decimal("1e308") and min(margins) < 1e308
    assert "Infinity" not in text and "NaN" not in text


@pytest.mark.parametrize("values", [
    [1.0, 1.0, 2.0], [2.0, 1.0, 2.0], [3.0, 1.0, 2.0], [np.nan, np.nan, 1.0],
    [np.nan, 1.0, 2.0], [np.inf, 1.0, np.inf], [-np.inf, np.inf], [-0.0, 0.0], [5.0],
    [4, 0, 2, 1], [4, 0, 2, 4], [-1, -1],
])
def test_distinctness_counts_as_np_unique(values):
    # the checks of vandermonde_witnesses and star_witnesses sort instead of
    # calling np.unique, which loads numpy.ma; they decide as it does
    v = np.array(values)
    assert _distinct(v) == (np.unique(v).size == v.size)


def test_star_witnesses_reject_repeats():
    with pytest.raises(WitnessError, match="alphas must be distinct"):
        star_witnesses(2, (5.0, 1.0, 1.0), 3)
    with pytest.raises(WitnessError, match="vertices must be d\\+1 distinct"):
        star_witnesses(2, (5.0, 1.0, 2.0), 4, vertices=[0, 1, 1])


def test_witness_set_json_roundtrip():
    ws = star_witnesses(2, (5.0, 1.0, 2.0), 3)
    payload = json.loads(ws.to_json())
    assert {w["k"] for w in payload["witnesses"]} == {1, 2}
    assert "matrix" in payload


def test_k_lower_bound_k2():
    rep = k_lower_bound(path_graph(2))
    assert rep.lower == 2 and rep.upper == 3
    assert all(ws.recertify() for ws in rep.witness_sets)
    # eta bound excludes order >= 3 for both certifying matrices
    for ws in rep.witness_sets[:2]:
        assert eta_bound(ws.matrix) == 3
        assert witness_search(ws.matrix, 3, trials=2000, seed=1) is None


def test_k_lower_bound_star6():
    rep = k_lower_bound(star_graph(6))
    assert rep.lower == 5
    assert any(len(ws.witnesses) == 5 for ws in rep.witness_sets)


def test_k_lower_bound_path4_internal_vertex():
    rep = k_lower_bound(path_graph(4))
    assert rep.lower == 2
    star_set = rep.witness_sets[-1]
    # the star witnesses sit at an internal (degree-2) vertex
    center = int(np.argmax(np.abs(np.diag(star_set.matrix))))
    assert center in (1, 2)
    assert star_set.recertify()


def test_k_lower_bound_complete4():
    assert k_lower_bound(complete_graph(4)).lower == 3


@pytest.mark.parametrize("g, delta", [
    (star_graph(5), 4), (path_graph(5), 2), (complete_graph(6), 5), (path_graph(2), 1),
])
def test_k_lower_bound_is_max_two_and_max_degree(g, delta):
    assert k_lower_bound(g).lower == max(2, delta)


def test_k_lower_bound_star_sits_at_first_max_degree_vertex():
    # reference: degrees and leaves counted from the edge set
    for seed in range(30):
        g = random_tree(3 + seed, seed)
        deg = [sum(1 for e in g.edges if w in e) for w in range(g.n)]
        center = deg.index(max(deg))
        leaves = sorted(w for e in g.edges if center in e for w in e if w != center)
        delta = len(leaves)
        al = [2.0 * delta + 1.0] + [float(i) for i in range(1, delta + 1)]
        want = star_witnesses(delta, al, g.n, vertices=[center] + leaves)
        got = k_lower_bound(g).witness_sets[-1]
        assert np.array_equal(got.matrix, want.matrix)


def test_star_kernel_stability_examples():
    # trivial joint kernel: vacuously stable
    assert kernel_stability_loop(StarMatrix((2.0, 1.0, 1.0), (1.0, 1.0)), 6)
    # nontrivial joint kernel (leaf tied to center at equality)
    assert kernel_stability_loop(StarMatrix((1.0, 1.0, 1.0), (1.0, 0.0)), 8)


@pytest.mark.parametrize("seed", range(50))
def test_star_kernel_stability_random(seed):
    s = star_sample(random_psd_star, int(seed % 8) + 1, np.random.default_rng(seed))
    assert kernel_stability_loop(s, 8)


def test_rank_one_factor_certifies_what_the_dense_forms_cannot():
    # beta^T A^(19) beta of the order-19 witness cancels to a negative margin
    # in floats; with the set's factor, nk_membership takes the closed form
    ws = vandermonde_witnesses([float(i) for i in range(1, 21)])
    beta = np.array(ws.witnesses[-1].beta)
    assert ws.witnesses[-1].k == 19 and ws.recertify()
    assert nk_membership(ws.matrix, beta, 19, ws.factor)


def test_derivative_sign_takes_the_rank_one_factor():
    ws = vandermonde_witnesses([float(i) for i in range(1, 21)])
    w = ws.witnesses[-1]
    f = power_function(20)
    _, analytic = derivative_sign_estimate(f, 1.0, 19, (ws.matrix, np.array(w.beta), ws.factor),
                                           [1e-3, 5e-4])
    # f^(19)(1) = 20!, and Q_{A^(19)}(beta) = (beta . a^(19))^2 exactly
    exact = math.factorial(20) * sum(Fraction(b) * i ** 19 for b, i in zip(w.beta, range(1, 21))) ** 2
    assert abs(Fraction(analytic) / exact - 1) <= 1e-9


def test_derivative_sign_exact_case():
    f = power_function(2)
    beta = np.array([1.0, -1.0])
    # t = 1 and 0.5 make every intermediate an exact binary float
    limit, analytic = derivative_sign_estimate(f, 1.0, 2, (K2_EDGE, beta), [1.0, 0.5])
    assert limit == 1.0 and analytic == 1.0


def test_derivative_sign_cubic():
    f = power_function(3)
    beta = np.array([1.0, -1.0])
    ts = [0.4 / 2 ** i for i in range(6)]
    limit, analytic = derivative_sign_estimate(f, 1.0, 2, (K2_EDGE, beta), ts)
    assert math.isclose(analytic, 3.0)
    assert math.isclose(limit, 3.0, rel_tol=1e-6)


def test_derivative_sign_negative_obstruction():
    f = parse_function("1*x^1, 1*x^2, -0.1*x^3, 1*x^4, 1*x^5")
    # rank-one order-3 witness with exactly representable entries so the
    # kernel conditions hold with zero rounding
    al = np.array([0.5, 1.0, 1.5, 2.0])
    a = np.outer(al, al)
    beta = np.array([-1.0, 3.0, -3.0, 1.0])
    assert nk_membership(a, beta, 3)
    ts = [0.002 / 2 ** i for i in range(5)]
    limit, analytic = derivative_sign_estimate(f, 0.01, 3, (a, beta), ts)
    assert analytic < 0
    assert limit < 0
    # heavy cancellation at this tiny base point; only coarse agreement left
    assert math.isclose(limit, analytic, rel_tol=1e-3)


def test_derivative_sign_rejects_uncertified_witness():
    with pytest.raises(WitnessError):
        derivative_sign_estimate(
            power_function(2), 1.0, 3, (K2_EDGE, np.array([1.0, -1.0])), [0.5, 0.25]
        )
