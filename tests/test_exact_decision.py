"""The exact decision of the three tree conditions against exact arithmetic
and against the grid scans.

functions.decide_tree_conditions decides f >= 0, superadditivity and
multiplicative midpoint convexity on [0, bound] for power sums with
nonnegative coefficients, refutes every f with f(0) != 0 and every monomial
c x^a but those with c > 0 and a >= 1, and decides integer power sums with
f(0) = 0 from the signs of integer Bernstein coefficients.  These tests hold
it to:
- Fraction arithmetic: the polynomials P and H equal the expressions they
  stand for, and every witness fails its condition exactly;
- the grid scans wherever those are decisive: a condition decided to hold
  holds on the grid, and a grid violation is never decided to hold;
- preserver-test: the decider runs first and its verdict is final.  An
  exact violation runs no trial and no grid scan, an exact pass runs its
  trials and no grid scan, and the exact_witness certificate of a violation
  is re-checked in Fraction arithmetic and, as the benchmark's checker does,
  by eigvalsh;
- critical-exponent: each alpha row is decided by the same decider, and no
  row runs a trial.  A row alpha < 1 prints the decider's witness matrix, a
  proved row alpha >= 1 prints "yes", and a row the decider leaves
  undecided is a usage error.  The trials that proved rows ran before are a
  test here: tests/oracles.trial_loop on the spec's tree, which re-checks a
  trial that fails in floats in Fraction arithmetic, must pass every trial.
  preserver-test's trials re-check a float fail the same way, so a proved
  high power, whose float loop fails positive pivots, passes.
"""

import json
import math
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphpsd import _exact, cli, functions, graphs, star_tree
from graphpsd.constructors import build_entire_function_partial, build_tree_preserver_poly
from graphpsd.functions import (
    EntrywiseFunction,
    ExactVerdict,
    check_abs_monotonic,
    check_mult_midpoint_convex,
    check_superadditive,
    decide_tree_conditions,
    parse_function,
)
from graphpsd.graphs import find_open_triangle, parse_graph
from graphpsd.matrices import parse_matrix

from oracles import trial_loop
from test_grid_scans import FIXED, GRIDS, LATE_SUPERADDITIVE, WRONG_PASS
from test_trial_chunks import fixed_tree_draw

# f >= 0 with a zero at 1/2: f > 0 is undecided, superadditivity fails
ZERO_INSIDE = "0.5*x^5, -1.5*x^6, 2*x^8"

# the five preserver-test functions of the large-trees and small-trees
# benchmark rounds (perfbench/workloads.py), with x^a at one a in [1, 3]
WORKLOAD_PRESERVERS = [build_tree_preserver_poly(n).literal() for n in (1, 2, 3)] + [
    "1*x^2.137", "1*x^1, 1*x^2, -0.1*x^3, 1*x^4, 1*x^5"]


def exact_f(f):
    """f as a function of Fractions, at the points where every term is
    rational: anywhere for integer exponents, at 0 and 1 for any; elsewhere
    it raises ValueError."""
    def g(x):
        x = Fraction(x)
        if x not in (0, 1) and not all(e.is_integer() for _, e in f.terms):
            raise ValueError(f"x^e is irrational at {x} for a fractional e")
        # 0^e = 0 and 1^e = 1 for e > 0
        return sum(Fraction(c) * (x ** int(e) if e.is_integer() else x) for c, e in f.terms)
    return g


def poly_at(coefs, x):
    return sum(a * x ** k for k, a in enumerate(coefs))


def exact_psd(mat):
    """Every principal minor of the Fraction matrix mat is >= 0."""
    n = len(mat)
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            if det([[mat[i][j] for j in idx] for i in idx]) < 0:
                return False
    return True


def det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def assert_fails_exactly(f, verdict):
    """verdict's witness breaks its condition in Fraction arithmetic.  Where
    x^a is irrational, f is a monomial c x^a: c x^a < 0 iff c < 0 < x, and
    c (2x)^a < 2 c x^a iff c > 0 and 2^a < 2, that is a < 1."""
    g = exact_f(f)
    if verdict.failed == "nonnegative":
        (x,) = verdict.witness
        assert 0 <= x
        try:
            assert g(x) < 0
        except ValueError:
            ((c, _),) = f.terms
            assert c < 0 < x
        return
    x, y = verdict.witness
    if verdict.failed == "superadditive":
        assert 0 <= x and 0 <= y and Fraction(x) + Fraction(y) == Fraction(x + y)
        try:
            assert g(x + y) < g(x) + g(y)
        except ValueError:
            ((c, a),) = f.terms
            assert c > 0 and 0 < x == y and Fraction(a) < 1
    else:
        assert 0 < x and 0 < y
        m = math.sqrt(x * y)
        assert Fraction(m) ** 2 == Fraction(x) * Fraction(y)
        assert g(m) ** 2 > g(x) * g(y)


# --- the polynomials ---------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=9),
       st.fractions(Fraction(1, 100), 8), st.fractions(Fraction(1, 100), 8))
def test_p_and_h_are_the_expressions_they_stand_for(tail, x, y):
    coefs = [0] + tail
    f = lambda v: poly_at(coefs, v)
    df = lambda v: sum(k * a * v ** (k - 1) for k, a in enumerate(coefs) if k)
    d2f = lambda v: sum(k * (k - 1) * a * v ** (k - 2) for k, a in enumerate(coefs) if k > 1)
    # P = x f f' + x^2 (f f'' - f'^2): log-convexity of f(e^s)
    p = _exact.log_convexity_poly(coefs)
    assert poly_at(p, x) == x * f(x) * df(x) + x * x * (f(x) * d2f(x) - df(x) ** 2)
    # f(x + y) - f(x) - f(y) = w^2 t H(w, t), w = x + y, t = xy / w^2, with H
    # stored divided by w^(low - 2)
    grid = _exact.superadditivity_grid(coefs)
    lhs = f(x + y) - f(x) - f(y)
    if grid is None:
        assert lhs == 0
        return
    w, t = x + y, x * y / (x + y) ** 2
    low = next(k for k in range(2, len(coefs)) if coefs[k])
    h = sum(c * w ** i * t ** j for i, row in enumerate(grid) for j, c in enumerate(row))
    assert lhs == w ** 2 * t * w ** (low - 2) * h


def test_bernstein_coefficients_and_halves():
    # (1 - 2X)^2 = 1 - 4X + 4X^2: Bernstein coefficients 1, -1, 1 (times 2!)
    assert _exact.bernstein([1, -4, 4]) == [2, -2, 2]
    # on [0, 1/2] and [1/2, 1]: (1 - Y)^2 and Y^2 in the local variable Y,
    # coefficients (1, 0, 0) and (0, 0, 1), both times 2^2
    assert _exact.halves([1, -1, 1]) == ([4, 0, 0], [0, 0, 4])


# --- decisions on known functions --------------------------------------------

@pytest.mark.parametrize("lit", WORKLOAD_PRESERVERS + [
    "1*x^400", "1*x^400, 1*x^401", "1*x^1.5, 2*x^3.25", "0*x^2", "3*x^1"])
def test_preservers_are_decided_exactly(lit):
    assert decide_tree_conditions(parse_function(lit)) == ExactVerdict(None)


@pytest.mark.parametrize("f", [build_tree_preserver_poly(n) for n in range(1, 13)]
                         + [build_entire_function_partial(n) for n in (1, 2)],
                         ids=lambda f: f.literal()[:40])
def test_constructed_preservers_are_decided_exactly(f):
    # inside the budgets of the two thresholds the exact path says pass
    assert decide_tree_conditions(f) == ExactVerdict(None)


@pytest.mark.parametrize("lit,failed", [
    ("-1*x^1", "nonnegative"),
    ("1*x^2, -1*x^1", "nonnegative"),
    ("1*x^1, -0.9*x^2, 1*x^3", "superadditive"),
    (LATE_SUPERADDITIVE, "superadditive"),
    (WRONG_PASS, "mult_convex"),
    # f < 0 only between two zeros near 1: the search must go on past the
    # depth-capped boxes at the first zero
    ("1.5*x^2, -1.75*x^5, -0.5*x^6, -2.125*x^7, 2.875*x^8", "nonnegative"),
    # x (x - 1)^2 >= 0 vanishes at 1, so f > 0 is undecided; an f >= 0 with
    # a zero in (0, R] is never superadditive
    ("1*x^1, -2*x^2, 1*x^3", "superadditive"),
])
def test_violations_come_with_exact_witnesses(lit, failed):
    f = parse_function(lit)
    verdict = decide_tree_conditions(f)
    assert verdict.failed == failed
    assert_fails_exactly(f, verdict)


def test_superadditivity_is_decided_where_f_is_positive_is_not():
    # f = x^5 (2x^3 - 1.5x + 0.5) vanishes at 1/2, so the f > 0 rule gives
    # up; superadditivity needs no sign of f and fails exactly
    f = parse_function(ZERO_INSIDE)
    assert _exact.positive(_exact.integer_coefficients(f), 8.0) is None
    verdict = decide_tree_conditions(f)
    assert verdict == ExactVerdict("superadditive", (0.011962890625, 0.425537109375))
    assert_fails_exactly(f, verdict)


@pytest.mark.parametrize("lit", [
    "1*x^0.5, 1*x^1.5",  # an exponent below 1, not a monomial
    "1*x^2, -0.5*x^41",  # past EXACT_MAX_DEGREE
    "1*x^1.5, -0.01*x^2.5, 1*x^3.5",  # fractional exponents, one negative coefficient
])
def test_undecided_functions_are_left_to_the_grid(lit):
    assert decide_tree_conditions(parse_function(lit)) is None


@pytest.mark.parametrize("bound,failed", [(0.5, None), (2.0, "mult_convex"),
                                          (3.0, "superadditive"), (6.0, "nonnegative")])
def test_the_interval_is_the_bound(bound, failed):
    # f = x + x^2 - x^3/4: P = x^3 (1 - x - x^2/4) >= 0 up to 2 sqrt(2) - 2,
    # H = 2 - 3w/4 >= 0 up to 8/3, and f >= 0 up to 2 + 2 sqrt(2)
    f = parse_function("1*x^1, 1*x^2, -0.25*x^3")
    verdict = decide_tree_conditions(f, bound)
    assert verdict.failed == failed
    if failed is not None:
        assert_fails_exactly(f, verdict)
        assert max(verdict.witness) <= bound
    if failed == "nonnegative":
        assert verdict.witness[0] > 2 + 2 * math.sqrt(2)


# --- the rules read off one coefficient or one exponent ---------------------

@pytest.mark.parametrize("lit,bound,want", [
    # f(0) < 0 fails f >= 0 at 0; f(0) > 0 fails superadditivity at (0, 0)
    ("-1*x^0, 1*x^2", 8.0, ("nonnegative", (0.0,))),
    ("1*x^1, -1e-13*x^0", 8.0, ("nonnegative", (0.0,))),
    ("-5*x^0", 0.1, ("nonnegative", (0.0,))),
    ("1e-13*x^0, 1*x^2", 8.0, ("superadditive", (0.0, 0.0))),
    ("2*x^0, 1*x^1", 8.0, ("superadditive", (0.0, 0.0))),
    ("3*x^0, -1*x^0.5", 8.0, ("superadditive", (0.0, 0.0))),
    # a monomial c x^a with c < 0 fails f >= 0 at x = 1, or at the largest
    # power of two in (0, R] when R < 1
    ("-1*x^1.5", 8.0, ("nonnegative", (1.0,))),
    ("-1*x^1", 1.0, ("nonnegative", (1.0,))),
    ("-2*x^3", 0.3, ("nonnegative", (0.25,))),
    ("-1*x^0.5", 5e-324, ("nonnegative", (5e-324,))),
    # c > 0 and 0 < a < 1 fails superadditivity at (x, x), x = 1 or the
    # largest power of two with x + x <= R, up to the largest float a < 1
    ("1*x^0.5", 8.0, ("superadditive", (1.0, 1.0))),
    ("1*x^0.5", 2.0, ("superadditive", (1.0, 1.0))),
    ("1*x^0.5", 1.99, ("superadditive", (0.5, 0.5))),
    ("3*x^0.97", 0.3, ("superadditive", (0.125, 0.125))),
    ("1*x^0.9999999999999999", 8.0, ("superadditive", (1.0, 1.0))),
])
def test_one_coefficient_or_exponent_refutes_f(lit, bound, want):
    f = parse_function(lit)
    verdict = decide_tree_conditions(f, bound)
    assert verdict == ExactVerdict(*want)
    assert_fails_exactly(f, verdict)
    assert sum(verdict.witness) <= bound


def test_a_superadditivity_witness_below_the_least_float_is_undecided():
    # x + x <= 2^-1074 leaves no positive float x
    assert decide_tree_conditions(parse_function("1*x^0.5"), 5e-324) is None


# --- against the grid scans --------------------------------------------------

def grid_is_decisive(f, step, bound):
    """Every term c x^e at the grid points x > 0 is a finite normal float,
    so the grid reads f without overflow or underflow."""
    xs = np.arange(1, functions._grid_count(step, bound, 1) + 1) * step
    with np.errstate(over="ignore", under="ignore"):
        return all(np.all(np.isfinite(v) & (v >= sys.float_info.min))
                   for v in (np.abs(c * np.power(xs, e)) for c, e in f.terms))


def assert_consistent_with_grid(f, step, bound):
    """The exact decisions, condition by condition, against the grid scans;
    every exact witness fails exactly."""
    grid = {"nonnegative": check_abs_monotonic(f, 0, step=step, bound=bound).holds,
            "superadditive": check_superadditive(f, step, bound).holds,
            "mult_convex": check_mult_midpoint_convex(f, step, bound).holds}
    verdict = decide_tree_conditions(f, bound)
    if verdict is not None and verdict.failed is None:
        assert all(grid.values()), (f.literal(), grid)
    elif verdict is not None:
        assert_fails_exactly(f, verdict)
    coefs = _exact.integer_coefficients(f)
    if coefs is None:
        return
    decided = {"nonnegative": _exact.positive(coefs, bound),
               "superadditive": _exact.superadditive(coefs, bound)}
    if decided["nonnegative"] is True:  # the P rule needs f > 0 on (0, bound]
        decided["mult_convex"] = _exact.mult_convex(coefs, bound)
    for name, found in decided.items():
        if found is True:
            assert grid[name], (f.literal(), name)
        elif found is not None:  # the grid may miss a violation
            assert_fails_exactly(f, ExactVerdict(name, found))
        if not grid[name]:
            assert found is not True, (f.literal(), name)


@pytest.mark.parametrize("f,step,bound", [
    (f, step, bound) for f in FIXED for step, bound in GRIDS if grid_is_decisive(f, step, bound)],
    ids=lambda v: v.literal()[:40] if isinstance(v, EntrywiseFunction) else repr(v))
def test_fixed_functions_agree_with_decisive_grids(f, step, bound):
    assert_consistent_with_grid(f, step, bound)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-24, 24).filter(bool).map(lambda k: k / 8.0),
                  st.integers(0, 8).map(float)),
        min_size=1, max_size=5, unique_by=lambda t: t[1]),
    st.sampled_from(GRIDS[:2]),
)
def test_power_sums_agree_with_the_grid(terms, grid):
    f = EntrywiseFunction(tuple(terms))
    assert_consistent_with_grid(f, *grid)


# --- preserver-test ----------------------------------------------------------

def run_main(capsys, argv):
    code = cli.main(list(argv))
    rep = json.loads(capsys.readouterr().out)
    rep.pop("elapsed_ms")
    return code, rep


EXACT_PASS = {"grid_superadditive": True, "grid_mult_convex": True, "grid_nonnegative": True,
              "decided": "exact"}


@pytest.mark.parametrize("lit", ["1*x^400", "1*x^400, 1*x^401"])
def test_high_powers_pass_exactly(capsys, lit):
    # the grid reads f(x) = 0 and f(sqrt(xy))^2 > 0 at (0.03125, 4.96875),
    # a false midpoint-convexity violation; P = 0 for a monomial and P >= 0
    # with nonnegative coefficients
    code, rep = run_main(capsys, ("preserver-test", lit, "--trials", "50"))
    assert (code, rep["verdict"], rep["certificate"]) == (0, "pass", EXACT_PASS)


@pytest.mark.parametrize("seed", range(4))
def test_a_proved_high_power_passes_its_trials(capsys, monkeypatch, seed):
    # x^6 is a Schur power; leaf elimination in floats passes every image,
    # deep trees included, so no tree is re-checked in Fraction arithmetic
    rechecks = []
    real = star_tree.exact_plan_psd_check

    def recording(*args):
        rechecks.append(real(*args))
        return rechecks[-1]

    monkeypatch.setattr(star_tree, "exact_plan_psd_check", recording)
    code, rep = run_main(capsys, ("preserver-test", "1*x^6", "--trials", "200",
                                  "--seed", str(seed)))
    assert (code, rep["trials"], rep["certificate"]) == (0, 200, EXACT_PASS)
    assert rechecks == []


def refuse_grid_scans(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grid scan")

    for name in ("check_abs_monotonic", "check_superadditive", "check_mult_midpoint_convex"):
        monkeypatch.setattr(functions, name, refuse)


def test_workload_functions_run_no_grid_scan(capsys, monkeypatch):
    refuse_grid_scans(monkeypatch)
    for lit in WORKLOAD_PRESERVERS:
        code, rep = run_main(capsys, ("preserver-test", lit, "--trials", "20"))
        assert (code, rep["certificate"]) == (0, EXACT_PASS)


# every class of refuted function: (literal, the condition it fails, the
# vertices of its certificate's tree)
REFUTED = [
    ("-1*x^0, 1*x^2", "nonnegative", 1),  # f(0) < 0
    ("1*x^1, -1e-13*x^0", "nonnegative", 1),
    ("1e-13*x^0, 1*x^2", "superadditive", 3),  # f(0) > 0
    ("-1*x^1.5", "nonnegative", 1),  # a monomial c x^a with c < 0
    ("-1*x^1", "nonnegative", 1),
    ("1*x^0.5", "superadditive", 3),  # a monomial with c > 0 and a < 1
    ("1*x^0.97", "superadditive", 3),
    ("1*x^2, -1*x^1", "nonnegative", 1),  # the integer rules
    ("1*x^1, -0.9*x^2, 1*x^3", "superadditive", 3),
    (ZERO_INSIDE, "superadditive", 3),
    (WRONG_PASS, "mult_convex", 2),
]


@pytest.mark.parametrize("lit,failed,shape", REFUTED)
def test_an_exact_violation_runs_no_trial(capsys, monkeypatch, lit, failed, shape):
    # the decider refutes f first: the report fails with the exact witness,
    # draws no generator and runs no trial and no grid scan
    def refuse(*args, **kwargs):
        raise AssertionError("a trial or its generator after an exact violation")

    monkeypatch.setattr(cli, "_first_failing_trial", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    refuse_grid_scans(monkeypatch)
    code, rep = run_main(capsys, ("preserver-test", "--trials", "5", "--", lit))
    assert (code, rep["verdict"], rep["trials"]) == (1, "fail", 0)
    cert = rep["certificate"]
    assert sorted(cert) == ["exact_witness", "matrix", "tree"]
    f = parse_function(lit)
    verdict = decide_tree_conditions(f)
    assert verdict.failed == failed and cert["exact_witness"] == list(verdict.witness)
    assert_fails_exactly(f, verdict)
    # A is PSD on the tree and f[A] is not, in exact arithmetic where f[A] is
    # rational; x^a at (1, 1) is the one irrational image, which the
    # a < 1 check above refutes exactly
    tree = parse_graph(cert["tree"])
    a = [[Fraction(v) for v in row] for row in parse_matrix(cert["matrix"])]
    assert tree.n == len(a) == shape and exact_psd(a)
    g = exact_f(f)
    try:
        image = [[g(a[i][j]) if i == j or tree.has_edge(i, j) else Fraction(0)
                  for j in range(shape)] for i in range(shape)]
    except ValueError:
        assert verdict.witness == (1.0, 1.0)
    else:
        assert not exact_psd(image)


@pytest.mark.parametrize("lit", [f"1*x^1, -{c}*x^2, 1*x^3" for c in (0.5, 1.0, 1.5)]
                         + [f"1*x^{a}" for a in (0.2, 0.5, 0.9)]
                         + ["1*x^2, -1*x^1", WRONG_PASS])
def test_exact_certificates_fail_by_eigvalsh(capsys, lit):
    # the certify functions that the decider refutes: f[A] (f on the diagonal
    # and the tree edges, 0 elsewhere) has lambda_min < -tol max(1, rho) in
    # float eigvalsh, the benchmark checker's test of a fail certificate
    code, rep = run_main(capsys, ("preserver-test", "--trials", "50", lit))
    cert = rep["certificate"]
    assert code == 1 and "exact_witness" in cert
    tree = parse_graph(cert["tree"])
    a = parse_matrix(cert["matrix"])
    mask = np.eye(tree.n, dtype=bool)
    for i, j in tree.edges:
        mask[i, j] = mask[j, i] = True
    image = np.where(mask, parse_function(lit).value(np.where(mask, a, 0.0)), 0.0)
    lam = np.linalg.eigvalsh(image)
    assert lam[0] < -rep["tolerance"] * max(1.0, np.max(np.abs(lam)))


def test_a_fractional_power_fails_on_3_vertices_at_any_tree_n(capsys):
    # a trial would print a random tree of up to 1000 vertices
    code, rep = run_main(capsys, ("preserver-test", "1*x^0.5", "--trials", "3",
                                  "--tree-n", "1000"))
    assert (code, rep["trials"]) == (1, 0)
    assert rep["certificate"]["exact_witness"] == [1.0, 1.0]
    assert rep["certificate"]["tree"] == "3 2\n0 1\n1 2\n"


@pytest.mark.parametrize("lit,decided", [("1*x^2", "exact"),
                                         ("1*x^1.5, -0.01*x^2.5, 1*x^3.5", "grid")])
def test_a_pass_runs_every_trial(capsys, monkeypatch, lit, decided):
    # an exact pass still runs its trials, and trials counts them all
    ran = []
    real = cli._first_failing_trial

    def counting(f, trials, *rest):
        ran.append(trials)
        return real(f, trials, *rest)

    monkeypatch.setattr(cli, "_first_failing_trial", counting)
    code, rep = run_main(capsys, ("preserver-test", lit, "--trials", "40"))
    assert (code, rep["trials"], rep["certificate"]["decided"], ran) == (0, 40, decided, [40])


def test_exact_pass_certificate(capsys):
    code, rep = run_main(capsys, ("preserver-test", "1*x^2", "--trials", "20"))
    assert (code, rep["certificate"]) == (0, EXACT_PASS)


# --- critical-exponent ---------------------------------------------------------

# alpha just below 1, where a tolerance check of the powered matrix passes;
# and a range so small that the absolute floor of the tree check's
# threshold hides the failure
NEAR_ONE_ROWS = [(spec, alpha, flags)
                 for spec, flags in (("path 3", ()), ("star 5", ("--range", "1")),
                                     ("random_tree 12", ()))
                 for alpha in (0.999999999, 1 - 2 ** -52)] + \
    [("path 3", 0.5, ("--range", "1e-300"))]


def critical_tree(spec):
    """The tree of a critical-exponent spec at --seed 0."""
    kind, n = spec.split()
    return graphs.build_graph(kind, int(n), seed=np.random.default_rng(0))


@pytest.mark.parametrize("spec,alpha,flags", NEAR_ONE_ROWS)
def test_a_power_below_one_is_refuted_exactly(capsys, monkeypatch, spec, alpha, flags):
    def refuse(*args, **kwargs):
        raise AssertionError("a trial for a refuted row")

    monkeypatch.setattr(cli, "_first_failing_trial", refuse)
    code, rep = run_main(capsys, ("critical-exponent", spec, repr(alpha)) + flags)
    (row,) = rep["rows"]
    assert (code, rep["verdict"], row["alpha"], row["preserved"]) == (0, "pass", alpha, "no")
    # the certificate is B(2x, x, x) on the tree's first open triangle, at
    # the decider's witness (x, x), which fails superadditivity because
    # Fraction(alpha) < 1
    f = functions.power_function(alpha)
    bound = float(flags[1]) if flags else functions.DEFAULT_GRID_BOUND
    verdict = decide_tree_conditions(f, bound)
    assert verdict.failed == "superadditive"
    assert_fails_exactly(f, verdict)
    x, y = verdict.witness
    t = critical_tree(spec)
    a = [[Fraction(v) for v in line]
         for line in parse_matrix(row["certificate"].replace(";", "\n"))]
    assert len(a) == t.n
    i, j, k = find_open_triangle(t)
    block = [i, j, k]
    want = [[x + y, x, y], [x, x, 0], [y, 0, y]]
    assert all(a[u][v] == (want[block.index(u)][block.index(v)]
                           if u in block and v in block else 0)
               for u in range(t.n) for v in range(t.n))
    # A is zero outside the block, so each of its principal minors, the
    # leading ones among them, is one of the block's or 0
    assert exact_psd([[a[u][v] for v in block] for u in block])
    assert all(a[u][v] == 0 or t.has_edge(u, v) for u in range(t.n) for v in range(u))


@pytest.mark.parametrize("alpha", ["0.999999999", "0.9999999999999998", "0.5", "0.01"])
@pytest.mark.parametrize("flags", [(), ("--range", "1e-300"), ("--range", "3")])
def test_a_refuted_row_carries_the_preserver_test_matrix(capsys, alpha, flags):
    code, rep = run_main(capsys, ("critical-exponent", "path 3", alpha) + flags)
    assert code == 0
    # preserver-test refuses a grid of fewer than two steps before it decides
    grid = ("--grid", repr(float(flags[1]) / 4)) if flags else ()
    code, cert = run_main(capsys, ("preserver-test", f"1*x^{alpha}") + flags + grid)
    assert code == 1
    assert rep["rows"][0]["certificate"] == cert["certificate"]["matrix"].replace("\n", ";")


def test_an_undecided_row_names_the_range(capsys):
    # at R = 2^-1074, the one positive float below 2^-1073, the witness x,
    # a power of two with 2x <= R, underflows to 0
    assert decide_tree_conditions(functions.power_function(0.5), 5e-324) is None
    assert decide_tree_conditions(functions.power_function(0.5), 1e-323).witness == \
        (5e-324, 5e-324)
    assert cli.main(["critical-exponent", "path 3", "0.5", "--range", "5e-324"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --range ")



@pytest.mark.parametrize("spec", ["path 7", "star 9", "random_tree 12", "random_tree 300"])
@settings(max_examples=20, deadline=None)
@given(alpha=st.one_of(st.sampled_from([1.0, 1 + 2 ** -52]), st.floats(1.0, 6.0)),
       range_max=st.sampled_from([8.0, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_proved_power_is_psd_on_every_trial(spec, alpha, range_max, seed):
    # GKR16 with the critical exponent of trees: x^alpha, alpha >= 1,
    # preserves PSD on every tree; critical-exponent prints the proof and
    # runs no trial, so 200 trials of the reference loop cross-check it.  The
    # loop re-checks a trial that fails in floats in Fraction arithmetic,
    # where it must be PSD
    f = functions.power_function(alpha)
    assert decide_tree_conditions(f, range_max) == ExactVerdict(None)
    plan = graphs.elimination_plan(critical_tree(spec))
    assert trial_loop(f, 200, fixed_tree_draw(plan, seed), 2 * len(plan.parent),
                      range_max) is None
