import collections
import json
import math
import re
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from graphpsd import cli, functions, graphs, witnesses
from graphpsd.cli import main
from graphpsd.functions import parse_function
from graphpsd.graphs import parse_graph
from graphpsd.matrices import apply_entrywise, is_psd, parse_matrix
from graphpsd.witnesses import KERNEL_TOL, POSITIVITY_TOL
from oracles import forward_difference


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_preserver_pass_square(capsys):
    code, rep = run(capsys, "preserver-test", "1*x^2", "--trials", "50")
    assert code == 0 and rep["verdict"] == "pass"


def test_preserver_fail_sqrt(capsys):
    code, rep = run(capsys, "preserver-test", "1*x^0.5", "--trials", "50")
    assert code == 1 and rep["verdict"] == "fail"
    assert rep["certificate"] and "matrix" in rep["certificate"]


def test_preserver_theorem_b_poly(capsys):
    lit = "1*x^1, 1*x^2, -0.1*x^3, 1*x^4, 1*x^5"
    code, rep = run(capsys, "preserver-test", lit, "--trials", "100")
    assert code == 0
    code, rep = run(capsys, "absmon-test", lit)
    assert code == 1 and rep["certificate"]["order"] == 3


def test_absmon_pass(capsys):
    code, rep = run(capsys, "absmon-test", "1*x^1, 0.5*x^2")
    assert code == 0


def test_absmon_fractional_power(capsys):
    code, rep = run(capsys, "absmon-test", "1*x^1.5")
    assert code == 1 and rep["certificate"]["order"] == 3


def test_witness_star6(capsys):
    code, rep = run(capsys, "witness", "star 6")
    assert code == 0
    assert rep["certificate"]["lower_bound"] == 5
    star_sets = [s for s in rep["certificate"]["witness_sets"] if len(s["witnesses"]) == 5]
    assert star_sets


def test_witness_complete4_includes_vandermonde(capsys):
    code, rep = run(capsys, "witness", "complete 4")
    assert code == 0
    assert rep["certificate"]["lower_bound"] == 3
    assert any(len(s["witnesses"]) == 3 for s in rep["certificate"]["witness_sets"])


@pytest.mark.parametrize("n", [20, 25])
def test_witness_large_complete_certifies_exactly(capsys, n):
    # in floats, beta^T A^(k) beta of A = aa^T cancelled to a negative margin
    # (order 19 at n = 20, order 16 at n = 25); the Vandermonde set is
    # certified from the square (beta . a^(k))^2, and its witnesses hold in
    # exact arithmetic, where that square is the form itself
    code, rep = run(capsys, "witness", f"complete {n}")
    assert code == 0 and rep["verdict"] == "pass"
    vandermonde = rep["certificate"]["witness_sets"][-1]
    a = list(range(1, n + 1))
    assert parse_matrix(vandermonde["matrix"]).tolist() == np.outer(a, a).tolist()
    assert [w["k"] for w in vandermonde["witnesses"]] == list(range(1, n))
    for w in vandermonde["witnesses"]:
        beta = [Fraction(b) for b in w["beta"]]
        nrm2 = sum(b * b for b in beta)

        def form(m):
            return sum(b * x ** m for b, x in zip(beta, a)) ** 2

        resid = max(form(m) / (nrm2 * sum(x ** (2 * m) for x in a)) for m in range(w["k"]))
        assert resid <= Fraction(1, 10 ** 10) and form(w["k"]) > 0


def _strict_json(text):
    """json.loads that refuses the non-standard NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("n", [8, 78, 200])
def test_witness_large_star_certifies_exactly(capsys, n):
    # the powers of the star's alphas reach 399^199 at n = 200: the star set
    # is certified from the closed form on scaled power vectors, and every
    # printed beta holds in exact arithmetic, with its margin printed to
    # float accuracy (a decimal string beyond float range)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would exit 2
        code = main(["witness", f"star {n}"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    rep = _strict_json(out)
    star = rep["certificate"]["witness_sets"][-1]
    row = [int(x) for x in parse_matrix(star["matrix"])[0]]
    assert row == [2 * n - 1] + list(range(1, n))
    assert [w["k"] for w in star["witnesses"]] == list(range(1, n))
    # powers[m] is the center row of A^(m); the star's other entries are 0
    powers = [[1] * n]
    for _ in range(n - 1):
        powers.append(list(map(mul, powers[-1], row)))
    fro2 = [p[0] * p[0] + 2 * sum(map(mul, p[1:], p[1:])) for p in powers]
    tol2 = Fraction(KERNEL_TOL) ** 2
    beyond_floats = 0
    for w in star["witnesses"]:
        k = w["k"]
        den = max(Fraction(b).denominator for b in w["beta"])
        b = [int(Fraction(x) * den) for x in w["beta"]]  # beta * den, exactly
        nrm2 = sum(map(mul, b, b))
        # Q_{A^(m)}(beta) den^2 = b_c (A_cc^m b_c + 2 sum_j A_cj^m b_j)
        forms = [b[0] * (p[0] * b[0] + 2 * sum(map(mul, p[1:], b[1:]))) for p in powers[:k + 1]]
        # residual |Q_m| / (||beta||^2 ||A^(m)||_F) <= KERNEL_TOL, squared and
        # cross-multiplied into integers
        bound = tol2.numerator * nrm2 * nrm2
        assert all(q * q * tol2.denominator <= bound * f2 for q, f2 in zip(forms[:k], fro2))
        margin = Fraction(forms[k], nrm2)
        assert margin > 0
        shown = w["positivity_margin"]
        beyond_floats += isinstance(shown, str)
        assert abs(Fraction(Decimal(shown) if isinstance(shown, str) else shown) / margin - 1) < 1e-6
    assert beyond_floats == (72 if n == 200 else 0)


@pytest.mark.parametrize("n", [20, 60, 88, 200])
def test_witness_large_complete_graph_certifies_exactly(capsys, n):
    # the powers of a = (1, ..., n) reach n^(n-1): the Vandermonde set is
    # built and certified on power vectors scaled by n^m, and every printed
    # beta holds in exact arithmetic; every printed margin is the exact one
    # rounded once (a margin beyond float range prints as a decimal string)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would exit 2
        code = main(["witness", f"complete {n}"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    vdm = _strict_json(out)["certificate"]["witness_sets"][-1]
    assert [int(x) for x in parse_matrix(vdm["matrix"])[0]] == list(range(1, n + 1))
    assert [w["k"] for w in vdm["witnesses"]] == list(range(1, n))
    powers = [[1] * n]  # a^(m); A^(m) = a^(m) a^(m)^T
    for _ in range(n - 1):
        powers.append(list(map(mul, powers[-1], range(1, n + 1))))
    fro = [sum(map(mul, p, p)) for p in powers]  # ||A^(m)||_F = ||a^(m)||^2
    tol = Fraction(KERNEL_TOL)
    beyond_floats = 0
    for w in vdm["witnesses"]:
        k = w["k"]
        den = max(Fraction(b).denominator for b in w["beta"])
        b = [int(Fraction(x) * den) for x in w["beta"]]  # beta * den, exactly
        nrm2 = sum(map(mul, b, b))
        dots = [sum(map(mul, p, b)) for p in powers[:k + 1]]
        # residual Q_m / (||beta||^2 ||A^(m)||_F) <= KERNEL_TOL, Q_m = (beta . a^(m))^2
        assert all(d * d * tol.denominator <= tol.numerator * nrm2 * f
                   for d, f in zip(dots[:k], fro))
        margin = Fraction(dots[k] ** 2, nrm2)
        assert margin > POSITIVITY_TOL
        # one rounding: to the nearest float, within 2^-53 relative, or to
        # 17 significant digits, within half a unit of the 17th
        shown = w["positivity_margin"]
        beyond_floats += isinstance(shown, str)
        if isinstance(shown, str):
            assert abs(Fraction(Decimal(shown)) / margin - 1) <= Fraction(5, 10 ** 17)
        else:
            assert abs(Fraction(shown) / margin - 1) <= Fraction(1, 2 ** 53)
    assert beyond_floats == {20: 0, 60: 0, 88: 2, 200: 127}[n]


def test_witness_path2_sharp(capsys):
    code, rep = run(capsys, "witness", "path 2")
    assert code == 0
    assert rep["certificate"]["lower_bound"] == 2
    assert rep["certificate"]["upper_bound"] == 3


@pytest.mark.parametrize("kind", ["star", "path", "complete"])
@pytest.mark.parametrize("n", range(3, 10))
def test_witness_report_encodes_each_set_once(kind, n):
    # each set goes into the report as its payload dict; the report is the
    # one that decoding each set's own JSON gave
    args = cli.build_parser().parse_args(["witness", f"{kind} {n}"])
    got = cli.cmd_witness(args)
    g = graphs.build_graph(kind, n)
    bound = witnesses.k_lower_bound(g)
    sets = list(bound.witness_sets)
    if kind == "complete":
        sets.append(witnesses.vandermonde_witnesses([float(i) for i in range(1, n + 1)]))
    want = cli.Report("witness", 0, None, len(sets), "pass", certificate={
        "lower_bound": bound.lower, "upper_bound": bound.upper,
        "witness_sets": [json.loads(ws.to_json()) for ws in sets]})
    assert got.to_json().encode() == want.to_json().encode()
    assert got.to_csv().encode() == want.to_csv().encode()


def test_witness_edgeless_usage_error(capsys):
    assert main(["witness", "path 1"]) == 2


def test_critical_exponent_rows(capsys):
    code, rep = run(
        capsys,
        "critical-exponent", "path 5", "0.5", "0.9", "1.0", "1.5",
        "--trials", "30",
    )
    assert code == 0
    got = {row["alpha"]: row["preserved"] for row in rep["rows"]}
    assert got == {0.5: "no", 0.9: "no", 1.0: "yes", 1.5: "yes"}


def test_critical_exponent_tests_the_given_tree(capsys, monkeypatch):
    def no_random_trees(*args, **kwargs):
        raise AssertionError("critical-exponent drew a random tree")

    monkeypatch.setattr(graphs, "random_tree", no_random_trees)
    code, rep = run(capsys, "critical-exponent", "path 5", "1.0", "1.5", "--trials", "30")
    assert code == 0
    assert [row["preserved"] for row in rep["rows"]] == ["yes", "yes"]


def test_critical_exponent_csv(capsys):
    code = main(["critical-exponent", "path 4", "3.0", "--trials", "10",
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "alpha,preserved,certificate"
    assert out.splitlines()[1].startswith("3.0,yes")


def test_construct_poly(capsys):
    code, rep = run(capsys, "construct", "poly", "-n", "1")
    assert code == 0
    assert "x^1" in rep["certificate"]["literal"]


def test_construct_entire(capsys):
    code, rep = run(capsys, "construct", "entire", "-n", "3")
    assert code == 0 and rep["certificate"]["negative_run"] >= 3


def test_construct_thresholds(capsys):
    code, rep = run(capsys, "construct", "thresholds", "2", "4", "1", "1")
    assert code == 0
    assert abs(rep["certificate"]["threshold"] - 1 / 6) < 1e-12


def test_construct_thresholds_of_huge_exponents(capsys):
    # r(r - 1) and s(s - 1) overflow, the ratios r/s and (r - 1)/(s - 1) do not
    code, rep = run(capsys, "construct", "thresholds", "1e200", "1e201", "1", "1")
    assert code == 0
    assert math.isclose(rep["certificate"]["threshold"], 0.01, rel_tol=1e-12)


def test_star_suite(capsys):
    code, rep = run(capsys, "star-suite", "--trials", "200")
    assert code == 0 and rep["certificate"]["checked"] > 0


def test_star_suite_zero_trials_usage_error():
    assert main(["star-suite", "--trials", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ("star-suite", "--trials", "50", "--seed", "7"),
    ("preserver-test", "1*x^1, 1*x^2", "--trials", "200", "--seed", "7"),
    ("preserver-test", "1*x^0.97", "--trials", "200", "--seed", "7"),
    ("critical-exponent", "random_tree 12", "0.5", "1.0", "2.5", "--trials", "70", "--seed", "7"),
])
def test_determinism_modulo_elapsed(capsys, argv):
    reps = []
    for _ in range(2):
        code, rep = run(capsys, *argv)
        rep.pop("elapsed_ms")
        reps.append(rep)
    assert reps[0] == reps[1]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rep.json"
    code = main(["absmon-test", "1*x^2", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["verdict"] == "pass"


def test_parse_error_is_usage_error(capsys):
    assert main(["preserver-test", "nonsense"]) == 2


def test_preserver_mult_convex_witness_fails_on_an_edge(capsys):
    # nonnegative and superadditive but not multiplicatively midpoint convex,
    # which the exact decider proves at (6.56640625, 6.890625); random trials
    # miss it, the exact witness must not
    lit = ("0.8226067272402589*x^2, 0.9171177984138357*x^3, "
           "-0.4675362118938841*x^4, 0.7430217329347985*x^6")
    code, rep = run(capsys, "preserver-test", lit, "--trials", "50")
    assert code == 1 and rep["verdict"] == "fail"
    cert = rep["certificate"]
    assert cert["exact_witness"] == [6.56640625, 6.890625]
    t, a = parse_graph(cert["tree"]), parse_matrix(cert["matrix"])
    assert t.n == 2 and is_psd(a).is_psd
    assert not is_psd(apply_entrywise(parse_function(lit).value, a, t)).is_psd


# undecided functions that pass one trial and fail the midpoint-convexity
# scan at (0.015625, 0.03125), where sqrt(xy) = 2^-5.5 is irrational
GRID_MULT_CONVEX = ["9.661*x^1.5, -5.627*x^3.0, 2.596*x^4.0",
                    "8.832*x^1.5, -5.76*x^2.5, 4.252*x^3.5",
                    "1.18*x^2.0, -2.481*x^2.5, 8.066*x^4.0",
                    "4.767*x^3.0, -8.639*x^3.5, 7.019*x^5.0"]


@pytest.mark.parametrize("lit", GRID_MULT_CONVEX)
def test_a_grid_mult_convex_certificate_is_psd_exactly(capsys, lit):
    # fl(sqrt(xy)) rounds up here; the printed m is stepped down until
    # m^2 <= xy in Fraction arithmetic, one ulp, and f[A] still fails the
    # benchmark checker's eigvalsh test, lambda_min < -tol max(1, rho)
    assert functions.decide_tree_conditions(parse_function(lit), 5.0) is None
    code, rep = run(capsys, "preserver-test", lit, "--trials", "1")
    cert = rep["certificate"]
    assert code == 1 and cert["grid_witness"] == [0.015625, 0.03125]
    assert parse_graph(cert["tree"]).n == 2
    a = parse_matrix(cert["matrix"])
    x, y, m = (Fraction(float(v)) for v in (a[0, 0], a[1, 1], a[0, 1]))
    assert m * m <= x * y < Fraction(math.nextafter(float(m), 1.0)) ** 2
    assert float(m) == math.nextafter(math.sqrt(0.015625 * 0.03125), 0.0)
    lam = np.linalg.eigvalsh(parse_function(lit).value(a))
    assert lam[0] < -rep["tolerance"] * max(1.0, np.max(np.abs(lam)))


# (argv, the argument its error names): main checks every number once
OUT_OF_RANGE = [
    # GKR16's characterization needs trees on 3 or more vertices
    (("preserver-test", "1*x^0.5", "--tree-n", "2", "--trials", "200"), "--tree-n"),
    (("preserver-test", "1*x^2", "--trials", "0"), "--trials"),
    (("critical-exponent", "path 5", "2.0", "--trials", "0"), "--trials"),
    (("star-suite", "--trials", "0"), "--trials"),
    (("critical-exponent", "tree 5", "inf"), "ALPHA"),
    (("critical-exponent", "tree 5", "nan"), "ALPHA"),
    (("critical-exponent", "tree 5", "0"), "ALPHA"),
    (("critical-exponent", "tree 5", "1.5", "--", "-0.5"), "ALPHA"),
    (("construct", "thresholds", "2", "5", "1", "nan"), "PARAMS"),
    (("construct", "thresholds", "2", "5", "1", "inf"), "PARAMS"),
    (("absmon-test", "1*x^2", "--n-max", "-1"), "--n-max"),
    (("preserver-test", "1*x^2", "--seed", "-1"), "--seed"),
    (("witness", "star 4", "--seed", "-1"), "--seed"),
    (("critical-exponent", "path 5", "0.5", "--tol", "2e-6"), "--tol"),
]


@pytest.mark.parametrize("argv", [
    ("preserver-test", "1*x^2", "--tree-n", "1"),
    ("preserver-test", "1*x^2", "--range", "1e308"),
    ("preserver-test", "1*x^2", "--grid", "nan"),
    ("absmon-test", "1*x^2", "--range", "0"),
    ("absmon-test", "1*x^2", "--grid", "100"),
    ("preserver-test", "1*x^2, -1*x^1", "--tol", "inf"),
    ("critical-exponent", "path 5", "0.5", "--tol", "inf"),
    ("critical-exponent", "path 5", "0.5", "--tol", "0"),
    ("preserver-test", "1*x^2", "--tol", "nan"),
    ("preserver-test", "1*x^2, -1*x^1", "--tol", "0.5", "--trials", "50"),
    # an empty grid, though the first trial fails
    ("preserver-test", "1*x^0.5", "--grid", "5", "--trials", "5"),
    # the exact decider leaves x^0.5 undecided at R = 2^-1074
    ("critical-exponent", "path 3", "0.5", "--range", "5e-324"),
] + [argv for argv, _ in OUT_OF_RANGE])
def test_bad_input_exits_2_without_traceback(capsys, argv):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv,name", OUT_OF_RANGE)
def test_out_of_range_numbers_are_named(capsys, argv, name):
    assert main(list(argv)) == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be ")


@pytest.mark.parametrize("argv,message", [
    # bound / step overflows to inf: the grid is refused, not counted
    (("preserver-test", "1*x^2", "--range", "1e308"),
     "grid of step 0.015625 up to 1e+308 has too many points"),
    (("absmon-test", "1*x^2", "--grid", "5e-324"),
     "grid of step 5e-324 up to 8.0 has too many points"),
    # bound / step is finite, but np.arange cannot size an array that long
    (("absmon-test", "1*x^2", "--grid", "1e-300"),
     "grid of step 1e-300 up to 8.0 has too many points"),
    (("preserver-test", "1*x^1.5, -0.01*x^2.5, 1*x^3.5", "--grid", "1e-300"),
     "grid of step 1e-300 up to 8.0 has too many points"),
    # the term syntax admits only numbers that float() reads
    (("preserver-test", "1*x^."), "cannot parse term '1*x^.'"),
    (("preserver-test", "1*x^1.2.3"), "cannot parse term '1*x^1.2.3'"),
    # 1e400 reads as inf, which no rule may prove or refute
    (("preserver-test", "1e400*x^2", "--trials", "5"), "term inf*x^2.0 is not finite"),
    (("absmon-test", "1e400*x^2"), "term inf*x^2.0 is not finite"),
])
def test_unrepresentable_functions_and_grids_are_usage_errors(capsys, argv, message):
    assert main(list(argv)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("absmon-test", "1*x^2", "--grid", "1e-12"),
    ("preserver-test", "1*x^1.5, -0.01*x^2.5, 1*x^3.5", "--trials", "5", "--grid", "1e-12"),
])
def test_a_grid_that_cannot_be_allocated_is_a_usage_error(monkeypatch, capsys, argv):
    # 8e12 points is below np.arange's size bound but 58 TiB of floats; the
    # allocation's MemoryError is faked, so that no test allocates the grid
    arange, refused = np.arange, []

    def refusing(stop, *args, **kwargs):
        if stop > 10 ** 9:
            refused.append(stop)
            raise MemoryError("Unable to allocate 58.2 TiB for an array")
        return arange(stop, *args, **kwargs)

    monkeypatch.setattr(np, "arange", refusing)
    assert main(list(argv)) == 2
    assert capsys.readouterr().err == "error: grid of step 1e-12 up to 8.0 has too many points\n"
    assert refused


@pytest.mark.parametrize("lit,order", [
    ("1*x^400, -1*x^401", 0),  # f is -inf or NaN near the top of the grid
    ("1*x^1.5", 3),
    ("1*x^1, 1*x^2, -0.1*x^3, 1*x^4, 1*x^5", 3),
])
def test_absmon_difference_is_the_one_at_its_witness(capsys, lit, order):
    code = main(["absmon-test", lit])
    cert = _strict_json(capsys.readouterr().out)["certificate"]
    assert code == 1 and cert["order"] == order and cert["h"] == 1 / 64
    want = forward_difference(parse_function(lit), cert["x"], cert["h"], order)
    assert math.isfinite(cert["difference"]) and cert["difference"] < 0
    assert math.isclose(cert["difference"], want, rel_tol=1e-9)


def test_reports_refuse_nan_and_infinity():
    rep = cli.Report("construct-thresholds", None, None, 1, "pass",
                     certificate={"threshold": float("nan")})
    for write in (rep.to_json, rep.to_csv):
        with pytest.raises(ValueError):
            write()


def test_tol_cap_is_inclusive(capsys):
    code, rep = run(capsys, "critical-exponent", "path 3", "0.5", "2", "--tol", "1e-6")
    assert code == 0 and rep["tolerance"] == 1e-6
    code, rep = run(capsys, "preserver-test", "1*x^2", "--trials", "20", "--tol", "1e-6")
    assert code == 0 and rep["tolerance"] == 1e-6


@pytest.mark.parametrize("argv,seed", [
    (("absmon-test", "1*x^2"), None),
    (("construct", "poly", "-n", "2"), None),
    (("witness", "random_tree 6", "--seed", "3"), 3),
    (("star-suite", "--trials", "20", "--seed", "3"), 3),
])
def test_commands_without_tol_print_null(capsys, argv, seed):
    # the key stays in every report; a command that reads no --tol (and
    # absmon-test and construct no --seed either) prints null for it
    code, rep = run(capsys, *argv)
    assert code == 0 and rep["tolerance"] is None and rep["seed"] == seed


def test_literal_starting_with_minus_goes_after_double_dash(capsys):
    code, rep = run(capsys, "preserver-test", "--trials", "5", "--", "-1*x^1")
    assert code == 1 and rep["verdict"] == "fail"
    cert = rep["certificate"]
    t = parse_graph(cert["tree"])
    assert not is_psd(apply_entrywise(parse_function("-1*x^1").value,
                                      parse_matrix(cert["matrix"]), t)).is_psd


@pytest.mark.parametrize("argv,prog,message", [
    (("preserver-test",), "graphpsd preserver-test",
     "the following arguments are required: function"),
    (("preserver-test", "1*x^2", "--trials", "x"), "graphpsd preserver-test",
     "argument --trials: invalid int value: 'x'"),
    (("star-suite", "--trials", "x"), "graphpsd star-suite",
     "argument --trials: invalid int value: 'x'"),
    # a missing or unknown subcommand and leftover arguments are worded by
    # the top-level parser
    ((), "graphpsd", "the following arguments are required: subcommand"),
    (("nonesuch",), "graphpsd", "invalid choice: 'nonesuch'"),
    (("preserver-test", "--", "-1*x^1", "--trials", "5"), "graphpsd",
     "unrecognized arguments: --trials 5"),
    (("witness", "star 4", "extra"), "graphpsd", "unrecognized arguments: extra"),
    (("witness", "star 4", "--bogus"), "graphpsd", "unrecognized arguments: --bogus"),
])
def test_parse_errors_return_2(capsys, argv, prog, message):
    # argparse exits on a parse error; main returns its status instead
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {prog} [-h]") and f"\n{prog}: error: " in err
    assert message in err


@pytest.mark.parametrize("argv,usage,flag", [
    (("--help",), "usage: graphpsd [-h]", "star-suite"),
    (("-h",), "usage: graphpsd [-h]", "star-suite"),
    (("preserver-test", "--help"), "usage: graphpsd preserver-test [-h]", "--tree-n"),
    (("preserver-test", "1*x^2", "-h"), "usage: graphpsd preserver-test [-h]", "--tree-n"),
    (("star-suite", "--help"), "usage: graphpsd star-suite [-h]", "--trials"),
])
def test_help_prints_and_returns_0(capsys, argv, usage, flag):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert out.startswith(usage) and flag in out


# For each subcommand: a normal run, its help, a missing positional, an
# unknown flag (a leftover argument, which the top-level parser words) and a
# bad type; then more leftover arguments, and argv that name no subcommand
PARSE_CASES = [
    ("preserver-test", "1*x^2", "--trials", "20"),
    ("preserver-test", "--trials", "5", "--", "-1*x^1"),
    ("preserver-test", "--help"),
    ("preserver-test", "1*x^2", "-h"),
    ("preserver-test",),
    ("preserver-test", "1*x^2", "--bogus"),
    ("preserver-test", "1*x^2", "--trials", "x"),
    ("absmon-test", "1*x^1.5"),
    ("absmon-test", "--help"),
    ("absmon-test",),
    ("absmon-test", "1*x^2", "--bogus"),
    ("absmon-test", "1*x^2", "--n-max", "x"),
    ("witness", "star 4"),
    ("witness", "--help"),
    ("witness",),
    ("witness", "star 4", "--bogus"),
    ("witness", "star 4", "--seed", "x"),
    ("critical-exponent", "path 5", "0.5", "2"),
    ("critical-exponent", "--help"),
    ("critical-exponent", "path 5"),
    ("critical-exponent", "path 5", "2", "--bogus"),
    ("critical-exponent", "path 5", "x"),
    ("construct", "thresholds", "2", "3", "1", "1"),
    ("construct", "--help"),
    ("construct",),
    ("construct", "poly", "--bogus"),
    ("construct", "poly", "-n", "x"),
    ("star-suite", "--trials", "20", "--seed", "3"),
    ("star-suite", "--help"),
    ("star-suite", "--bogus"),
    ("star-suite", "--trials", "x"),
    ("preserver-test", "--", "-1*x^1", "--trials", "5"),
    ("witness", "star 4", "extra"),
    ("star-suite", "extra"),
    (),
    ("--help",),
    ("nonesuch",),
    ("--", "witness", "star 4"),
]


def _outcome(capsys, *call):
    """(exit code, stdout without the elapsed_ms value, stderr) of main(*call)."""
    code = main(*call)
    out, err = capsys.readouterr()
    return code, re.sub(r'"elapsed_ms": [^,\n]+', '"elapsed_ms": 0', out), err


@pytest.mark.parametrize("argv", PARSE_CASES)
def test_argv_is_parsed_as_the_top_level_parser_parses_it(capsys, monkeypatch, argv):
    got = _outcome(capsys, list(argv))
    # the console script calls main() with no argv: it reads sys.argv
    monkeypatch.setattr(sys, "argv", ["graphpsd", *argv])
    assert _outcome(capsys) == got
    # the reference looks up no subcommand parser, so the top-level parser
    # parses every argv and hands it on to the subcommand's parser
    top = cli.build_parser()
    monkeypatch.setattr(cli, "_parsers", lambda: (top, {}))
    assert _outcome(capsys, list(argv)) == got


@pytest.mark.parametrize("argv,leftover", [
    (("witness", "star 4"), False),
    (("star-suite", "--trials", "5"), False),
    (("preserver-test", "1*x^2", "--trials", "x"), False),
    (("critical-exponent", "--help"), False),
    (("witness", "star 4", "extra"), True),
    (("preserver-test", "--", "-1*x^1", "--trials", "5"), True),
])
def test_argv_reaches_the_top_level_parser_only_with_leftovers(capsys, monkeypatch, argv,
                                                               leftover):
    calls = collections.Counter()
    top, commands = cli._parsers()

    def counting(name, parser):
        real = parser.parse_known_args

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(parser, "parse_known_args", wrapper)

    counting("top", top)
    counting("sub", commands[argv[0]])
    main(list(argv))
    capsys.readouterr()
    if leftover:
        assert calls["top"] == 1  # it hands argv on to the subcommand's parser again
    else:
        assert calls == {"sub": 1}


def test_main_runs_the_handler_bound_at_call_time(capsys, monkeypatch):
    # the parser is built once per process; the handler must still be looked
    # up by name on each call, so a rebound cmd_* function is the one that runs
    run(capsys, "witness", "star 4")
    seen = []

    def fake(args):
        seen.append(args.graph)
        return cli.Report("witness", args.seed, None, 1, "pass")

    monkeypatch.setattr(cli, "cmd_witness", fake)
    code, rep = run(capsys, "witness", "star 4")
    assert code == 0 and seen == ["star 4"] and rep["certificate"] is None


EXACT_PASS = {"grid_superadditive": True, "grid_mult_convex": True, "grid_nonnegative": True,
              "decided": "exact"}


@pytest.mark.parametrize("lit,verdict,certificate", [
    # undecided: f = x^400 (1 - x) < 0 beyond 1, which the f >= 0 scan finds
    ("1*x^400, -1*x^401", "fail", {"tree": "1 0\n", "matrix": "1\n0 0 1.015625\n",
                                   "grid_witness": [1.015625]}),
    # proved; 8^400 and 1e307 8^3 overflow, and their trials would fail on
    # the overflow at trial 0
    ("1*x^400", "pass", EXACT_PASS),
    ("1e307*x^3", "pass", EXACT_PASS),
    ("1*x^400, 1*x^401", "pass", EXACT_PASS),
])
def test_a_function_whose_bound_overflows_runs_no_trial(capsys, lit, verdict, certificate):
    # sum |c| R^e is not finite: an image could hold an inf that is not
    # f[A], so no trial runs, and the decider or the grid scans decide
    code, rep = run(capsys, "preserver-test", "--trials", "50", "--", lit)
    assert (code, rep["verdict"], rep["trials"], rep["certificate"]) == \
        (int(verdict == "fail"), verdict, 0, certificate)


def test_a_function_whose_bound_is_finite_runs_its_trials(capsys):
    # 1e307 * 1.5^3 and 8^340 are finite, at --range 1.5 and 8
    for argv in (("1e307*x^3", "--range", "1.5"), ("1*x^340",)):
        code, rep = run(capsys, "preserver-test", "--trials", "50", *argv)
        assert (code, rep["trials"], rep["certificate"]) == (0, 50, EXACT_PASS)


@pytest.mark.parametrize("argv,code", [
    (("preserver-test", "--trials", "50", "--", "1*x^400, -1*x^401"), 1),
    (("preserver-test", "1*x^400"), 0),
])
def test_overflow_prints_no_numpy_warning(capsys, argv, code):
    # numpy warns on overflow and on inf - inf; raised as an error, such a
    # warning would end the command with exit 2 and a message on stderr
    with np.errstate(over="warn", invalid="warn"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(list(argv)) == code
    assert capsys.readouterr().err == ""


def test_a_failing_trial_skips_the_grid_scans(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("grid scan after a failing trial")

    # the decider refutes x^0.5 before any trial; stubbed, the trials run
    monkeypatch.setattr(functions, "decide_tree_conditions", lambda f, bound: None)
    for name in ("check_abs_monotonic", "check_superadditive", "check_mult_midpoint_convex"):
        monkeypatch.setattr(functions, name, no_scan)
    code, rep = run(capsys, "preserver-test", "1*x^0.5", "--trials", "50")
    assert code == 1 and "image" in rep["certificate"]

