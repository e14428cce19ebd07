"""The chunked preservation trials against the trial-by-trial reference.

preserver-test and critical-exponent run their trials in chunks of 1, 2, 4,
..., 64, then 64 trials: one stacked sampler call and one f evaluation per
chunk, then the Schur loop trial by trial.  These tests hold their reports to
the loop in tests/oracles.py, which draws, maps and checks one trial at a
time, and the stacked sampler to the one-plan sampler.
"""

import argparse
import json

import numpy as np
import pytest

from graphpsd import cli, functions, graphs
from graphpsd.matrices import random_psd_plan_entries, stacked_psd_plan_entries

from oracles import random_tree_draw, trial_loop
from test_elimination_plan import random_forest


def run_main(capsys, argv):
    code = cli.main(list(argv))
    rep = json.loads(capsys.readouterr().out)
    rep.pop("elapsed_ms")
    return code, rep


def run_both(capsys, monkeypatch, argv):
    """(exit code, report without elapsed_ms) from the chunked trials and from
    the reference loop."""
    got = run_main(capsys, argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_first_failing_trial", trial_loop)
        want = run_main(capsys, argv)
    return got, want


def first_failure(f, draw, limit=1000, range_max=8.0):
    """Index of the reference loop's first failing trial, or None."""
    for k in range(limit):
        if trial_loop(f, 1, lambda _: draw(k), range_max, 1e-9) is not None:
            return k
    return None


def test_chunk_schedule():
    assert list(cli._chunks(200)) == [(0, 1), (1, 3), (3, 7), (7, 15), (15, 31), (31, 63),
                                      (63, 127), (127, 191), (191, 200)]
    assert list(cli._chunks(1)) == [(0, 1)]
    assert list(cli._chunks(5)) == [(0, 1), (1, 3), (3, 5)]


# command seeds whose first failing trial is the key, found with the
# reference loop; the test checks the index before it compares reports
X097_SEEDS = {0: 3, 1: 2, 2: 1, 3: 0, 6: 85, 7: 84, 63: 28, 64: 27, 126: 423, 127: 422}


@pytest.mark.parametrize("index", sorted(X097_SEEDS))
def test_preserver_first_failure_at_chunk_edges(capsys, monkeypatch, index):
    seed = X097_SEEDS[index]
    f = functions.parse_function("1*x^0.97")
    assert first_failure(f, lambda k: random_tree_draw(12, seed + k)) == index
    got, want = run_both(capsys, monkeypatch, ("preserver-test", "1*x^0.97", "--trials", "200",
                                               "--seed", str(seed)))
    assert got == want and got[0] == 1


# critical-exponent on "path 6", with power_function replaced by a function
# that fails on some trials: seeds as above
PATH6_SEEDS = {0: 113, 1: 112, 2: 111, 3: 110, 6: 107, 7: 106, 63: 50, 64: 49,
               126: 796, 127: 795}
RARE_FAILURE = "1*x^1, -1.9*x^2, 1*x^3"


@pytest.mark.parametrize("index", sorted(PATH6_SEEDS))
def test_critical_exponent_first_failure_at_chunk_edges(capsys, monkeypatch, index):
    seed = PATH6_SEEDS[index]
    f = functions.parse_function(RARE_FAILURE)
    plan = graphs.elimination_plan(graphs.path_graph(6))
    assert first_failure(f, lambda k: (plan, seed + k)) == index
    monkeypatch.setattr(functions, "power_function", lambda alpha: f)
    got, want = run_both(capsys, monkeypatch, ("critical-exponent", "path 6", "2.0",
                                               "--trials", "150", "--seed", str(seed)))
    assert got == want and got[0] == 1
    assert json.loads(got[1]["rows"][0]["certificate"]) == \
        trial_loop(f, 150, lambda k: (plan, seed + k), 8.0, 1e-9)


FUNCTIONS = [
    "1*x^0.5",
    "1*x^0.9",
    RARE_FAILURE,
    "1*x^2, -0.3*x^1",
    "2*x^0, 1*x^1",  # f(0) != 0: root edges must stay 0
    "3*x^0, -1*x^0.5",
    "1*x^1, 1*x^2, -0.1*x^3, 1*x^4, 1*x^5",
    "1*x^1.5",
]


@pytest.mark.parametrize("lit", FUNCTIONS)
@pytest.mark.parametrize("tree_n,trials", [(2, 200), (12, 5), (12, 100), (12, 200)])
@pytest.mark.parametrize("seed", [0, 9])
def test_preserver_reports_match_the_loop(capsys, monkeypatch, lit, tree_n, trials, seed):
    got, want = run_both(capsys, monkeypatch, ("preserver-test", "--trials", str(trials),
                                               "--tree-n", str(tree_n), "--seed", str(seed),
                                               "--", lit))
    assert got == want


@pytest.mark.parametrize("lit", ["1*x^1.5", "1*x^0.5", "2*x^0, 1*x^1"])
@pytest.mark.parametrize("seed", [0, 30])
def test_preserver_reports_match_the_loop_at_tree_n_1000(capsys, monkeypatch, lit, seed):
    got, want = run_both(capsys, monkeypatch, ("preserver-test", lit, "--trials", "4",
                                               "--tree-n", "1000", "--seed", str(seed)))
    assert got == want


@pytest.mark.parametrize("spec", ["path 5", "star 7", "random_tree 12", "random_tree 1000"])
def test_critical_exponent_reports_match_the_loop(capsys, monkeypatch, spec):
    got, want = run_both(capsys, monkeypatch, ("critical-exponent", spec, "0.5", "1.0", "2.5",
                                               "--trials", "70", "--seed", "4"))
    assert got == want and got[0] == 0


def handler_args(lit, tol, range_max, tree_n, seed, trials=60):
    return argparse.Namespace(function=lit, trials=trials, tree_n=tree_n, seed=seed, tol=tol,
                              grid=functions.DEFAULT_GRID_STEP, range=range_max)


# main refuses a --tol above 1e-6; at these wide bands the verdicts hang on
# each trial's own threshold and on root edges being 0, not f(0)
@pytest.mark.parametrize("lit,tol,range_max,tree_n,seed", [
    ("3*x^0, -1*x^0.5", 0.5, 4.0, 3, 200),
    ("3*x^0, -1*x^0.5", 0.5, 8.0, 3, 200),
    ("10*x^0, -2*x^1", 0.05, 1.0, 3, 200),
    ("10*x^0, -2*x^1", 0.05, 1.0, 12, 200),
    ("3*x^0, -1*x^0.5", 0.2, 8.0, 12, 200),
    ("-3*x^0, 1*x^1", 0.5, 4.0, 12, 200),
    ("8*x^0, -1*x^1.5", 0.5, 4.0, 3, 200),
])
def test_wide_band_handler_matches_the_loop(monkeypatch, lit, tol, range_max, tree_n, seed):
    args = handler_args(lit, tol, range_max, tree_n, seed)
    got = cli.cmd_preserver_test(args)
    monkeypatch.setattr(cli, "_first_failing_trial", trial_loop)
    want = cli.cmd_preserver_test(args)
    assert (got.verdict, got.certificate) == (want.verdict, want.certificate)
    assert got.verdict == "fail"


def test_first_failure_in_a_chunk_is_reported():
    # trials 1 and 2 share the second chunk and both fail
    f = functions.parse_function("1*x^0.9")
    draw = lambda k: random_tree_draw(12, k)  # noqa: E731
    assert [trial_loop(f, 1, lambda _: draw(k), 8.0, 1e-9) is not None for k in range(3)] \
        == [False, True, True]
    assert cli._first_failing_trial(f, 3, draw, 8.0, 1e-9) == trial_loop(f, 3, draw, 8.0, 1e-9)


def _plans(seed):
    """Plans of random trees and forests, sizes 1..40, as a chunk would hold."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(int(rng.integers(1, 70))):
        n = int(rng.integers(1, 41))
        if k % 3:
            out.append(graphs.random_tree_plan(n, int(rng.integers(0, 2 ** 31))))
        else:
            out.append(graphs.elimination_plan(random_forest(n, int(rng.integers(0, 2 ** 31)))))
    return out


@pytest.mark.parametrize("seed", range(25))
def test_stacked_sampler_is_the_one_plan_sampler(seed):
    plans = _plans(seed)
    seeds = [seed * 1000 + j for j in range(len(plans))]
    range_max = 0.5 + seed
    diag, edge = stacked_psd_plan_entries(plans, range_max, seeds)
    lo = 0
    for plan, s in zip(plans, seeds):
        hi = lo + len(plan.order)
        want_diag, want_edge = random_psd_plan_entries(plan, range_max, s)
        assert diag[lo:hi].tobytes() == want_diag.tobytes()
        assert edge[lo:hi].tobytes() == want_edge.tobytes()
        lo = hi
    assert lo == len(diag) == len(edge)


def test_negative_function_fails_on_the_grid_when_trials_pass(capsys, monkeypatch):
    # -x is superadditive and midpoint convex on the grid; only f >= 0 fails,
    # at the first grid point after 0, and [[x]] is the certificate
    monkeypatch.setattr(cli, "_first_failing_trial", lambda *args: None)
    code, rep = run_main(capsys, ("preserver-test", "--trials", "5", "--", "-1*x^1"))
    assert code == 1 and rep["verdict"] == "fail"
    assert rep["certificate"] == {"tree": "1 0\n", "matrix": "1\n0 0 0.015625\n",
                                  "grid_witness": [0.015625]}


def test_negative_constant_fails_at_zero(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_first_failing_trial", lambda *args: None)
    code, rep = run_main(capsys, ("preserver-test", "--trials", "5", "--", "-1*x^0, 1*x^2"))
    assert code == 1
    # [[0]] has no nonzero entry to list
    assert rep["certificate"] == {"tree": "1 0\n", "matrix": "1\n", "grid_witness": [0.0]}


def test_pass_certificate_reports_the_nonnegativity_scan(capsys):
    code, rep = run_main(capsys, ("preserver-test", "1*x^2", "--trials", "20"))
    assert code == 0
    assert rep["certificate"] == {"grid_superadditive": True, "grid_mult_convex": True,
                                  "grid_nonnegative": True}
