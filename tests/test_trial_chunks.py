"""The chunked preservation trials against the trial-by-trial reference.

preserver-test runs its trials in chunks of floor(2^14 / W) trials, W = 3
--tree-n - 1 being the uniforms one trial reads, and at least one.  A chunk
of k trials is one forest of k trees: one Pruefer walk decodes it, one
sampler call and one f evaluation map it, and one leaf elimination checks it,
tree after tree.  These tests hold the command's reports to the loop in
tests/oracles.py, which decodes each tree by the heap reference and maps and
checks one trial at a time on the same draws, and the forest sampler to the
one-tree sampler.

preserver-test refutes a function that the exact decider refutes before any
trial.  The tests that compare its trials stub the decider to None, as for
an undecided function, so that every function they name runs its trials.
"""

import argparse
import collections
import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graphpsd import cli, functions, graphs, star_tree
from graphpsd.matrices import random_psd_plan_entries, stacked_psd_plan_entries

from oracles import trial_loop
from test_elimination_plan import random_forest, reference_prufer_edges, union


def split(plan, sizes):
    """The trees of the forest plan with union's layout, each relabeled from 0."""
    out, start = [], 0
    for n in sizes:
        out.append(graphs.EliminationPlan(
            tuple(v - start for v in plan.order[start:start + n]),
            tuple(u - start if u >= 0 else -1 for u in plan.parent[start:start + n])))
        start += n
    return out


def preserver_draw(seed, tree_n):
    """The trial draws of preserver-test --seed seed --tree-n tree_n, one
    trial at a time: per trial one row of 3 tree_n - 1 uniforms u from one
    default_rng(seed), read as the size n = 2 + floor(u (tree_n - 1)), then
    tree_n - 2 Pruefer entries floor(u n), then tree_n l_vv and tree_n l_uv
    uniforms; the trial uses the first n - 2, n and n of these.  Each tree is
    decoded by the heap reference, and k trees make their union, given with
    its parent array and tree bounds as the commands' draws give them."""
    rng = np.random.default_rng(seed)

    def draw(k):
        plans, blocks = [], []
        for _ in range(k):
            row = rng.random(3 * tree_n - 1)
            n = 2 + int(row[0] * (tree_n - 1))
            seq = [int(u * n) for u in row[1:n - 1]]
            plans.append(graphs.elimination_plan(
                graphs.Graph(n, frozenset(reference_prufer_edges(seq, n)))))
            blocks.append(np.stack([row[tree_n - 1:tree_n - 1 + n],
                                    row[2 * tree_n - 1:2 * tree_n - 1 + n]]))
        return forest(plans, np.concatenate(blocks, axis=1))
    return draw


def forest(plans, uniforms):
    """A draw's (plan, parent array, tree bounds, uniforms) for the union of plans."""
    plan = union(plans)
    bounds = np.cumsum([0] + [len(p.parent) for p in plans])
    return plan, np.array(plan.parent), bounds, uniforms


def fixed_tree_draw(plan, seed):
    """Trial draws on the one tree of plan, from default_rng(seed):
    rng.random((2, n)) per trial."""
    rng = np.random.default_rng(seed)
    n = len(plan.parent)
    return lambda k: forest([plan] * k,
                            np.concatenate([rng.random((2, n)) for _ in range(k)], axis=1))


def assert_same_draw(got, want):
    """Two draws equal: plan, parent array, tree bounds and uniform bytes."""
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.shape == b.shape and a.tobytes() == b.astype(a.dtype).tobytes()


def run_main(capsys, argv):
    code = cli.main(list(argv))
    rep = json.loads(capsys.readouterr().out)
    rep.pop("elapsed_ms")
    return code, rep


def undecided(monkeypatch):
    """Stub the exact decider to None: preserver-test then runs its trials,
    and the grid scans after them, for any function."""
    monkeypatch.setattr(functions, "decide_tree_conditions", lambda f, bound: None)


def run_both(capsys, monkeypatch, argv):
    """(exit code, report without elapsed_ms) from the chunked trials and from
    the reference loop, both with the decider stubbed to leave every function
    undecided."""
    with monkeypatch.context() as m:
        undecided(m)
        got = run_main(capsys, argv)
        m.setattr(cli, "_first_failing_trial", trial_loop)
        want = run_main(capsys, argv)
    return got, want


def first_failure(f, draw, limit=1000, range_max=8.0):
    """Index of the reference loop's first failing trial, or None."""
    for k in range(limit):
        sample = draw(1)
        if trial_loop(f, 1, lambda _: sample, None, range_max) is not None:
            return k
    return None


def test_trials_draw_in_the_stated_order(capsys, monkeypatch):
    # the command's draws, chunk by chunk, against the reference's, trial by
    # trial; 1100 trials at --tree-n 20 (W = 59) make chunks of 277
    seen = []
    monkeypatch.setattr(cli, "_first_failing_trial", lambda f, trials, draw, width, *rest:
                        seen.extend(draw(stop - start)
                                    for start, stop in cli._chunks(trials, width)))
    assert cli.main(["preserver-test", "1*x^2", "--tree-n", "20", "--trials", "1100",
                     "--seed", "4"]) == 0
    draw = preserver_draw(4, 20)
    for got in seen:
        assert_same_draw(got, draw(len(got[2]) - 1))
    assert [len(bounds) - 1 for _, _, bounds, _ in seen] == [277, 277, 277, 269]


def command_draw(monkeypatch, argv):
    """The draw function that the command argv hands to its trials; no trial runs."""
    got = []
    with monkeypatch.context() as m:
        m.setattr(cli, "_first_failing_trial", lambda f, trials, draw, *rest: got.append(draw))
        assert cli.main(list(argv)) == 0
    return got[0]


@pytest.mark.parametrize("argv", [
    ("preserver-test", "1*x^2", "--tree-n", "12", "--seed", "6"),
    ("preserver-test", "1*x^2", "--tree-n", "3", "--seed", "6"),
    ("preserver-test", "1*x^2", "--tree-n", "300", "--seed", "6"),
])
@pytest.mark.parametrize("k", [1, 5, 64, 500])
def test_one_draw_of_k_trials_is_k_draws_of_one(capsys, monkeypatch, argv, k):
    one_by_one = command_draw(monkeypatch, argv)
    singles = [one_by_one(1) for _ in range(k)]
    got = command_draw(monkeypatch, argv)(k)
    capsys.readouterr()
    # the forest of k trials is the union of the k one-tree forests; the
    # parent array is the plan's, and the bounds start at 0
    assert all(list(b) == [0, len(p.parent)] for p, _, b, _ in singles)
    assert_same_draw(got, forest([p for p, _, _, _ in singles],
                                 np.concatenate([u for _, _, _, u in singles], axis=1)))
    plan, parent, bounds, uniforms = got
    assert parent.tolist() == list(plan.parent)
    assert uniforms.shape == (2, bounds[-1]) == (2, len(plan.parent))


def test_row_entries_stay_below_their_bound():
    # u <= 1 - 2**-53, and floor(u n) < n for every n a row maps: the
    # product (1 - 2**-53) n rounds below n
    u = np.nextafter(1.0, 0.0)
    n = np.arange(1, 2 ** 20)
    assert np.all((u * n).astype(np.intp) == n - 1)
    assert 2 + int(u * (1000 - 1)) == 1000


def test_rows_draw_uniform_labeled_trees(capsys, monkeypatch):
    # 16 000 trials at --tree-n 4: sizes 2, 3, 4 and the 16 labeled trees on
    # 4 vertices (Cayley: 4^2) are uniform.  Each chi-square statistic stays
    # below the 0.999 quantile of its distribution: 13.82 for 2 degrees of
    # freedom, 37.70 for 15
    draw = command_draw(monkeypatch, ("preserver-test", "1*x^2", "--tree-n", "4", "--seed", "3"))
    capsys.readouterr()
    plan, _, bounds, _ = draw(16000)
    plans = split(plan, np.diff(bounds).tolist())

    def chi_square(counter):
        want = sum(counter.values()) / len(counter)
        return sum((c - want) ** 2 / want for c in counter.values())

    sizes = collections.Counter(len(p.parent) for p in plans)
    assert sorted(sizes) == [2, 3, 4] and chi_square(sizes) < 13.82
    trees = collections.Counter(p.graph().edges for p in plans if len(p.parent) == 4)
    assert len(trees) == 16 and chi_square(trees) < 37.70


def test_chunk_schedule():
    # --tree-n 12: W = 35, chunks of 468 trials; 200 trials are one chunk
    assert list(cli._chunks(200, 35)) == [(0, 200)]
    assert list(cli._chunks(1000, 35)) == [(0, 468), (468, 936), (936, 1000)]
    # --tree-n 3: W = 8, chunks of 2048; W = 12: chunks of 1365
    assert list(cli._chunks(2049, 8)) == [(0, 2048), (2048, 2049)]
    assert list(cli._chunks(1365, 12)) == [(0, 1365)]
    # --tree-n 1000: W = 2999, chunks of 5
    assert list(cli._chunks(3, 2999)) == [(0, 3)]
    assert list(cli._chunks(12, 2999)) == [(0, 5), (5, 10), (10, 12)]
    # a trial of more than 2^14 uniforms is a chunk of its own
    assert list(cli._chunks(3, 3 * 6000 - 1)) == [(0, 1), (1, 2), (2, 3)]
    assert list(cli._chunks(1, 2 ** 14 + 1)) == [(0, 1)]
    assert list(cli._chunks(1, 1)) == [(0, 1)]


def test_a_passing_chunk_makes_one_call_per_layer(capsys, monkeypatch):
    # 200 trials at --tree-n 12 are one chunk: one decode, one sampler call,
    # one evaluation of f on the trials and one leaf elimination
    calls = collections.Counter()

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((graphs, "prufer_plan"), (cli.matrices, "stacked_psd_plan_entries"),
                         (functions.EntrywiseFunction, "value"), (cli.star_tree, "eliminate")):
        counting(module, name)
    code, rep = run_main(capsys, ("preserver-test", "1*x^2", "--trials", "200", "--seed", "3"))
    assert (code, rep["trials"]) == (0, 200)
    assert calls == {"prufer_plan": 1, "stacked_psd_plan_entries": 1, "value": 1, "eliminate": 1}


# command seeds whose first failing trial is the key, found with the
# reference loop; the test checks the index before it compares reports
X097_SEEDS = {0: 23, 1: 48, 2: 17, 3: 29, 6: 57, 7: 128, 63: 127, 64: 411, 126: 6518,
              127: 2733}


@pytest.mark.parametrize("index", sorted(X097_SEEDS))
def test_preserver_first_failure_at_chunk_edges(capsys, monkeypatch, index):
    seed = X097_SEEDS[index]
    f = functions.parse_function("1*x^0.97")
    assert first_failure(f, preserver_draw(seed, 12)) == index
    got, want = run_both(capsys, monkeypatch, ("preserver-test", "1*x^0.97", "--trials", "200",
                                               "--seed", str(seed)))
    assert got == want and got[0] == 1
    # trials counts the trials that ran, the failing one included
    assert got[1]["trials"] == index + 1


# (tree-n, f, index, seed): the first failing trial is the last of the first
# chunk or the first of the second, K - 1 or K for K = floor(2^14 / W): 468
# trials at --tree-n 12 (W = 35), 2048 at --tree-n 3 (W = 8)
CHUNK_EDGE_SEEDS = [(12, "1*x^0.993", 467, 3106), (12, "1*x^0.993", 468, 85),
                    (3, "1*x^0.94", 2047, 2655), (3, "1*x^0.94", 2048, 2165)]


@pytest.mark.parametrize("tree_n,lit,index,seed", CHUNK_EDGE_SEEDS)
def test_preserver_first_failure_at_the_chunk_edge(capsys, monkeypatch, tree_n, lit, index,
                                                   seed):
    chunk = 2 ** 14 // (3 * tree_n - 1)
    assert index in (chunk - 1, chunk)
    f = functions.parse_function(lit)
    assert first_failure(f, preserver_draw(seed, tree_n), limit=index + 1) == index
    got, want = run_both(capsys, monkeypatch, ("preserver-test", lit, "--trials", str(2 * chunk),
                                               "--tree-n", str(tree_n), "--seed", str(seed)))
    assert got == want and got[0] == 1
    assert got[1]["trials"] == index + 1


FUNCTIONS = [
    "1*x^0.5",
    "1*x^0.9",
    "1*x^1, -1.9*x^2, 1*x^3",
    "1*x^2, -0.3*x^1",
    "2*x^0, 1*x^1",  # f(0) != 0: root edges must stay 0
    "3*x^0, -1*x^0.5",
    "1*x^1, 1*x^2, -0.1*x^3, 1*x^4, 1*x^5",
    "1*x^1.5",
]


@pytest.mark.parametrize("lit", FUNCTIONS)
@pytest.mark.parametrize("tree_n,trials", [(3, 200), (12, 5), (12, 100), (12, 200)])
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


def handler_args(lit, range_max, tree_n, seed, trials=60):
    return argparse.Namespace(function=lit, trials=trials, tree_n=tree_n, seed=seed, tol=1e-9,
                              grid=functions.DEFAULT_GRID_STEP, range=range_max)


# the verdicts hang on root edges being 0, not f(0)
@pytest.mark.parametrize("lit,range_max,tree_n,seed", [
    ("3*x^0, -1*x^0.5", 4.0, 3, 200),
    ("3*x^0, -1*x^0.5", 8.0, 3, 200),
    ("10*x^0, -2*x^1", 1.0, 3, 200),
    ("10*x^0, -2*x^1", 1.0, 12, 200),
    ("3*x^0, -1*x^0.5", 8.0, 12, 200),
    ("-3*x^0, 1*x^1", 4.0, 12, 200),
    ("8*x^0, -1*x^1.5", 4.0, 3, 200),
    ("3*x^0, -1*x^0.5", 1.0, 3, 238),
    ("3*x^0, -1*x^0.5", 1.0, 3, 112),
])
def test_constant_term_handler_matches_the_loop(monkeypatch, lit, range_max, tree_n, seed):
    # each f(0) != 0, which the decider refutes at 0: stubbed, the trials run
    undecided(monkeypatch)
    args = handler_args(lit, range_max, tree_n, seed)
    got = cli.cmd_preserver_test(args)
    monkeypatch.setattr(cli, "_first_failing_trial", trial_loop)
    want = cli.cmd_preserver_test(args)
    assert (got.verdict, got.trials, got.certificate) == \
        (want.verdict, want.trials, want.certificate)
    assert got.verdict == "fail"


def test_first_failure_in_a_chunk_is_reported():
    # trials 1 and 2 share the chunk and both fail: the elimination stops in
    # tree 1
    f = functions.parse_function("1*x^0.9")
    draw = preserver_draw(18, 12)
    assert [trial_loop(f, 1, draw, 35, 8.0) is not None for _ in range(3)] \
        == [False, True, True]
    got = cli._first_failing_trial(f, 3, preserver_draw(18, 12), 35, 8.0)
    assert got[0] == 1 and got == trial_loop(f, 3, preserver_draw(18, 12), 35, 8.0)


def recording_rechecks(monkeypatch):
    """The results of the command's Fraction re-checks of float fails, in order."""
    rechecks = []
    real = star_tree.exact_plan_psd_check

    def recording(*args):
        rechecks.append(real(*args))
        return rechecks[-1]

    monkeypatch.setattr(star_tree, "exact_plan_psd_check", recording)
    return rechecks


# a rank-one edge [[x, m], [m, y]] with m^2 = xy exactly, so singular and
# PSD, whose float pivot y - fl(fl(m m) / x) rounds below 0; found by search
# over p, q in [2^25, 2^26), x = p^2 / 2^52, y = q^2 / 2^52, m = pq / 2^52
P, Q = 38349066, 41562380
SINGULAR_EDGE = (P * P / 2.0 ** 52, Q * Q / 2.0 ** 52, P * Q / 2.0 ** 52)


def test_a_float_fail_that_is_psd_exactly_resumes_at_the_next_tree(monkeypatch):
    x, y, m = SINGULAR_EDGE
    assert Fraction(m) ** 2 == Fraction(x) * Fraction(y) and m * m / x > y
    edge = graphs.elimination_plan(graphs.path_graph(2))  # leaf 0 into root 1
    assert star_tree.eliminate(edge, [x, y], [m, 0.0]) == 1
    assert star_tree.exact_plan_psd_check(edge, [x, y], [m, 0.0])
    # three such trees in one forest, the singular edge in the middle: the
    # float pass fails it, its re-check passes it and the pass goes on to
    # the third tree, which decides, as in a tree-by-tree loop
    plan, bounds = union([edge] * 3), [0, 2, 4, 6]
    rechecks = recording_rechecks(monkeypatch)
    for last, want, checked in ((0.5, None, [True]), (2.0, 2, [True, False])):
        rechecks.clear()
        got = star_tree.first_failing_block(plan, [1.0, 1.0, x, y, 1.0, 1.0],
                                            [0.5, 0.0, m, 0.0, last, 0.0], bounds)
        assert (got, rechecks) == (want, checked)


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
    rng = np.random.default_rng(seed + 1000)
    blocks = [rng.random((2, len(p.order))) for p in plans]
    range_max = 0.5 + seed
    _, parent, bounds, uniforms = forest(plans, np.concatenate(blocks, axis=1))
    diag, edge = stacked_psd_plan_entries(parent, bounds, range_max, uniforms)
    lo = 0
    for plan, block in zip(plans, blocks):
        hi = lo + len(plan.order)
        want_diag, want_edge = stacked_psd_plan_entries(
            np.array(plan.parent), np.array([0, hi - lo]), range_max, block)
        assert diag[lo:hi].tobytes() == want_diag.tobytes()
        assert edge[lo:hi].tobytes() == want_edge.tobytes()
        lo = hi
    assert lo == len(diag) == len(edge)


def test_one_plan_sampler_reads_one_block_of_uniforms():
    plan = graphs.random_tree_plan(30, 4)
    block = np.random.default_rng(9).random((2, 30))
    want = stacked_psd_plan_entries(np.array(plan.parent), np.array([0, 30]), 3.0, block)
    for seed in (9, np.random.default_rng(9)):
        got = random_psd_plan_entries(plan, 3.0, seed)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("argv,x", [
    # x^1.5 (x - 1) has fractional exponents and a negative coefficient, so
    # the exact decider leaves it to the grid
    (("--trials", "5", "--", "-1*x^1.5, 1*x^2.5"), "0.015625"),
    # x^1.5 (x^0.5 - 1) < 0 on (0, 1); on [0, 1e-6] trial 0 fails unstubbed
    (("1*x^2, -1*x^1.5", "--range", "1e-6", "--grid", "1.5625e-08"), "1.5625e-08"),
])
def test_negative_function_fails_on_the_grid_when_trials_pass(capsys, monkeypatch, argv, x):
    # f >= 0, the first condition scanned, fails at the first grid point
    # after 0, and [[x]] is the certificate
    monkeypatch.setattr(cli, "_first_failing_trial", lambda *args: None)
    code, rep = run_main(capsys, ("preserver-test",) + argv)
    assert code == 1 and rep["verdict"] == "fail"
    assert rep["certificate"] == {"tree": "1 0\n", "matrix": f"1\n0 0 {x}\n",
                                  "grid_witness": [float(x)]}


# 1-3 terms c x^e with |c| = 10^u, u uniform in [-13, 1]: fractional
# exponents with a negative coefficient leave f to the grid, and a small
# |c| makes its violations small
GRID_TERMS = st.lists(
    st.tuples(st.builds(lambda sign, u: sign * 10.0 ** u, st.sampled_from([1.0, -1.0]),
                        st.floats(-13.0, 1.0)),
              st.sampled_from([0.5, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])),
    min_size=1, max_size=3, unique_by=lambda term: term[1])


@settings(max_examples=60, deadline=None)
@given(GRID_TERMS)
@example([(1e-10, 2.0), (-1e-10, 1.5)])
def test_a_grid_pass_has_every_grid_flag_true(terms):
    # no undecided f passes with a failing scan: a grid violation is final
    literal = ", ".join(f"{c!r}*x^{e!r}" for c, e in terms)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["preserver-test", "--trials", "5", "--", literal])
    rep = json.loads(out.getvalue())
    assert code == (0 if rep["verdict"] == "pass" else 1)
    if rep["verdict"] == "pass" and rep["certificate"]["decided"] == "grid":
        assert rep["certificate"] == {"grid_superadditive": True, "grid_mult_convex": True,
                                      "grid_nonnegative": True, "decided": "grid"}


def test_negative_constant_fails_at_zero(capsys, monkeypatch):
    # the decider refutes f(0) < 0 at 0 before any trial; stubbed, the grid's
    # f >= 0 scan finds the same point
    undecided(monkeypatch)
    monkeypatch.setattr(cli, "_first_failing_trial", lambda *args: None)
    code, rep = run_main(capsys, ("preserver-test", "--trials", "5", "--", "-1*x^0, 1*x^2"))
    assert code == 1
    # [[0]] has no nonzero entry to list
    assert rep["certificate"] == {"tree": "1 0\n", "matrix": "1\n", "grid_witness": [0.0]}


def test_pass_certificate_reports_the_nonnegativity_scan(capsys):
    # fractional exponents and a negative coefficient: not decided exactly,
    # so the grid scans decide
    code, rep = run_main(capsys, ("preserver-test", "1*x^1.5, -0.01*x^2.5, 1*x^3.5",
                                  "--trials", "20"))
    assert code == 0
    assert rep["certificate"] == {"grid_superadditive": True, "grid_mult_convex": True,
                                  "grid_nonnegative": True, "decided": "grid"}
