"""The four benchmark workloads and the table of expected verdicts.

A workload is a generator of rounds.  A round is a fixed list of command
kinds whose parameters are drawn from the benchmark seed, so the mix of
commands, and with it the median latency, does not drift with the seed.  The
program receives only the generated argv.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from checks import evaluate, min_eig_ratio, parse_literal

# Expected verdicts and where each one comes from.  GKR16 is Guillot, Khare
# and Rajaratnam, "Preserving positivity for matrices with sparsity
# constraints", Trans. AMS 2016.
SOURCES = {
    "tree-preserver": "GKR16: superadditive and multiplicatively midpoint-convex "
                      "functions preserve PSD on trees; the polynomial keeps both",
    "power-ge-1": "GKR16: x^a preserves PSD on every tree iff a >= 1",
    "power-lt-1": "GKR16: x^a with a < 1 fails on the 3-vertex path",
    "not-superadditive": "f(x+y)-f(x)-f(y) = xy(3(x+y)-2c) < 0 near 0, and trees "
                         "need superadditivity (GKR16)",
    "negative-value": "f(x) = x^2 - x < 0 on (0, 1) already breaks a 1x1 matrix",
    "wrong-pass": "f[[x, sqrt(xy)], [sqrt(xy), y]] at (4.34375, 7.96875) is not PSD "
                  "(ROADMAP open defect; the harness re-checks it at start)",
    "absmon-fail": "third forward difference at 0 is h^3(-6c + 36h + 150h^2) < 0 "
                   "for c > 6h + 25h^2",
    "absmon-pass": "every forward difference of a power sum with nonnegative "
                   "coefficients and integer exponents is >= 0 on [0, oo)",
    "witness": "order bounds max(2, max degree) <= k < |V| + |E| with certified "
               "witnesses (paper)",
    "construct": "constructions always report pass; the harness checks the "
                 "negative-coefficient count and the threshold formula",
    "star-criterion": "star PSD iff p >= 0 and p1 >= sum a_i^2 / p_i (GKR16); "
                      "the oracle must agree off the boundary band",
}

# Outputs of build_tree_preserver_poly(1..3): one to three negative middle
# coefficients within the superadditivity and midpoint-convexity budgets.
TREE_PRESERVERS = (
    "1.0*x^1.0, 1.0*x^2.0, -0.0006510416666666666*x^3.0, 1.0*x^4.0, 1.0*x^5.0",
    "1.0*x^1.0, 1.0*x^2.0, -0.00013636363636363637*x^3.0, "
    "-0.00013636363636363637*x^4.0, 1.0*x^5.0, 1.0*x^6.0",
    "1.0*x^1.0, 1.0*x^2.0, -4.451566951566952e-05*x^3.0, -4.451566951566952e-05*x^4.0, "
    "-4.451566951566952e-05*x^5.0, 1.0*x^6.0, 1.0*x^7.0",
)
README_POLY = "1*x^1, 1*x^2, -0.1*x^3, 1*x^4, 1*x^5"
WRONG_PASS_POLY = ("0.8226067272402589*x^2, 0.9171177984138357*x^3, "
                   "-0.4675362118938841*x^4, 0.7430217329347985*x^6")
WRONG_PASS_DEFECT = "ROADMAP wrong pass: midpoint-convexity witness embedded as a triangle"


@dataclass(frozen=True)
class Op:
    argv: tuple
    verdict: str  # expected: "pass" or "fail"
    source: str  # key into SOURCES
    known_defect: str = ""  # open defect that makes the program disagree today


def _seed(rng):
    return str(int(rng.integers(0, 2 ** 31)))


def _num(x):
    return repr(round(float(x), 6))


def _preserver_round(rng, trials, tree_n, next_seed):
    """Functions that preserve PSD on trees: every trial runs to the end."""
    funcs = [(lit, "tree-preserver") for lit in TREE_PRESERVERS]
    funcs.append((f"1*x^{_num(rng.uniform(1.0, 3.0))}", "power-ge-1"))
    funcs.append((README_POLY, "tree-preserver"))
    return [Op(("preserver-test", lit, "--trials", str(trials), "--tree-n", str(tree_n),
                "--seed", next_seed()), "pass", src)
            for lit, src in funcs]


def small_trees(rng):
    while True:
        yield _preserver_round(rng, 200, 12, lambda: _seed(rng))


def large_trees(rng):
    # Trial sizes are uniform on 2..tree-n and the cost grows as n^2, so with a
    # few hundred trials per run the median would follow the seed, and the tail
    # would follow how many commands the run got through.  Every run cycles
    # through the same 20 trial seeds (four rounds) instead; the seed picks x^a.
    schedule = itertools.cycle(range(0, 60, 3))
    while True:
        yield _preserver_round(rng, 3, 1000, lambda: str(next(schedule)))


def star_oracle(rng):
    while True:
        yield [Op(("star-suite", "--trials", "1000", "--seed", _seed(rng)), "pass",
                  "star-criterion")]


def certify(rng):
    while True:
        yield _certify_round(rng)


def _certify_round(rng):
    """Thirteen short commands that each end in a certificate."""
    alpha_lo = _num(rng.uniform(0.2, 0.9))
    r = float(rng.uniform(1.5, 3.0))
    pos = ", ".join(f"{_num(rng.uniform(0.1, 2.0))}*x^{e}" for e in (1, 2, 3))
    c_abs, c_sup = _num(rng.uniform(0.1, 0.5)), _num(rng.uniform(0.5, 1.5))
    short = ("--trials", "50", "--seed", _seed(rng))
    return [
        Op(("witness", f"star {rng.integers(6, 9)}"), "pass", "witness"),
        Op(("witness", f"path {rng.integers(5, 9)}"), "pass", "witness"),
        Op(("witness", f"complete {rng.integers(5, 8)}"), "pass", "witness"),
        Op(("critical-exponent", f"random_tree {rng.integers(6, 11)}", alpha_lo,
            _num(rng.uniform(1.0, 2.5)), "--trials", "40", "--seed", _seed(rng)),
           "pass", "power-ge-1"),
        Op(("absmon-test", f"1*x^1, 1*x^2, -{c_abs}*x^3, 1*x^4, 1*x^5", "--grid", "0.01"),
           "fail", "absmon-fail"),
        Op(("absmon-test", pos), "pass", "absmon-pass"),
        Op(("construct", "poly", "-n", str(rng.integers(1, 5))), "pass", "construct"),
        Op(("construct", "thresholds", _num(r), _num(r + rng.uniform(1.0, 4.0)),
            _num(rng.uniform(0.5, 2.0)), _num(rng.uniform(0.5, 2.0))), "pass", "construct"),
        Op(("preserver-test", f"1*x^{alpha_lo}") + short, "fail", "power-lt-1"),
        Op(("preserver-test", f"1*x^1, -{c_sup}*x^2, 1*x^3") + short, "fail",
           "not-superadditive"),
        Op(("preserver-test", "1*x^2, -1*x^1") + short, "fail", "negative-value"),
        Op(("preserver-test", WRONG_PASS_POLY) + short, "fail", "wrong-pass",
           known_defect=WRONG_PASS_DEFECT),
        Op(("preserver-test", TREE_PRESERVERS[0]) + short, "pass", "tree-preserver"),
    ]


WORKLOADS = {
    "small-trees": small_trees,
    "large-trees": large_trees,
    "star-oracle": star_oracle,
    "certify": certify,
}

WHY = {
    "small-trees": "preserver-test at tree-n 12 with 200 trials: per-call overhead in "
                   "sampling, apply_entrywise and the tree check dominates; batching must show",
    "large-trees": "preserver-test at tree-n 1000 with 3 trials: the O(n^2) dense front end "
                   "of tree_psd_check dominates; sparse end to end and memory must show",
    "star-oracle": "star-suite over many seeds: two eigvalsh calls and one SVD per sample, "
                   "no tree code; eigensolver changes show, tree changes must not",
    "certify": "thirteen short certificate commands incl. the known wrong pass: grid "
               "checks, witnesses, constructors and report building dominate",
}

# Which end-to-end metric each per-layer metric should move, on which workload.
LAYER_MAP = {
    "star_tree.tree_psd_check": "cmd_p50_ms on large-trees; ops_per_s on small-trees a little",
    "star_tree.tree_psd_check_sparse": "cmd_p50_ms on large-trees; ops_per_s on small-trees "
                                       "a little",
    "graphs.random_tree": "ops_per_s on small-trees; peak_rss_mb on large-trees",
    "matrices.random_psd_with_pattern": "ops_per_s on small-trees; peak_rss_mb on large-trees",
    "matrices.elimination_order": "ops_per_s on small-trees; peak_rss_mb on large-trees",
    "matrices.apply_entrywise": "ops_per_s on small-trees; peak_rss_mb on large-trees",
    "matrices.is_psd": "ops_per_s on star-oracle",
    "matrices.spectral_boundary_band": "ops_per_s on star-oracle",
    "star_tree.star_psd_check": "ops_per_s on star-oracle",
    "witnesses.star_kernel_stability": "ops_per_s on star-oracle",
    "functions.check_superadditive": "cmd_p50_ms on certify; a fixed share per command on "
                                     "small-trees",
    "functions.check_mult_midpoint_convex": "cmd_p50_ms on certify; a fixed share per command "
                                            "on small-trees",
    "functions.check_abs_monotonic": "cmd_p50_ms on certify",
    "witnesses.k_lower_bound": "cmd_tail_ms on certify",
    "witnesses.WitnessSet.recertify": "cmd_tail_ms on certify",
    "constructors.fractional_power_counterexample": "cmd_tail_ms on certify",
    "constructors.triangle_block": "cmd_tail_ms on certify",
    "cli": "cmd_p50_ms on certify (argparse plus Report.to_json)",
}


def wrong_pass_is_real():
    """The harness's own proof that WRONG_PASS_POLY is not a tree preserver."""
    x, y = 278 / 64, 510 / 64
    m = np.sqrt(x * y)
    image = evaluate(parse_literal(WRONG_PASS_POLY), np.array([[x, m], [m, y]]))
    return min_eig_ratio(image) < -1e-9
