"""star-suite's draws and exact verdicts against references that share no
code with it.

star-suite draws its samples from one generator, each kind in one sampler
call, into one leaf-major stack padded with zero leaves (column i sample
i), and in one pass over it (star_tree.stacked_verdicts) computes the float
criterion's claim and every sample's exact verdict by stages: the
criterion's first two conditions, then the sign of the center's Schur
complement in floats, in double-double and in integers.  These tests hold
its draws to the order and the shares it states, its reports to the loop
in tests/oracles.py on the same samples (exact verdicts in Fraction
arithmetic, eigvalsh on every star, kernel stability in floats), every
stage to Fraction arithmetic on rows built to be hard for it, its claims to
the one-star criterion loop there, and its padded stars to the unpadded
ones.  The tests build stars as rows, as the samplers return them, and
hand stacked_verdicts their transposes.  The kernel-stability lemma that
lets star-suite skip that check is tested exactly, on an enumerated grid of
PSD stars, and against the float check on the stars star-suite draws.
"""

import functools
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphpsd import cli, star_tree
from graphpsd.matrices import format_matrix
from graphpsd.star_tree import (
    StarMatrix,
    leaf_load,
    random_psd_star,
    random_star,
    stacked_dense,
    stacked_verdicts,
)

from oracles import (
    eigvalsh_verdict,
    exact_star_psd,
    kernel_stability_loop,
    star_criterion_loop,
    star_suite_loop,
)


def _stars(d, count, seed):
    """count stars of degree d, the first half from random_star, the rest
    from random_psd_star, stacked as (p, alpha)."""
    rng = np.random.default_rng(seed)
    half = count // 2
    p, alpha = zip(random_star(np.full(half, d), rng),
                   random_psd_star(np.full(count - half, d), rng))
    return np.concatenate(p), np.concatenate(alpha)


def drawn_rows(seed, trials):
    """star-suite's draws for --seed seed --trials trials as (degree, p,
    alpha), stacked as rows: row i is sample i."""
    degree, p, alpha = cli._draw_stars(np.random.default_rng(seed), trials)
    return degree, p.T, alpha.T


def verdicts(p, alpha):
    """stacked_verdicts on the stars stacked as rows of p and alpha."""
    return stacked_verdicts(p.T, alpha.T)


def claims(p, alpha):
    """The float criterion's first failed condition per row, 0 for PSD."""
    return verdicts(p, alpha)[0]


def drawn_stars(seed, trials):
    """The samples of star-suite --seed seed --trials trials, in index order."""
    degree, p, alpha = drawn_rows(seed, trials)
    return [StarMatrix(pr[:d + 1], ar[:d]) for d, pr, ar in zip(degree.tolist(), p, alpha)]


def degree_stacks(seed, trials):
    """star-suite's samples as one unpadded stack (p, alpha) per degree."""
    degree, p, alpha = drawn_rows(seed, trials)
    return [(p[degree == d, :d + 1], alpha[degree == d, :d]) for d in range(1, 9)]


def padded(p, alpha, width=8):
    """The rows of p and alpha with zero leaves appended up to width leaves."""
    pad = width - alpha.shape[1]
    return np.pad(p, ((0, 0), (0, pad))), np.pad(alpha, ((0, 0), (0, pad)))


@pytest.mark.parametrize("seed,trials", [(0, 1), (5, 40), (8, 1000)])
def test_draws_follow_the_stated_order(seed, trials):
    # every degree, every kind, then all random_star rows in one call and
    # all random_psd_star rows in one
    rng = np.random.default_rng(seed)
    degree = rng.integers(1, 9, trials)
    psd_kind = rng.random(trials) >= 0.5
    want = {}
    for sampler, kind in ((random_star, ~psd_kind), (random_psd_star, psd_kind)):
        rows = np.flatnonzero(kind)
        p, alpha = sampler(degree[rows], rng)
        want.update((i, (pr[:d + 1].tolist(), ar[:d].tolist()))
                    for i, d, pr, ar in zip(rows.tolist(), degree[rows].tolist(), p, alpha))
    got = {i: (list(s.p), list(s.alpha)) for i, s in enumerate(drawn_stars(seed, trials))}
    assert got == want


def test_draws_are_padded_with_zeros_and_keep_their_shares():
    trials = 20000
    rng = np.random.default_rng(3)
    degree = rng.integers(1, 9, trials)
    psd_kind = rng.random(trials) >= 0.5
    got_degree, p, alpha = cli._draw_stars(np.random.default_rng(3), trials)
    assert p.shape == (9, trials) and alpha.shape == (8, trials)
    assert p.flags.c_contiguous and alpha.flags.c_contiguous
    assert got_degree.tolist() == degree.tolist()
    p, alpha = p.T, alpha.T
    absent = np.arange(8) >= degree[:, None]
    assert not p[:, 1:][absent].any() and not alpha[absent].any()
    # each kind about 1/2, each degree about 1/8, within each kind too
    assert 0.48 < psd_kind.mean() < 0.52
    for kind in (psd_kind, ~psd_kind):
        assert all(0.11 < np.mean(degree[kind] == d) < 0.14 for d in range(1, 9))
    # the entries of each kind on the leaves present
    plain, psd = p[~psd_kind], p[psd_kind]
    assert -2.0 <= plain.min() and plain.max() < 2.0
    assert ((psd[:, 1:] >= 0.1) | absent[psd_kind]).all() and psd[:, 1:].max() < 2.0
    # about 30 % of the PSD rows sit at the criterion's load bit for bit,
    # padded or not, and about 30 % have a leaf with alpha_i = p_i
    at_load = p[psd_kind, 0] == leaf_load(psd[:, 1:], alpha[psd_kind])
    assert 0.27 < at_load.mean() < 0.33
    for k in np.flatnonzero(psd_kind)[at_load][:400].tolist():
        d = degree[k]
        assert p[k, 0] == leaf_load(p[k, 1:d + 1], alpha[k, :d])
    tied = ((alpha == p[:, 1:]) & ~absent)[psd_kind].any(axis=1)
    assert 0.27 < tied.mean() < 0.33


@pytest.mark.parametrize("seed", [0, 3, 11, 250])
@pytest.mark.parametrize("trials", [1, 7, 1000])
def test_report_matches_the_loop(capsys, seed, trials):
    code = cli.main(["star-suite", "--trials", str(trials), "--seed", str(seed)])
    rep = json.loads(capsys.readouterr().out)
    cert = rep["certificate"]
    stages = cert.pop("decided_by")
    assert list(stages) == list(cli.STAGES) and sum(stages.values()) == trials
    assert rep["tolerance"] is None
    assert (code, rep["verdict"], cert) == (0, *star_suite_loop(drawn_stars(seed, trials)))


def test_star_suite_runs_no_eigensolver(capsys, monkeypatch):
    # main turns an exception into exit 2; every run must pass
    def refuse(*args, **kwargs):
        raise AssertionError("star-suite ran an eigensolver")

    for name in ("eigvalsh", "eigh", "eigvals", "eig", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for seed in (0, 4, 9):
        assert cli.main(["star-suite", "--seed", str(seed)]) == 0
        assert json.loads(capsys.readouterr().out)["certificate"]["checked"] == 1000


@pytest.mark.parametrize("level", [0, 1, 2])
def test_a_wrong_claim_fails_the_run_where_a_margin_proves_the_criterion(monkeypatch, level):
    # the criterion's claim flipped on one sample: where the conditions or
    # the float stage decide, the margin proves the criterion's verdict, so
    # the run fails there, with both verdicts and the keys every star-suite
    # report has; where a later stage decides, the sample is counted
    args = cli.build_parser().parse_args(["star-suite", "--seed", "4", "--trials", "300"])
    degree, p, alpha = drawn_rows(4, 300)
    failed, exact, stage = verdicts(p, alpha)
    claim = failed == 0
    before = cli.cmd_star_suite(args).certificate
    k = int(np.flatnonzero(stage == level)[3])
    real = star_tree.stacked_verdicts

    def flipped(p, alpha):
        failed, exact, stage = real(p, alpha)
        failed[k] = 0 if failed[k] else 3
        return failed, exact, stage

    monkeypatch.setattr(star_tree, "stacked_verdicts", flipped)
    rep = cli.cmd_star_suite(args)
    if level <= 1:
        d = int(degree[k])
        matrix = format_matrix(stacked_dense(p[k:k + 1, :d + 1], alpha[k:k + 1, :d])[0])
        assert (rep.verdict, rep.certificate) == ("fail", {
            "matrix": matrix, "criterion": not claim[k], "exact": bool(exact[k]),
            "checked": k + 1, "boundary_skipped": 0})
    else:
        assert rep.verdict == "pass"
        step = 1 if claim[k] == exact[k] else -1
        assert rep.certificate["criterion_wrong"] == before["criterion_wrong"] + step


def _exact_load(p, alpha):
    """The exact leaf load of each row, as a Fraction."""
    return [sum((Fraction(a) ** 2 / Fraction(x) for x, a in zip(pr[1:].tolist(), ar.tolist())
                 if x > 0), Fraction(0)) for pr, ar in zip(p, alpha)]


def _at_centers(p, alpha, centers):
    """Copies of the rows with each center of centers and one ulp either side."""
    rows = []
    for toward in (-np.inf, None, np.inf):
        q = p.copy()
        q[:, 0] = centers if toward is None else np.nextafter(centers, toward)
        rows.append((q, alpha))
    return rows


def cascade_rows(d, seed, scale):
    """Rows of degree d, padded to 8 leaves, built to be hard for the exact
    stages: both samplers' draws with some leaves zeroed, scaled by scale;
    copies of the PSD draws with the center at the criterion's load and at
    the float nearest the exact load, and one ulp either side; kernel rows
    alpha_j = p_j at the load, where S = 0; rows with S = 0 whose load is no
    dyadic rational, from leaves (a, 3c) and (a, 3c / 2), and one ulp
    either side; rows whose alpha_i^2 underflows in the criterion; and rows
    whose alpha_i^2 or alpha_i^2 / p_i overflows."""
    rng = np.random.default_rng(seed)
    p, alpha = _stars(d, 24, seed)
    zero = rng.random(alpha.shape) < 0.15
    p[:, 1:][zero] = alpha[zero] = 0.0
    p, alpha = scale * p, scale * alpha
    psd_p, psd_alpha = p[12:], alpha[12:]
    rows = [(p, alpha)]
    rows += _at_centers(psd_p, psd_alpha, leaf_load(psd_p[:, 1:], psd_alpha))
    rows += _at_centers(psd_p, psd_alpha, [float(x) for x in _exact_load(psd_p, psd_alpha)])
    j = rng.integers(d, size=12)
    q, a = psd_p.copy(), np.zeros_like(psd_alpha)
    a[np.arange(12), j] = q[np.arange(12), 1 + j]
    q[:, 0] = a[np.arange(12), j]
    rows.append((q, a))
    two = 2.0 ** np.round(np.log2(scale))
    if d >= 2:
        # a has 21 bits, so a^2 / c is exact and is the exact load
        a = np.round(rng.uniform(0.5, 2.0, 12) * 2.0 ** 20) * 2.0 ** -20 * two
        c = 2.0 ** rng.integers(-3, 4, 12) * two
        q, al = psd_p.copy(), np.zeros_like(psd_alpha)
        q[:, 1], q[:, 2], al[:, 0], al[:, 1] = 3.0 * c, 1.5 * c, a, a
        rows += _at_centers(q, al, a * a / c)
    q, a = np.zeros((6, d + 1)), np.zeros((6, d))
    # alpha^2 underflows to 0 in the criterion, whose load is then 0
    a[:2, 0] = 2.0 ** -540 * rng.uniform(0.5, 2.0, 2)
    q[:2, 1] = 2.0 ** -600 * rng.uniform(0.5, 2.0, 2)
    q[:2, 0] = a[:2, 0] * (a[:2, 0] / q[:2, 1]) * np.array([0.5, 2.0])
    # alpha^2 overflows in the criterion alone, and alpha^2 / p_i in both loads
    q[2:4, 1], a[2:4, 0], q[2:4, 0] = 1e200, 1e200, [1e199, 1e201]
    q[4:, 1], a[4:, 0], q[4:, 0] = 1e-200, 1e200, [1e300, 1e308]
    rows.append((q, a))
    return padded(*map(np.concatenate, zip(*rows)))


def check_exact_verdicts(p, alpha, d):
    """stacked_verdicts on padded rows of degree d: every verdict is the
    Fraction one and, wherever its least eigenvalue clears the
    backward-error bound, eigvalsh's on the unpadded star; wherever the
    conditions or the float stage decide, the criterion's verdict is the
    exact one.  Returns the stages."""
    failed, psd, stage = verdicts(p, alpha)
    claim = failed == 0
    assert (claim == psd)[stage <= 1].all()
    dense = stacked_dense(p[:, :d + 1], alpha[:, :d])
    for k in range(len(p)):
        assert psd[k] == exact_star_psd(p[k].tolist(), alpha[k].tolist()), k
        spectral = eigvalsh_verdict(dense[k])
        assert spectral is None or spectral == psd[k], k
    return stage


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1.0, 1e-6, 1e6, 1e-150, 1e150]))
def test_exact_verdicts_hold_in_fractions_and_for_eigvalsh(d, seed, scale):
    with np.errstate(over="ignore"):
        check_exact_verdicts(*cascade_rows(d, seed, scale), d)


@pytest.mark.parametrize("d", range(2, 9))
def test_every_stage_decides_hard_rows(d):
    with np.errstate(over="ignore"):
        stages = np.concatenate([check_exact_verdicts(*cascade_rows(d, seed, 1.0), d)
                                 for seed in range(3)])
    assert (np.bincount(stages, minlength=4) > 0).all()


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1.0, 1e6]))
def test_double_double_signs_hold_where_they_clear_the_bound(d, seed, scale):
    # every row with p >= 0, the ones whose exact Schur complement is 0
    # included: wherever |s| > bound, s has the exact sign, which is not 0.
    # Rows with an entry outside the stage's range get bound NaN; of the
    # others, nearly every one with a nonzero complement is decided
    p, alpha = cascade_rows(d, seed, scale)
    keep = (p >= 0.0).all(axis=1)
    p, alpha = p[keep], alpha[keep]
    s, bound = star_tree._double_double_schur(p.T, alpha.T)
    exact = np.array([Fraction(x) - load
                      for x, load in zip(p[:, 0].tolist(), _exact_load(p, alpha))])
    decided = np.abs(s) > bound
    for k in np.flatnonzero(decided).tolist():
        assert exact[k] != 0 and (s[k] > 0) == (exact[k] > 0), k
    nonzero = np.isfinite(bound) & (exact != 0)
    assert decided[nonzero].mean() > 0.9


@pytest.mark.parametrize("seed", [0, 4])
def test_star_suite_draws_are_decided_exactly(seed):
    # on star-suite's own draws every verdict is the Fraction one, and each
    # stage leaves few rows to the next
    degree, p, alpha = drawn_rows(seed, 1000)
    _, psd, stage = verdicts(p, alpha)
    assert psd.tolist() == [exact_star_psd(pr.tolist(), ar.tolist()) for pr, ar in zip(p, alpha)]
    counts = np.bincount(stage, minlength=4)
    assert counts[1] > 300 and counts[2] > 100 and 0 < counts[3] < 30


def test_the_reference_loop_calls_eigvalsh_on_every_star(monkeypatch):
    # tests/oracles.star_suite_loop, which test_report_matches_the_loop holds
    # star-suite to, keeps the eigensolve that star-suite leaves out
    calls = []
    real = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return real(a)

    stars = drawn_stars(4, 300)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    star_suite_loop(stars)
    assert len(calls) == len(stars)


@pytest.mark.parametrize("d", range(0, 9))
def test_claims_match_the_criterion_loop(d):
    rng = np.random.default_rng(100 + d)
    p = rng.choice([-1.0, 0.0, 0.3, 0.7, 1.9], size=(300, d + 1))
    alpha = rng.choice([0.0, -1.1, 0.5, 0.9], size=(300, d))
    # a third of the centres sit exactly at the load, where a fold in another
    # order would put them an ulp off
    p[::3, 0] = [leaf_load(pl, al) for pl, al in zip(p[::3, 1:], alpha[::3])]
    got = claims(p, alpha)
    want = [star_criterion_loop(StarMatrix(pr, ar)) for pr, ar in zip(p, alpha)]
    assert got.tolist() == want
    assert {0, 1, 2, 3} <= set(want) or d == 0


@pytest.mark.parametrize("d", range(1, 9))
def test_padding_changes_no_load_and_no_verdict(d):
    # star-suite checks every degree in one stack padded with zero leaves:
    # leaf_load skips them and folds + 0.0, so each load and each criterion
    # verdict is the unpadded one bit for bit.  leaf_load folds in numpy, not
    # with builtin sum, so this holds on Python 3.12 and later too
    p, alpha = _stars(d, 200, seed=300 + d)
    rng = np.random.default_rng(400 + d)
    p[:60, 1:] = rng.choice([-1.0, 0.0, 0.3, 1.9], size=(60, d))
    alpha[:60] = rng.choice([0.0, -1.1, 0.5], size=(60, d))
    p[:60:2, 0] = leaf_load(p[:60:2, 1:], alpha[:60:2])
    # PSD draws (the second half) with their center one ulp below the load
    p[100:120, 0] = np.nextafter(leaf_load(p[100:120, 1:], alpha[100:120]), -np.inf)
    wide_p, wide_alpha = padded(p, alpha)
    assert leaf_load(wide_p[:, 1:], wide_alpha).tobytes() == leaf_load(p[:, 1:], alpha).tobytes()
    got = claims(wide_p, wide_alpha)
    assert got.tolist() == claims(p, alpha).tolist()
    assert {0, 1, 2, 3} <= set(got.tolist())


@pytest.mark.parametrize("d", range(1, 9))
def test_criterion_psd_stars_pass_the_float_kernel_check(d):
    # star-suite checks no kernel stability on the stars its criterion calls
    # PSD; the float check in tests/oracles.py must agree with the lemma there
    p, alpha = _stars(d, 60, seed=200 + d)
    psd = claims(p, alpha) == 0
    assert psd.sum() >= 30
    assert all(kernel_stability_loop(StarMatrix(pr, ar), 8) for pr, ar in zip(p[psd], alpha[psd]))


@pytest.mark.parametrize("seed", range(50))
def test_drawn_psd_stars_pass_the_float_kernel_check(seed):
    # every criterion-PSD star of star-suite's draws, and the same stars
    # scaled by 25, most with ||A|| > 10, where the SVD cutoff of the float
    # check lies above the boundary band: none fails the check that the
    # lemma lets star-suite skip
    stacks = degree_stacks(seed, 200)
    stacks += [(25.0 * p, 25.0 * alpha) for p, alpha in stacks]
    large = 0
    for p, alpha in stacks:
        psd = claims(p, alpha) == 0
        large += int(np.sum(np.linalg.eigvalsh(stacked_dense(p[psd], alpha[psd]))[:, -1] > 10.0))
        assert all(kernel_stability_loop(StarMatrix(pr, ar), 8) for pr, ar in zip(p[psd], alpha[psd]))
    assert large > 50


# leaves (p_i, alpha_i) of the exact lemma tests: p_i in 0..3, alpha_i in
# -2..2, and alpha_i = 0 where p_i = 0
LEAF_KINDS = [(0, 0)] + [(p, alpha) for p in (1, 2, 3) for alpha in range(-2, 3)]


def _leaf_multisets():
    """Every multiset of 1 to 3 leaf kinds, with its exact leaf load; a
    multiset stands for all its orders, since permuting the leaves permutes
    the rows of every A^(m)."""
    for d in (1, 2, 3):
        for leaves in itertools.combinations_with_replacement(LEAF_KINDS, d):
            yield leaves, sum(Fraction(alpha * alpha, p) for p, alpha in leaves if p)


def _rank(rows):
    """Rank over the rationals of integer rows, by fraction-free elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        at = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        pivot = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                rows[i] = [pivot[col] * x - rows[i][col] * y for x, y in zip(rows[i], pivot)]
        rank += 1
    return rank


def _star_rows(p_center, leaves, scale):
    """The rows of scale * A for the star with center diagonal p_center and
    leaves (p_i, alpha_i), as integers."""
    n = len(leaves) + 1
    a = [[Fraction(0)] * n for _ in range(n)]
    a[0][0] = p_center
    for i, (p, alpha) in enumerate(leaves, 1):
        a[i][i], a[0][i], a[i][0] = Fraction(p), Fraction(alpha), Fraction(alpha)
    rows = [[scale * x for x in row] for row in a]
    assert all(x.denominator == 1 for row in rows for x in row)
    return [[int(x) for x in row] for row in rows]


def _stable(rows):
    """rank [A; A^(2)] and whether rank [A; A^(2); A^(m)] equals it for every
    m = 3..8."""
    low = rows + [[x ** 2 for x in row] for row in rows]
    rank = _rank(low)
    return rank, all(_rank(low + [[x ** m for x in row] for row in rows]) == rank
                     for m in range(3, 9))


def test_kernel_stability_lemma_holds_exactly_on_small_psd_stars():
    # every PSD star with d = 1..3 leaves of LEAF_KINDS and p_c at the leaf
    # load or one above it.  Scaling A by 6 clears every load's denominator
    # and scales A^(m) by 6^m, so no rank changes.
    stars = joint_kernels = zero_leaf = tied = 0
    for leaves, load in _leaf_multisets():
        for p_center in (load, load + 1):
            rank, stable = _stable(_star_rows(p_center, leaves, 6))
            assert stable, (p_center, leaves)
            stars += 1
            if rank <= len(leaves):
                joint_kernels += 1
                zero_leaf += any(p == 0 for p, _ in leaves)
                tied += any(p == alpha != 0 for p, alpha in leaves)
    # not vacuous: many stars have a joint kernel, among them stars with a
    # zero leaf and stars with a leaf at alpha_i = p_i
    assert stars == 1936 and joint_kernels > 300 and zero_leaf > 0 and tied > 0


def test_kernel_stability_lemma_needs_no_load_condition():
    # the proof uses p_i >= 0 and alpha_i = 0 where p_i = 0, never p_c >=
    # load, so stars below their load are stable too; among them a star that
    # the criterion calls PSD at its float load, which lies an ulp below the
    # exact load 1 + 1/3, so that the exact matrix is not PSD
    load = leaf_load([1.0, 3.0], [1.0, 1.0])
    assert Fraction(load) < Fraction(4, 3)
    assert claims(np.array([[load, 1.0, 3.0]]), np.array([[1.0, 1.0]])).tolist() == [0]
    exact = Fraction(load)
    assert _stable(_star_rows(exact, [(1, 1), (3, 1)], exact.denominator))[1]
    for leaves, load in _leaf_multisets():
        for p_center in (load - 1, 0):
            assert _stable(_star_rows(p_center, leaves, 6))[1], (p_center, leaves)


def test_kernel_stability_comparison_catches_a_non_psd_star():
    # leaves with alpha_i = p_i = (2, 2, -1) meet the center rows of A and
    # A^(2) at p_c = 3, since (2 + 2 - 1)^2 = 4 + 4 + 1; x = e_c - e_1 - e_2 -
    # e_3 is in the joint kernel, and A^(3) x has center entry 27 - 15 != 0.
    # Only a negative p_i allows this, as the proof in README shows.
    rank, stable = _stable(_star_rows(Fraction(3), [(2, 2), (2, 2), (-1, -1)], 1))
    assert rank == 3 and not stable


def test_leaf_load_folds_left_to_right():
    # ten terms of 0.1: a left fold gives 0.9999999999999999 on every Python,
    # builtin sum gives 1.0 from Python 3.12 on
    p_leaf, alpha = [10.0] * 10, [1.0] * 10
    want = functools.reduce(lambda acc, t: acc + t, [0.1] * 10, 0.0)
    assert want == 0.9999999999999999
    assert leaf_load(p_leaf, alpha) == want
    assert leaf_load(np.array([p_leaf] * 3), np.array([alpha] * 3)).tolist() == [want] * 3
    # p1 at the fold is on the criterion's boundary, and PSD by it; one ulp
    # below is not.  The exact load is 1, so neither is PSD exactly
    below = np.nextafter(want, 0.0)
    p = np.array([[want, *p_leaf], [below, *p_leaf]])
    failed, psd, _ = verdicts(p, np.array([alpha] * 2))
    assert failed.tolist() == [0, 3] and psd.tolist() == [False, False]


def test_leaf_load_skips_zero_leaves():
    assert leaf_load([0.0, 2.0], [0.0, 1.0]) == 0.5
    assert leaf_load(np.zeros((2, 0)), np.zeros((2, 0))) == 0.0
