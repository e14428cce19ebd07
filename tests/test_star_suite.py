"""The stacked star-suite against the sample-by-sample reference.

star-suite draws its samples from one generator, degree by degree, into one
stack padded with zero leaves, then checks them in that stack.  These tests
hold its draws to the order it states, its reports to the loop in
tests/oracles.py on the same samples (which also checks kernel stability in
floats), its stacked criterion to the one-star loop there, its padded rows to
the unpadded ones, the rows its oracle decides without eigvalsh to exact
arithmetic, and the stacked LAPACK calls to the per-matrix calls they
replace.  The kernel-stability lemma that lets star-suite skip
that check is tested exactly, on an enumerated grid of PSD stars, and
against the float check on the stars star-suite draws.
"""

import argparse
import functools
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphpsd import cli, star_tree
from graphpsd.matrices import DEFAULT_PSD_TOL, spectral_boundary_band
from graphpsd.star_tree import (
    StarMatrix,
    leaf_load,
    random_psd_star,
    random_star,
    stacked_criterion,
    stacked_dense,
)

from oracles import kernel_stability_loop, star_criterion_loop, star_suite_loop


def _stars(d, count, seed):
    """count stars of degree d from both samplers, stacked as (p, alpha)."""
    rng = np.random.default_rng(seed)
    p, alpha = zip(random_star(count // 2, d, rng), random_psd_star(count - count // 2, d, rng))
    return np.concatenate(p), np.concatenate(alpha)


def drawn_stars(seed, trials):
    """The samples of star-suite --seed seed --trials trials, in index order."""
    degree, p, alpha = cli._draw_stars(np.random.default_rng(seed), trials)
    return [StarMatrix(pr[:d + 1], ar[:d]) for d, pr, ar in zip(degree.tolist(), p, alpha)]


def degree_stacks(seed, trials):
    """star-suite's samples as one unpadded stack (p, alpha) per degree."""
    degree, p, alpha = cli._draw_stars(np.random.default_rng(seed), trials)
    return [(p[degree == d, :d + 1], alpha[degree == d, :d]) for d in range(1, 9)]


@pytest.mark.parametrize("seed,trials", [(0, 1), (5, 40), (8, 1000)])
def test_draws_follow_the_stated_order(seed, trials):
    rng = np.random.default_rng(seed)
    degree = rng.integers(1, 9, trials)
    psd_kind = rng.random(trials) >= 0.5
    want = {}
    for d in range(1, 9):
        plain = np.flatnonzero((degree == d) & ~psd_kind).tolist()
        psd = np.flatnonzero((degree == d) & psd_kind).tolist()
        for sampler, rows in ((random_star, plain), (random_psd_star, psd)):
            p, alpha = sampler(len(rows), d, rng)
            want.update((i, (pr.tolist(), ar.tolist())) for i, pr, ar in zip(rows, p, alpha))
    got = {i: (list(s.p), list(s.alpha)) for i, s in enumerate(drawn_stars(seed, trials))}
    assert got == want


@pytest.mark.parametrize("seed", [0, 3, 11, 250])
@pytest.mark.parametrize("trials", [1, 7, 1000])
def test_report_matches_the_loop(capsys, seed, trials):
    code = cli.main(["star-suite", "--trials", str(trials), "--seed", str(seed)])
    rep = json.loads(capsys.readouterr().out)
    assert (code, rep["verdict"], rep["certificate"]) == \
        (0, *star_suite_loop(drawn_stars(seed, trials), DEFAULT_PSD_TOL))


@pytest.mark.parametrize("seed", [0, 1, 42, 777])
def test_fail_path_matches_the_loop(seed):
    # main refuses --tol 1; at that band the oracle parts from the exact
    # criterion within the first samples, and the handler must stop where the
    # loop stops, with the same certificate
    rep = cli.cmd_star_suite(argparse.Namespace(trials=200, seed=seed, tol=1.0))
    assert rep.verdict == "fail" and "criterion" in rep.certificate
    assert (rep.verdict, rep.certificate) == star_suite_loop(drawn_stars(seed, 200), 1.0)


def diagonal_margin(p, alpha, tol):
    """2 tol max(1, G) + 1e-12 G per row, G = ||A||_inf: a star whose least
    diagonal entry lies below minus this is neither PSD nor in the band."""
    g = np.maximum(np.abs(p[:, 0]) + np.abs(alpha).sum(axis=1),
                   (np.abs(p[:, 1:]) + np.abs(alpha)).max(axis=1))
    return 2.0 * tol * np.maximum(1.0, g) + 1e-12 * g


def at_the_margin(p, alpha, tol, column, sign=-1.0):
    """Copies of the rows with p[:, column] one ulp below sign times the
    margin, at it and one ulp above it, minus the margin by default.  The
    margin grows with |p[:, column]| by 2 tol + 1e-12, so a few rounds of p =
    sign * margin(p) settle while that is below 1; at tol 1 they do not, and
    no row is ever beyond the margin, since every |p_i| <= G."""
    p = p.copy()
    for _ in range(8):
        p[:, column] = sign * diagonal_margin(p, alpha, tol)
    at = p[:, column].copy()
    rows = []
    for toward in (-np.inf, None, np.inf):
        q = p.copy()
        q[:, column] = at if toward is None else np.nextafter(at, toward)
        rows.append(q)
    return np.concatenate(rows), np.concatenate([alpha] * 3)


TOLS = [1e-300, 1e-13, 1e-9, cli.MAX_TOL, 1.0]


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1), tol=st.sampled_from(TOLS),
       scale=st.sampled_from([1.0, 1e-6, 1e6]))
def test_the_diagonal_mask_keeps_the_oracle(d, seed, tol, scale):
    # stacked_oracle leaves eigvalsh out on the stars whose least diagonal
    # entry lies below the margin; on every row its (is_psd, boundary) must
    # be what eigvalsh on the whole stack gives, also on rows whose least
    # diagonal entry sits at minus the margin or one ulp either side of it
    p, alpha = _stars(d, 24, seed)
    rng = np.random.default_rng(seed)
    edge = [at_the_margin(p[:8], alpha[:8], tol, int(rng.integers(d + 1)))
            for _ in range(2)]
    p = scale * np.concatenate([p] + [q for q, _ in edge])
    alpha = scale * np.concatenate([alpha] + [a for _, a in edge])
    psd, boundary, _ = spectral_boundary_band(stacked_dense(p, alpha), tol)
    got = star_tree.stacked_oracle(p, alpha, tol)
    assert got[0].tolist() == psd.tolist() and got[1].tolist() == boundary.tolist()


def recording_oracle(seen):
    """spectral_boundary_band, with each matrix it is given appended to seen
    as bytes."""
    def recording(a, tol):
        seen.extend(matrix.tobytes() for matrix in a)
        return spectral_boundary_band(a, tol)
    return recording


@pytest.mark.parametrize("tol", TOLS[:-1])
def test_the_mask_is_sharp_at_the_margin(tol):
    # PSD stars with their center, or their first leaf, moved to minus the
    # margin tau.  One ulp below -tau the diagonal decides.  A leaf at -tau
    # makes its diagonal in A + tau I zero, so only eigvalsh decides that
    # star; one ulp above, alpha_1^2 / (p_1 + tau) is huge and A + tau I is
    # not PSD.  A center at or above -tau leaves a center near 0 in A + tau I
    # against a load near 1, so A + tau I is not PSD either
    psd = random_psd_star(8, 3, np.random.default_rng(5))
    p, alpha = map(np.concatenate, zip(at_the_margin(*psd, tol, 0), at_the_margin(*psd, tol, 1)))
    seen = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(star_tree, "spectral_boundary_band", recording_oracle(seen))
        got = star_tree.stacked_oracle(p, alpha, tol)
    # rows 0..23 move the center, 24..47 the leaf; 32..39 sit at the margin
    assert seen == [a.tobytes() for a in stacked_dense(p[32:40], alpha[32:40])]
    assert not got[0].any() and not got[1].any()


def test_a_star_below_the_margin_never_reaches_the_oracle(monkeypatch):
    # the leaf diagonal -0.5 lies far below minus the margin, which is about
    # 8e-9 here, and the first star minus the margin is positive definite
    # by far: neither reaches spectral_boundary_band.  The third star's least
    # eigenvalue, -1e-12, lies inside the band, where no bound decides
    p = np.array([[3.0, 1.0, 1.0], [2.0, -0.5, 1.0], [-1e-12, 1.0, 1.0]])
    alpha = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    seen = []
    monkeypatch.setattr(star_tree, "spectral_boundary_band", recording_oracle(seen))
    psd, boundary = star_tree.stacked_oracle(p, alpha, 1e-9)
    assert seen == [stacked_dense(p, alpha)[2].tobytes()]
    assert psd.tolist() == [True, False, True] and boundary.tolist() == [False, False, True]
    # in star-suite every star in the band reaches the oracle, and few others
    seen.clear()
    rep = cli.cmd_star_suite(cli.build_parser().parse_args(
        ["star-suite", "--trials", "1000", "--seed", "4"]))
    assert rep.verdict == "pass"
    assert rep.certificate["boundary_skipped"] <= len(seen) <= 200


def exactly_psd(center, leaves, alpha, definite=False):
    """Whether the star with Fraction entries is PSD, or positive definite,
    by its exact Schur complement."""
    for x, a in zip(leaves, alpha):
        if x < 0 or (x == 0 and (definite or a != 0)):
            return False
    s = center - sum(a * a / x for x, a in zip(leaves, alpha) if x != 0)
    return s > 0 if definite else s >= 0


def check_rows_decided_without_eigvalsh(p, alpha, degree, tol):
    """Run stacked_oracle on the padded rows and check every row it decides
    without eigvalsh exactly: minus the float margin tau it is positive
    definite where called PSD, and plus tau it is not PSD where called not
    PSD.  Every verdict must be eigvalsh's on the unpadded star.  Returns
    how many rows each way were decided."""
    seen = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(star_tree, "spectral_boundary_band", recording_oracle(seen))
        psd, boundary = star_tree.stacked_oracle(p, alpha, tol, degree)
    seen = set(seen)
    tau = diagonal_margin(p, alpha, tol)
    decided = [0, 0]
    for k, d in enumerate(degree.tolist()):
        dense = stacked_dense(p[k:k + 1, :d + 1], alpha[k:k + 1, :d])
        want_psd, want_boundary, _ = spectral_boundary_band(dense, tol)
        assert (psd[k], boundary[k]) == (want_psd[0], want_boundary[0])
        if dense[0].tobytes() in seen:
            continue
        t = Fraction(float(tau[k]))
        center, al = Fraction(float(p[k, 0])), [Fraction(x) for x in alpha[k, :d].tolist()]
        leaves = [Fraction(x) for x in p[k, 1:d + 1].tolist()]
        assert not boundary[k]
        if psd[k]:
            assert exactly_psd(center - t, [x - t for x in leaves], al, definite=True), k
        else:
            assert not exactly_psd(center + t, [x + t for x in leaves], al), k
        decided[bool(psd[k])] += 1
    return decided


def at_the_shifted_load(p, alpha, tol, sign):
    """Copies of the rows with the center at -sign tau plus the leaf load of
    A + sign tau I, and one ulp either side: there only rounding tells the
    sign of the shifted criterion.  A few rounds settle, as in
    at_the_margin."""
    p = p.copy()
    for _ in range(8):
        tau = diagonal_margin(p, alpha, tol)
        p[:, 0] = leaf_load(p[:, 1:] + sign * tau[:, None], alpha) - sign * tau
    rows = []
    for toward in (-np.inf, None, np.inf):
        q = p.copy()
        q[:, 0] = p[:, 0] if toward is None else np.nextafter(p[:, 0], toward)
        rows.append(q)
    return np.concatenate(rows), np.concatenate([alpha] * 3)


def padded(p, alpha, width=8):
    """The rows of p and alpha with zero leaves appended up to width leaves."""
    pad = width - alpha.shape[1]
    return np.pad(p, ((0, 0), (0, pad))), np.pad(alpha, ((0, 0), (0, pad)))


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1), tol=st.sampled_from(TOLS),
       scale=st.sampled_from([1.0, 1e-6, 1e6, 1e-150, 1e150]))
def test_rows_decided_without_eigvalsh_hold_exactly(d, seed, tol, scale):
    # padded stars at every scale, and copies with a center or leaf moved to
    # -tau or +tau and one ulp either side, or with the center moved to the
    # load of A -+ tau I, each moved after scaling and padding so that it
    # sits at the oracle's own tau
    p, alpha = padded(*_stars(d, 24, seed))
    p, alpha = scale * p, scale * alpha
    rng = np.random.default_rng(seed)
    moved = [at_the_margin(p[:8], alpha[:8], tol, int(rng.integers(d + 1)), sign)
             for sign in (-1.0, 1.0) for _ in range(2)]
    # rows 12.. are random_psd_star's, whose leaves are positive
    moved += [at_the_shifted_load(p[12:], alpha[12:], tol, sign) for sign in (-1.0, 1.0)]
    p = np.concatenate([p] + [q for q, _ in moved])
    alpha = np.concatenate([alpha] + [a for _, a in moved])
    check_rows_decided_without_eigvalsh(p, alpha, np.full(len(p), d), tol)


@pytest.mark.parametrize("seed", [0, 4])
def test_star_suite_draws_are_decided_exactly(seed):
    # on star-suite's own draws both bounds decide hundreds of stars
    degree, p, alpha = cli._draw_stars(np.random.default_rng(seed), 1000)
    not_psd, psd = check_rows_decided_without_eigvalsh(p, alpha, degree, DEFAULT_PSD_TOL)
    assert not_psd > 300 and psd > 300


def test_the_reference_loop_calls_eigvalsh_on_every_star(monkeypatch):
    # tests/oracles.star_suite_loop, which test_report_matches_the_loop holds
    # star-suite to, keeps the eigensolve the mask leaves out
    calls = []
    real = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return real(a)

    stars = drawn_stars(4, 300)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    star_suite_loop(stars, DEFAULT_PSD_TOL)
    assert len(calls) == len(stars)


@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_lapack_calls_equal_per_matrix_calls_bit_for_bit(d):
    # the stacked suite relies on this: a numpy or LAPACK change that breaks
    # it must fail here, not move a boundary verdict silently
    dense = stacked_dense(*_stars(d, 40, seed=d))
    stacked = np.linalg.eigvalsh(dense)
    assert all(np.array_equal(stacked[k], np.linalg.eigvalsh(a)) for k, a in enumerate(dense))


@pytest.mark.parametrize("d", range(0, 9))
def test_stacked_criterion_matches_the_loop(d):
    rng = np.random.default_rng(100 + d)
    p = rng.choice([-1.0, 0.0, 0.3, 0.7, 1.9], size=(300, d + 1))
    alpha = rng.choice([0.0, -1.1, 0.5, 0.9], size=(300, d))
    # a third of the centres sit exactly at the load, where a fold in another
    # order would put them an ulp off
    p[::3, 0] = [leaf_load(pl, al) for pl, al in zip(p[::3, 1:], alpha[::3])]
    got = stacked_criterion(p, alpha)
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
    got = stacked_criterion(wide_p, wide_alpha)
    assert got.tolist() == stacked_criterion(p, alpha).tolist()
    assert {0, 1, 2, 3} <= set(got.tolist())


@pytest.mark.parametrize("d", range(1, 9))
def test_criterion_psd_stars_pass_the_float_kernel_check(d):
    # star-suite checks no kernel stability on the stars its criterion calls
    # PSD; the float check in tests/oracles.py must agree with the lemma there
    p, alpha = _stars(d, 60, seed=200 + d)
    psd = stacked_criterion(p, alpha) == 0
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
        psd = stacked_criterion(p, alpha) == 0
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
    assert star_tree.star_psd_check(StarMatrix((load, 1.0, 3.0), (1.0, 1.0))).is_psd
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
    # p1 at the fold is on the boundary, and PSD; one ulp below is not
    assert star_tree.star_psd_check(StarMatrix((want, *p_leaf), alpha)).is_psd
    below = np.nextafter(want, 0.0)
    assert star_tree.star_psd_check(StarMatrix((below, *p_leaf), alpha)).failed_condition == 3


def test_leaf_load_skips_zero_leaves():
    assert leaf_load([0.0, 2.0], [0.0, 1.0]) == 0.5
    assert leaf_load(np.zeros((2, 0)), np.zeros((2, 0))) == 0.0
