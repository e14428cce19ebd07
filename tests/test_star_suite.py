"""The stacked star-suite against the sample-by-sample reference.

star-suite draws its samples from one generator, degree by degree, then
checks them in one stack per star degree.  These tests hold its draws to the
order it states, its reports to the loop in tests/oracles.py on the same
samples, its stacked criterion and kernel-stability test to the one-star
loops there, the spectral rank bound to the SVD it skips, and the stacked
LAPACK calls to the per-matrix calls they replace.
"""

import argparse
import functools
import json

import numpy as np
import pytest

from graphpsd import cli, star_tree, witnesses
from graphpsd.matrices import DEFAULT_PSD_TOL, format_matrix, is_psd
from graphpsd.star_tree import (
    StarMatrix,
    leaf_load,
    random_psd_star,
    random_star,
    stacked_criterion,
    stacked_dense,
)

import oracles
from oracles import kernel_stability_loop, star_criterion_loop, star_suite_loop


def _stars(d, count, seed):
    """count stars of degree d from both samplers, stacked as (p, alpha)."""
    rng = np.random.default_rng(seed)
    p, alpha = zip(random_star(count // 2, d, rng), random_psd_star(count - count // 2, d, rng))
    return np.concatenate(p), np.concatenate(alpha)


def drawn_stars(seed, trials):
    """The samples of star-suite --seed seed --trials trials, in index order."""
    stars = [None] * trials
    for idx, p, alpha in cli._draw_stars(np.random.default_rng(seed), trials):
        for i, pr, ar in zip(idx.tolist(), p, alpha):
            stars[i] = StarMatrix(pr, ar)
    return stars


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


def test_kernel_failure_is_reported_at_the_first_failing_sample(monkeypatch):
    # no star breaks kernel stability, so break the test and see that the
    # first sample to reach it, in index order, is the one reported
    monkeypatch.setattr(witnesses, "stacked_kernel_stability",
                        lambda a, m_max, eigs: np.zeros(len(a), dtype=bool))
    rep = cli.cmd_star_suite(argparse.Namespace(trials=50, seed=9, tol=1e-9))
    monkeypatch.setattr(oracles, "kernel_stability_loop", lambda s, m_max: False)
    want = star_suite_loop(drawn_stars(9, 50), 1e-9)
    assert want[1].get("kernel_stability") is False
    assert (rep.verdict, rep.certificate) == want


def test_kernel_stability_reaches_stars_in_the_boundary_band(monkeypatch):
    # the band excuses only the comparison of criterion and oracle: sample 1
    # of seed 4 is the first star the criterion calls PSD, it lies in the
    # band, and with kernel stability broken it is the one reported
    monkeypatch.setattr(witnesses, "stacked_kernel_stability",
                        lambda a, m_max, eigs: np.zeros(len(a), dtype=bool))
    rep = cli.cmd_star_suite(argparse.Namespace(trials=50, seed=4, tol=1e-9))
    stars = drawn_stars(4, 50)
    assert [star_tree.star_psd_check(s).is_psd for s in stars[:2]] == [False, True]
    assert is_psd(stars[1].to_dense(), 1e-9).boundary
    assert (rep.verdict, rep.certificate) == \
        ("fail", {"matrix": format_matrix(stars[1].to_dense()), "kernel_stability": False})
    monkeypatch.setattr(oracles, "kernel_stability_loop", lambda s, m_max: False)
    assert star_suite_loop(stars, 1e-9) == (rep.verdict, rep.certificate)


@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_lapack_calls_equal_per_matrix_calls_bit_for_bit(d):
    # the stacked suite relies on this: a numpy or LAPACK change that breaks
    # it must fail here, not move a boundary verdict silently
    dense = stacked_dense(*_stars(d, 40, seed=d))
    stacked = np.linalg.eigvalsh(dense)
    assert all(np.array_equal(stacked[k], np.linalg.eigvalsh(a)) for k, a in enumerate(dense))
    powers = np.concatenate([dense, dense ** 2.0], axis=1)
    _, sv, vt = np.linalg.svd(powers)
    for k, a in enumerate(powers):
        _, sv1, vt1 = np.linalg.svd(a)
        assert np.array_equal(sv[k], sv1) and np.array_equal(vt[k], vt1)


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
def test_stacked_kernel_stability_matches_the_loop(d):
    p, alpha = _stars(d, 60, seed=200 + d)
    psd = stacked_criterion(p, alpha) == 0
    dense = stacked_dense(p[psd], alpha[psd])
    got = witnesses.stacked_kernel_stability(dense, 8, np.linalg.eigvalsh(dense))
    want = [kernel_stability_loop(StarMatrix(pr, ar), 8) for pr, ar in zip(p[psd], alpha[psd])]
    assert got.tolist() == want and all(want)


def _svd_stacks(monkeypatch):
    """The stacks np.linalg.svd is called on, from here on."""
    stacks, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, *args, **kw: stacks.append(m) or svd(m, *args, **kw))
    return stacks


def _has_null_row(a):
    """kernel_stability_loop's rank test: [A; A^(2)] has a singular value at
    or below 1e-10 max(1, sigma_max)."""
    sv = np.linalg.svd(np.vstack([a, a ** 2.0]), compute_uv=False)
    return bool(np.sum(sv > 1e-10 * max(1.0, sv[0])) < len(a))


@pytest.mark.parametrize("seed", range(50))
def test_rank_certificate_matches_the_loop(monkeypatch, seed):
    # every criterion-PSD star of star-suite's draws, and the same stars
    # scaled by 25, most with ||A|| > 10, where the SVD cutoff lies above the
    # boundary band: the verdicts equal the loop's, and every star whose
    # [A; A^(2)] has a null row reaches the SVD
    stacks = [(p, alpha) for _, p, alpha in cli._draw_stars(np.random.default_rng(seed), 200)]
    stacks += [(25.0 * p, 25.0 * alpha) for p, alpha in stacks]
    large = 0
    for p, alpha in stacks:
        psd = stacked_criterion(p, alpha) == 0
        dense = stacked_dense(p[psd], alpha[psd])
        eigs = np.linalg.eigvalsh(dense)
        large += int(np.sum(eigs[:, -1] > 10.0))
        svd_stacks = _svd_stacks(monkeypatch)
        got = witnesses.stacked_kernel_stability(dense, 8, eigs)
        monkeypatch.undo()
        want = [kernel_stability_loop(StarMatrix(pr, ar), 8) for pr, ar in zip(p[psd], alpha[psd])]
        assert got.tolist() == want
        reached = [a for stack in svd_stacks for a in stack[:, :p.shape[1]]]
        for a in dense:
            if _has_null_row(a):
                assert any(np.array_equal(a, r) for r in reached)
    assert large > 50


def test_strictly_definite_stars_make_no_svd(monkeypatch):
    p, alpha = random_psd_star(200, 6, np.random.default_rng(5))
    p[:, 0] = leaf_load(p[:, 1:], alpha) + 0.5
    dense = stacked_dense(p, alpha)
    stacks = _svd_stacks(monkeypatch)
    stable = witnesses.stacked_kernel_stability(dense, 8, np.linalg.eigvalsh(dense))
    assert stable.all() and stacks == []


@pytest.mark.parametrize("scale", [1.0, 30.0])
def test_rank_bound_sends_only_stars_below_it_to_the_svd(monkeypatch, scale):
    # B is singular (p1 at the leaf load); B + tI has lambda_min = t.  Just
    # above the bound, twice the SVD cutoff at the bound on sigma_max, the
    # spectrum proves full rank; just below, the SVD decides, and finds full
    # rank too
    b = scale * stacked_dense(np.array([[2.0, 1.0, 1.0]]), np.array([[1.0, 1.0]]))[0]
    norm = np.linalg.eigvalsh(b)[-1]
    bound = 2.0 * witnesses.RANK_CUTOFF * max(1.0, norm * np.sqrt(1.0 + norm ** 2))
    for t, calls in ((1.02 * bound, 0), (0.98 * bound, 1)):
        a = b + t * np.eye(3)
        stacks = _svd_stacks(monkeypatch)
        assert witnesses.stacked_kernel_stability(a[None], 8, np.linalg.eigvalsh(a)[None]).tolist() == [True]
        assert len(stacks) == calls
        monkeypatch.undo()
        assert kernel_stability_loop(StarMatrix(np.diag(a), a[0, 1:]), 8)


def test_kernel_stability_catches_a_form_off_the_kernel(monkeypatch):
    # with A^(3) moved off zero on the joint kernel of [A; A^(2)], spanned
    # here by (1, -1, 0), the test must fail
    s = StarMatrix((1.0, 1.0, 1.0), (1.0, 0.0))
    assert witnesses.star_kernel_stability(s, 3) and kernel_stability_loop(s, 3)
    power = witnesses.hadamard_power
    monkeypatch.setattr(witnesses, "hadamard_power",
                        lambda a, m: power(a, m) + np.eye(a.shape[-1]) if m == 3 else power(a, m))
    assert not witnesses.star_kernel_stability(s, 3)
    assert not witnesses.star_kernel_stability(s, 8)


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
