"""Acceptance suite: ten end-to-end properties at desk scale.

Each test prints a single PASS/FAIL line so the suite doubles as a report:
run `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from graphpsd import cli, constructors, functions, graphs, matrices, star_tree, witnesses
from oracles import (
    check_psi_nonnegative,
    eta_bound,
    forward_difference,
    kernel_stability_loop,
    psi,
    spectral_verdict,
    star_dense,
    star_eigenvalues_equal_p,
    star_sample,
    thresholding_counterexample,
    witness_search,
)
from test_functions import psi_direct


def _report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok


# 1. star criterion vs spectral oracle ---------------------------------------

def test_01_star_criterion_oracle_equivalence():
    disagreements = 0
    for seed in range(10_000):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 11))
        s = star_sample(star_tree.random_star, d, rng)
        psd, _, boundary = spectral_verdict(star_dense(s))
        if boundary:
            continue
        if star_tree.star_psd_check(s).is_psd != psd:
            disagreements += 1
    _report("star criterion agrees with spectral oracle on 10,000 samples",
            disagreements == 0)


# 2. tree PSD by Schur elimination + O(n) runtime ----------------------------

def test_02_tree_psd_oracle_and_linear_time():
    disagreements = 0
    for seed in range(10_000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        t = graphs.random_tree(n, seed)
        if rng.random() < 0.5:
            a = matrices.random_psd_with_pattern(t, 3.0, seed)
        else:
            a = matrices.random_psd_with_pattern(t, 3.0, seed)
            i = int(rng.integers(n))
            a[i, i] -= rng.uniform(0.0, 2.0) * max(1.0, a[i, i])
        psd, _, boundary = spectral_verdict(a)
        if boundary:
            continue
        if star_tree.tree_psd_check(a, t) != psd:
            disagreements += 1
    times = []
    for n in (100, 1000, 10000):
        t = graphs.path_graph(n)
        diag, off = matrices.random_psd_pattern_entries(t, 3.0, seed=n)
        start = time.perf_counter()
        for _ in range(3):
            star_tree.tree_psd_check_sparse(t, diag, off)
        times.append((time.perf_counter() - start) / 3)
    slope = (math.log(times[2]) - math.log(times[0])) / (math.log(10000) - math.log(100))
    _report(
        f"tree check agrees with oracle and scales ~O(n) (slope {slope:.2f})",
        disagreements == 0 and slope < 2.0,
    )


# 3. critical exponent on trees ----------------------------------------------

def test_03_critical_exponent():
    ok = True
    for alpha in (1.0, 1.5, 2.0, 3.7):
        f = functions.power_function(alpha)
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 13))
            t = graphs.random_tree(n, seed)
            a = matrices.random_psd_with_pattern(t, 4.0, seed)
            fa = matrices.apply_entrywise(f.value, a, t)
            if not star_tree.tree_psd_check(fa, t):
                ok = False
    r = 4.0
    for alpha in (0.3, 0.5, 0.9, 0.99):
        t = graphs.random_tree(8, 1)
        a = constructors.superadditivity_counterexample(t, r / 4.0, r / 4.0)
        fa = matrices.apply_entrywise(lambda x: np.power(x, alpha), a, t)
        if star_tree.tree_psd_check(fa, t):
            ok = False
        i, j, k = graphs.find_open_triangle(t)
        margin = fa[i, j] ** 2 / fa[j, j] + fa[i, k] ** 2 / fa[k, k] - fa[i, i]
        if margin < (2.0 - 2.0 ** alpha) * (r / 4.0) ** alpha / 2.0:
            ok = False
    _report("powers >= 1 preserve trees; powers < 1 fail with the stated margin", ok)


# 4. non-absolutely-monotonic preserver at desk scale ------------------------

def test_04_preserver_vs_abs_monotonicity(capsys):
    lit = "1*x^1, 1*x^2, -0.1*x^3, 1*x^4, 1*x^5"
    code_pres = cli.main(["preserver-test", lit, "--trials", "1000"])
    capsys.readouterr()
    f = functions.parse_function(lit)
    d3 = forward_difference(f, 0.0, 0.01, 3)
    entire = constructors.build_entire_function_partial(4)
    run = constructors.longest_negative_run(entire)
    sup = functions.check_superadditive(entire).holds
    mid = functions.check_mult_midpoint_convex(entire).holds
    tree_ok = True
    for seed in range(200):
        t = graphs.random_tree(3 + seed % 9, seed)
        a = matrices.random_psd_with_pattern(t, 5.0, seed)
        fa = matrices.apply_entrywise(entire.value, a, t)
        if spectral_verdict(fa)[2]:
            continue
        if not star_tree.tree_psd_check(fa, t):
            tree_ok = False
    _report(
        "x+x^2-0.1x^3+x^4+x^5 preserves trees yet fails order-3 monotonicity; "
        f"4-block entire partial sum (run {run}) also preserves",
        code_pres == 0 and d3 <= -1e-7 and run >= 4 and sup and mid and tree_ok,
    )


# 5. threshold contracts ------------------------------------------------------

def test_05_threshold_contracts():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        r = rng.uniform(1.05, 3.0)
        s = r + rng.uniform(0.5, 3.0)
        c_r, c_s = rng.uniform(0.2, 3.0, size=2)
        nu = constructors.superadditivity_threshold(r, s, c_r, c_s).threshold
        b = rng.uniform(r + 1e-3, s - 1e-3)
        f = functions.EntrywiseFunction(((c_r, r), (-0.99 * nu, b), (c_s, s)))
        if not functions.check_superadditive(f).holds:
            ok = False
    for _ in range(100):
        rp = rng.uniform(0.0, 2.0)
        r = rp + rng.uniform(0.2, 2.0)
        if r + rp <= 1.01:
            r = 1.02 - rp + rng.uniform(0.2, 2.0)
        s = r + rng.uniform(0.5, 3.0)
        sp = s + rng.uniform(0.2, 2.0)
        cs = rng.uniform(0.2, 3.0, size=4)
        lam = constructors.mult_convexity_threshold(rp, r, s, sp, *cs).threshold
        b = rng.uniform(r + 1e-3, s - 1e-3)
        g = functions.EntrywiseFunction(
            ((cs[0], rp), (cs[1], r), (-0.99 * lam, b), (cs[2], s), (cs[3], sp))
        )
        if not check_psi_nonnegative(g).holds:
            ok = False
    for _ in range(1000):
        n_terms = int(rng.integers(1, 6))
        exps = rng.choice(np.arange(0, 9), size=n_terms, replace=False).astype(float)
        coefs = rng.uniform(-2.0, 2.0, size=n_terms)
        coefs[np.abs(coefs) < 1e-3] = 1.0
        f = functions.EntrywiseFunction(tuple(zip(coefs, exps)))
        x = rng.uniform(0.05, 4.0)
        a, b2 = psi(f, x), psi_direct(f, x)
        scale = 1.0 + abs(x * f.deriv(x, 1) ** 2) + abs(f(x) * f.deriv(x, 1))
        if abs(a - b2) > 1e-10 * scale:
            ok = False
    _report("superadditivity / mult-convexity budgets and indicator agreement", ok)


# 6. witness constructions ----------------------------------------------------

def test_06_witness_constructions():
    ws = witnesses.star_witnesses(5, (11.0, 1.0, 2.0, 3.0, 4.0, 5.0), 6)
    star_ok = (
        [w.k for w in ws.witnesses] == [1, 2, 3, 4, 5]
        and all(w.kernel_residual <= 1e-10 for w in ws.witnesses)
        and all(w.positivity_margin > 1e-8 for w in ws.witnesses)
    )
    rep = witnesses.k_lower_bound(graphs.path_graph(2))
    k2_ok = rep.lower == 2 and all(
        witnesses.nk_membership(s.matrix, np.array(w.beta), w.k)
        for s in rep.witness_sets for w in s.witnesses)
    for s in rep.witness_sets[:2]:
        if eta_bound(s.matrix) != 3:
            k2_ok = False
        if witness_search(s.matrix, 3, trials=2000, seed=0) is not None:
            k2_ok = False
    vand_ok = True
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        alphas = rng.uniform(0.2, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        while np.unique(alphas).size != n:
            alphas = rng.uniform(0.2, 3.0, size=n)
        vw = witnesses.vandermonde_witnesses(alphas)
        if len(vw.witnesses) != n - 1 or not all(
                witnesses.nk_membership(vw.matrix, np.array(w.beta), w.k, alphas)
                for w in vw.witnesses):
            vand_ok = False
    _report("star witnesses to order 5, exact K2 bound, 100 Vandermonde draws",
            star_ok and k2_ok and vand_ok)


# 7. kernel stability ---------------------------------------------------------

def test_07_kernel_stability():
    ok = True
    for seed in range(10_000):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 9))
        s = star_sample(star_tree.random_psd_star, d, rng)
        if not kernel_stability_loop(s, m_max=8):
            ok = False
    _report("joint kernel of the first two powers kills all higher powers "
            "(10,000 PSD stars)", ok)


# 8. derivative-sign diagnostic ----------------------------------------------

def test_08_derivative_sign_estimate():
    a_mat = np.array([[1.0, 1.5], [1.5, 2.0]])
    beta = np.array([1.0, -1.0])
    ok = True
    limit, analytic = witnesses.derivative_sign_estimate(
        functions.power_function(2), 1.0, 2, (a_mat, beta), [1.0, 0.5]
    )
    ok &= limit == 1.0 and analytic == 1.0
    a1 = np.array([[1.0, 1.25], [1.25, 2.0]])  # order-1 witness matrix
    for lit, k in (("1*x^2", 2), ("1*x^3", 2), ("1*x^5, 1*x^2", 2),
                   ("1*x^3", 1), ("1*x^5, 1*x^2", 1)):
        f = functions.parse_function(lit)
        ts = [0.4 / 2 ** i for i in range(6)]
        mat = a_mat if k == 2 else a1
        lim, ana = witnesses.derivative_sign_estimate(f, 1.0, k, (mat, beta), ts)
        if not math.isclose(lim, ana, rel_tol=1e-6):
            ok = False
    rank1 = np.outer([0.5, 1.0, 1.5, 2.0], [0.5, 1.0, 1.5, 2.0])
    b3 = np.array([-1.0, 3.0, -3.0, 1.0])
    lim, ana = witnesses.derivative_sign_estimate(
        functions.parse_function("1*x^5, 1*x^2"), 1.0, 3, (rank1, b3),
        [0.1 / 2 ** i for i in range(6)],
    )
    ok &= math.isclose(lim, ana, rel_tol=1e-6)
    _report("extrapolated derivative diagnostics match analytic values", ok)


# 9. equal-leaf eigenvalue formula ---------------------------------------------

def test_09_equal_leaf_star_eigenvalues():
    ok = True
    for seed in range(200):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 9))
        p2 = rng.uniform(0.2, 2.0)
        s = star_tree.StarMatrix(
            (rng.uniform(0.2, 3.0),) + (p2,) * d,
            tuple(rng.uniform(-1.5, 1.5, size=d)),
        )
        mine = sorted(star_eigenvalues_equal_p(s))
        oracle = sorted(np.linalg.eigvalsh(star_dense(s)))
        if not np.allclose(mine, oracle, atol=1e-9):
            ok = False
    _report("closed-form equal-leaf star eigenvalues", ok)


# 10. thresholding failure ----------------------------------------------------

def test_10_thresholding_failure():
    full, masked = thresholding_counterexample(graphs.path_graph(3), 1.0)
    det = float(np.linalg.det(masked))
    _report("truncating the all-ones matrix to an open-triangle pattern "
            f"gives det {det:.1f}", abs(det + 1.0) <= 1e-12)
