"""Closed forms and searches that no program path uses, kept as test oracles.

Each one checks a library result against an independent formula from the
paper or an exhaustive search: psi and its grid check against the budgets of
the constructors, forward differences against absolute monotonicity, the star
factorization and equal-leaf eigenvalues against the dense matrix, eta and the
randomized witness search against the witness constructions, the
thresholding counterexample against the open-triangle search, and the
spectral verdict (eigvalsh) against the star and tree checks.  The
sample-by-sample and trial-by-trial loops at the end are the references for
the stacked star-suite and the chunked preservation trials; they check the
samples the commands draw, one at a time.
"""

import math
from fractions import Fraction

import numpy as np

from graphpsd.functions import (
    DEFAULT_GRID_BOUND,
    DEFAULT_GRID_STEP,
    REL_SLACK,
    FunctionError,
    Verdict,
    _grid_count,
)
from graphpsd.graphs import Graph, GraphError, elimination_plan, find_open_triangle, format_graph
from graphpsd.matrices import (
    DEFAULT_PSD_TOL,
    MatrixError,
    check_symmetric,
    dense_from_plan,
    format_matrix,
    hadamard_power,
    quadratic_form,
    stacked_psd_plan_entries,
)
from graphpsd.star_tree import StarMatrix, eliminate, stacked_dense
from graphpsd.witnesses import nk_membership


def psi(f, x):
    """Multiplicative-convexity indicator via the unordered-pair expansion:
    sum over exponent pairs e < e' of c c' (e - e')^2 x^{e + e' - 1}."""
    if x <= 0:
        raise FunctionError("psi is defined for x > 0")
    total = 0.0
    terms = f.terms
    for i in range(len(terms)):
        ci, ei = terms[i]
        for j in range(i + 1, len(terms)):
            cj, ej = terms[j]
            total += ci * cj * (ei - ej) ** 2 * x ** (ei + ej - 1.0)
    return total


def check_psi_nonnegative(f, step=DEFAULT_GRID_STEP, bound=DEFAULT_GRID_BOUND):
    """Grid check of psi >= 0 on (0, bound], with relative slack."""
    count = _grid_count(step, bound, 1)
    margin = math.inf
    for i in range(1, count + 1):
        x = i * step
        val = psi(f, x)
        scale = sum(
            abs(c1 * c2) * (e1 - e2) ** 2 * x ** (e1 + e2 - 1.0)
            for k1, (c1, e1) in enumerate(f.terms)
            for c2, e2 in f.terms[k1 + 1:]
        )
        margin = min(margin, val)
        if val < -REL_SLACK * (1.0 + scale):
            return Verdict(False, (x,), margin)
    return Verdict(True, None, margin)


def forward_difference(f, x, h, n):
    """n-th forward difference with step h at x."""
    if h <= 0:
        raise FunctionError("step must be positive")
    return float(
        sum((-1) ** i * math.comb(n, i) * f.value(x + (n - i) * h) for i in range(n + 1))
    )


def spectral_verdict(a):
    """Spectral PSD oracle, one eigvalsh: (psd, lambda_min, boundary), where
    psd is lambda_min >= -tol * max(1, spectral radius), tol =
    DEFAULT_PSD_TOL, as matrices.is_psd, and boundary is set when
    |lambda_min| <= tol * max(1, |lambda_max|), the band around zero where
    floating-point verdicts are allowed to disagree."""
    tol = DEFAULT_PSD_TOL
    eigs = np.linalg.eigvalsh(check_symmetric(a))
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    radius = max(-lam_min, lam_max)
    boundary = abs(lam_min) <= tol * max(1.0, abs(lam_max))
    return lam_min >= -tol * max(1.0, radius), lam_min, boundary


def pattern_of(a):
    """Graph with edge (i, j), i != j, wherever the entry is nonzero (exact)."""
    a = check_symmetric(a)
    n = a.shape[0]
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if a[i, j] != 0.0}
    return Graph(n, frozenset(edges))


def star_factor_am(s, m):
    return s.p[0] ** m - sum(
        ai ** (2 * m) / pi ** m for pi, ai in zip(s.p[1:], s.alpha) if pi != 0.0
    )


def star_factor(s, m):
    """Upper-triangular L_m with L_m L_m^T equal to the m-th Hadamard power.

    The column for a leaf with p_i = 0 is zero by convention.  The star must
    pass the float criterion (star_criterion_loop), whose load a_m lies
    within roundoff of.
    """
    if m < 1:
        raise MatrixError("m must be a positive integer")
    failed = star_criterion_loop(s)
    if failed:
        raise MatrixError(f"star matrix is not PSD (condition {failed})")
    am = star_factor_am(s, m)
    if am < 0:
        # roundoff can drive the exact-arithmetic a_m slightly negative
        if am > -1e-12 * max(1.0, abs(s.p[0]) ** m):
            am = 0.0
        else:
            raise MatrixError(f"factorization undefined: a_{m} = {am} < 0")
    n = len(s.p)
    lm = np.zeros((n, n))
    lm[0, 0] = math.sqrt(am)
    for i, (pi, ai) in enumerate(zip(s.p[1:], s.alpha), start=1):
        if pi != 0.0:
            lm[0, i] = ai ** m * pi ** (-m / 2.0)
            lm[i, i] = pi ** (m / 2.0)
    return lm


def star_eigenvalues_equal_p(s):
    """Eigenvalues when all leaf diagonals are equal: p2 repeated d-1 times plus
    the two roots of the rank-two perturbation."""
    if len(s.alpha) < 1:
        raise MatrixError("need at least one leaf")
    p2 = s.p[1]
    if any(pi != p2 for pi in s.p[1:]):
        raise MatrixError("leaf diagonals must be exactly equal")
    p1 = s.p[0]
    disc = math.sqrt((p1 - p2) ** 2 + 4.0 * sum(ai * ai for ai in s.alpha))
    hi = (p1 + p2 + disc) / 2.0
    lo = (p1 + p2 - disc) / 2.0
    return [p2] * (len(s.alpha) - 1) + [hi, lo]


def eta_bound(a):
    """Number of distinct nonzero entries of A.  No order-k witness exists for
    k >= eta(A): the power vectors of the distinct entries already span the
    constraint space."""
    a = check_symmetric(a)
    vals = a[np.triu_indices_from(a)]
    return int(np.unique(vals[vals != 0.0]).size)


def witness_search(a, k, trials=1000, seed=0):
    """Randomized search for an order-k witness; None when nothing is found.
    A None result is evidence, not proof."""
    rng = np.random.default_rng(seed)
    a = check_symmetric(a)
    # Project random draws onto the joint kernel of the lower powers before
    # certifying, otherwise random vectors never meet the 1e-10 residual bar.
    stack = np.vstack([hadamard_power(a, m) for m in range(k)]) if k else None
    basis = None
    if stack is not None:
        _, s, vt = np.linalg.svd(stack)
        cutoff = 1e-12 * max(1.0, s[0]) if s.size else 0.0
        null_rows = vt[np.sum(s > cutoff):]
        if null_rows.size == 0:
            return None
        basis = null_rows
    for _ in range(trials):
        beta = rng.standard_normal(a.shape[0])
        if basis is not None:
            beta = basis.T @ (basis @ beta)
        if np.linalg.norm(beta) < 1e-12:
            continue
        if nk_membership(a, beta, k):
            return beta
    return None


def thresholding_counterexample(g, a):
    """(A, A restricted to the pattern of g) for A = a * all-ones.

    A is PSD; the restriction contains a principal open-triangle block with
    determinant -a^3 < 0, so truncating to a non-complete connected pattern
    breaks positivity."""
    if a <= 0:
        raise MatrixError("need a > 0")
    if find_open_triangle(g) is None:
        raise GraphError("every component of the graph is complete; no counterexample")
    full = a * np.ones((g.n, g.n))
    masked = np.zeros_like(full)
    np.fill_diagonal(masked, a)
    for i, j in g.edges:
        masked[i, j] = masked[j, i] = a
    return full, masked


def star_criterion_loop(s):
    """The star criterion one leaf at a time: the first failed condition, 1, 2
    or 3, and 0 when PSD.  The load is folded left to right, like the
    criterion's in star_tree."""
    if any(pi < 0 for pi in s.p):
        return 1
    if any(pi == 0.0 and ai != 0.0 for pi, ai in zip(s.p[1:], s.alpha)):
        return 2
    load = 0.0
    for pi, ai in zip(s.p[1:], s.alpha):
        if pi != 0.0:
            load += ai * ai / pi
    return 3 if s.p[0] < load else 0


def star_dense(s):
    """The dense matrix of the StarMatrix s."""
    return stacked_dense(np.array([s.p]), np.array([s.alpha]))[0]


def kernel_stability_loop(s, m_max):
    """Kernel stability of one PSD star in floats, one null vector and one
    power at a time: every null vector of [A; A^(2)] (singular values at or
    below 1e-10 max(1, sigma_max) count as zero) kills Q_{A^(m)},
    m = 3..m_max, to 1e-9 relative to max(1, ||A^(m)||_F).  The lemma in
    README proves the exact statement; this check watches that its numerical
    form, on SVD null spaces at a cutoff, agrees on the stars drawn."""
    a = star_dense(s)
    _, sv, vt = np.linalg.svd(np.vstack([a, hadamard_power(a, 2)]))
    cutoff = 1e-10 * max(1.0, sv[0])
    for beta in vt[np.sum(sv > cutoff):]:
        for m in range(3, m_max + 1):
            am = hadamard_power(a, m)
            if abs(quadratic_form(am, beta)) > 1e-9 * max(1.0, float(np.linalg.norm(am))):
                return False
    return True


def star_sample(sampler, d, rng):
    """One star of degree d from random_star or random_psd_star."""
    p, alpha = sampler(np.array([d]), rng)
    return StarMatrix(p[0], alpha[0])


def exact_star_psd(p, alpha):
    """Whether the star of the floats p (center first) and alpha is PSD, in
    Fraction arithmetic: p >= 0, alpha_i = 0 where p_i = 0, and the center's
    Schur complement p1 - sum alpha_i^2 / p_i over the leaves with p_i > 0
    is >= 0."""
    p, alpha = [Fraction(x) for x in p], [Fraction(x) for x in alpha]
    if min(p) < 0 or any(x == 0 and a != 0 for x, a in zip(p[1:], alpha)):
        return False
    return p[0] - sum((a * a / x for x, a in zip(p[1:], alpha) if x), Fraction(0)) >= 0


def eigvalsh_verdict(a):
    """eigvalsh's PSD verdict on the symmetric matrix a where its least
    eigenvalue clears the backward-error bound 1e-12 ||a||_inf, else None.
    eigvalsh gives the eigenvalues of a + E with ||E||_2 far below that for
    n <= 9, and by Weyl each moves by at most ||E||_2 (README)."""
    lam = float(np.linalg.eigvalsh(a)[0])
    bound = 1e-12 * float(np.abs(a).sum(axis=1).max())
    if not math.isfinite(bound) or abs(lam) <= bound:
        return None
    return lam > 0.0


def star_suite_loop(stars):
    """(verdict, certificate) of star-suite on the StarMatrix samples stars,
    in index order, one sample at a time: each star's exact verdict in
    Fraction arithmetic, the criterion's claim counted against it, eigvalsh
    on every star, whose verdict must be the exact one wherever its least
    eigenvalue clears its backward-error bound, and kernel stability,
    stopping at the first failure.  The certificate has every key of
    star-suite's but its per-stage counts.  star-suite itself runs no
    eigensolver and checks no kernel stability, which the lemma in README
    proves for PSD stars; the float checks here stay, so that a report
    compared with this loop cross-checks both on every star."""
    exact_psd = wrong = 0
    for s in stars:
        dense = star_dense(s)
        exact = exact_star_psd(s.p, s.alpha)
        spectral = eigvalsh_verdict(dense)
        if spectral is not None and spectral != exact:
            return "fail", {"matrix": format_matrix(dense), "exact": exact, "eigvalsh": spectral}
        claim = star_criterion_loop(s) == 0
        exact_psd += exact
        wrong += claim != exact
        if claim and not kernel_stability_loop(s, 8):
            return "fail", {"matrix": format_matrix(dense), "kernel_stability": False}
    return "pass", {"checked": len(stars), "boundary_skipped": 0, "exact_psd": exact_psd,
                    "criterion_wrong": wrong}


def exact_tree_psd(tree, a):
    """The tree-patterned float matrix a is PSD in Fraction arithmetic: leaf
    elimination in the order of tree's elimination plan, where a pivot below
    0, or a zero pivot with a nonzero edge, refutes, and so does a NaN or
    +-inf entry."""
    if not np.all(np.isfinite(a)):
        return False
    plan = elimination_plan(tree)
    d = [Fraction(float(a[v, v])) for v in range(tree.n)]
    for v in plan.order:
        u = plan.parent[v]
        if d[v] < 0:
            return False
        if u >= 0:
            edge = Fraction(float(a[v, u]))
            if d[v] > 0:
                d[u] -= edge * edge / d[v]
            elif edge != 0:
                return False
    return True


def trial_loop(f, trials, draw, width, range_max):
    """The preservation trials one at a time, stopping at the first failure:
    (index, certificate) of the first failing trial, or None.  A trial fails
    when its image has a NaN or +-inf entry or fails leaf elimination in
    floats (eliminate), and the dense image is not PSD in Fraction
    arithmetic either (exact_tree_psd).  The commands run trials only where
    f is bounded in floats on [0, R], so a failing image is finite and
    format_matrix prints it.  Each trial calls draw(1), which
    gives the next trial's elimination plan, its parent array, its bounds
    [0, n] and its (2, n) block of uniforms; the commands' draws read the
    same stream for draw(1) k times as for one draw(k).  The parent array is
    read off the plan here, not taken from the draw.  width, the uniforms a
    trial reads, sets the commands' chunks, and every trial here is a chunk
    of its own."""
    for index in range(trials):
        plan, _, bounds, uniforms = draw(1)
        parent = np.array(plan.parent)
        diag, edge = stacked_psd_plan_entries(parent, bounds, range_max, uniforms)
        # f on the diagonal and the tree edges; roots carry no edge entry
        fdiag = f.value(diag)
        fedge = np.where(parent >= 0, f.value(edge), 0.0)
        finite = np.isfinite(fdiag).all() and np.isfinite(fedge).all()
        if finite and eliminate(plan, fdiag.tolist(), fedge.tolist()) is None:
            continue
        image = dense_from_plan(plan, fdiag, fedge)
        if exact_tree_psd(plan.graph(), image):
            continue
        return index, {
            "tree": format_graph(plan.graph()),
            "matrix": format_matrix(dense_from_plan(plan, diag, edge)),
            "image": format_matrix(image),
        }
    return None
