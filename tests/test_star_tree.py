import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphpsd import star_tree
from graphpsd.functions import parse_function
from graphpsd.graphs import Graph, elimination_plan, path_graph, prufer_plan, random_tree, star_graph
from graphpsd.matrices import (
    MatrixError,
    apply_entrywise,
    dense_from_plan,
    hadamard_power,
    is_psd,
    random_psd_plan_entries,
    random_psd_with_pattern,
)
from graphpsd.star_tree import (
    StarMatrix,
    StarVerdict,
    exact_plan_psd_check,
    first_failing_block,
    leaf_load,
    plan_psd_check,
    random_psd_star,
    random_star,
    stacked_verdicts,
    star_psd_check,
    tree_psd_check,
    tree_psd_check_sparse,
)
from oracles import (
    exact_star_psd,
    exact_tree_psd,
    star_dense,
    star_eigenvalues_equal_p,
    star_factor,
    star_factor_am,
    star_sample,
)


def claims(p, alpha):
    """The float criterion's first failed condition on the stars stacked as
    rows of p and alpha, 0 for PSD."""
    return stacked_verdicts(p.T, alpha.T)[0]


def test_star_psd_boundary_equality():
    s = StarMatrix((2.0, 1.0, 1.0), (1.0, 1.0))
    v = star_psd_check(s)
    assert v.is_psd
    oracle = is_psd(star_dense(s))
    assert oracle.is_psd and abs(oracle.min_eigenvalue) < 1e-12


def test_star_psd_condition3_fails():
    v = star_psd_check(StarMatrix((1.9, 1.0, 1.0), (1.0, 1.0)))
    assert not v.is_psd and v.failed_condition == 3
    assert not is_psd(star_dense(StarMatrix((1.9, 1.0, 1.0), (1.0, 1.0)))).is_psd


def test_star_psd_condition2_fails():
    v = star_psd_check(StarMatrix((1.0, 0.0, 1.0), (0.5, 0.0)))
    assert not v.is_psd and v.failed_condition == 2


def test_star_psd_condition1_fails():
    v = star_psd_check(StarMatrix((1.0, -0.5, 1.0), (0.0, 0.0)))
    assert not v.is_psd and v.failed_condition == 1


def test_star_psd_check_is_exact_where_the_float_criterion_is_not():
    # the center at the criterion's own load fl(1 + fl(1/3)), an ulp below
    # the exact load 4/3: the float criterion calls the star PSD, Fraction
    # arithmetic and star_psd_check do not, and condition 3 means S < 0
    load = leaf_load([1.0, 3.0], [1.0, 1.0])
    s = StarMatrix((load, 1.0, 3.0), (1.0, 1.0))
    assert Fraction(load) < Fraction(4, 3)
    assert claims(np.array([s.p]), np.array([s.alpha])).tolist() == [0]
    assert not exact_star_psd(s.p, s.alpha)
    assert star_psd_check(s) == StarVerdict(False, 3)
    # one ulp above the exact load is PSD
    above = StarMatrix((np.nextafter(4 / 3, 2.0), 1.0, 3.0), (1.0, 1.0))
    assert exact_star_psd(above.p, above.alpha) and star_psd_check(above).is_psd


def test_star_factor_boundary():
    s = StarMatrix((2.0, 1.0, 1.0), (1.0, 1.0))
    assert star_factor_am(s, 1) == 0.0
    l1 = star_factor(s, 1)
    assert np.allclose(l1[0], [0.0, 1.0, 1.0])
    assert np.allclose(l1 @ l1.T, star_dense(s))


def test_star_factor_am_value():
    assert star_factor_am(StarMatrix((4.0, 1.0, 1.0), (1.0, 1.0)), 2) == 14.0


def test_star_factor_zero_p_convention():
    s = StarMatrix((1.0, 0.0, 1.0), (0.0, 1.0))
    l1 = star_factor(s, 1)
    assert l1[0, 1] == 0.0
    assert np.allclose(l1 @ l1.T, star_dense(s))


@settings(max_examples=100)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 10_000))
def test_star_factor_reproduces_power(d, m, seed):
    rng = np.random.default_rng(seed)
    s = star_sample(random_psd_star, d, rng)
    lm = star_factor(s, m)
    assert np.allclose(lm @ lm.T, hadamard_power(star_dense(s), m), atol=1e-9)


def test_star_eigs_equal_p():
    ev = sorted(star_eigenvalues_equal_p(StarMatrix((2.0, 1.0, 1.0), (1.0, 1.0))))
    assert np.allclose(ev, [0.0, 1.0, 3.0])
    assert np.allclose(
        sorted(star_eigenvalues_equal_p(StarMatrix((1.0, 1.0, 1.0), (0.0, 0.0)))),
        [1.0, 1.0, 1.0],
    )
    ev = sorted(star_eigenvalues_equal_p(StarMatrix((5.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0))))
    assert np.allclose(ev, sorted([1.0, 1.0, (6 - math.sqrt(28)) / 2, (6 + math.sqrt(28)) / 2]))


def test_tree_psd_path_examples():
    t = path_graph(3)
    assert tree_psd_check(np.array([[1.0, 1, 0], [1, 2, 1], [0, 1, 1]]), t)
    assert not tree_psd_check(np.array([[1.0, 1, 0], [1, 1.9, 1], [0, 1, 1]]), t)


def test_tree_psd_star_matches_star_check():
    b211 = np.array([[2.0, 1, 1], [1, 1, 0], [1, 0, 1]])
    assert tree_psd_check(b211, star_graph(3))


def test_tree_psd_rejects_off_pattern():
    t = path_graph(3)
    a = np.array([[1.0, 0.2, 0.2], [0.2, 1, 0.2], [0.2, 0.2, 1]])
    with pytest.raises(Exception):
        tree_psd_check(a, t)
    below = np.array([[1.0, 0.2, 0], [0.2, 1, 0.2], [0.2, 0.2, 1]])  # only (2, 0) is off
    with pytest.raises(MatrixError):
        tree_psd_check(below, t)
    skew = np.array([[1.0, 0.2, 0], [0.3, 1, 0.2], [0, 0.2, 1]])
    with pytest.raises(MatrixError):
        tree_psd_check(skew, t)


def test_exact_check_takes_no_pivot_for_zero():
    # the pivot 1e-10 is eliminated in floats as it is exactly: the leaf
    # leaves 1 - 0.01 > 0
    plan = elimination_plan(path_graph(2))
    assert star_tree.eliminate(plan, [1e-10, 1.0], [1e-6, 0.0]) is None
    assert plan_psd_check(plan, [1e-10, 1.0], [1e-6, 0.0])
    assert exact_plan_psd_check(plan, [1e-10, 1.0], [1e-6, 0.0])
    # 1 - 100 < 0, and the singular [[1, 1], [1, 1]] against one ulp less
    assert not exact_plan_psd_check(plan, [1e-10, 1.0], [1e-4, 0.0])
    assert exact_plan_psd_check(plan, [1.0, 1.0], [1.0, 0.0])
    assert not exact_plan_psd_check(plan, [1.0, math.nextafter(1.0, 0.0)], [1.0, 0.0])
    # a zero pivot passes only with a zero edge; NaN and inf entries fail
    assert exact_plan_psd_check(plan, [0.0, 1.0], [0.0, 0.0])
    assert not exact_plan_psd_check(plan, [0.0, 1.0], [1e-300, 0.0])
    for bad in (math.nan, math.inf, -math.inf):
        assert not exact_plan_psd_check(plan, [1.0, bad], [0.0, 0.0])
        assert not exact_plan_psd_check(plan, [1.0, 1.0], [bad, 0.0])


def forest(sizes, rng):
    """Random trees of the given sizes: each one's plan alone, prufer_plan of
    the forest of them, tree j on the vertices bounds[j] .. bounds[j + 1] - 1,
    and those bounds."""
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    seqs = [rng.integers(0, n, max(n - 2, 0)) for n in sizes]
    whole = prufer_plan(np.concatenate([s + o for s, o in zip(seqs, bounds.tolist())]), sizes)
    return [prufer_plan(s, [n]) for s, n in zip(seqs, sizes)], whole, bounds


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10_000), st.floats(0.0, 0.3))
def test_exact_check_matches_the_dense_exact_check(n, seed, shift):
    # sampled PSD tree matrices, their diagonal shifted down, so that about
    # 40 % stay PSD: the plan's order against the reference's leaf
    # elimination of the dense matrix
    t = random_tree(n, seed)
    plan = elimination_plan(t)
    diag, edge = random_psd_plan_entries(plan, 2.0, seed)
    diag = diag - shift
    assert exact_plan_psd_check(plan, diag, edge) == \
        exact_tree_psd(t, dense_from_plan(plan, diag, edge))


def test_tree_sparse_zero_pivot_branch():
    # zero leaf diagonal with zero incident edge is fine; nonzero edge is not
    t = path_graph(2)
    assert tree_psd_check_sparse(t, [1.0, 0.0], {})
    assert not tree_psd_check_sparse(t, [1.0, 0.0], {(0, 1): 0.5})


@pytest.mark.parametrize("key,value", [((1, 0), 5.0), ((1, 0), 0.0), ((0, 0), 5.0),
                                       ((1, 1), 0.0)])
def test_sparse_check_refuses_a_key_with_i_not_below_j(key, value):
    # keyed (1, 0), the 5 of [[1, 5], [5, 1]] was read as a missing edge
    # entry 0, and the matrix passed
    t = path_graph(2)
    with pytest.raises(MatrixError, match=re.escape(f"entry {key} must have i < j")):
        tree_psd_check_sparse(t, [1.0, 1.0], {key: value})
    assert not tree_psd_check_sparse(t, [1.0, 1.0], {(0, 1): 5.0})


# diagonal shifts down by a share of the diagonal: none, a few thousand
# ulps, and far past it
SHIFTS = (0.0, 1e-12, 1e-6, 1e-3, 0.5, 0.9)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 60), st.sampled_from(SHIFTS)), min_size=1, max_size=4),
       st.integers(2, 8), st.integers(0, 10_000))
def test_every_false_from_the_tree_checks_is_exact(trees, k, seed):
    # x^k images of sampled PSD trees, PSD by the Schur product theorem,
    # each tree's diagonal shifted down by its share, made one forest as a
    # chunk of trials is.  A check passes every matrix that is PSD exactly;
    # the forest's first failing block is the first tree that fails alone
    rng = np.random.default_rng(seed)
    alone, whole, bounds = forest([n for n, _ in trees], rng)
    diag, edge = [], []
    for plan, (_, shift) in zip(alone, trees):
        d, e = random_psd_plan_entries(plan, 8.0, rng)
        diag.append(d ** k * (1.0 - shift))
        edge.append(e ** k)
    diag, edge = np.concatenate(diag), np.concatenate(edge)
    fails_alone = []
    for j, plan in enumerate(alone):
        lo, hi = int(bounds[j]), int(bounds[j + 1])
        assert whole.block(lo, hi) == plan
        ok = plan_psd_check(plan, diag[lo:hi], edge[lo:hi])
        if exact_tree_psd(plan.graph(), dense_from_plan(plan, diag[lo:hi], edge[lo:hi])):
            assert ok
        fails_alone.append(not ok)
    assert first_failing_block(whole, diag, edge, bounds) == \
        (fails_alone.index(True) if any(fails_alone) else None)
    g = whole.graph()
    dense = dense_from_plan(whole, diag, edge)
    off = {(min(u, v), max(u, v)): float(edge[v]) for v, u in enumerate(whole.parent) if u >= 0}
    if exact_tree_psd(g, dense):
        assert plan_psd_check(whole, diag, edge)
        assert tree_psd_check(dense, g)
        assert tree_psd_check_sparse(g, diag, off)


def test_x6_images_pass_the_float_pass():
    # x^6 is a Schur power: its image of a PSD tree matrix is PSD.  Leaf
    # elimination in floats passes every image, with no exact re-check
    f = parse_function("1*x^6")
    for seed in range(20):
        t = random_tree(100, seed)
        fa = apply_entrywise(f.value, random_psd_with_pattern(t, 8.0, seed), t)
        plan = elimination_plan(t)
        diag = np.diag(fa)
        edge = np.array([fa[v, u] if u >= 0 else 0.0 for v, u in enumerate(plan.parent)])
        assert star_tree.eliminate(plan, diag.tolist(), edge.tolist()) is None
        assert exact_tree_psd(t, fa)
        assert tree_psd_check(fa, t)
        assert tree_psd_check_sparse(t, diag, {(min(u, v), max(u, v)): edge[v]
                                               for v, u in enumerate(plan.parent) if u >= 0})


@pytest.mark.parametrize("t,a", [
    (Graph(1), [[math.nan]]),
    (Graph(1), [[math.inf]]),
    (path_graph(2), [[1.0, 0.0], [0.0, math.nan]]),
    (path_graph(2), [[math.inf, 1.0], [1.0, 5.0]]),
    (path_graph(2), [[math.inf, 0.0], [0.0, -5.0]]),
], ids=["nan", "inf", "nan-leaf", "inf-pivot", "inf-over-negative-root"])
def test_a_nan_or_inf_entry_fails_every_tree_check(t, a):
    # a root test d < -t, which NaN never meets, passed the first two; a
    # +inf pivot, eliminated into its parent as 0, passed the other three
    a = np.array(a)
    plan = elimination_plan(t)
    edge = np.array([a[v, u] if u >= 0 else 0.0 for v, u in enumerate(plan.parent)])
    assert not tree_psd_check(a, t)
    assert not tree_psd_check_sparse(t, np.diag(a), {(0, 1): a[0, 1]} if t.n == 2 else {})
    assert not plan_psd_check(plan, np.diag(a), edge)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10_000))
def test_star_check_agrees_with_oracle(d, seed):
    rng = np.random.default_rng(seed)
    s = star_sample(random_star, d, rng)
    oracle = is_psd(star_dense(s))
    if oracle.boundary:
        return
    assert star_psd_check(s).is_psd == oracle.is_psd


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_random_psd_star_is_psd(d, seed):
    p, alpha = random_psd_star(np.full(40, d), np.random.default_rng(seed))
    # PSD by the float criterion; some of the rows at the load are not PSD
    # exactly, which star_psd_check reports
    assert p.shape == (40, d + 1) and alpha.shape == (40, d)
    assert (claims(p, alpha) == 0).all()


def test_random_psd_star_boundary_rows_sit_exactly_at_the_load():
    # about 30 % of the rows have p1 equal to the criterion's own load, and
    # about 30 % have a leaf with alpha_i = p_i
    p, alpha = random_psd_star(np.full(2000, 5), np.random.default_rng(1))
    at_load = p[:, 0] == leaf_load(p[:, 1:], alpha)
    tied = (alpha == p[:, 1:]).any(axis=1)
    assert 0.25 < at_load.mean() < 0.35 and 0.25 < tied.mean() < 0.35
    assert (claims(p[at_load], alpha[at_load]) == 0).all()
    assert (claims(np.column_stack([np.nextafter(p[at_load, 0], -1.0), p[at_load, 1:]]),
                   alpha[at_load]) == 3).all()
    # the rows off the load are PSD exactly; about half of those at it lie
    # an ulp or so below the exact load
    psd = stacked_verdicts(p.T, alpha.T)[1]
    assert psd[~at_load].all() and 0.35 < 1.0 - psd[at_load].mean() < 0.6


def test_random_star_rows():
    p, alpha = random_star(np.full(500, 3), np.random.default_rng(2))
    assert p.shape == (500, 4) and alpha.shape == (500, 3)
    assert -2.0 <= min(p.min(), alpha.min()) and max(p.max(), alpha.max()) < 2.0
    # both verdicts of the criterion occur
    assert {0, 1} <= set(claims(p, alpha).tolist())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["p", "alpha"])
def test_star_rejects_non_finite_entries(bad, field):
    # NaN fails no comparison of the criterion, so it would be called PSD
    p, alpha = [1.0, 1.0], [0.5]
    (p if field == "p" else alpha)[0] = bad
    with pytest.raises(MatrixError, match="non-finite"):
        StarMatrix(tuple(p), tuple(alpha))
