import math

import numpy as np
import pytest

from graphpsd.constructors import (
    build_entire_function_partial,
    build_tree_preserver_poly,
    longest_negative_run,
    max_entire_blocks,
    mult_convexity_threshold,
    superadditivity_counterexample,
    superadditivity_threshold,
)
from graphpsd.functions import (
    FunctionError,
    check_abs_monotonic,
    check_mult_midpoint_convex,
    check_superadditive,
    EntrywiseFunction,
    parse_function,
)
from graphpsd.graphs import (
    GraphError,
    complete_graph,
    find_open_triangle,
    path_graph,
    random_tree,
    star_graph,
)
from graphpsd.matrices import MatrixError, apply_entrywise, is_psd
from graphpsd.star_tree import tree_psd_check
from oracles import (
    check_psi_nonnegative,
    forward_difference,
    pattern_of,
    thresholding_counterexample,
)


def test_superadditivity_threshold_values():
    assert math.isclose(superadditivity_threshold(2, 4, 1, 1).threshold, 1 / 6)
    assert math.isclose(superadditivity_threshold(2, 3, 1, 1).threshold, 1 / 3)
    tiny = superadditivity_threshold(1.0001, 2, 1, 1).threshold
    assert math.isclose(tiny, 1.0001 * 0.0001 / 2, rel_tol=1e-9)


def test_superadditivity_threshold_rejects_bad_exponents():
    with pytest.raises(FunctionError):
        superadditivity_threshold(1.0, 2.0, 1.0, 1.0)
    with pytest.raises(FunctionError):
        superadditivity_threshold(2.0, 4.0, -1.0, 1.0)


def test_superadditive_budget_contract():
    nu = superadditivity_threshold(2, 4, 1, 1).threshold
    f = EntrywiseFunction(((1.0, 2.0), (-0.1, 3.0), (1.0, 4.0)))
    assert -0.1 > -nu
    assert check_superadditive(f).holds


def test_mult_convexity_threshold_contract():
    lam = mult_convexity_threshold(1, 2, 4, 5, 1, 1, 1, 1).threshold
    assert lam > 0
    g = EntrywiseFunction(((1.0, 1.0), (1.0, 2.0), (-0.99 * lam, 3.0), (1.0, 4.0), (1.0, 5.0)))
    assert check_psi_nonnegative(g).holds
    assert check_mult_midpoint_convex(g).holds


def test_mult_convexity_degenerate_r_prime():
    # r' = 0 is allowed as long as r + r' > 1
    rep = mult_convexity_threshold(0, 1.5, 3, 4, 1, 1, 1, 1)
    assert rep.threshold > 0


def test_mult_convexity_rejects_low_sum():
    with pytest.raises(FunctionError):
        mult_convexity_threshold(0, 0.9, 3, 4, 1, 1, 1, 1)


@pytest.mark.parametrize("n_neg", [1, 2, 3, 5])
def test_tree_preserver_poly_shape(n_neg):
    f = build_tree_preserver_poly(n_neg)
    coefs = dict((e, c) for c, e in f.terms)
    assert f(0.0) == 0.0
    assert min(coefs) == 1.0
    negatives = [e for e, c in coefs.items() if c < 0]
    assert len(negatives) == n_neg
    assert negatives == [float(k) for k in range(3, n_neg + 3)]


@pytest.mark.parametrize("n_neg", [1, 2, 4])
def test_tree_preserver_poly_properties(n_neg):
    f = build_tree_preserver_poly(n_neg)
    assert check_superadditive(f).holds
    assert check_mult_midpoint_convex(f).holds
    assert check_psi_nonnegative(f).holds
    # the negative block is tiny, so the dip below zero sits underneath the
    # grid checker's slack; assert the derivative and raw difference signs
    assert f.deriv(0.0, 3) < 0
    assert forward_difference(f, 0.0, 1e-5, 3) < 0


def test_tree_preserver_poly_preserves_random_trees():
    f = build_tree_preserver_poly(2)
    from graphpsd.matrices import random_psd_with_pattern

    for seed in range(50):
        t = random_tree(3 + seed % 8, seed)
        a = random_psd_with_pattern(t, 5.0, seed)
        assert tree_psd_check(apply_entrywise(f.value, a, t), t)


def test_entire_partial_negative_runs():
    assert longest_negative_run(build_entire_function_partial(1)) >= 1
    assert longest_negative_run(build_entire_function_partial(3)) >= 3


def test_entire_partial_coefficients_bounded():
    f = build_entire_function_partial(4)
    assert all(-1.0 <= c <= 1.0 for c, _ in f.terms)


def test_entire_partial_depth_limit():
    limit = max_entire_blocks()
    assert limit == 13
    with pytest.raises(FunctionError, match=str(limit)):
        build_entire_function_partial(limit + 1)


def test_superadditivity_counterexample_block():
    # star 3's open triangle is (0; 1, 2): B(2, 1, 1) is the whole matrix
    b = superadditivity_counterexample(star_graph(3), 1.0, 1.0)
    assert np.array_equal(b, [[2, 1, 1], [1, 1, 0], [1, 0, 1]])
    assert is_psd(b).is_psd


def test_superadditivity_counterexample_path3_is_the_permuted_block():
    # the center of path 3 is vertex 1: B(x+y, x, y) with rows (1, 0, 2)
    a = superadditivity_counterexample(path_graph(3), 0.25, 3.0)
    assert np.array_equal(a, [[0.25, 0.25, 0], [0.25, 3.25, 3.0], [0, 3.0, 3.0]])


def test_fractional_counterexample_path3():
    t = path_graph(3)
    r = 4.0
    a = superadditivity_counterexample(t, r / 4, r / 4)
    assert is_psd(a).is_psd
    fa = apply_entrywise(np.sqrt, a, t)
    assert not tree_psd_check(fa, t)
    # center entry sqrt(2) < 1 + 1 violates the star load criterion
    assert math.isclose(fa[1, 1], math.sqrt(2))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 0.99])
def test_fractional_counterexample_margins(alpha):
    t = random_tree(7, 2)
    r = 4.0
    a = superadditivity_counterexample(t, r / 4, r / 4)
    assert is_psd(a).is_psd
    assert np.max(np.abs(a)) <= r
    assert pattern_of(a).edges <= t.edges
    fa = apply_entrywise(lambda x: np.power(x, alpha), a, t)
    assert not tree_psd_check(fa, t)
    # Schur margin at the triangle center: leaf loads minus the diagonal
    i, j, k = find_open_triangle(t)
    margin = fa[i, j] ** 2 / fa[j, j] + fa[i, k] ** 2 / fa[k, k] - fa[i, i]
    assert margin >= (2 - 2 ** alpha) * (r / 4) ** alpha / 2


def test_superadditivity_counterexample_at_zero():
    # (0, 0) is the witness for f(0) > 0: A = 0, and f[A] = f(0) (I + adjacency)
    t = path_graph(3)
    a = superadditivity_counterexample(t, 0.0, 0.0)
    assert np.array_equal(a, np.zeros((3, 3)))
    f = parse_function("1*x^0, 1*x^2")
    assert not tree_psd_check(apply_entrywise(f.value, a, t), t)


def test_superadditivity_counterexample_needs_an_open_triangle():
    with pytest.raises(GraphError):
        superadditivity_counterexample(complete_graph(3), 1.0, 1.0)


def test_thresholding_counterexample():
    full, masked = thresholding_counterexample(path_graph(3), 1.0)
    assert is_psd(full).is_psd
    assert math.isclose(np.linalg.det(masked), -1.0, abs_tol=1e-12)

    _, masked4 = thresholding_counterexample(star_graph(4), 2.0)
    block = masked4[np.ix_([0, 1, 2], [0, 1, 2])]
    assert math.isclose(np.linalg.det(block), -8.0, rel_tol=1e-12)

    with pytest.raises(GraphError):
        thresholding_counterexample(complete_graph(3), 1.0)
