import math

import numpy as np
import pytest

from graphpsd.graphs import Graph, elimination_plan, path_graph, star_graph
from graphpsd.matrices import (
    MatrixError,
    apply_entrywise,
    dense_from_plan,
    format_matrix,
    format_plan,
    format_square,
    hadamard_power,
    is_psd,
    parse_matrix,
    quadratic_form,
    random_psd_pattern_entries,
    random_psd_plan_entries,
    random_psd_with_pattern,
)
from oracles import pattern_of
from test_elimination_plan import random_forest

B211 = np.array([[2.0, 1, 1], [1, 1, 0], [1, 0, 1]])


def test_pattern_of():
    assert pattern_of(B211) == star_graph(3)
    assert pattern_of(np.zeros((4, 4))) == Graph(4, frozenset())
    assert pattern_of(np.eye(3)) == Graph(3, frozenset())


def test_hadamard_power_values():
    a = np.array([[1.0, 2], [2, 4]])
    assert np.array_equal(hadamard_power(a, 2), [[1, 4], [4, 16]])
    z = np.array([[0.0, 3], [3, 0]])
    assert np.array_equal(hadamard_power(z, 0), [[0, 1], [1, 0]])
    h = np.array([[4.0, 9], [9, 4]])
    assert np.allclose(hadamard_power(h, 0.5), [[2, 3], [3, 2]])


def test_hadamard_fractional_negative_rejected():
    with pytest.raises(MatrixError):
        hadamard_power(np.array([[1.0, -1], [-1, 1]]), 0.5)


def test_quadratic_form():
    assert quadratic_form(np.eye(2), np.array([3.0, 4])) == 25
    assert quadratic_form(np.array([[1.0, 2], [2, 4]]), np.array([1.0, -1])) == 1
    assert quadratic_form(np.ones((3, 3)), np.array([1.0, -2, 1])) == 0


def test_is_psd_examples():
    v = is_psd(B211)
    assert v.is_psd and abs(v.min_eigenvalue) < 1e-12
    assert not is_psd(np.array([[1.0, 1, 1], [1, 1, 0], [1, 0, 1]])).is_psd
    assert is_psd(np.eye(7)).is_psd


def test_boundary_band():
    assert is_psd(B211).boundary  # singular: right on the boundary
    assert not is_psd(np.eye(2)).boundary


def test_apply_entrywise():
    out = apply_entrywise(np.square, B211, star_graph(3))
    assert np.array_equal(out, [[4, 1, 1], [1, 1, 0], [1, 0, 1]])
    root = apply_entrywise(np.sqrt, B211, star_graph(3))
    assert math.isclose(root[0, 0], math.sqrt(2))
    assert not is_psd(root).is_psd
    zero = apply_entrywise(lambda x: 0.0 * x, B211, star_graph(3))
    assert not zero.any()


def test_apply_entrywise_masks_off_pattern():
    # entries outside the graph are forced to zero, not passed through f
    a = np.array([[1.0, 0.5], [0.5, 1]])
    out = apply_entrywise(lambda x: x + 1.0, a, Graph(2, frozenset()))
    assert np.array_equal(out, np.diag([2.0, 2.0]))


@pytest.mark.parametrize("seed", range(25))
def test_random_psd_pattern_and_oracle(seed):
    g = path_graph(3)
    a = random_psd_with_pattern(g, 4.0, seed)
    assert is_psd(a).is_psd
    pat = pattern_of(a)
    assert pat.edges <= g.edges


def test_random_psd_range():
    a = random_psd_with_pattern(star_graph(6), 1.0, seed=5)
    assert np.all(np.abs(a) < 1.0)
    assert np.all(np.diag(a) >= 0)


def test_random_psd_single_vertex():
    a = random_psd_with_pattern(Graph(1, frozenset()), 2.0, seed=0)
    assert a.shape == (1, 1) and a[0, 0] >= 0


def test_sparse_sampler_matches_dense():
    g = path_graph(6)
    plan = elimination_plan(g)
    diag, edge = random_psd_plan_entries(plan, 3.0, seed=9)
    dense = random_psd_with_pattern(g, 3.0, seed=9)
    assert np.array_equal(dense, dense_from_plan(plan, diag, edge))
    assert np.array_equal(np.diag(dense), diag)
    for v, u in enumerate(plan.parent):
        assert dense[v, u] == edge[v] if u >= 0 else edge[v] == 0.0
    # the dict form carries the same entries
    diag2, off = random_psd_pattern_entries(g, 3.0, seed=9)
    assert np.array_equal(diag2, diag)
    assert off == {(i, j): dense[i, j] for i, j in g.edges}


def test_elimination_order_leaves_first():
    plan = elimination_plan(path_graph(4))
    order, parent = plan.order, plan.parent
    assert order == (0, 1, 2, 3)
    assert parent == (1, 2, 3, -1)
    seen = set()
    for v in order[:-1]:
        assert parent[v] >= 0 and parent[v] not in seen
        seen.add(v)


def test_format_parse_roundtrip():
    a = random_psd_with_pattern(star_graph(4), 2.0, seed=3)
    b = parse_matrix(format_matrix(a))
    assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("text,line", [
    ("2\n0 0 1\n0 0 2", 3),
    ("-1", 1),
    ("0", 1),
    ("1.5\n0 0 1", 1),
    ("2 2", 1),
    ("2\n0 1", 2),
    ("2\n0 x 1", 2),
    ("2\n0 1 y", 2),
    ("2\n0 2 1", 2),
    ("2\n1 0 1", 2),
    ("2\n\n0 1 1\n1 1 2\n0 1 3", 5),
])
def test_parse_names_the_line_it_refuses(text, line):
    # a duplicate (i, j), n < 1, a count, index or value that does not
    # parse and an entry out of range are MatrixErrors that name their line,
    # blank lines counted
    with pytest.raises(MatrixError, match=f"^line {line}: "):
        parse_matrix(text)


def test_check_asymmetric_rejected():
    with pytest.raises(MatrixError):
        is_psd(np.array([[1.0, 2], [0, 1]]))


SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf]


def square_text(a):
    """format_square's text by a loop over the upper triangle, row by row."""
    lines = [str(a.shape[0])]
    lines += [f"{i} {j} {float(a[i, j])!r}" for i in range(a.shape[0])
              for j in range(i, a.shape[0]) if a[i, j] != 0.0]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(20))
def test_square_text_is_the_loop_text(seed):
    # dense arrays, not symmetric, a share of their entries 0, -0, NaN or
    # +-inf; the lower triangle is never printed
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    a = rng.uniform(-3.0, 3.0, (n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
    special = rng.random((n, n)) < (0.0, 0.2, 0.5, 0.9)[seed % 4]
    a[special] = rng.choice(SPECIAL, int(special.sum()))
    assert format_square(a) == square_text(a)
    ints = rng.integers(-2, 3, (n, n))
    assert format_square(ints) == square_text(ints)


@pytest.mark.parametrize("seed", range(40))
def test_plan_text_is_the_dense_text(seed):
    # format_plan against format_square and format_matrix of the dense
    # matrix, on random forests whose entries are in part 0, -0, NaN or +-inf;
    # edge entries at roots are not the matrix's and are never printed
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    plan = elimination_plan(random_forest(n, seed))
    diag, edge = rng.uniform(-3.0, 3.0, (2, n))
    share = (0.0, 0.1, 0.3, 0.6)[seed % 4]
    for entries in (diag, edge):
        special = rng.random(n) < share
        entries[special] = rng.choice(SPECIAL, int(special.sum()))
    dense = dense_from_plan(plan, diag, edge)
    assert format_plan(plan, diag, edge, check=False) == format_square(dense)
    if np.isfinite(dense).all():
        assert format_plan(plan, diag, edge) == format_matrix(dense)
    else:
        for text in (lambda: format_plan(plan, diag, edge), lambda: format_matrix(dense)):
            with pytest.raises(MatrixError):
                text()


def test_plan_text_skips_zeros_and_prints_non_finite_entries():
    plan = elimination_plan(path_graph(3))
    diag = np.array([1.5, 0.0, math.nan])
    edge = np.array([-0.0, math.inf, 7.0])  # vertex 2 is the root
    assert format_plan(plan, diag, edge, check=False) == "3\n0 0 1.5\n1 2 inf\n2 2 nan\n"
    with pytest.raises(MatrixError, match="non-finite"):
        format_plan(plan, diag, edge)
