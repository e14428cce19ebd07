import pytest
from hypothesis import given, strategies as st

from graphpsd.graphs import (
    Graph,
    GraphError,
    build_graph,
    complete_graph,
    elimination_plan,
    find_open_triangle,
    format_graph,
    parse_graph,
    path_graph,
    random_tree,
    star_graph,
)


def test_path_edges():
    assert path_graph(3).edges == frozenset({(0, 1), (1, 2)})


def test_star_edges_and_degree():
    g = star_graph(4)
    assert g.edges == frozenset({(0, 1), (0, 2), (0, 3)})
    assert [len(nbrs) for nbrs in g.adjacency()] == [3, 1, 1, 1]


def test_random_tree_is_tree():
    g = random_tree(8, seed=42)
    assert len(g.edges) == 7
    assert elimination_plan(g).parent.count(-1) == 1


@given(st.integers(2, 40), st.integers(0, 10_000))
def test_random_tree_always_tree(n, seed):
    assert elimination_plan(random_tree(n, seed)).parent.count(-1) == 1


def test_random_tree_deterministic():
    assert random_tree(12, 7).edges == random_tree(12, 7).edges


# a graph is a tree when its elimination plan exists (no cycle) and has one
# root (one component)
def test_tree_families_have_one_root():
    assert elimination_plan(path_graph(4)).parent.count(-1) == 1
    assert elimination_plan(star_graph(7)).parent.count(-1) == 1
    assert elimination_plan(Graph(1)).parent.count(-1) == 1
    with pytest.raises(GraphError):
        elimination_plan(complete_graph(3))


def test_a_tree_needs_one_component_and_no_cycle():
    # n - 1 edges, but a triangle plus an isolated vertex
    with pytest.raises(GraphError):
        elimination_plan(Graph(4, frozenset({(0, 1), (1, 2), (0, 2)})))
    # no cycle, but too few edges to connect
    assert elimination_plan(Graph(5, frozenset({(0, 1), (2, 3)}))).parent.count(-1) == 3
    assert elimination_plan(Graph(2)).parent.count(-1) == 2


def test_open_triangle():
    assert find_open_triangle(path_graph(3)) == (1, 0, 2)
    assert find_open_triangle(complete_graph(4)) is None
    assert find_open_triangle(star_graph(3)) == (0, 1, 2)


def test_open_triangle_is_open():
    g = random_tree(9, 3)
    i, j, k = find_open_triangle(g)
    assert g.has_edge(i, j) and g.has_edge(i, k) and not g.has_edge(j, k)


def test_build_graph_dispatch():
    assert build_graph("path", 3) == path_graph(3)
    assert build_graph("star", 4) == star_graph(4)
    assert build_graph("complete", 4) == complete_graph(4)
    assert elimination_plan(build_graph("random_tree", 6, seed=1)).parent.count(-1) == 1
    assert build_graph("tree", 6, seed=1) == build_graph("random_tree", 6, seed=1)
    with pytest.raises(GraphError):
        build_graph("wheel", 5)


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(GraphError):
        Graph(3, frozenset({(1, 1)}))


def test_format_parse_roundtrip():
    for g in (path_graph(5), star_graph(4), random_tree(10, 0)):
        assert parse_graph(format_graph(g)) == g


def test_parse_rejects_garbage():
    with pytest.raises(GraphError):
        parse_graph("3 1\n2 2\n")


@pytest.mark.parametrize("text,line", [
    ("x y", 1),
    ("3", 1),
    ("0 0", 1),
    ("-2 0", 1),
    ("3 1\n0 1.5", 2),
    ("3 1\n0 1 2", 2),
    ("3 1\n0 3", 2),
    ("3 1\n-1 2", 2),
    ("3 2\n0 1\n\n0 1", 4),
])
def test_parse_names_the_line_it_refuses(text, line):
    # a count or index that is no integer, n < 1, an edge out of range and a
    # duplicate edge are GraphErrors that name their line, blank lines counted
    with pytest.raises(GraphError, match=f"^line {line}: "):
        parse_graph(text)
