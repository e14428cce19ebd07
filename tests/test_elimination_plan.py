"""The elimination plan and the plan-aligned tree check against loop references.

The references below are the dict- and heap-based loops the plan replaced: a
heap Pruefer decoder to an edge list, a leaf heap over adjacency sets, a
union-find forest test, the scalar sampler loop and the dict-based Schur
elimination.
The arithmetic is unchanged, so trees, plans, samples and verdicts must agree
exactly.
"""

import heapq
import itertools
import json
import random

import numpy as np
import pytest

from graphpsd import cli, functions, graphs
from graphpsd.graphs import (
    EliminationPlan,
    Graph,
    GraphError,
    complete_graph,
    elimination_plan,
    path_graph,
    prufer_plan,
    random_tree,
    random_tree_plan,
)
from graphpsd.matrices import (
    dense_from_plan,
    parse_matrix,
    random_psd_pattern_entries,
    random_psd_plan_entries,
    random_psd_with_pattern,
)
from graphpsd.star_tree import plan_psd_check, tree_psd_check, tree_psd_check_sparse


def reference_prufer_edges(seq, n):
    """Pruefer decode to an edge list, smallest leaf first."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def union(plans):
    """The forest of plans, tree j relabeled by the sizes of the trees before
    it, and eliminated after them."""
    order, parent, start = [], [], 0
    for plan in plans:
        order += [v + start for v in plan.order]
        parent += [u + start if u >= 0 else -1 for u in plan.parent]
        start += len(plan.parent)
    return EliminationPlan(tuple(order), tuple(parent))


def reference_random_tree_edges(n, seed):
    """The edges of a random tree as drawn and decoded edge by edge."""
    if n == 1:
        return frozenset()
    rng = np.random.default_rng(seed)
    seq = [int(rng.integers(n)) for _ in range(n - 2)]
    return frozenset(reference_prufer_edges(seq, n))


def reference_is_forest(g):
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in sorted(g.edges):
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def reference_walk(g):
    """Smallest-leaf-first elimination over adjacency sets; (order, parent)."""
    adj = [set(nbrs) for nbrs in g.adjacency()]
    deg = [len(s) for s in adj]
    heap = [v for v in range(g.n) if deg[v] <= 1]
    heapq.heapify(heap)
    removed = [False] * g.n
    order, parent = [], [-1] * g.n
    while heap:
        v = heapq.heappop(heap)
        if removed[v]:
            continue
        removed[v] = True
        order.append(v)
        for u in adj[v]:
            if not removed[u]:
                parent[v] = u
                adj[u].discard(v)
                deg[u] -= 1
                if deg[u] <= 1:
                    heapq.heappush(heap, u)
    return order, parent


def reference_sampler(g, range_max, seed):
    """Scalar sampler loop: (diag, off) with off keyed by (i, j), i < j.

    Column v of L holds l_vv, drawn for every vertex, and l_uv at its parent
    u, drawn for every vertex after those; each diagonal entry of L L^T is
    l_vv^2 plus its children's l_uv^2, summed in vertex order."""
    _, parent = reference_walk(g)
    rng = np.random.default_rng(seed)
    lvv = [rng.uniform(0.3, 1.5) for _ in range(g.n)]
    luv = [rng.uniform(0.0, 1.0) for _ in range(g.n)]
    load = np.zeros(g.n)
    off = {}
    for v in range(g.n):
        u = parent[v]
        if u >= 0:
            load[u] += luv[v] * luv[v]
            off[(min(u, v), max(u, v))] = lvv[v] * luv[v]
    diag = np.array([x * x for x in lvv]) + load
    peak = max(diag.max(), max(off.values(), default=0.0))
    scale = 0.999 * range_max / peak
    diag *= scale
    for key in off:
        off[key] *= scale
    return diag, off


def reference_tree_check(t, diag, off):
    """Dict-based leaf elimination with scalar Schur complements in floats:
    a root needs d >= 0, a pivot d = 0 a zero edge."""
    if not reference_is_forest(t):
        raise GraphError("pattern graph is not a forest")
    d = np.array(diag, dtype=float)
    adj = [set(nbrs) for nbrs in t.adjacency()]
    deg = [len(s) for s in adj]
    heap = [v for v in range(t.n) if deg[v] <= 1]
    heapq.heapify(heap)
    removed = [False] * t.n
    while heap:
        v = heapq.heappop(heap)
        if removed[v]:
            continue
        removed[v] = True
        if not adj[v]:
            if d[v] < 0:
                return False
            continue
        (u,) = adj[v]
        a_uv = off.get((min(u, v), max(u, v)), 0.0)
        if d[v] > 0:
            d[u] -= a_uv * a_uv / d[v]
        elif d[v] < 0 or a_uv != 0:
            return False
        adj[u].discard(v)
        deg[u] -= 1
        if deg[u] <= 1:
            heapq.heappush(heap, u)
    return True


def random_forest(n, seed):
    """A random tree on n vertices with a random share of its edges dropped."""
    rng = random.Random(seed)
    edges = sorted(random_tree(n, seed).edges)
    return Graph(n, frozenset(e for e in edges if rng.random() < 0.7))


def cyclic_graphs():
    yield complete_graph(3)
    yield Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)}))  # cycle with tails
    for seed in range(20):
        n = 4 + seed
        t = random_tree(n, seed)
        extra = next((i, j) for i in range(n) for j in range(i + 1, n) if not t.has_edge(i, j))
        yield Graph(n, t.edges | {extra})


TREE_SEEDS = range(8)


def test_random_tree_matches_reference_decode():
    for n in range(1, 201):
        for seed in TREE_SEEDS:
            assert random_tree(n, seed).edges == reference_random_tree_edges(n, seed)


def test_random_tree_plan_is_the_plan_of_the_tree():
    for n in range(1, 201):
        for seed in TREE_SEEDS:
            assert random_tree_plan(n, seed) == elimination_plan(random_tree(n, seed))


def test_prufer_plan_is_the_heap_decode_on_every_small_sequence():
    # every Pruefer sequence for n <= 7: 7^5 = 16 807 of them at n = 7; each
    # as a tree of its own, then all of them as one forest, in order and
    # shuffled, with one-vertex trees among them
    assert prufer_plan([], [1]) == EliminationPlan((0,), (-1,))
    trees = [([], 1)]
    for n in range(2, 8):
        for seq in itertools.product(range(n), repeat=n - 2):
            plan = prufer_plan(seq, [n])
            tree = Graph(n, frozenset(reference_prufer_edges(seq, n)))
            assert plan.graph() == tree
            assert plan == elimination_plan(tree)
            trees.append((list(seq), n))
    trees += [([], 1)] * 500
    for shuffle in (False, True):
        if shuffle:
            random.Random(5).shuffle(trees)
        seq, start = [], 0
        for tree_seq, n in trees:
            seq += [x + start for x in tree_seq]
            start += n
        assert prufer_plan(seq, [n for _, n in trees]) == union(
            elimination_plan(Graph(n, frozenset(reference_prufer_edges(tree_seq, n)
                                                if n > 1 else ())))
            for tree_seq, n in trees)


def test_random_tree_plan_small_cases():
    assert random_tree_plan(1, 5) == EliminationPlan((0,), (-1,))
    assert random_tree_plan(2, 5) == EliminationPlan((0, 1), (1, -1))
    with pytest.raises(GraphError):
        random_tree_plan(0, 5)


def test_plan_graph_round_trips_on_forests():
    for seed in range(100):
        g = random_forest(1 + seed * 2, seed)
        assert elimination_plan(g).graph() == g
    assert elimination_plan(Graph(3)).graph() == Graph(3)


def test_plan_matches_reference_walk_on_trees():
    for n in range(1, 201):
        t = random_tree(n, seed=n)
        plan = elimination_plan(t)
        assert (list(plan.order), list(plan.parent)) == reference_walk(t)


def test_plan_matches_reference_walk_on_forests():
    for seed in range(100):
        g = random_forest(1 + seed * 2, seed)
        plan = elimination_plan(g)
        assert (list(plan.order), list(plan.parent)) == reference_walk(g)
        assert reference_is_forest(g)
        # each edge is (v, parent[v]) for exactly one v
        assert {(min(v, u), max(v, u)) for v, u in enumerate(plan.parent) if u >= 0} \
            == g.edges


def test_plan_rejects_cycles():
    for g in cyclic_graphs():
        assert not reference_is_forest(g)
        with pytest.raises(GraphError):
            elimination_plan(g)


@pytest.mark.parametrize("seed", range(40))
def test_sampler_matches_reference_loop(seed):
    n = 1 + seed * 7
    g = random_tree(n, seed) if seed % 2 else random_forest(n, seed)
    ref_diag, ref_off = reference_sampler(g, 0.5 + seed, seed)
    plan = elimination_plan(g)
    diag, edge = random_psd_plan_entries(plan, 0.5 + seed, seed)
    assert np.array_equal(diag, ref_diag)
    assert {(min(v, u), max(v, u)): edge[v] for v, u in enumerate(plan.parent) if u >= 0} \
        == ref_off
    assert all(edge[v] == 0.0 for v, u in enumerate(plan.parent) if u < 0)
    assert random_psd_pattern_entries(g, 0.5 + seed, seed)[1] == ref_off
    dense = random_psd_with_pattern(g, 0.5 + seed, seed)
    assert np.array_equal(dense, dense_from_plan(plan, diag, edge))


def _perturbed_samples():
    """Sampled PSD matrices pushed off and onto the PSD boundary."""
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        g = random_tree(n, seed) if seed % 3 else random_forest(n, seed)
        diag, off = reference_sampler(g, 3.0, seed)
        kind = seed % 4
        if kind == 1:  # lower one pivot, as the acceptance oracle test does
            i = int(rng.integers(n))
            diag[i] -= rng.uniform(0.0, 2.0) * max(1.0, diag[i])
        elif kind == 2:  # a singular 2x2 block on one edge
            if off:
                (i, j) = sorted(off)[int(rng.integers(len(off)))]
                diag[i] = off[(i, j)] ** 2 / diag[j]
        elif kind == 3:  # an entrywise square root, which trees do not preserve
            diag = np.sqrt(diag)
            off = {k: float(np.sqrt(v)) for k, v in off.items()}
        yield g, diag, off


def test_plan_psd_check_matches_reference():
    verdicts = []
    for g, diag, off in _perturbed_samples():
        want = reference_tree_check(g, diag, off)
        plan = elimination_plan(g)
        edge = np.zeros(g.n)
        for v, u in enumerate(plan.parent):
            if u >= 0:
                edge[v] = off[(min(u, v), max(u, v))]
        dense = dense_from_plan(plan, diag, edge)
        assert plan_psd_check(plan, diag, edge) == want
        assert tree_psd_check_sparse(g, diag, off) == want
        assert tree_psd_check(dense, g) == want
        verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


def test_plan_psd_check_zero_pivot_branches():
    plan = elimination_plan(path_graph(2))  # order (0, 1), parent (1, -1)
    assert plan_psd_check(plan, np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    assert not plan_psd_check(plan, np.array([0.0, 1.0]), np.array([0.5, 0.0]))
    assert not plan_psd_check(plan, np.array([1.0, -1.0]), np.array([0.0, 0.0]))


def test_preserver_trials_walk_each_tree_once(capsys, monkeypatch):
    # a passing trial samples, maps and checks on the decoded plan alone: it
    # builds no Graph and runs no second elimination walk
    def forbidden(*args, **kwargs):
        raise AssertionError("a passing preserver-test trial left the plan")

    monkeypatch.setattr(graphs, "elimination_plan", forbidden)
    monkeypatch.setattr(graphs, "random_tree", forbidden)
    monkeypatch.setattr(graphs.EliminationPlan, "graph", forbidden)
    assert cli.main(["preserver-test", "1*x^1, 1*x^2", "--trials", "50",
                     "--tree-n", "40"]) == 0
    assert '"verdict": "pass"' in capsys.readouterr().out


def test_preserver_fail_certificate_tree_is_the_trial_tree(capsys, monkeypatch):
    # the decider refutes x^0.5 before any trial; stubbed, a trial fails
    monkeypatch.setattr(functions, "decide_tree_conditions", lambda f, bound: None)
    assert cli.main(["preserver-test", "1*x^0.5", "--trials", "50", "--tree-n", "30"]) == 1
    cert = json.loads(capsys.readouterr().out)["certificate"]
    t = graphs.parse_graph(cert["tree"])
    assert graphs.elimination_plan(t).parent.count(-1) == 1 and t.n >= 2
    assert not tree_psd_check(parse_matrix(cert["image"]), t)


@pytest.mark.parametrize("spec, message", [
    ("complete 3", "error: critical-exponent needs a tree spec\n"),
    ("path 1", "error: critical-exponent needs a tree with at least 3 vertices\n"),
    ("path 2", "error: critical-exponent needs a tree with at least 3 vertices\n"),
])
def test_critical_exponent_rejects_non_trees(capsys, spec, message):
    assert cli.main(["critical-exponent", spec, "1.0"]) == 2
    assert capsys.readouterr().err == message


def test_critical_exponent_rejects_a_forest(capsys, monkeypatch):
    # no graph kind is a forest yet; a plan with two roots must still be refused
    forest = Graph(4, frozenset({(0, 1), (2, 3)}))
    monkeypatch.setattr(cli, "_parse_graph_spec", lambda spec, seed: forest)
    assert cli.main(["critical-exponent", "forest 4", "1.0"]) == 2
    assert capsys.readouterr().err == "error: critical-exponent needs a tree spec\n"
