"""Sparsity-pattern graphs: paths, stars, complete graphs, random trees."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Edges are stored once as (i, j) with i < j.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"graph needs at least one vertex, got n={self.n}")
        norm = set()
        for e in self.edges:
            i, j = e
            if i == j:
                raise GraphError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphError(f"edge {e} out of range for n={self.n}")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def adjacency(self) -> list:
        """Neighbor lists, each sorted ascending."""
        adj = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        for nbrs in adj:
            nbrs.sort()
        return adj


def path_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 0 joined to 1..n-1."""
    return Graph(n, frozenset((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def random_tree(n: int, seed) -> Graph:
    """Uniformly random labeled tree on n vertices via a random Pruefer
    sequence; seed is an int or a numpy Generator, as for default_rng."""
    return random_tree_plan(n, seed).graph()


def build_graph(kind: str, n: int, seed=None) -> Graph:
    if n < 1:
        raise GraphError(f"invalid size n={n}")
    if kind == "path":
        return path_graph(n)
    if kind == "star":
        return star_graph(n)
    if kind == "complete":
        return complete_graph(n)
    if kind in ("random_tree", "tree"):
        if seed is None:
            raise GraphError(f"{kind} requires a seed")
        return random_tree(n, seed)
    raise GraphError(f"unknown graph kind {kind!r}")


@dataclass(frozen=True)
class EliminationPlan:
    """Leaf-first perfect elimination order of a forest.

    order lists every vertex once; parent[v] is the one neighbor of v still
    present when v is eliminated, or -1 when v is the last vertex of its
    component (a root).  Each edge of the forest is (v, parent[v]) for exactly
    one v.
    """

    order: tuple
    parent: tuple

    def graph(self) -> Graph:
        """The forest the plan eliminates: the edges (v, parent[v])."""
        edges = ((min(v, u), max(v, u)) for v, u in enumerate(self.parent) if u >= 0)
        return Graph(len(self.parent), frozenset(edges))

    def block(self, lo: int, hi: int) -> EliminationPlan:
        """The plan of vertices lo .. hi - 1, relabelled from 0, which must be
        at positions lo .. hi - 1 of order, as a tree of prufer_plan's is."""
        return EliminationPlan(tuple(w - lo for w in self.order[lo:hi]),
                               tuple(u - lo if u >= 0 else -1 for u in self.parent[lo:hi]))


def elimination_plan(g: Graph) -> EliminationPlan:
    """Eliminate the smallest remaining vertex of degree <= 1 until none is
    left; raises GraphError when a cycle stops the walk early."""
    deg = [0] * g.n
    nbr_xor = [0] * g.n  # xor of the neighbors still present: the last one, at degree 1
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
        nbr_xor[i] ^= j
        nbr_xor[j] ^= i
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
        if deg[v] == 1:
            u = nbr_xor[v]
            parent[v] = u
            nbr_xor[u] ^= v
            deg[u] -= 1
            if deg[u] <= 1:
                heapq.heappush(heap, u)
    if len(order) < g.n:
        raise GraphError("pattern graph is not a forest")
    return EliminationPlan(tuple(order), tuple(parent))


def prufer_plan(seq, sizes) -> EliminationPlan:
    """Elimination plan of the forest whose tree j, on sizes[j] vertices,
    takes the vertices o_j .. o_j + sizes[j] - 1, o_j being the sum of the
    sizes before it.  seq concatenates the trees' Pruefer sequences, tree j's
    offset by o_j: sizes[j] - 2 entries each, and none for a tree of size 1.
    One tree on n vertices is the case sizes = [n]; the plan eliminates tree
    0, then tree 1, and so on.

    Each step removes the smallest leaf, elimination_plan's rule, and joins it
    to the next sequence entry, its parent.  No vertex below the pointer ptr
    is a leaf still present, so an entry x < ptr that becomes a leaf is the
    smallest leaf; otherwise the pointer moves up to the next leaf.  The
    pointer only moves up, across the trees too, so the walk is O(total
    size).  The last two vertices of tree j, its last leaf and o_j +
    sizes[j] - 1, end its order with parent[leaf] = o_j + sizes[j] - 1.
    seq and sizes are lists or integer arrays.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    seq = np.asarray(seq, dtype=np.intp)
    # a vertex's degree is 1 plus its count in the sequence
    degree = (np.bincount(seq, minlength=int(sizes.sum())) + 1).tolist()
    seq = seq.tolist()
    order, parent = [], [-1] * len(degree)
    at = start = 0
    for n in sizes.tolist():
        last = start + n - 1
        if n == 1:
            order.append(start)
        else:
            leaf = ptr = degree.index(1, start)
            for x in seq[at:at + n - 2]:
                order.append(leaf)
                parent[leaf] = x
                degree[x] -= 1
                if x < ptr and degree[x] == 1:
                    leaf = x
                else:
                    leaf = ptr = degree.index(1, ptr + 1)
            order += (leaf, last)
            parent[leaf] = last
            at += n - 2
        start = last + 1
    return EliminationPlan(tuple(order), tuple(parent))


def random_tree_plan(n: int, seed) -> EliminationPlan:
    """Elimination plan of the uniformly random labeled tree random_tree(n, seed):
    prufer_plan of n - 2 draws of rng.integers(0, n), where rng is
    default_rng(seed), or seed itself when it is a Generator."""
    if n < 1:
        raise GraphError("tree needs at least one vertex")
    return prufer_plan(np.random.default_rng(seed).integers(0, n, max(n - 2, 0)), [n])


def find_open_triangle(g: Graph):
    """Lexicographically first (i, j, k) with edges (i,j), (i,k) but not (j,k).

    Returns None iff every connected component of g is complete.
    """
    adj = g.adjacency()
    for i in range(g.n):
        nbrs = adj[i]
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                j, k = nbrs[a], nbrs[b]
                if not g.has_edge(j, k):
                    return (i, j, k)
    return None


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    for i, j in sorted(g.edges):
        lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """The graph format_graph writes: a line "n m", then m lines "i j" with
    i < j, each edge once.  Any other text raises GraphError, which names
    the line."""
    lines = [(k, ln.split()) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise GraphError("empty graph text")

    def integers(k, parts, form):
        try:
            a, b = parts
            return int(a), int(b)
        except ValueError:
            raise GraphError(f"line {k}: expected {form}, got {' '.join(parts)!r}") from None

    k, head = lines[0]
    n, m = integers(k, head, "'n m'")
    if n < 1:
        raise GraphError(f"line {k}: graph needs at least one vertex, got n={n}")
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = set()
    for k, parts in lines[1:]:
        i, j = integers(k, parts, "an edge 'i j'")
        if not 0 <= i < j < n:
            raise GraphError(f"line {k}: edge ({i}, {j}) must have 0 <= i < j < n={n}")
        if (i, j) in edges:
            raise GraphError(f"line {k}: duplicate edge {(i, j)}")
        edges.add((i, j))
    return Graph(n, frozenset(edges))
