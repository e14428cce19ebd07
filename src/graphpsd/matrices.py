"""Symmetric matrices with sparsity patterns: Hadamard powers, quadratic forms,
entrywise maps, seeded sampling of pattern-constrained PSD matrices, and their
text."""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

import numpy as np

from .graphs import EliminationPlan, Graph, elimination_plan

DEFAULT_PSD_TOL = 1e-9


class MatrixError(ValueError):
    pass


def check_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixError(f"expected a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise MatrixError("matrix is not exactly symmetric")
    if not np.all(np.isfinite(a)):
        raise MatrixError("matrix has non-finite entries")
    return a


def hadamard_power(a: np.ndarray, exponent: float) -> np.ndarray:
    """Entrywise power; exponent 0 yields the 0/1 support matrix."""
    a = np.asarray(a, dtype=float)
    if exponent < 0:
        raise MatrixError("exponent must be nonnegative")
    if exponent == 0:
        return (a != 0.0).astype(float)
    if float(exponent).is_integer():
        return a ** float(exponent)
    if np.any(a < 0):
        raise MatrixError("non-integer Hadamard power of a matrix with negative entries")
    return a ** float(exponent)


def quadratic_form(a: np.ndarray, beta: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (a.shape[0],):
        raise MatrixError(f"vector length {beta.shape} does not match n={a.shape[0]}")
    return float(beta @ a @ beta)


def is_psd(a: np.ndarray) -> bool:
    """A float verdict, from one eigvalsh: PSD iff lambda_min >= -tol *
    max(1, spectral radius), tol = DEFAULT_PSD_TOL.  No command calls it;
    it stays only for the layer sweep, which times it by name."""
    eigs = np.linalg.eigvalsh(check_symmetric(a))
    lam_min = float(eigs[0])
    radius = max(-lam_min, float(eigs[-1]))
    return lam_min >= -DEFAULT_PSD_TOL * max(1.0, radius)


def apply_entrywise(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, g: Graph) -> np.ndarray:
    """f on diagonal and edge entries, zero off the pattern."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if g.n != n:
        raise MatrixError(f"graph has {g.n} vertices, matrix has {n}")
    mask = np.eye(n, dtype=bool)
    for i, j in g.edges:
        mask[i, j] = mask[j, i] = True
    out = np.zeros_like(a)
    out[mask] = np.asarray(f(a[mask]), dtype=float)
    return out


def random_psd_plan_entries(plan: EliminationPlan, range_max: float, seed):
    """Sparse sampler for PSD matrices with pattern inside the forest of plan:
    stacked_psd_plan_entries of plan's parent array as one block, on one (2,
    n) block of uniforms from default_rng(seed), or from seed itself when it
    is a Generator."""
    n = len(plan.parent)
    uniforms = np.random.default_rng(seed).random((2, n))
    return stacked_psd_plan_entries(np.fromiter(plan.parent, np.intp, n), np.array([0, n]),
                                    range_max, uniforms)


def stacked_psd_plan_entries(parent: np.ndarray, bounds: np.ndarray, range_max: float,
                             uniforms):
    """PSD matrices with pattern inside a forest, one per block of vertices,
    mapped from uniforms on [0, 1): (diag, edge) with edge[v] on (v,
    parent[v]) and 0 at roots.  parent is the forest's EliminationPlan.parent
    as an integer array; block j holds the vertices bounds[j] ..
    bounds[j + 1] - 1, bounds running from 0 to the total, and no edge of the
    forest leaves a block.

    uniforms has shape (2, total vertices), a column per vertex.  Each
    matrix is L L^T, where column v of L holds l_vv = 0.3 + 1.2 *
    uniforms[0, v] and, below it, l_uv = uniforms[1, v] at u = parent[v]: in
    the plan's elimination order L is lower triangular, so the pattern needs
    no projection.  Each block's matrix is then rescaled on its own to keep
    its entries below range_max.
    """
    if range_max <= 0:
        raise MatrixError("range_max must be positive")
    child = np.flatnonzero(parent >= 0)
    lvv = 0.3 + (1.5 - 0.3) * uniforms[0]
    luv = uniforms[1, child]
    # each vertex's l_vv^2 plus its children's l_uv^2, summed in vertex order
    diag = lvv * lvv + np.bincount(parent[child], weights=luv * luv, minlength=len(parent))
    edge = np.zeros(len(parent))
    edge[child] = lvv[child] * luv
    starts = bounds[:-1]
    peak = np.maximum(np.maximum.reduceat(diag, starts), np.maximum.reduceat(edge, starts))
    scale = np.repeat(0.999 * range_max / peak, np.diff(bounds))
    return diag * scale, edge * scale


def random_psd_pattern_entries(g: Graph, range_max: float, seed: int):
    """random_psd_plan_entries for a forest g, with the edge entries as a dict
    keyed by (i, j), i < j."""
    plan = elimination_plan(g)
    diag, edge = random_psd_plan_entries(plan, range_max, seed)
    off: Dict[Tuple[int, int], float] = {}
    for v in plan.order:
        u = plan.parent[v]
        if u >= 0:
            off[(min(u, v), max(u, v))] = float(edge[v])
    return diag, off


def dense_from_plan(plan: EliminationPlan, diag: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix with diagonal diag and edge[v] on (v, parent[v])."""
    a = np.diag(np.asarray(diag, dtype=float))
    parent = np.array(plan.parent, dtype=np.intp)
    child = np.nonzero(parent >= 0)[0]
    a[child, parent[child]] = a[parent[child], child] = np.asarray(edge, dtype=float)[child]
    return a


def random_psd_with_pattern(g: Graph, range_max: float, seed: int) -> np.ndarray:
    """Dense A in the PSD cone of the forest pattern g, entries in [0, range_max)."""
    plan = elimination_plan(g)
    return dense_from_plan(plan, *random_psd_plan_entries(plan, range_max, seed))


def format_matrix(a: np.ndarray) -> str:
    """The text of a finite, exactly symmetric matrix, which parse_matrix
    reads back: n, then "i j value" for each nonzero entry with i <= j, row
    by row.  Any other array raises MatrixError."""
    a = check_symmetric(a)
    i, j = np.nonzero(a)  # row by row
    upper = i <= j
    i, j = i[upper], j[upper]
    return _entry_text(a.shape[0], zip(i.tolist(), j.tolist(), a[i, j].tolist()))


def _entry_text(n: int, entries) -> str:
    """n, then "i j value" for each nonzero (i, j, value) of entries, in order."""
    return "\n".join([str(n)] + [f"{i} {j} {x!r}" for i, j, x in entries if x != 0.0]) + "\n"


def format_plan(plan: EliminationPlan, diag, edge) -> str:
    """format_matrix's text of dense_from_plan(plan, diag, edge) in O(n log
    n), with no dense matrix: the diagonal and edge entries sorted by (i, j).
    A NaN or +-inf entry raises MatrixError, as in format_matrix."""
    parent = plan.parent
    entries = [(i, i, x) for i, x in enumerate(np.asarray(diag, dtype=float).tolist())]
    entries += [(min(v, u), max(v, u), x)
                for v, (u, x) in enumerate(zip(parent, np.asarray(edge, dtype=float).tolist()))
                if u >= 0]
    if not all(map(math.isfinite, (x for _, _, x in entries))):
        raise MatrixError("matrix has non-finite entries")
    # each (i, j) is one entry's, so the sort never compares two values
    entries.sort()
    return _entry_text(len(parent), entries)


def parse_matrix(text: str) -> np.ndarray:
    """The matrix format_matrix writes: a line "n", then one line "i j value"
    per listed entry, i <= j < n, each (i, j) once, value finite; an entry
    not listed is 0.  Any other text raises MatrixError, which names the
    line."""
    lines = [(k, ln.split()) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise MatrixError("empty matrix text")
    k, head = lines[0]
    try:
        (n,) = map(int, head)
    except ValueError:
        raise MatrixError(f"line {k}: expected 'n', got {' '.join(head)!r}") from None
    if n < 1:
        raise MatrixError(f"line {k}: matrix needs at least one row, got n={n}")
    a = np.zeros((n, n))
    listed = set()
    for k, parts in lines[1:]:
        try:
            i, j, val = parts
            i, j, val = int(i), int(j), float(val)
        except ValueError:
            raise MatrixError(f"line {k}: expected an entry 'i j value', "
                              f"got {' '.join(parts)!r}") from None
        if not (0 <= i <= j < n):
            raise MatrixError(f"line {k}: entry ({i}, {j}) out of range for n={n}")
        if not math.isfinite(val):
            raise MatrixError(f"line {k}: entry ({i}, {j}) is not finite, got {parts[2]!r}")
        if (i, j) in listed:
            raise MatrixError(f"line {k}: duplicate entry {(i, j)}")
        listed.add((i, j))
        a[i, j] = a[j, i] = val
    return a
