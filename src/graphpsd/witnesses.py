"""Witness vectors for Schur-power quadratic forms.

A vector beta is an order-k witness for a symmetric matrix A when it
annihilates the quadratic forms of the Hadamard powers A^(0)..A^(k-1) and is
strictly positive on that of A^(k).  This module certifies membership,
constructs witnesses for rank-one (Vandermonde) and star matrices, derives
order bounds per graph, and houses the kernel-stability and derivative-sign
diagnostics built on the same quadratic forms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .functions import DomainError, EntrywiseFunction
from .graphs import Graph, GraphError
from .matrices import (
    MatrixError,
    check_symmetric,
    format_matrix,
    hadamard_power,
    quadratic_form,
)
from .star_tree import StarMatrix, star_psd_check

KERNEL_TOL = 1e-10
POSITIVITY_TOL = 1e-8
# singular values of [A; A^(2)] at or below RANK_CUTOFF * max(1, sigma_max)
# count as zero in the kernel-stability test
RANK_CUTOFF = 1e-10


class WitnessError(Exception):
    pass


@dataclass(frozen=True)
class WitnessRecord:
    k: int
    beta: Tuple[float, ...]
    kernel_residual: float
    positivity_margin: float


@dataclass(frozen=True)
class WitnessSet:
    matrix: np.ndarray
    witnesses: Tuple[WitnessRecord, ...]
    factor: Optional[np.ndarray]  # a with matrix = a a^T for a rank-one set, else None

    def to_json(self) -> str:
        payload = {
            "matrix": format_matrix(self.matrix),
            "witnesses": [
                {
                    "k": w.k,
                    "beta": list(w.beta),
                    "kernel_residual": w.kernel_residual,
                    "positivity_margin": w.positivity_margin,
                }
                for w in self.witnesses
            ],
        }
        return json.dumps(payload, indent=2)

    def recertify(self) -> bool:
        """Every witness certified again, in the arithmetic that certified it:
        the closed form of a rank-one set, the matrix's forms otherwise."""
        for w in self.witnesses:
            beta = np.asarray(w.beta)
            if self.factor is None:
                residuals = nk_residuals(self.matrix, beta, w.k)
            else:
                residuals = _rank_one_residuals(self.factor, beta, w.k)
            if not _certify(residuals)[0]:
                return False
        return True


def nk_residuals(a: np.ndarray, beta: np.ndarray, k: int) -> Tuple[float, float]:
    """(max normalized kernel residual over orders < k, positivity margin at
    order k).  Both are scaled by ||beta||^2; the kernel residual is further
    divided by the Frobenius norm of the relevant power."""
    a = check_symmetric(a)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (a.shape[0],):
        raise MatrixError(f"vector length {beta.shape} does not match {a.shape}")
    nrm2 = float(beta @ beta)
    if nrm2 == 0.0:
        return 0.0, 0.0
    resid = 0.0
    for m in range(k):
        am = hadamard_power(a, m)
        denom = nrm2 * max(float(np.linalg.norm(am)), np.finfo(float).tiny)
        resid = max(resid, abs(quadratic_form(am, beta)) / denom)
    margin = quadratic_form(hadamard_power(a, k), beta) / nrm2
    return resid, margin


def _rank_one_residuals(factor: np.ndarray, beta: np.ndarray, k: int) -> Tuple[float, float]:
    """nk_residuals for A = a a^T, a = factor without zero entries, from the
    closed form: A^(m) = a^(m) a^(m)^T, so Q_{A^(m)}(beta) = (beta . a^(m))^2
    and ||A^(m)||_F = ||a^(m)||^2, with a^(0) the all-ones support vector.
    Each form is a square, so no cancellation can make the margin negative,
    as it can in beta^T A^(k) beta."""
    nrm2 = float(beta @ beta)
    if nrm2 == 0.0:
        return 0.0, 0.0
    powers = factor ** np.arange(k + 1)[:, None]  # row m is a^(m)
    forms = (powers @ beta) ** 2
    norms = np.maximum(np.sum(powers ** 2, axis=1), np.finfo(float).tiny)
    resid = float(np.max(forms[:k] / (nrm2 * norms[:k]), initial=0.0))
    return resid, float(forms[k]) / nrm2


def _certify(residuals: Tuple[float, float]) -> Tuple[bool, float, float]:
    """(certified, kernel residual, positivity margin) from the pair that
    nk_residuals returns: certified iff beta kills the quadratic forms of
    A^(0)..A^(k-1) within KERNEL_TOL and is strictly positive on A^(k), past
    POSITIVITY_TOL.  The positivity cutoff is deliberately two decades looser
    than the kernel tolerance; a zero beta has margin 0 and is never
    certified."""
    resid, margin = residuals
    return resid <= KERNEL_TOL and margin > POSITIVITY_TOL, resid, margin


def nk_membership(a: np.ndarray, beta: np.ndarray, k: int) -> bool:
    """True iff beta is an order-k witness for A.  k = 0 tests positivity on
    the support matrix only."""
    if k < 0:
        raise WitnessError("order must be nonnegative")
    return _certify(nk_residuals(a, beta, k))[0]


def _orthonormalize(vectors: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Modified Gram-Schmidt with a second pass; drops dependent vectors."""
    basis: List[np.ndarray] = []
    for v in vectors:
        w = _project_perp(v, basis)
        nrm = np.linalg.norm(w)
        if nrm > 1e-12 * max(1.0, float(np.linalg.norm(v))):
            basis.append(w / nrm)
    return basis


def _project_perp(v: np.ndarray, basis: Sequence[np.ndarray]) -> np.ndarray:
    w = np.array(v, dtype=float)
    for _ in range(2):
        for u in basis:
            w -= (u @ w) * u
    return w


def _certified_record(residuals: Tuple[float, float], beta: np.ndarray, k: int) -> WitnessRecord:
    ok, resid, margin = _certify(residuals)
    if not ok:
        raise WitnessError(
            f"order-{k} witness failed certification "
            f"(residual {resid:.3e}, margin {margin:.3e})"
        )
    return WitnessRecord(k, tuple(float(x) for x in beta), resid, margin)


def vandermonde_witnesses(alphas: Sequence[float]) -> WitnessSet:
    """Witnesses of every order 1..n-1 for the rank-one matrix A = aa^T built
    from distinct nonzero alphas.  beta_k is the component of the k-th power
    vector orthogonal to the lower ones; Vandermonde independence makes it
    nonzero and (beta . alpha^(k))^2 > 0.  The witnesses are certified from
    that closed form, and so is the set's recertify."""
    al = np.array(alphas, dtype=float)  # a copy: the set holds it as its factor
    n = al.size
    if np.any(al == 0.0) or np.unique(al).size != n:
        raise WitnessError("alphas must be distinct and nonzero")
    a = np.outer(al, al)
    records = []
    basis: List[np.ndarray] = [np.ones(n) / math.sqrt(n)]
    for k in range(1, n):
        pk = al ** k
        beta = _project_perp(pk, basis)
        beta /= np.linalg.norm(beta)
        records.append(_certified_record(_rank_one_residuals(al, beta, k), beta, k))
        basis = _orthonormalize(basis + [pk])
    return WitnessSet(a, tuple(records), al)


def _star_power_vector(alphas: np.ndarray, k: int, n: int, idx: np.ndarray) -> np.ndarray:
    v = np.zeros(n)
    v[idx] = alphas ** k
    v[idx[0]] = alphas[0] ** k / 2.0
    return v


def star_witnesses(
    d: int,
    alphas: Sequence[float],
    ambient_n: int,
    max_order: Optional[int] = None,
    vertices: Optional[Sequence[int]] = None,
) -> WitnessSet:
    """Witnesses of orders 1..d for the hollow star matrix
    A = e_c a^T + a e_c^T built from d+1 distinct nonzero alphas.

    The quadratic form of each power of A is 2 beta_c (beta . a^(k)), where
    a^(k) carries the halved center coordinate alphas[0]^k / 2 so that the
    single diagonal entry is absorbed.  For 0 < k < d the witness is the angle
    bisector of the projections of a^(k) and e_c onto the complement of the
    span of the lower power vectors; for k = d it spans the one-dimensional
    complement of that span inside the full power-vector space, which needs
    alphas[0] to dominate the rest.

    vertices optionally places the star at [center, leaves...] coordinates of
    the ambient space (defaults to 0..d).
    """
    al = np.asarray(alphas, dtype=float)
    if d < 1 or al.size != d + 1:
        raise WitnessError(f"need d+1 = {d + 1} alphas, got {al.size}")
    if np.any(al == 0.0) or np.unique(al).size != d + 1:
        raise WitnessError("alphas must be distinct and nonzero")
    if ambient_n < d + 1:
        raise WitnessError("ambient dimension too small")
    idx = np.arange(d + 1) if vertices is None else np.asarray(vertices, dtype=int)
    if idx.size != d + 1 or np.unique(idx).size != d + 1 or idx.min() < 0 or idx.max() >= ambient_n:
        raise WitnessError("vertices must be d+1 distinct ambient indices")
    if max_order is None:
        max_order = d
    if not 1 <= max_order <= d:
        raise WitnessError("max_order must be between 1 and d")

    e_c = np.zeros(ambient_n)
    e_c[idx[0]] = 1.0
    a1 = _star_power_vector(al, 1, ambient_n, idx)
    a = np.outer(e_c, a1) + np.outer(a1, e_c)

    records = []
    power = [_star_power_vector(al, k, ambient_n, idx) for k in range(d + 1)]
    basis: List[np.ndarray] = []
    for k in range(1, max_order + 1):
        basis = _orthonormalize(power[:k])
        if k < d:
            pa = _project_perp(power[k], basis)
            pe = _project_perp(e_c, basis)
            beta = pa / np.linalg.norm(pa) + pe / np.linalg.norm(pe)
        else:
            # span of power[0..d] has one more dimension than span(power[0..d-1])
            beta = _project_perp(power[d], basis)
            beta /= np.linalg.norm(beta)
        try:
            records.append(_certified_record(nk_residuals(a, beta, k), beta, k))
        except WitnessError as exc:
            if k == d and al[0] <= al[1:].max():
                raise WitnessError(
                    "top-order witness needs the center alpha to exceed the "
                    "leaf alphas (certification failed at the final step)"
                ) from exc
            raise
    return WitnessSet(a, tuple(records), None)


@dataclass(frozen=True)
class KBoundReport:
    lower: int
    upper: int
    witness_sets: Tuple[WitnessSet, ...]


def k_lower_bound(g: Graph) -> KBoundReport:
    """max(2, max degree) with certifying witnesses, plus the (strict) upper
    bound |V| + |E| on the largest achievable witness order over matrices
    patterned on g."""
    if not g.edges:
        raise GraphError("graph has no edges")
    n = g.n
    sets = []
    # An edge alone supports orders 1 and 2: diag (1, 2), off-diagonal entry
    # (a+b)/(2(3-j)) for j = 1, 2, witness (1, -1).
    u, v = min(g.edges)
    for j, off in ((1, 0.75), (2, 1.5)):
        a = np.zeros((n, n))
        a[u, u], a[v, v] = 1.0, 2.0
        a[u, v] = a[v, u] = off
        beta = np.zeros(n)
        beta[u], beta[v] = 1.0, -1.0
        sets.append(WitnessSet(a, (_certified_record(nk_residuals(a, beta, j), beta, j),), None))
    adj = g.adjacency()
    center = max(range(n), key=lambda w: len(adj[w]))  # the first of maximum degree
    leaves = adj[center]  # sorted ascending
    delta = len(leaves)
    if delta >= 2:
        al = [2.0 * delta + 1.0] + [float(i) for i in range(1, delta + 1)]
        sets.append(
            star_witnesses(delta, al, n, vertices=[center] + leaves)
        )
    return KBoundReport(max(2, delta), n + len(g.edges), tuple(sets))


def star_kernel_stability(s: StarMatrix, m_max: int) -> bool:
    """For a PSD star matrix, every vector in ker Q_A intersected with
    ker Q_{A^(2)} also kills Q_{A^(m)} for all higher m; verified numerically
    for m = 3..m_max on an SVD null-space basis of the stacked powers, to
    1e-9 relative to max(1, ||A^(m)||_F)."""
    if not star_psd_check(s).is_psd:
        raise MatrixError("kernel stability is only claimed for PSD stars")
    a = s.to_dense()
    return bool(stacked_kernel_stability(a[None], m_max, np.linalg.eigvalsh(a)[None])[0])


def stacked_kernel_stability(a: np.ndarray, m_max: int, eigs: np.ndarray) -> np.ndarray:
    """star_kernel_stability for a stack (B, n, n) of dense PSD star matrices
    with ascending eigenvalues eigs (B, n): one verdict per matrix.

    sigma_min([A; A^(2)]) >= lambda_min(A), and for a PSD A,
    ||A^(2)|| <= max a_ii ||A|| <= ||A||^2 (Schur), so sigma_max <= ||A||
    sqrt(1 + ||A||^2).  A matrix whose lambda_min exceeds twice RANK_CUTOFF
    times max(1, that bound) has full rank at the SVD's cutoff, hence no joint
    null space, and is stable; the factor 2 absorbs eigvalsh's backward error,
    about n eps ||A||.  The other matrices go to one SVD of the stacked
    [A; A^(2)]."""
    norm = np.abs(eigs).max(axis=1)
    bound = 2.0 * RANK_CUTOFF * np.maximum(1.0, norm * np.sqrt(1.0 + norm ** 2))
    rows = np.flatnonzero(eigs[:, 0] <= bound)
    stable = np.ones(len(a), dtype=bool)
    if rows.size == 0:
        return stable
    a = a[rows]
    _, sv, vt = np.linalg.svd(np.concatenate([a, hadamard_power(a, 2)], axis=1))
    cutoff = RANK_CUTOFF * np.maximum(1.0, sv[:, :1])
    # rows of vt past the numerical rank span the joint null space; only the
    # few matrices that have one have forms to check
    null = np.arange(a.shape[1]) >= np.sum(sv > cutoff, axis=1, keepdims=True)
    some = np.any(null, axis=1)
    if not some.any():
        return stable
    a, vt, null = a[some], vt[some], null[some]
    off = np.zeros(len(a), dtype=bool)
    for m in range(3, m_max + 1):
        am = hadamard_power(a, m)
        scale = np.maximum(1.0, np.linalg.norm(am, axis=(1, 2)))[:, None]
        forms = np.sum((vt @ am) * vt, axis=2)  # forms[b, k] = vt[b, k] A^(m) vt[b, k]
        off |= np.any(null & (np.abs(forms) > 1e-9 * scale), axis=1)
    stable[rows[some]] = ~off
    return stable


def _neville_at_zero(ts: np.ndarray, gs: np.ndarray) -> float:
    vals = list(gs)
    n = len(vals)
    for span in range(1, n):
        for i in range(n - span):
            t_lo, t_hi = ts[i], ts[i + span]
            vals[i] = (t_lo * vals[i + 1] - t_hi * vals[i]) / (t_lo - t_hi)
    return float(vals[0])


def derivative_sign_estimate(
    f: EntrywiseFunction,
    a: float,
    k: int,
    witness: Tuple[np.ndarray, np.ndarray],
    t_steps: Sequence[float],
) -> Tuple[float, float]:
    """(extrapolated limit, analytic value) for the order-k derivative
    diagnostic at base point a.

    With beta an order-k witness for A, the scaled form
    g(t) = beta^T f[a S + t A] beta * k! / t^k  (S the support of A, f applied
    on the support only) tends to f^(k)(a) * Q_{A^(k)}(beta) as t -> 0+.  The
    limit is estimated by polynomial extrapolation through the sampled t's, so
    a negative k-th derivative at a shows up as a negative limit.
    """
    mat, beta = witness
    mat = check_symmetric(mat)
    beta = np.asarray(beta, dtype=float)
    if a <= 0:
        raise DomainError("base point must be positive")
    if k < 1:
        raise WitnessError("order must be at least 1")
    ts = np.asarray(sorted(t_steps, reverse=True), dtype=float)
    if ts.size < 2 or ts[-1] <= 0:
        raise WitnessError("need at least two positive step sizes")
    if not nk_membership(mat, beta, k):
        raise WitnessError("witness failed certification for the given order")
    support = hadamard_power(mat, 0)
    mask = support != 0.0
    lo, hi = float(np.min(mat[mask])), float(np.max(mat[mask]))
    for t in ts:
        for x in (a + t * lo, a + t * hi):
            if not 0.0 <= x < f.domain_max:
                raise DomainError(f"step {t} leaves the function domain at {x}")
    gs = []
    for t in ts:
        m = a * support + t * mat
        fm = np.zeros_like(m)
        fm[mask] = f.value(m[mask])
        gs.append(quadratic_form(fm, beta) * math.factorial(k) / t ** k)
    limit = _neville_at_zero(ts, np.asarray(gs))
    analytic = f.deriv(a, k) * quadratic_form(hadamard_power(mat, k), beta)
    return limit, analytic
