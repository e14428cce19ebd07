"""Witness vectors for Schur-power quadratic forms.

A vector beta is an order-k witness for a symmetric matrix A when it
annihilates the quadratic forms of the Hadamard powers A^(0)..A^(k-1) and is
strictly positive on that of A^(k).  This module certifies membership,
constructs witnesses for rank-one (Vandermonde) and star matrices, derives
order bounds per graph, and houses the derivative-sign diagnostic built on the
same quadratic forms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

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

KERNEL_TOL = 1e-10
POSITIVITY_TOL = 1e-8


class WitnessError(Exception):
    pass


@dataclass(frozen=True)
class WitnessRecord:
    k: int
    beta: Tuple[float, ...]
    kernel_residual: float
    positivity_margin: Union[float, str]  # a decimal string beyond float range


@dataclass(frozen=True)
class WitnessSet:
    matrix: np.ndarray
    witnesses: Tuple[WitnessRecord, ...]

    def payload(self) -> dict:
        """The set as the JSON object that reports embed."""
        return {
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


def _power_vectors(factor: np.ndarray, center: Optional[int], k: int) -> Tuple[np.ndarray, float]:
    """(rows m = 0..k, base): the powers a^(m) / M^m, M = max |factor|.  For a
    rank-one factor a (center None), a^(m) is factor^(m) and base is M^2,
    since the forms (beta . a^(m))^2 are squares; for a hollow star with
    center row factor, a^(m) is factor^(m) on the support with the center
    entry halved, and base is M.  M^m is the largest |entry| of a^(m):
    dividing by it keeps every entry at most 1 and leaves every span
    unchanged, and form m scales by base^-m."""
    base = float(np.abs(factor).max())
    if center is None:
        return (factor / base) ** np.arange(k + 1)[:, None], base * base
    powers = (factor != 0.0) * (factor / base) ** np.arange(k + 1)[:, None]
    powers[:, center] /= 2.0
    return powers, base


def _closed_form_residuals(powers: np.ndarray, beta: np.ndarray, k: int,
                           center: Optional[int]) -> Tuple[float, float]:
    """nk_residuals from the rows a^(0..k) of _power_vectors.  Rank one:
    A^(m) = a^(m) a^(m)^T, Q_{A^(m)}(beta) = (beta . a^(m))^2, a square that no
    cancellation makes negative, and ||A^(m)||_F = ||a^(m)||^2.  Hollow star:
    A^(m) = e_c a^(m)^T + a^(m) e_c^T, Q_{A^(m)}(beta) = 2 beta_c (beta . a^(m))
    and ||A^(m)||_F^2 = 2 ||a^(m)||^2 + 2 a^(m)_c^2.  Scaling row m leaves the
    residual unchanged and scales form m."""
    nrm2 = float(beta @ beta)
    if nrm2 == 0.0:
        return 0.0, 0.0
    dots = powers @ beta
    sq = (powers ** 2).sum(axis=1)
    if center is None:
        forms, norms = dots ** 2, sq
    else:
        forms = 2.0 * beta[center] * dots
        norms = np.sqrt(2.0 * sq + 2.0 * powers[:, center] ** 2)
    norms = np.maximum(norms[:k], np.finfo(float).tiny)
    resid = float((np.abs(forms[:k]) / (nrm2 * norms)).max(initial=0.0))
    return resid, float(forms[k]) / nrm2


def _certify(resid: float, margin: float, k: int, base: float = 1.0) -> bool:
    """True iff beta kills the quadratic forms of A^(0)..A^(k-1) within
    KERNEL_TOL and its margin * base^k on A^(k) exceeds POSITIVITY_TOL, two
    decades looser; decided as margin > POSITIVITY_TOL * base^-k, so that no
    base^k is formed.  A zero beta has margin 0 and is never certified."""
    try:
        floor = POSITIVITY_TOL * base ** -k  # underflows to 0 where base^k is huge
    except OverflowError:  # base < 1 and base^k below float range: no margin clears it
        return False
    return resid <= KERNEL_TOL and margin > floor


def _rounded(num: int, den: int) -> Union[float, str]:
    """num / den, den > 0, rounded once: the nearest float, or, where it lies
    beyond float range, its decimal string to 17 digits."""
    try:
        return num / den  # int division rounds correctly
    except OverflowError:
        pass
    # imported on first use, like fractions: each adds ~1 ms to every start-up
    from decimal import Decimal, localcontext
    with localcontext() as ctx:  # a decimal cannot overflow
        ctx.prec = 17
        return f"{Decimal(num) / Decimal(den):e}"


def _dyadic(values: np.ndarray) -> Tuple[List[int], int]:
    """Integers m and one power of two d with values = m / d exactly."""
    ratios = [x.as_integer_ratio() for x in values.tolist()]
    d = max(q for _, q in ratios)
    return [p * (d // q) for p, q in ratios], d


def _margin_value(margin: float, base: float, k: int) -> Union[float, str]:
    """margin * base^k, rounded once."""
    (mn, md), (bn, bd) = margin.as_integer_ratio(), base.as_integer_ratio()
    return _rounded(mn * bn ** k, md * bd ** k)


def nk_membership(a: np.ndarray, beta: np.ndarray, k: int,
                  factor: Optional[np.ndarray] = None) -> bool:
    """True iff beta is an order-k witness for A.  k = 0 tests positivity on
    the support matrix only.  Given the factor a of a rank-one A = a a^T, the
    forms come from the closed form, as vandermonde_witnesses takes them."""
    if k < 0:
        raise WitnessError("order must be nonnegative")
    beta = np.asarray(beta, dtype=float)
    if factor is None:
        return _certify(*nk_residuals(a, beta, k), k)
    powers, base = _power_vectors(np.asarray(factor, dtype=float), None, k)
    return _certify(*_closed_form_residuals(powers, beta, k, None), k, base)


def _orthonormalize(vectors: Sequence[np.ndarray],
                    basis: Sequence[np.ndarray] = ()) -> List[np.ndarray]:
    """Modified Gram-Schmidt with a second pass, extending the orthonormal
    basis given; drops dependent vectors."""
    basis = list(basis)
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


def _certified_record(residuals: Tuple[float, float], beta: np.ndarray, k: int,
                      base: float = 1.0, value: Union[float, str, None] = None) -> WitnessRecord:
    """The record of a certified witness, whose margin is residuals[1] * base^k;
    value is the margin it prints, by default that product rounded once."""
    resid, margin = residuals
    if value is None:
        value = _margin_value(margin, base, k)
    if not _certify(resid, margin, k, base):
        shown = f"{value:.3e}" if isinstance(value, float) else value
        raise WitnessError(
            f"order-{k} witness failed certification (residual {resid:.3e}, margin {shown})"
        )
    return WitnessRecord(k, tuple(float(x) for x in beta), resid, value)


def _distinct(values: np.ndarray) -> bool:
    """No two values are equal, NaNs counting as equal to each other, as
    np.unique counts them; by sorting, since np.unique loads numpy.ma."""
    s = np.sort(values)
    return not np.any((s[1:] == s[:-1]) | (np.isnan(s[1:]) & np.isnan(s[:-1])))


def vandermonde_witnesses(alphas: Sequence[float]) -> WitnessSet:
    """Witnesses of every order 1..n-1 for the rank-one matrix A = aa^T built
    from distinct nonzero alphas.  beta_k is the component of the k-th power
    vector orthogonal to the lower ones; Vandermonde independence makes it
    nonzero and (beta . alpha^(k))^2 > 0.  The witnesses are certified from
    that closed form.  Each printed margin is that form too,
    (beta . alpha^(k))^2 / ||beta||^2, taken in integers, since beta and the
    alphas are dyadic, and rounded once."""
    al = np.asarray(alphas, dtype=float)
    n = al.size
    if np.any(al == 0.0) or not _distinct(al):
        raise WitnessError("alphas must be distinct and nonzero")
    a = np.outer(al, al)
    records = []
    powers, base = _power_vectors(al, None, n - 1)
    basis: List[np.ndarray] = [np.ones(n) / math.sqrt(n)]
    num, den = _dyadic(al)
    num_k = [1] * n  # alphas^(k) = num_k / den^k
    for k in range(1, n):
        beta = _project_perp(powers[k], basis)
        beta /= np.linalg.norm(beta)
        num_k = list(map(operator.mul, num_k, num))
        b, _ = _dyadic(beta)  # beta's common denominator cancels
        dot = sum(map(operator.mul, b, num_k))
        value = _rounded(dot * dot, den ** (2 * k) * sum(map(operator.mul, b, b)))
        records.append(_certified_record(
            _closed_form_residuals(powers[:k + 1], beta, k, None), beta, k, base, value))
        basis = _orthonormalize(powers[k:k + 1], basis)
    return WitnessSet(a, tuple(records))


def star_witnesses(
    d: int,
    alphas: Sequence[float],
    ambient_n: int,
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
    alphas[0] to dominate the rest.  Each a^(k) is scaled by _power_vectors,
    so no order overflows; the witnesses are certified from the closed form.

    vertices optionally places the star at [center, leaves...] coordinates of
    the ambient space (defaults to 0..d).
    """
    al = np.asarray(alphas, dtype=float)
    if d < 1 or al.size != d + 1:
        raise WitnessError(f"need d+1 = {d + 1} alphas, got {al.size}")
    if np.any(al == 0.0) or not _distinct(al):
        raise WitnessError("alphas must be distinct and nonzero")
    if ambient_n < d + 1:
        raise WitnessError("ambient dimension too small")
    idx = np.arange(d + 1) if vertices is None else np.asarray(vertices, dtype=int)
    if idx.size != d + 1 or not _distinct(idx) or idx.min() < 0 or idx.max() >= ambient_n:
        raise WitnessError("vertices must be d+1 distinct ambient indices")

    c = int(idx[0])
    a = np.zeros((ambient_n, ambient_n))
    a[c, idx] = a[idx, c] = al
    e_c = (np.arange(ambient_n) == c).astype(float)

    records = []
    power, base = _power_vectors(a[c], c, d)
    basis: List[np.ndarray] = []
    for k in range(1, d + 1):
        basis = _orthonormalize(power[k - 1:k], basis)  # a basis of power[:k]
        if k < d:
            pa = _project_perp(power[k], basis)
            pe = _project_perp(e_c, basis)
            beta = pa / np.linalg.norm(pa) + pe / np.linalg.norm(pe)
        else:
            # span of power[0..d] has one more dimension than span(power[0..d-1])
            beta = _project_perp(power[d], basis)
            beta /= np.linalg.norm(beta)
        try:
            records.append(_certified_record(
                _closed_form_residuals(power[:k + 1], beta, k, c), beta, k, base))
        except WitnessError as exc:
            if k == d and al[0] <= al[1:].max():
                raise WitnessError(
                    "top-order witness needs the center alpha to exceed the "
                    "leaf alphas (certification failed at the final step)"
                ) from exc
            raise
    return WitnessSet(a, tuple(records))


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
        sets.append(WitnessSet(a, (_certified_record(nk_residuals(a, beta, j), beta, j),)))
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
    witness: Tuple[np.ndarray, ...],
    t_steps: Sequence[float],
) -> Tuple[float, float]:
    """(extrapolated limit, analytic value) for the order-k derivative
    diagnostic at base point a.

    With beta an order-k witness for A, the scaled form
    g(t) = beta^T f[a S + t A] beta * k! / t^k  (S the support of A, f applied
    on the support only) tends to f^(k)(a) * Q_{A^(k)}(beta) as t -> 0+.  The
    limit is estimated by polynomial extrapolation through the sampled t's, so
    a negative k-th derivative at a shows up as a negative limit.

    witness is (A, beta) or, for a rank-one A = a a^T, (A, beta, a): with a,
    beta is certified from the closed form, as vandermonde_witnesses
    certifies it, and Q_{A^(k)}(beta) = (beta . a^(k))^2 with the dot taken
    exactly, since a float dot would cancel down to the rounding of the
    powers.
    """
    mat, beta, *factor = witness
    factor = np.asarray(factor[0], dtype=float) if factor else None
    mat = check_symmetric(mat)
    beta = np.asarray(beta, dtype=float)
    if a <= 0:
        raise DomainError("base point must be positive")
    if k < 1:
        raise WitnessError("order must be at least 1")
    ts = np.asarray(sorted(t_steps, reverse=True), dtype=float)
    if ts.size < 2 or ts[-1] <= 0:
        raise WitnessError("need at least two positive step sizes")
    if not nk_membership(mat, beta, k, factor):
        raise WitnessError("witness failed certification for the given order")
    support = hadamard_power(mat, 0)
    mask = support != 0.0
    gs = []
    for t in ts:
        m = a * support + t * mat
        fm = np.zeros_like(m)
        fm[mask] = f.value(m[mask])
        gs.append(quadratic_form(fm, beta) * math.factorial(k) / t ** k)
    limit = _neville_at_zero(ts, np.asarray(gs))
    if factor is None:
        form = quadratic_form(hadamard_power(mat, k), beta)
    else:
        from fractions import Fraction
        form = float(sum(Fraction(b) * Fraction(x) ** k for b, x in zip(beta, factor)) ** 2)
    analytic = f.deriv(a, k) * form
    return limit, analytic
