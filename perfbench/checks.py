"""Correctness checks that do not trust the code under test.

Every helper here parses the CLI's plain-text formats and evaluates power sums
itself, and every PSD question is answered by ``numpy.linalg.eigvalsh`` on a
matrix the harness built.  ``check(op, code, report)`` returns ``None`` when
the command's outcome is right and a one-line reason otherwise.
"""

from __future__ import annotations

import math
import re

import numpy as np

_TERM = re.compile(r"^\s*([+-]?[\d.eE+-]+)\s*\*\s*x\s*\^\s*([\d.]+)\s*$")


def parse_literal(text):
    """Power-sum literal "c*x^e, ..." as a list of (c, e)."""
    terms = []
    for chunk in text.split(","):
        if chunk.strip():
            m = _TERM.match(chunk)
            if m is None:
                raise ValueError(f"bad term {chunk!r}")
            terms.append((float(m.group(1)), float(m.group(2))))
    return terms


def evaluate(terms, x):
    x = np.asarray(x, dtype=float)
    return sum(c * np.power(x, e) for c, e in terms)  # np.power(0., 0.) == 1.


def parse_matrix(text):
    lines = [ln.split() for ln in text.replace(";", "\n").splitlines() if ln.strip()]
    n = int(lines[0][0])
    a = np.zeros((n, n))
    for i, j, v in lines[1:]:
        a[int(i), int(j)] = a[int(j), int(i)] = float(v)
    return a


def parse_edges(text):
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    return int(lines[0][0]), [(int(i), int(j)) for i, j in lines[1:]]


def min_eig_ratio(a):
    """lambda_min / max(1, spectral radius) from the harness's own eigvalsh."""
    lam = np.linalg.eigvalsh(a)
    return float(lam[0]) / max(1.0, float(np.max(np.abs(lam))))


def _fail_certificate_reason(terms, cert, tol):
    """A preserver-test fail certificate must give a PSD A on a tree whose
    image f[A] (f on the diagonal and tree edges, zero elsewhere) is not PSD."""
    n, edges = parse_edges(cert["tree"])
    a = parse_matrix(cert["matrix"])
    if a.shape != (n, n) or len(edges) != n - 1:
        return "certificate tree and matrix disagree"
    mask = np.eye(n, dtype=bool)
    for i, j in edges:
        mask[i, j] = mask[j, i] = True
    if np.any(a[~mask] != 0.0):
        return "certificate matrix leaves the tree pattern"
    if min_eig_ratio(a) < -tol:
        return "certificate matrix is not PSD"
    image = np.where(mask, evaluate(terms, np.where(mask, a, 0.0)), 0.0)
    if min_eig_ratio(image) >= -tol:
        return "certificate image f[A] is PSD"
    return None


def _forward_difference(terms, x, h, order):
    vals = [evaluate(terms, x + m * h) for m in range(order + 1)]
    diff = sum((-1) ** (order - m) * math.comb(order, m) * v for m, v in enumerate(vals))
    scale = sum(math.comb(order, m) * abs(v) for m, v in enumerate(vals))
    return float(diff), float(scale)


def _witness_reason(cert, graph):
    kind, n = graph
    if kind == "star":
        degree, edges = n - 1, n - 1
    elif kind == "path":
        degree, edges = min(2, n - 1), n - 1
    else:  # complete
        degree, edges = n - 1, n * (n - 1) // 2
    # order bounds: max(2, max degree) <= k < |V| + |E|
    if cert["lower_bound"] != max(2, degree) or cert["upper_bound"] != n + edges:
        return "wrong witness order bounds"
    for ws in cert["witness_sets"]:
        a = parse_matrix(ws["matrix"])
        for w in ws["witnesses"]:
            beta, k = np.asarray(w["beta"]), w["k"]
            nrm2 = float(beta @ beta)
            for m in range(k):
                power = (a != 0.0).astype(float) if m == 0 else a ** m
                denom = nrm2 * max(float(np.linalg.norm(power)), 1e-300)
                if abs(float(beta @ power @ beta)) > 1e-8 * denom:
                    return f"witness of order {k} is not in the kernel at order {m}"
            if float(beta @ a ** k @ beta) <= 0.0:
                return f"witness of order {k} is not positive at its order"
    return None


def check(op, code, report):
    """None when the command did what the expected-verdict table says."""
    try:
        return _check(op, code, report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {exc!r}"


def _check(op, code, report):
    if report is None:
        return f"no report (exit {code})"
    want_code = 0 if op.verdict == "pass" else 1
    if report["verdict"] != op.verdict or code != want_code:
        return f"verdict {report['verdict']} exit {code}, expected {op.verdict} ({op.source})"
    cert = report.get("certificate")
    tol = report["tolerance"]
    cmd = op.argv[0]
    if cmd == "preserver-test" and op.verdict == "fail":
        return _fail_certificate_reason(parse_literal(op.argv[1]), cert, tol)
    if cmd == "critical-exponent":
        for row in report["rows"]:
            if (row["preserved"] == "yes") != (row["alpha"] >= 1.0):
                return f"alpha {row['alpha']} preserved={row['preserved']}"
            if row["preserved"] == "no":
                a = parse_matrix(row["certificate"])
                if min_eig_ratio(a) < -tol:
                    return "critical-exponent certificate matrix is not PSD"
                if min_eig_ratio(np.power(a, row["alpha"])) >= -tol:
                    return f"A^alpha is PSD for alpha {row['alpha']}"
        return None
    if cmd == "absmon-test" and op.verdict == "fail":
        diff, scale = _forward_difference(parse_literal(op.argv[1]), cert["x"], cert["h"],
                                          cert["order"])
        return None if diff < -1e-12 * (1.0 + scale) else "forward difference is not negative"
    if cmd == "witness":
        kind, n = op.argv[1].split()
        return _witness_reason(cert, (kind, int(n)))
    if cmd == "construct" and op.argv[1] == "poly":
        negatives = sum(1 for c, _ in parse_literal(cert["literal"]) if c < 0)
        return None if negatives == int(op.argv[3]) else f"{negatives} negative coefficients"
    if cmd == "construct" and op.argv[1] == "thresholds":
        r, s, c_r, c_s = (float(v) for v in op.argv[2:6])
        want = r * (r - 1.0) / (s * (s - 1.0)) * min(c_r, c_s)
        return None if math.isclose(cert["threshold"], want, rel_tol=1e-12) else "wrong threshold"
    if cmd == "star-suite":
        seen = cert["checked"] + cert["boundary_skipped"]
        return None if seen == report["trials"] else "star-suite lost samples"
    return None
