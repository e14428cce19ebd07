"""The integer rules of functions.decide_tree_conditions: f > 0,
superadditivity and multiplicative midpoint convexity of an integer power sum
f with f(0) = 0 on [0, r], each decided from the signs of integer Bernstein
coefficients with midpoint subdivision (README gives the proofs).

Floats are dyadic rationals, so f, r and every witness are exact integers
(float.as_integer_ratio) and every sign below is the sign of an integer.
Each rule returns True (the condition holds), a witness tuple of floats
checked in exact arithmetic, or None (undecided).  functions imports this
module on first use, so that a start-up that does not decide pays nothing
for it.
"""

from __future__ import annotations

import itertools
import math

# Past these caps a power sum is left to the grid scans.
EXACT_MAX_DEGREE = 40
EXACT_MAX_DEPTH = 40  # halvings of one side of a Bernstein box
EXACT_MAX_BOXES = 400  # boxes split per condition


def integer_coefficients(f):
    """[a_0, ..., a_d], integers with f = (a_0 + ... + a_d x^d) / D for one
    D > 0; None unless the exponents are integers, a_0 = 0 and
    1 <= d <= EXACT_MAX_DEGREE."""
    if not f.terms or any(not e.is_integer() for _, e in f.terms):
        return None
    d = int(f.terms[-1][1])
    if f.terms[0][1] == 0.0 or d > EXACT_MAX_DEGREE:
        return None
    ratios = [(int(e), *c.as_integer_ratio()) for c, e in f.terms]
    den = math.lcm(*(q for _, _, q in ratios))
    coefs = [0] * (d + 1)
    for e, p, q in ratios:
        coefs[e] = p * (den // q)
    return coefs


def positive(coefs, r: float):
    """f > 0 on (0, r]: True, (x,) for a float x with f(x) < 0, or None.

    g = f / x^m, m the lowest exponent, has g(0) = a_m, and f > 0 on (0, r]
    iff g > 0 on [0, r]: every box needs nonnegative coefficients and
    positive end values.  A zero of f in (0, r] is left undecided."""
    low = next(k for k, a in enumerate(coefs) if a)
    box = negative_box([[a] for a in coefs[low:]], r, strict=True)
    if box is None or box is True:
        return box
    x = short_dyadics(*middle_half(box[0], box[1], r), 1)
    if x is None or values_at(coefs, x)[0] >= 0:
        return None
    return tuple(x)


def mult_convex(coefs, r: float):
    """Multiplicative midpoint convexity on [0, r] of an f > 0 on (0, r]:
    True, a float pair (x, y) with f(sqrt(xy))^2 > f(x) f(y), or None.

    With x = e^s, f is midpoint convex iff log f(e^s) is convex, iff
    P = x^2 (f f'' - f'^2) + x f f' >= 0, and
    P(x) = sum_{j<k} a_j a_k (k - j)^2 x^(j+k) (README)."""
    p = log_convexity_poly(coefs)
    if not any(p):  # a monomial: equality everywhere
        return True
    low = next(k for k, a in enumerate(p) if a)
    box = negative_box([[a] for a in p[low:]], r)
    if box is None or box is True:
        return box
    # P < 0 on the box: log f(e^s) is strictly concave there, so any x < y
    # in it with an exact midpoint sqrt(xy) = uv is a witness
    lo, hi = middle_half(box[0], box[1], r)
    uv = short_dyadics(math.sqrt(lo), math.sqrt(hi), 2)
    if uv is None:
        return None
    x, y = uv[0] * uv[0], uv[1] * uv[1]
    m = math.sqrt(x * y)
    (mp, mq), (xp, xq), (yp, yq) = (v.as_integer_ratio() for v in (m, x, y))
    if mp * mp * xq * yq != xp * yp * mq * mq:
        return None
    fm, fx, fy = values_at(coefs, (m, x, y))
    return (x, y) if fm * fm > fx * fy else None


def log_convexity_poly(coefs):
    """P(x) = sum_{j<k} a_j a_k (k - j)^2 x^(j+k), as its coefficient list."""
    d = len(coefs) - 1
    p = [0] * (2 * d + 1)
    for j in range(d + 1):
        for k in range(j + 1, d + 1):
            p[j + k] += coefs[j] * coefs[k] * (k - j) ** 2
    return p


def superadditivity_grid(coefs):
    """H(w, t) / w^(low - 2), low the lowest exponent >= 2 of f, as rows of
    t-coefficients, one row per power of w; None when f has no such term."""
    d = len(coefs) - 1
    low = next((k for k in range(2, d + 1) if coefs[k]), None)
    if low is None:
        return None
    p = [[2], [1]]  # p_k as coefficient lists in t
    psi = [[], []]  # psi_1 = 0
    for k in range(2, d + 1):
        p.append([a - b for a, b in itertools.zip_longest(p[k - 1], [0] + p[k - 2],
                                                          fillvalue=0)])
        psi.append([a + b for a, b in itertools.zip_longest(psi[k - 1], p[k - 2],
                                                            fillvalue=0)])
    width = max(len(psi[k]) for k in range(low, d + 1))
    return [[coefs[k] * c for c in psi[k]] + [0] * (width - len(psi[k]))
            for k in range(low, d + 1)]


def superadditive(coefs, r: float):
    """Superadditivity on [0, r]: True, a float pair (x, y) with
    f(x + y) < f(x) + f(y), or None.

    With w = x + y and t = xy / w^2 in [0, 1/4], x^k + y^k = w^k p_k(t) where
    p_0 = 2, p_1 = 1, p_k = p_(k-1) - t p_(k-2), and 1 - p_k = t psi_k(t).
    So f(x + y) - f(x) - f(y) = w^2 t H(w, t) for f(0) = 0, with
    H = sum_{k>=2} a_k w^(k-2) psi_k(t), and f is superadditive iff H >= 0
    on [0, r] x [0, 1/4] (README)."""
    grid = superadditivity_grid(coefs)
    if grid is None:  # f = a_1 x: equality everywhere
        return True
    box = negative_box(grid, r)
    if box is None or box is True:
        return box
    w = short_dyadics(*middle_half(box[0], box[1], r), 1)
    # t = s (1 - s) for x = s w: s = 2t / (1 + sqrt(1 - 4t)) increases with t
    s = short_dyadics(*(2.0 * t / (1.0 + math.sqrt(1.0 - 4.0 * t))
                         for t in middle_half(box[2], box[3], 0.25)), 1)
    if w is None or s is None:
        return None
    x = s[0] * w[0]
    y = w[0] - x
    sw, sx, sy = values_at([0, 1], (w[0], x, y))
    if not (x > 0.0 and sx + sy == sw):  # the triangle block needs x + y exact
        return None
    fw, fx, fy = values_at(coefs, (w[0], x, y))
    return (x, y) if fw < fx + fy else None


def values_at(coefs, points):
    """sum_k a_k p^k q^(d-k) for each float point p / q, over one common q:
    the values of f at the points, up to one common positive factor."""
    ratios = [x.as_integer_ratio() for x in points]
    q = math.lcm(*(den for _, den in ratios))
    out = []
    for num, den in ratios:
        p, value, scale = num * (q // den), 0, 1
        for a in reversed(coefs):  # Horner, homogenized by powers of q
            value = value * p + a * scale
            scale *= q
        out.append(value)
    return out


def middle_half(i: int, depth: int, length: float):
    """The middle half of [i, i + 1] * length / 2^depth, in floats."""
    return (length * math.ldexp(4 * i + 1, -depth - 2),
            length * math.ldexp(4 * i + 3, -depth - 2))


def short_dyadics(lo: float, hi: float, count: int):
    """count consecutive multiples j h, ..., (j + count - 1) h in [lo, hi] of
    the largest power of two h that has them, when j + count - 1 < 2^26, so
    that products of two of them are exact floats; else None."""
    exponent = math.frexp(hi)[1]
    for k in range(-exponent, 60 - exponent):
        first = math.ceil(math.ldexp(lo, k))
        if math.ldexp(first + count - 1, -k) <= hi:
            if (first + count - 1).bit_length() > 26:
                return None
            return [math.ldexp(first + i, -k) for i in range(count)]
    return None


def bernstein(coefs):
    """Bernstein coefficients on [0, 1], times n!, of the integer polynomial
    sum_k coefs[k] X^k: b_i = sum_k C(i, k) / C(n, k) coefs[k]."""
    n = len(coefs) - 1
    b = [a * math.factorial(k) * math.factorial(n - k) for k, a in enumerate(coefs)]
    for j in range(1, n + 1):  # the binomial transform, by Pascal's rule
        for i in range(n, j - 1, -1):
            b[i] += b[i - 1]
    return b


def halves(b):
    """de Casteljau at 1/2: the Bernstein coefficients on the two halves,
    both times 2^n, from those b on the whole interval, in integers."""
    n = len(b) - 1
    left, right = [0] * (n + 1), [0] * (n + 1)
    row = b
    for k in range(n + 1):
        left[k] = row[0] << (n - k)
        right[n - k] = row[-1] << (n - k)
        row = [u + v for u, v in zip(row, row[1:])]
    return left, right


def negative_box(grid, r: float, strict: bool = False):
    """Sign of the integer polynomial sum grid[i][j] w^i t^j on the box
    [0, r] x [0, 1/4] by Bernstein subdivision (a single column: on [0, r]).

    True when every box has nonnegative coefficients, so the polynomial is
    >= 0 (strict: also positive end values, so it is > 0 on [0, r]); a box
    (i0, d0, i1, d1), [i0, i0 + 1] r / 2^d0 x [i1, i1 + 1] / 2^(d1 + 2),
    on which every coefficient is negative, so the polynomial is < 0; None
    past EXACT_MAX_BOXES splits, or when a box EXACT_MAX_DEPTH halvings deep
    is neither and no box gives a witness."""
    rn, rd = r.as_integer_ratio()
    n0, n1 = len(grid) - 1, len(grid[0]) - 1
    # the coefficients of the polynomial at (r W, T / 4), times rd^n0 4^n1
    unit = [[a * rn ** i * rd ** (n0 - i) << 2 * (n1 - j) for j, a in enumerate(row)]
            for i, row in enumerate(grid)]
    rows = [bernstein(row) for row in unit]
    coefs = [list(col) for col in zip(*(bernstein(list(col)) for col in zip(*rows)))]
    stack = [(coefs, 0, 0, 0, 0)]
    splits, left_open = 0, False
    while stack:
        b, i0, d0, i1, d1 = stack.pop()
        flat = [a for row in b for a in row]
        if min(flat) >= 0 and not (strict and (b[0][0] <= 0 or b[-1][0] <= 0)):
            continue
        if max(flat) < 0:
            return i0, d0, i1, d1
        if max(d0, d1) >= EXACT_MAX_DEPTH:
            # a box at a zero of the polynomial: another may still hold a witness
            left_open = True
            continue
        splits += 1
        if splits > EXACT_MAX_BOXES:
            return None
        # halve the side of larger degree times width; a negative corner is
        # searched first, since it lies in a box that holds a witness
        if n1 << d0 > n0 << d1:
            pairs = [halves(row) for row in b]
            lo, hi = [p[0] for p in pairs], [p[1] for p in pairs]
            first = (lo, i0, d0, 2 * i1, d1 + 1), (hi, i0, d0, 2 * i1 + 1, d1 + 1)
            right_worse = min(b[0][-1], b[-1][-1]) < min(b[0][0], b[-1][0], 0)
        else:
            pairs = [halves(list(col)) for col in zip(*b)]
            lo = [list(row) for row in zip(*(p[0] for p in pairs))]
            hi = [list(row) for row in zip(*(p[1] for p in pairs))]
            first = (lo, 2 * i0, d0 + 1, i1, d1), (hi, 2 * i0 + 1, d0 + 1, i1, d1)
            right_worse = min(b[-1][0], b[-1][-1]) < min(b[0][0], b[0][-1], 0)
        stack += first[::-1] if not right_worse else first  # the last is popped first
    return None if left_open else True
