"""Dense univariate polynomial and truncated power-series kernels.

Polynomials are plain Python lists of ring elements in ascending degree
order; the zero polynomial is the empty list.  Every function takes the
coefficient ring as its first argument and never mutates its inputs.
Truncated series of order n are lists of exactly n+1 coefficients.
"""

from .errors import (NOT_A_UNIT, DegreeTooHigh, DftUnavailable,
                     DimensionMismatch, NonUnitConstantTerm, NotDivisible,
                     ZeroDivisor)


def strip(ring, coeffs):
    """Drop trailing zeros; canonical form of a polynomial."""
    k = len(coeffs)
    while k > 0 and ring.is_zero(coeffs[k - 1]):
        k -= 1
    return list(coeffs[:k])


def add(ring, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(map(ring.add, a, b))
    out += a[len(b):]
    while out and ring.is_zero(out[-1]):
        out.pop()
    return out


def sub(ring, a, b):
    out = list(map(ring.sub, a, b))
    if len(b) > len(a):
        out += [ring.sub(ring.zero, c) for c in b[len(a):]]
    else:
        out += a[len(b):]
    while out and ring.is_zero(out[-1]):
        out.pop()
    return out


def scale(ring, a, c):
    if ring.is_zero(c):
        return []
    return strip(ring, [ring.mul(c, x) for x in a])


def schoolbook_mul(ring, a, b):
    if not a or not b:
        return []
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            t = ring.mul(x, y)
            k = i + j
            out[k] = t if out[k] is None else ring.add(out[k], t)
    return strip(ring, out)


def _kara(ring, a, b):
    # a and b have the same length m >= 1; returns dense list of length 2m-1
    m = len(a)
    if m == 1:
        return [ring.mul(a[0], b[0])]
    h = (m + 1) // 2
    pad = [ring.zero] * (2 * h - m)
    a0, a1 = a[:h], a[h:] + pad
    b0, b1 = b[:h], b[h:] + pad
    d1 = [ring.add(a0[i], a1[i]) for i in range(h)]
    d2 = [ring.add(b0[i], b1[i]) for i in range(h)]
    p0 = _kara(ring, a0, b0)
    p2 = _kara(ring, a1, b1)
    p1 = _kara(ring, d1, d2)
    t = [ring.sub(ring.sub(p1[i], p0[i]), p2[i]) for i in range(2 * h - 1)]
    out = list(p0) + [ring.zero] + list(p2)
    for i in range(2 * h - 1):
        k = h + i
        if k == 2 * h - 1:
            out[k] = t[i]
        else:
            out[k] = ring.add(out[k], t[i])
    return out[:2 * m - 1]


def karatsuba_mul(ring, a, b):
    if not a or not b:
        return []
    m = max(len(a), len(b))
    az = list(a) + [ring.zero] * (m - len(a))
    bz = list(b) + [ring.zero] * (m - len(b))
    return strip(ring, _kara(ring, az, bz))


def _fft(ring, coeffs, roots):
    n = len(coeffs)
    if n == 1:
        return list(coeffs)
    half = n // 2
    ev = _fft(ring, coeffs[0::2], roots[0::2])
    od = _fft(ring, coeffs[1::2], roots[0::2])
    out = [None] * n
    for i in range(half):
        t = ring.mul(roots[i], od[i])
        out[i] = ring.add(ev[i], t)
        out[i + half] = ring.sub(ev[i], t)
    return out


def dft_mul(ring, a, b):
    """Product via the discrete Fourier transform over a suitable ring.

    Needs a principal 2^k-th root of unity for the padded length and an
    invertible 2; raises DftUnavailable otherwise.
    """
    if not a or not b:
        return []
    need = len(a) + len(b) - 1
    m = 1
    while m < need:
        m *= 2
    if m == 1:
        return [ring.mul(a[0], b[0])]
    xi = ring.principal_root(m)       # raises DftUnavailable
    roots = [ring.one]
    for _ in range(m - 1):
        roots.append(ring.mul(roots[-1], xi))
    az = list(a) + [ring.zero] * (m - len(a))
    bz = list(b) + [ring.zero] * (m - len(b))
    fa = _fft(ring, az, roots)
    fb = _fft(ring, bz, roots)
    fc = [ring.mul(x, y) for x, y in zip(fa, fb)]
    inv_roots = [roots[0]] + roots[:0:-1]      # powers of xi^-1
    c = _fft(ring, fc, inv_roots)
    out = [ring.div_by_int(x, m) for x in c[:need]]
    return strip(ring, out)


AUTO_KARATSUBA_DEGREE = 16


def poly_mul(ring, a, b, strategy="auto"):
    """Exact product; strategy in {schoolbook, karatsuba, dft, auto}.

    auto is the ring's `product` hook: a native kernel where the ring has
    one, else the literal dispatch of `auto_mul`.
    """
    if strategy == "auto":
        return ring.product(a, b)
    if strategy == "schoolbook":
        return schoolbook_mul(ring, a, b)
    if strategy == "karatsuba":
        return karatsuba_mul(ring, a, b)
    if strategy == "dft":
        return dft_mul(ring, a, b)
    raise ValueError("unknown strategy %r" % (strategy,))


def auto_mul(ring, a, b):
    """Schoolbook below AUTO_KARATSUBA_DEGREE; above it DFT where the ring's
    principal_root has the root of unity, else Karatsuba.  dft_mul asks
    for the root before its first ring op, so a refused DFT costs none."""
    if min(len(a), len(b)) - 1 < AUTO_KARATSUBA_DEGREE:
        return schoolbook_mul(ring, a, b)
    try:
        return dft_mul(ring, a, b)
    except DftUnavailable:
        return karatsuba_mul(ring, a, b)


def divmod_poly(ring, a, b):
    """Euclidean division a = q*b + r with deg r < deg b.

    Each leading-coefficient division uses field division when available,
    exact division otherwise (always fine for monic-up-to-sign divisors).
    Raises NotDivisible when a quotient coefficient does not exist, and
    ZeroDivisor when b is zero.
    """
    b = strip(ring, b)
    if not b:
        raise ZeroDivisor("polynomial division by zero")
    lead = b[-1]
    db = len(b) - 1
    if ring.spec.is_field:
        divide = lambda x: ring.div(x, lead)
    else:
        divide = lambda x: ring.exact_div(x, lead)
    r = list(a)
    q = [ring.zero] * max(0, len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        top = r[k + db]
        if ring.is_zero(top):
            continue
        c = divide(top)
        q[k] = c
        r[k:k + db + 1] = ring.submul(r[k:k + db + 1], c, b)
    return strip(ring, q), strip(ring, r)


def exact_div_poly(ring, a, b):
    q, r = divmod_poly(ring, a, b)
    if r:
        raise NotDivisible("polynomial division left a remainder")
    return q


def series_trim(ring, a, order):
    out = list(a[:order + 1])
    out += [ring.zero] * (order + 1 - len(out))
    return out


def series_add(ring, a, b, order):
    return [ring.add(a[i], b[i]) for i in range(order + 1)]


def series_mul(ring, a, b, order):
    """a*b mod z^(order+1) as order+1 coefficients: the ring's `product`
    hook (see `truncated_mul` for the literal loop)."""
    return ring.product(a, b, order)


def truncated_mul(ring, a, b, order):
    """The literal truncated product: skips zero coefficients of a."""
    out = [None] * (order + 1)
    for i in range(min(order, len(a) - 1) + 1):
        ai = a[i]
        if ring.is_zero(ai):
            continue
        for j in range(min(order - i, len(b) - 1) + 1):
            t = ring.mul(ai, b[j])
            k = i + j
            out[k] = t if out[k] is None else ring.add(out[k], t)
    return [ring.zero if c is None else c for c in out]


def series_inverse(ring, a, order):
    """Inverse of a truncated series with unit constant term.

    Factors out a(0) and applies the repeated-squaring product
    (1-w)^-1 = (1+w)(1+w^2)(1+w^4)... valid modulo z^(order+1).
    """
    a = series_trim(ring, a, order)
    c = a[0]
    try:
        cinv = ring.inverse_of_unit(c)
    except NOT_A_UNIT:
        raise NonUnitConstantTerm("series constant term is not a unit")
    # w = 1 - a/c has zero constant term
    w = [ring.zero] + [ring.neg(ring.mul(cinv, x)) for x in a[1:]]
    one = [ring.one] + [ring.zero] * order
    res = series_add(ring, one, w, order)
    sq = w
    steps = 0
    while (1 << (steps + 1)) < order + 1:
        steps += 1
    for _ in range(steps):
        sq = series_mul(ring, sq, sq, order)
        res = series_mul(ring, res, series_add(ring, one, sq, order), order)
    return [ring.mul(cinv, x) for x in res]


def reciprocal(ring, a, n):
    """X^n * P(1/X): the coefficient list reversed within length n+1."""
    a = strip(ring, a)
    if len(a) - 1 > n:
        raise DegreeTooHigh("degree %d exceeds reciprocal order %d" % (len(a) - 1, n))
    padded = list(a) + [ring.zero] * (n + 1 - len(a))
    return strip(ring, padded[::-1])


def toeplitz_apply(ring, first_col, first_row, v, strategy="auto"):
    """Toeplitz matrix times vector via one polynomial product.

    The matrix is m x k with first_col down its first column and
    first_row along its first row (their shared corner must agree).
    """
    m, k = len(first_col), len(first_row)
    if m == 0 or k == 0 or len(v) != k:
        raise DimensionMismatch("Toeplitz apply: got %d-vector for %dx%d" % (len(v), m, k))
    if not ring.eq(first_col[0], first_row[0]):
        raise DimensionMismatch("first_col[0] and first_row[0] differ")
    diag = list(first_row[::-1]) + list(first_col[1:])   # t_{-(k-1)} .. t_{m-1}
    prod = poly_mul(ring, diag, list(v), strategy)
    prod += [ring.zero] * (m + 2 * k - 2 - len(prod))
    return prod[k - 1:k - 1 + m]
