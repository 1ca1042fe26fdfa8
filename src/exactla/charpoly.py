"""Sequential characteristic-polynomial algorithms, adjoint recovery and
simple eigenvectors.

Every algorithm returns a CharPoly normalized to the same convention:
P_A(X) = det(A - X*I) with leading coefficient p_0 = (-1)^n.
"""

import math
from itertools import count, islice

from . import poly
from .elimination import (EchelonBasis, _jorbarsol_rows, _pivot_row, det_field,
                          det_fraction_free, jordan_bareiss)
from .errors import (NOT_A_UNIT, AdjointVanishes, DimensionMismatch,
                     ExactDivisionFailed, IntegerNotInvertible)
from .matrix import DenseMatrix, mat_mul
from .rings import FractionField, PolynomialRing, Ring, SeriesRing


class CharPoly:
    """Coefficients p_0..p_n of det(A - X*I), stored descending."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @property
    def n(self):
        return len(self.coeffs) - 1

    def ascending(self):
        return list(self.coeffs[::-1])

    def constant_term(self):
        """det(A)."""
        return self.coeffs[-1]

    def eq(self, other):
        if self.n != other.n:
            return False
        return all(self.ring.eq(a, b) for a, b in zip(self.coeffs, other.coeffs))

    def digest(self):
        import hashlib      # here, so that `exactla charpoly` does not load it
        text = ";".join(self.ring.format(c) for c in self.coeffs)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def format(self, var="X"):
        return PolynomialRing(self.ring, var).format(self.coeffs[::-1])

    def __repr__(self):
        return "CharPoly(%s)" % self.format()


def _sign_normalize(ring, asc, n):
    """Ascending degree-n poly -> CharPoly, flipping sign so p0 = (-1)^n."""
    asc = list(asc) + [ring.zero] * (n + 1 - len(asc))
    lead = asc[n]
    if ring.eq(lead, ring.one if n % 2 == 0 else ring.neg(ring.one)):
        return CharPoly(ring, asc[::-1])
    return CharPoly(ring, [ring.neg(c) for c in asc[::-1]])


def _from_monic_tail(ring, tail, n):
    """Monic P(X) = X^n - sum tail[k] X^k  ->  CharPoly of (-1)^n P."""
    return _sign_normalize(ring, [ring.neg(t) for t in tail] + [ring.one], n)


# ---------------------------------------------------------------------------
# Berkowitz (any commutative ring)

def charpoly_berkowitz(a, sparse_aware=False):
    ring = a.ring
    n = a.rows
    rows = a.to_rows()
    neg_one = ring.neg(ring.one)
    v = [neg_one, rows[0][0]]
    krylov = ring.krylov(rows, sparse_aware)
    for r in range(2, n + 1):
        m = r - 1
        iterates = krylov([rows[i][m] for i in range(m)], m - 1)
        # sparse-aware: one ring.dot of row m's nonzeros below column m and each
        # iterate's there (one mul for one pair, none for no pairs); the dense dot
        # when none of them is zero
        js = [j for j in range(m) if not ring.is_zero(rows[m][j])] if sparse_aware else range(m)
        js = None if len(js) == m else js
        xs = rows[m] if js is None else list(map(rows[m].__getitem__, js))
        tail = [ring.dot(xs, x if js is None else list(map(x.__getitem__, js))) for x in iterates]
        c = [None, neg_one, rows[m][m]] + tail
        # Toeplitz times vector: entry i is the sum of c[i+1-j]*v[j-1], j = 1..min(r, i)
        v = [ring.dot(c[i:max(i - r, 0):-1], v) for i in range(1, r + 2)]
    return CharPoly(ring, v)


# ---------------------------------------------------------------------------
# Chistov (any commutative ring)

def chistov_diagonal_series(a, sparse_aware=False):
    """Stage 1: for each r, the series 1 + sum_k (E_r^t A_r^k E_r) X^k.

    Uniform loop (n full matrix-vector products per leading block), the
    stream whose cost the n*sum(2r^2 - r) formula describes.
    """
    ring = a.ring
    n = a.rows
    rows = a.to_rows()
    krylov = ring.krylov(rows, sparse_aware)
    out = []
    for r in range(1, n + 1):
        v = [ring.zero] * r
        v[r - 1] = ring.one
        out.append([w[r - 1] for w in krylov(v, n)])
    return out


def charpoly_chistov(a, sparse_aware=False):
    ring = a.ring
    n = a.rows
    if n == 1:
        return CharPoly(ring, [ring.neg(ring.one), a.at(0, 0)])
    factors = chistov_diagonal_series(a, sparse_aware)
    q = [ring.one] + [ring.zero] * n
    for f in factors:
        q = poly.series_mul(ring, q, f, n)
    qinv = poly.series_inverse(ring, q, n)
    rec = poly.reciprocal(ring, qinv, n)
    return _sign_normalize(ring, rec, n)


# ---------------------------------------------------------------------------
# Souriau-Faddeev-Frame and Le Verrier (division by integers 1..n)

def _check_int_divisions(ring, n):
    if not ring.spec.allows_div_by_int(n):
        raise IntegerNotInvertible(
            "ring %s cannot divide by the integers 1..%d" % (ring.name, n))


def _horner(a, coeff):
    """(c_k, B_k) for k = 1, 2, ... of the Horner scheme B_0 = I,
    B_k = B_{k-1}*A - c_k*I, where c_k = coeff(k, B_{k-1}*A).  The first
    step takes B_0*A = A as is, without a product."""
    ring = a.ring
    n = a.rows
    b = None
    for k in count(1):
        c = a if k == 1 else mat_mul(b, a)
        ck = coeff(k, c)
        b = DenseMatrix(ring, n, n, list(c.entries))
        for i in range(n):
            b.entries[i * n + i] = ring.sub(b.entries[i * n + i], ck)
        yield ck, b


def _trace_coeff(ring):
    """Faddeev's c_k = Tr(B_{k-1}*A) / k."""
    return lambda k, c: ring.div_by_int(c.trace(), k)


def _trace_of_product(ring, x, y):
    """Tr(X*Y) in 2n^2 - 1 operations: each diagonal entry of X*Y, then
    their sum."""
    tr = None
    for i in range(x.rows):
        d = ring.dot(x.row(i), y.col(i))
        tr = d if tr is None else ring.add(tr, d)
    return tr


def faddeev_sequence(a):
    """All B_k and c_k of the Horner scheme B_k = B_{k-1}*A - c_k*I."""
    ring = a.ring
    n = a.rows
    _check_int_divisions(ring, n)
    bmats = [DenseMatrix.identity(ring, n)]
    cs = []
    for ck, b in islice(_horner(a, _trace_coeff(ring)), n):
        cs.append(ck)
        bmats.append(b)
    return bmats, cs


def charpoly_faddeev(a, compute_inverse=True):
    """Returns (CharPoly, adjoint, inverse-or-None)."""
    ring = a.ring
    n = a.rows
    _check_int_divisions(ring, n)
    b = DenseMatrix.identity(ring, n)
    cs = []
    for ck, b in islice(_horner(a, _trace_coeff(ring)), n - 1):
        cs.append(ck)
    # only the diagonal of B_{n-1} * A is needed for the last coefficient
    cs.append(ring.div_by_int(_trace_of_product(ring, b, a), n))
    cp = _from_monic_tail(ring, cs[::-1], n)
    adjoint = b if (n - 1) % 2 == 0 else b.neg()
    inverse = None
    if compute_inverse:
        try:
            dinv = ring.inverse_of_unit(cs[-1])
        except NOT_A_UNIT:
            pass            # det(A) is not a unit: A has no inverse
        else:
            inverse = b.scale(dinv)
    return cp, adjoint, inverse


def charpoly_leverrier(a):
    ring = a.ring
    n = a.rows
    _check_int_divisions(ring, n)
    traces = [None] * (n + 1)
    traces[1] = a.trace()
    pw = a
    for k in range(2, n):
        pw = mat_mul(a, pw)
        traces[k] = pw.trace()
    if n >= 2:
        traces[n] = _trace_of_product(ring, a, pw)
    cs = newton_convert("sums_to_coeffs", traces[1:], n, ring)
    return _from_monic_tail(ring, cs[::-1], n)


def newton_convert(direction, data, n, ring):
    """Triangular conversion between coefficients a_k (of the monic
    X^n - [a_1 X^(n-1) + ... + a_n]) and Newton sums s_k."""
    if direction == "coeffs_to_sums":
        a = list(data)
        s = []
        for k in range(1, n + 1):
            acc = ring.mul(ring.from_int(k), a[k - 1])
            for i in range(1, k):
                acc = ring.add(acc, ring.mul(s[k - i - 1], a[i - 1]))
            s.append(acc)
        return s
    if direction == "sums_to_coeffs":
        _check_int_divisions(ring, n)
        s = list(data)
        a = []
        for k in range(1, n + 1):
            acc = s[k - 1]
            for i in range(1, k):
                acc = ring.sub(acc, ring.mul(s[k - i - 1], a[i - 1]))
            a.append(ring.div_by_int(acc, k))
        return a
    raise ValueError("unknown direction %r" % (direction,))


# ---------------------------------------------------------------------------
# Preparata & Sarwate (baby-step / giant-step traces)

def charpoly_preparata_sarwate(a):
    ring = a.ring
    n = a.rows
    _check_int_divisions(ring, n)
    r = math.isqrt(n)
    if r * r < n:
        r += 1
    s = [None] * (n + 1)
    s[1] = a.trace()
    bpow = {1: a}
    for i in range(1, r - 1):
        bpow[i + 1] = mat_mul(a, bpow[i])
        if i + 1 <= n:
            s[i + 1] = bpow[i + 1].trace()
    cpow = {}
    if r >= 2:
        cpow[1] = mat_mul(a, bpow[r - 1])
        if r <= n:
            s[r] = cpow[1].trace()
        for j in range(1, r - 1):
            cpow[j + 1] = mat_mul(cpow[1], cpow[j])
            if (j + 1) * r <= n:
                s[(j + 1) * r] = cpow[j + 1].trace()
    for i in range(1, r):
        for j in range(1, r):
            m = j * r + i
            if m <= n and s[m] is None:
                s[m] = _trace_of_product(ring, bpow[i], cpow[j])
    if n == r * r and n > 1:
        s[n] = _trace_of_product(ring, cpow[1], cpow[r - 1])
    cs = newton_convert("sums_to_coeffs", s[1:], n, ring)
    return _from_monic_tail(ring, cs[::-1], n)


# ---------------------------------------------------------------------------
# Hessenberg (fields)

def charpoly_hessenberg(a):
    """Similarity reduction to upper Hessenberg form, then the recurrence
    for the charpolys p_m of its leading blocks.

    Over a ring with a native dot (today IntegersMod), each pivot step
    defers its column updates: L^-1 H L = (L^-1 H) L, so after the row
    updates column ip takes one dot per row with the multipliers, and
    each recurrence coefficient is one dot over its history in the
    earlier p_k.  Every other ring, CountingRing included, runs the
    interleaved literal stream that hessenberg_count describes."""
    ring = a.ring
    h = _hessenberg_reduce(ring, a.to_rows())
    recurrence = _hessenberg_recurrence_dots if _native_dot(ring) else _hessenberg_recurrence
    return _sign_normalize(ring, recurrence(ring, h), a.rows)


def _native_dot(ring):
    """Whether the ring's class overrides dot.  It decides only on fields:
    PolynomialRing and QuotientRing define dot too, and Hessenberg never
    runs on either."""
    return type(ring).dot is not Ring.dot


def _hessenberg_reduce(ring, h):
    """The rows h reduced in place to upper Hessenberg form by a
    similarity (pivot search down the column, row and column swap,
    elimination below the subdiagonal); returns h."""
    n = len(h)
    deferred = _native_dot(ring)
    for jp in range(n - 2):
        ip = jp + 1
        ic = _pivot_row(ring, h, ip, jp)
        if ic is None:
            continue
        if ic > ip:
            h[ip], h[ic] = h[ic], h[ip]
            for row in h:
                row[ip], row[ic] = row[ic], row[ip]
        piv = h[ip][jp]
        cs = [ring.one]     # 1 for row[ip] itself, then each row's multiplier, 0 if skipped
        for i in range(ip + 1, n):
            if ring.is_zero(h[i][jp]):
                cs.append(ring.zero)
                continue
            c = ring.div(h[i][jp], piv)
            cs.append(c)
            h[i][jp] = ring.zero
            h[i][jp + 1:] = ring.submul(h[i][jp + 1:], c, h[ip][jp + 1:])
            if not deferred:
                for row in h:
                    row[ip] = ring.add(row[ip], ring.mul(c, row[i]))
        if deferred:
            for row in h:
                row[ip] = ring.dot(row[ip:], cs)
    return h


def _hessenberg_recurrence_dots(ring, h):
    """Ascending p_n of the Hessenberg rows h: p_m[j] is one dot of the
    multipliers of p_0..p_{m-1} with coefficient j of p_j..p_{m-1},
    less p_{m-1}[j-1]."""
    hist = [[ring.one]]     # hist[j]: coefficient j of p_j, p_{j+1}, ... so far
    prev = [ring.one]
    for m in range(1, len(h) + 1):
        # w[k] multiplies p_k: the subdiagonal product chain for k < m-1,
        # the diagonal entry for k = m-1
        w = [h[m - 1][m - 1]]
        c = ring.one
        for i in range(1, m):
            c = ring.neg(ring.mul(c, h[m - i][m - i - 1]))
            w.append(ring.mul(c, h[m - i - 1][m - 1]))
        w.reverse()
        cur = [ring.dot(hist[0], w)]
        cur += [ring.sub(ring.dot(hist[j], w[j:]), prev[j - 1]) for j in range(1, m)]
        cur.append(ring.neg(prev[m - 1]))
        for column, x in zip(hist, cur):
            column.append(x)
        hist.append([cur[m]])
        prev = cur
    return prev


def _hessenberg_recurrence(ring, h):
    """Ascending p_n of the Hessenberg rows h: p_m = (h_mm - X) p_{m-1} plus
    t*p_k for each earlier p_k, one mul and one add per coefficient."""
    n = len(h)
    ps = [[ring.one]]
    for m in range(1, n + 1):
        hm = h[m - 1][m - 1]
        prev = ps[m - 1]
        cur = [ring.mul(hm, prev[0])]
        for i in range(1, m):
            cur.append(ring.sub(ring.mul(hm, prev[i]), prev[i - 1]))
        cur.append(ring.neg(prev[m - 1]))
        c = ring.one
        for i in range(1, m):
            c = ring.neg(ring.mul(c, h[m - i][m - i - 1]))
            t = ring.mul(c, h[m - i - 1][m - 1])
            cur[:m - i] = [ring.add(y, ring.mul(t, x)) for y, x in zip(cur, ps[m - i - 1])]
        ps.append(cur)
    return ps[n]


# ---------------------------------------------------------------------------
# modified Jordan-Bareiss (characteristic matrix, any commutative ring)

def charpoly_bareiss_modified(a):
    """det(A - X*I): the last bordered minor of the Jordan-Bareiss tableau
    of the characteristic matrix over R[X]."""
    ring = a.ring
    n = a.rows
    pr = PolynomialRing(ring, "X")
    chm = a.with_ring(pr, pr.from_base)
    for i in range(n):
        chm.entries[i * n + i] = (a.at(i, i), ring.neg(ring.one))
    corner = jordan_bareiss(chm).matrix.at(n - 1, n - 1)
    return _sign_normalize(ring, list(corner), n)


# ---------------------------------------------------------------------------
# Lagrange interpolation at 0..n

def charpoly_interpolation(a):
    ring = a.ring
    n = a.rows
    _check_int_divisions(ring, n)
    values = [determinant(a)]
    for k in range(1, n + 1):
        kk = ring.from_int(k)
        shifted = DenseMatrix(ring, n, n, list(a.entries))
        for i in range(n):
            idx = i * n + i
            shifted.entries[idx] = ring.sub(shifted.entries[idx], kk)
        values.append(determinant(shifted))
    # Newton forward differences: P(X) = sum_k  (D^k d0 / k!) X(X-1)..(X-k+1)
    diffs = [values[0]]
    work = list(values)
    for k in range(1, n + 1):
        work = [ring.sub(work[i + 1], work[i]) for i in range(len(work) - 1)]
        diffs.append(work[0])
    acc = []          # ascending result
    falling = [ring.one]
    for k in range(n + 1):
        c = diffs[k]
        for t in range(2, k + 1):
            c = ring.div_by_int(c, t)
        acc = poly.add(ring, acc, poly.scale(ring, falling, c))
        falling = poly.poly_mul(ring, falling,
                                [ring.neg(ring.from_int(k)), ring.one], "schoolbook")
    return _sign_normalize(ring, acc, n)


def determinant(m):
    """det(m) by the cheapest method the ring allows."""
    spec = m.ring.spec
    if spec.is_field:
        return det_field(m)
    if spec.is_integral_domain:
        return det_fraction_free(m)
    # rings with zero divisors: fall back to a division-free determinant
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    return charpoly_berkowitz(m).constant_term()


# ---------------------------------------------------------------------------
# Frobenius (Krylov / companion blocks)

def charpoly_frobenius(a):
    try:
        return _frobenius_simple(a)
    except ExactDivisionFailed:
        pass                # e_1 does not generate: Krylov blocks
    return _frobenius_blocks(a)


def _frobenius_simple(a):
    """Case where e_1 generates: Krylov matrix + JorBarSol."""
    ring = a.ring
    n = a.rows
    rows = a.to_rows()
    e1 = [ring.one] + [ring.zero] * (n - 1)
    w = [list(row) for row in zip(e1, *ring.krylov(rows)([row[0] for row in rows], n - 1))]
    return _from_monic_tail(ring, _jorbarsol_rows(ring, w, skip_first_pivot=True), n)


def frobenius_block_polynomials(a):
    """Monic companion-block polynomials of the Krylov block
    triangularization (ascending coefficients over the base ring);
    their product is (-1)^n P_A."""
    ring = a.ring
    n = a.rows
    field, into, back = _field_of_fractions(ring)
    krylov = field.krylov([[into(x) for x in row] for row in a.to_rows()])
    basis = EchelonBasis(field)
    tails = []          # per block: the y_j of A^size v = sum_j y_j A^j v
    seed_from = 0
    while len(basis) < n:
        start = len(basis)
        for i in range(seed_from, n):
            v = [field.one if k == i else field.zero for k in range(n)]
            if basis.insert(v) is None:
                seed_from = i + 1
                break
        while True:
            v = krylov(v, 1)[1]
            y = basis.insert(v)
            if y is not None:
                tails.append(y[start:])
                break
    return [[back(field.neg(t)) for t in tail] + [back(field.one)] for tail in tails]


def _frobenius_blocks(a):
    """Block triangularization: greedy Krylov chains over the fraction field."""
    ring = a.ring
    n = a.rows
    prx = PolynomialRing(ring, "X")
    prod = prx.one
    for monic in frobenius_block_polynomials(a):
        prod = prx.mul(prod, tuple(monic))
    return _sign_normalize(ring, list(prod), n)


def _field_of_fractions(ring):
    """(field, embed, retract) for running field algorithms over a domain."""
    if ring.spec.is_field:
        return ring, (lambda x: x), (lambda x: x)
    ff = FractionField(ring)
    return ff, ff.from_base, lambda fr: ring.exact_div(*fr)


# ---------------------------------------------------------------------------
# Kaltofen-Wiedemann (division-free via truncated series)

def kaltofen_center_vector(n):
    """Integer entries a_0..a_{n-1} of the division-elimination vector."""
    return [math.comb(i, i // 2) for i in range(n)]


def kaltofen_center_matrix(n):
    """The transposed companion matrix C of the center; last row from the
    closed binomial formula."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
    for j in range(n):
        rows[n - 1][j] = (-1) ** ((n - 1 - j) // 2) * math.comb((n + j) // 2, j)
    return rows


def charpoly_kaltofen(a):
    ring = a.ring
    n = a.rows
    if n == 1:
        return CharPoly(ring, [ring.neg(ring.one), a.at(0, 0)])
    sr = SeriesRing(ring, n)
    cmat = kaltofen_center_matrix(n)
    brows = []
    for i in range(n):
        row = []
        for j in range(n):
            c = ring.from_int(cmat[i][j])
            f = ring.sub(a.at(i, j), c)
            row.append((c, f) + (ring.zero,) * (n - 1))
        brows.append(row)
    v = [sr.from_base(ring.from_int(x)) for x in kaltofen_center_vector(n)]
    seq = [w[0] for w in sr.krylov(brows)(v, 2 * n - 1)]
    gen = _polgenmin(sr, seq, n)
    asc = [sr.eval_at_one(c) for c in gen]
    return _sign_normalize(ring, asc, n)


def _polgenmin(sr, seq, n):
    """Minimal generator of a 2n-term sequence over the series ring A_n.

    Extended Euclid on (X^2n, reversed sequence polynomial), remainders
    normalized monic via truncated-series inversion of their (unit)
    leading coefficients; fixed n-division schedule.  Returns the monic
    ascending coefficient list (degree n).  The scalings and v2*q are
    sr.product calls and the divisions sr.submul calls (in divmod_poly):
    bivariate Kronecker products over Z/p, the literal loops elsewhere.
    """
    r1 = [seq[2 * n - 1 - k] for k in range(2 * n)]
    r0 = [sr.zero] * (2 * n) + [sr.one]
    q, r2 = poly.divmod_poly(sr, r0, r1)
    v1 = [sr.one]
    v2 = [sr.neg(c) for c in q]
    ill = sr.one
    for _ in range(2, n + 1):
        lc = r2[-1]
        ilc = sr.inverse_of_unit(lc)
        r2m = sr.product([ilc], r2)
        q, r3 = poly.divmod_poly(sr, r1, r2m)
        v3 = poly.sub(sr, sr.product([ill], v1), sr.product([ilc], sr.product(v2, q)))
        ill = ilc
        v1, v2 = v2, v3
        r1, r2 = r2m, r3
    lc = v2[-1]
    ilc = sr.inverse_of_unit(lc)
    return sr.product([ilc], v2)


# ---------------------------------------------------------------------------
# closed forms for the instrumented operation counts (counting every
# executed ring add/sub/mul/div; copies, negations and comparisons free).
# Where a literature estimate differs from the literal algorithm stream,
# the corrected form and the delta are recorded here.

def gauss_count(n):
    """(2/3)n^3 - (1/2)n^2 - n/6: matches the classical count exactly."""
    return (4 * n ** 3 - 3 * n ** 2 - n) // 6


def hessenberg_count(n):
    """2n^3 - (5/2)n^2 + n/2 + 1: the literal two-phase stream.

    The classical 2n^3 - 3n^2 + 1 is a rounded bound that drops the
    n(n+1)/2 scalar-chain multiplications of the recurrence phase.
    """
    return (4 * n ** 3 - 5 * n ** 2 + n + 2) // 2


def leverrier_count(n):
    """2n(n - 1/2)(n^2 - 2n + 2): matches exactly."""
    return n * (2 * n - 1) * (n ** 2 - 2 * n + 2)


def faddeev_count(n):
    """charpoly-only cost: 2n(n-1)(n^2 - 3n/2 + 1/2) + 2n^2 - n.

    The classical formula counts only the matrix products; the corrective
    term is the n traces (n(n-1) additions), n integer divisions and the
    n(n-1) diagonal updates B := C - c_k I the algorithm must execute.
    """
    return n * (n - 1) * (2 * n ** 2 - 3 * n + 1) + 2 * n * n - n


def berkowitz_count(n):
    """(1/2)n^4 - n^3 + (5/2)n^2 - 2: the literal sequential stream
    (dot products for the Toeplitz coefficients, then the full
    Toeplitz-times-vector chain).

    The classical (1/2)n^4 - (1/3)n^3 - (3/2)n^2 + (7/3)n - 1 is
    per-stage bookkeeping that no faithful implementation reproduces:
    at n = 2 it gives 3 while the 2x2 characteristic polynomial already
    needs four ring operations.
    """
    return (n ** 4 - 2 * n ** 3 + 5 * n ** 2) // 2 - 2


def frobenius_simple_count(n):
    """(10/3)n^3 - 7n^2 + (11/3)n - 1 + n^2.

    The classical total books the Krylov additions as (n-1)^3 where the
    n-1 matrix-vector products cost n(n-1)^2, and omits the dependence
    coefficient l_n (one division and the final substitution row).
    """
    return (10 * n ** 3 - 21 * n ** 2 + 11 * n - 3) // 3 + n * n


def chistov_stage1_count(n):
    """n^2 (n+1)(4n-1)/6: matches the uniform stage-1 loop exactly."""
    return n * n * (n + 1) * (4 * n - 1) // 6


def karatsuba_count(nu):
    """Total 7*3^nu - 8*2^nu + 2 for inputs of length 2^nu (3^nu products)."""
    return 7 * 3 ** nu - 8 * 2 ** nu + 2


def strassen_count(nu):
    """Total 6*7^nu - 5*4^nu at cutoff 1 for n = 2^nu (7^nu products)."""
    return 6 * 7 ** nu - 5 * 4 ** nu


# ---------------------------------------------------------------------------
# adjoint and eigenvectors from the characteristic polynomial

def adjoint_from_charpoly(a, cp):
    """Horner evaluation of Adj(X*I - A) at the tail: (-1)^(n-1) B_{n-1}."""
    n = a.rows
    b = _horner_from_charpoly(a, cp)[-1]
    return b if (n - 1) % 2 == 0 else b.neg()


def _horner_from_charpoly(a, cp):
    """B_0..B_{n-1}, with the c_k of the monic (-1)^n P_A =
    X^n - [c_1 X^(n-1) + ... + c_n] read off cp."""
    ring = a.ring
    n = a.rows
    cs = [cp.coeffs[k] if n % 2 else ring.neg(cp.coeffs[k]) for k in range(1, n + 1)]
    steps = islice(_horner(a, lambda k, c: cs[k - 1]), n - 1)
    return [DenseMatrix.identity(ring, n)] + [b for _, b in steps]


def eigenvector_simple(a, lam, cp=None):
    """A nonzero column of Adj(lambda*I - A); satisfies A v = lambda v.

    Raises AdjointVanishes when the whole adjoint is zero (geometric
    multiplicity >= 2).
    """
    ring = a.ring
    n = a.rows
    if cp is None:
        cp = charpoly_berkowitz(a)
    bmats = _horner_from_charpoly(a, cp)
    for col in range(n):
        v = [ring.one if i == col else ring.zero for i in range(n)]
        for k in range(1, n):
            v = [ring.add(y, ring.mul(lam, x)) for y, x in zip(bmats[k].col(col), v)]
        if any(not ring.is_zero(x) for x in v):
            return v
    raise AdjointVanishes("Adj(lambda*I - A) = 0: eigenspace dimension >= 2")
