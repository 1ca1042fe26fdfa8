"""Gram coefficients and Moore-Penrose rank-r inverses: the transpose
(formally real) case and the arbitrary-field generalization through the
t-twisted star operator.

The generalized mode runs over the polynomial ring K[t], or Z[t] for
input over exactly Q, and makes one K(t) fraction per result entry.  The
shifted star S' = t^(n-1) A° has its entries in K[t], the charpoly of
A S' gives c'_k = t^(k(n-1)) a_k, and every power of t cancels in the
alternating Gram sum, so A^+ = N / c'_r with N over K[t].  Over Q,
A = B/d with B over Z gives A^+ = d B^+.
"""

from dataclasses import dataclass
from fractions import Fraction

from .charpoly import charpoly_berkowitz
from .errors import DimensionMismatch, GramCoefficientZero, Inconsistent
from .matrix import DenseMatrix, mat_mul
from .rings import QQ, ZZ, FractionField, PolynomialRing, _clear_denominators


def rational_function_field(base_field, var="t"):
    """K(t): the working field of the generalized star construction."""
    return FractionField(PolynomialRing(base_field, var))


def embed_in_kt(a, kt=None):
    """Lift a matrix over a field K into K(t)."""
    if kt is None:
        kt = rational_function_field(a.ring)
    return a.with_ring(kt, lambda x: kt.from_base(kt.base.from_base(x))), kt


def star_operator(a):
    """A° with entries (A°)_{i,j} = t^(j-i) * a_{j,i} over K(t)."""
    kt = a.ring
    t_pow = _monomials(kt.base)
    return _twisted_transpose(a, lambda e: kt.from_base(t_pow(e)) if e >= 0
                              else (kt.base.one, t_pow(-e)))   # 1/t^-e is canonical


def _twisted_transpose(a, scale):
    """The n x m matrix (scale(j-i) * a_{j,i}); 0-based j-i equals the
    1-based exponent, and each diagonal's scale is computed once."""
    ring = a.ring
    m, n = a.rows, a.cols
    scales = {e: scale(e) for e in range(1 - n, m)}
    out = DenseMatrix.zeros(ring, n, m)
    for i in range(n):
        for j in range(m):
            out.entries[i * m + j] = ring.mul(scales[j - i], a.at(j, i))
    return out


@dataclass
class GramSpectrum:
    """Coefficients of det(I_m + Z A A*), k = 1..min(m,n).

    plain mode: base-field elements; generalized mode: K(t) elements,
    with the t^(-k(n-k)) normalization exponents recorded separately.
    """
    mode: str
    ring: object
    coefficients: list
    norm_exponents: list

    def laurent(self, k):
        """(exponent e, a_k as the K(t) element (num, den)): den is a power
        of t of degree at most e, so t^e * a_k is a polynomial."""
        if self.mode != "generalized":
            raise ValueError("laurent data only exists in generalized mode")
        return self.norm_exponents[k - 1], self.coefficients[k - 1]


def gram_coefficients(a, mode="plain"):
    """det(I + Z A A*) via the characteristic polynomial of A A*."""
    if mode == "plain":
        return GramSpectrum("plain", a.ring, _gram(a, a.transpose()), [])
    if mode != "generalized":
        raise ValueError("mode must be 'plain' or 'generalized'")
    kt = rational_function_field(a.ring)
    b, star, into = _shifted(a, kt)
    n = a.cols
    t_pow = _monomials(b.ring)
    coeffs = [into(c, t_pow(k * (n - 1)), -2 * k)    # a_k = c'_k / (d^2k t^(k(n-1)))
              for k, c in enumerate(_gram(b, star), 1)]
    exps = [k * (n - k) for k in range(1, len(coeffs) + 1)]
    return GramSpectrum("generalized", kt, coeffs, exps)


def _monomials(pr):
    """e -> t^e in the polynomial ring pr."""
    zero, one = pr.base.zero, pr.base.one
    return lambda e: (zero,) * e + (one,)


def _shifted(a, kt):
    """(B, S', into) with A = B/d, S' = t^(n-1) B° over K[t], and
    into(num, den, k) the element d^k num/den of kt.  Over exactly Q, B
    is over Z[t], d is the lcm of A's denominators and into reduces over
    Z[t] before it makes den monic; otherwise d = 1 and into is kt.make."""
    if a.ring is QQ:
        pr = PolynomialRing(ZZ, "t")
        ints, d = _clear_denominators(a.entries)
        b = DenseMatrix(pr, a.rows, a.cols, [(x,) if x else () for x in ints])
        zt = FractionField(pr)

        def into(num, den, k):
            num, den = zt.make(num, den)
            lead = den[-1]
            scale = Fraction(d) ** k
            return (tuple(Fraction(c, lead) * scale for c in num),
                    tuple(Fraction(c, lead) for c in den))
    else:
        pr = kt.base
        b = a.with_ring(pr, pr.from_base)

        def into(num, den, k):
            return kt.make(num, den)
    t_pow = _monomials(pr)
    shift = a.cols - 1
    return b, _twisted_transpose(b, lambda e: t_pow(e + shift)), into


def _gram(a, star):
    """a_1..a_min(m,n) of det(I + Z A A*), read off the characteristic
    polynomial of A A*."""
    ring = a.ring
    cp = charpoly_berkowitz(mat_mul(a, star))
    return [cp.coeffs[k] if (a.rows - k) % 2 == 0 else ring.neg(cp.coeffs[k])
            for k in range(1, min(a.rows, a.cols) + 1)]


def rank_from_gram(g):
    """Largest r with a_r not (identically) zero."""
    for r in range(len(g.coefficients), 0, -1):
        if not g.ring.is_zero(g.coefficients[r - 1]):
            return r
    return 0


@dataclass
class PinvResult:
    matrix: DenseMatrix
    rank: int


def pinv_rank_r(a, r, mode="plain", tau=None):
    """Moore-Penrose inverse in rank r by the alternating Gram formula.

    mode 'plain' uses the transpose star over the base field; mode
    'generalized' works over K(t) (see the module docstring), or over K
    after the optional specialization t -> tau, which must avoid the
    zeros of a_r(t).  A negative r is a ValueError.
    """
    _check_rank(r)
    if mode == "plain":
        star = a.transpose()
    elif mode != "generalized":
        raise ValueError("mode must be 'plain' or 'generalized'")
    elif tau is not None:
        star = _star_at(a, tau)
    else:
        return _pinv_over_kt(a, r)
    ring = a.ring
    if r == 0:
        return PinvResult(DenseMatrix.zeros(ring, a.cols, a.rows), 0)
    num, ar = _pinv_formula(a, star, r)
    return PinvResult(num.scale(ring.inverse_of_unit(ar)), r)


def _check_rank(r):
    if r < 0:
        raise ValueError("rank r must be nonnegative, got %d" % r)


def _star_at(a, tau):
    """The star operator with t specialized at a base-field value tau."""
    ring = a.ring
    return _twisted_transpose(a, lambda e: ring.pow(tau, e) if e >= 0
                              else ring.inverse_of_unit(ring.pow(tau, -e)))


def _pinv_over_kt(a, r):
    """The generalized inverse over K(t), computed over K[t] (Z[t] for
    exactly Q) with one fraction per entry."""
    kt = rational_function_field(a.ring)
    if r == 0:
        return PinvResult(DenseMatrix.zeros(kt, a.cols, a.rows), 0)
    b, star, into = _shifted(a, kt)
    num, cr = _pinv_formula(b, star, r)
    return PinvResult(num.with_ring(kt, lambda x: into(x, cr, 1)), r)   # d N / c'_r


def _pinv_formula(a, star, r):
    """(N, a_r) with A^+ = N / a_r for 1 <= r: N is the alternating Gram
    sum (sum over i of (-1)^i a_(r-1-i) (A* A)^i) A*."""
    ring = a.ring
    n = a.cols
    ga = [ring.one] + _gram(a, star)                 # a_0..a_min
    if r >= len(ga) or ring.is_zero(ga[r]):
        raise GramCoefficientZero("a_%d is zero: rank < %d" % (r, r))
    gmat = mat_mul(star, a)          # A* A, n x n
    acc = DenseMatrix.zeros(ring, n, n)
    power = DenseMatrix.identity(ring, n)
    for i in range(r):
        coef = ga[r - 1 - i]
        if i % 2 == 1:
            coef = ring.neg(coef)
        acc = acc.add(power.scale(coef))
        if i < r - 1:
            power = mat_mul(power, gmat)
    return mat_mul(acc, star), ga[r]


def solve_uniform(a, v, r, mode="plain", tau=None):
    """X = pinv * V when A * pinv * V = V; Inconsistent otherwise.  The
    generalized mode without tau returns X over K(t) and checks over K[t]
    (see _solve_over_kt)."""
    if len(v) != a.rows:
        raise DimensionMismatch("rhs length %d for %d rows" % (len(v), a.rows))
    if mode == "generalized" and tau is None:
        x, consistent = _solve_over_kt(a, v, r)
    else:
        x = pinv_rank_r(a, r, mode, tau).matrix.apply(v)
        consistent = all(map(a.ring.eq, a.apply(x), v))
    if not consistent:
        raise Inconsistent("V is outside the column space at rank %d" % r)
    return x


def _solve_over_kt(a, v, r):
    """(X, whether A X = V) for the generalized inverse.  With A = B/d,
    V = W/e (d = e = 1 unless over exactly Q, where B and W are over Z)
    and A^+ = d N / c'_r, A X = V holds exactly when B (N W) = c'_r W
    over K[t], and X = d (N W) / (e c'_r) is one K(t) fraction per entry."""
    _check_rank(r)
    kt = rational_function_field(a.ring)
    if r == 0:
        return [kt.zero] * a.cols, all(map(a.ring.is_zero, v))
    b, star, into = _shifted(a, kt)
    num, cr = _pinv_formula(b, star, r)
    pr = b.ring
    if a.ring is QQ:
        ints, e = _clear_denominators(v)
        w, den = [(x,) if x else () for x in ints], pr.mul(cr, (e,))
    else:
        w, den = [pr.from_base(x) for x in v], cr
    y = num.apply(w)
    consistent = all(map(pr.eq, b.apply(y), [pr.mul(cr, x) for x in w]))
    return [into(x, den, 1) for x in y], consistent
