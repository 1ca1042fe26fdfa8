"""Gram coefficients and Moore-Penrose rank-r inverses: the transpose
(formally real) case and the arbitrary-field generalization through the
t-twisted star operator."""

from dataclasses import dataclass

from .charpoly import charpoly_berkowitz
from .errors import DimensionMismatch, GramCoefficientZero, Inconsistent
from .matrix import DenseMatrix, mat_mul
from .rings import FractionField, PolynomialRing


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
    pr = kt.base

    def t_pow(e):
        mono = (pr.base.zero,) * abs(e) + (pr.base.one,)
        return kt.from_base(mono) if e >= 0 else (pr.one, mono)   # 1/t^-e is canonical
    return _twisted_transpose(a, t_pow)


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
        """(exponent e, ascending int-poly coefficients): a_k(t) = t^-e * poly."""
        if self.mode != "generalized":
            raise ValueError("laurent data only exists in generalized mode")
        return self.norm_exponents[k - 1], self.coefficients[k - 1]


def gram_coefficients(a, mode="plain"):
    """det(I + Z A A*) via the characteristic polynomial of A A*."""
    if mode == "plain":
        return GramSpectrum("plain", a.ring, _gram(a, a.transpose()), [])
    if mode != "generalized":
        raise ValueError("mode must be 'plain' or 'generalized'")
    akt, kt = embed_in_kt(a)
    exps = [k * (a.cols - k) for k in range(1, min(a.rows, a.cols) + 1)]
    return GramSpectrum("generalized", kt, _gram(akt, star_operator(akt)), exps)


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
    'generalized' works over K(t) (or over K after the optional
    specialization t -> tau, which must avoid the zeros of a_r(t)).
    """
    if mode == "plain":
        return _pinv_formula(a, a.transpose(), r)
    if mode != "generalized":
        raise ValueError("mode must be 'plain' or 'generalized'")
    if tau is not None:
        return _pinv_formula(a, _star_at(a, tau), r)
    akt, _ = embed_in_kt(a)
    return _pinv_formula(akt, star_operator(akt), r)


def _star_at(a, tau):
    """The star operator with t specialized at a base-field value tau."""
    ring = a.ring
    return _twisted_transpose(a, lambda e: ring.pow(tau, e) if e >= 0
                              else ring.inverse_of_unit(ring.pow(tau, -e)))


def _pinv_formula(a, star, r):
    ring = a.ring
    n = a.cols
    if r == 0:
        return PinvResult(DenseMatrix.zeros(ring, n, a.rows), 0)
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
    arinv = ring.inverse_of_unit(ga[r])
    return PinvResult(mat_mul(acc, star).scale(arinv), r)


def solve_uniform(a, v, r, mode="plain", tau=None):
    """X = pinv * V when A * pinv * V = V; Inconsistent otherwise."""
    if len(v) != a.rows:
        raise DimensionMismatch("rhs length %d for %d rows" % (len(v), a.rows))
    res = pinv_rank_r(a, r, mode, tau)
    ring = res.matrix.ring
    aa, vv = a, list(v)
    if ring is not a.ring:
        # generalized mode lifted the problem into K(t)
        aa, _ = embed_in_kt(a, ring)
        vv = [ring.from_base(ring.base.from_base(x)) for x in v]
    x = res.matrix.apply(vv)
    if any(not ring.eq(w, want) for w, want in zip(aa.apply(x), vv)):
        raise Inconsistent("V is outside the column space at rank %d" % r)
    return x
