"""An independent oracle: characteristic polynomials and determinants over
Z, Q and Z/p, and the arithmetic of the multivariate and quotient entry
rings, checked against sympy (a test-only dependency)."""

from fractions import Fraction

import pytest

from exactla import charpoly, modular, registry
from exactla.errors import NotDivisible
from exactla.matrix import DenseMatrix
from exactla.multipoly import to_dict
from exactla.rings import (QQ, ZZ, IntegersMod, MultiPolynomialRing, QuotientRing,
                           ring_from_string)
from exactla.rng import Rng

sympy = pytest.importorskip("sympy")

P = 10007


def _sympy_charpoly(rows):
    """Descending coefficients of det(A - X*I) = (-1)^n det(X*I - A)."""
    n = len(rows)
    m = sympy.Matrix(rows)
    sign = -1 if n % 2 else 1
    return [sign * c for c in m.charpoly(sympy.Symbol("X")).all_coeffs()], m.det()


def _cases(ring, to_sympy, draw):
    for n in range(1, 7):
        for seed in range(3):
            rng = Rng(7919 * n + seed)
            entries = [draw(rng) for _ in range(n * n)]
            a = DenseMatrix(ring, n, n, entries)
            yield a, [[to_sympy(a.at(i, j)) for j in range(n)] for i in range(n)]


def _check_all_algorithms(a, want_coeffs, want_det, back):
    # every algorithm applies (prepare raises NotApplicable otherwise)
    for algo in registry.ALGORITHMS:
        got = algo.run(algo.prepare(a)).coeffs
        assert [back(c) for c in got] == want_coeffs, algo.id
    assert back(charpoly.determinant(a)) == want_det


def test_oracle_over_z():
    for a, rows in _cases(ZZ, sympy.Integer, lambda rng: rng.int_between(-20, 20)):
        coeffs, det = _sympy_charpoly(rows)
        _check_all_algorithms(a, coeffs, det, sympy.Integer)
        assert tuple(modular.charpoly_modular(a).coeffs) == tuple(coeffs)
        assert modular.det_modular(a) == det


def test_oracle_over_q():
    def draw(rng):
        return Fraction(rng.int_between(-9, 9), rng.int_between(1, 9))
    for a, rows in _cases(QQ, lambda q: sympy.Rational(q.numerator, q.denominator), draw):
        coeffs, det = _sympy_charpoly(rows)
        _check_all_algorithms(a, coeffs, det,
                              lambda q: sympy.Rational(q.numerator, q.denominator))


def test_oracle_over_zp():
    ring = IntegersMod(P)
    for a, rows in _cases(ring, sympy.Integer, lambda rng: rng.below(P)):
        coeffs, det = _sympy_charpoly(rows)
        _check_all_algorithms(a, [c % P for c in coeffs], det % P, sympy.Integer)


# ---------------------------------------------------------------------------
# multivariate entry rings (nested towers) against sympy's polynomials,
# compared as exponent dicts

def _sympy_poly(ring, a):
    gens = sympy.symbols(ring.vars)
    domain = sympy.ZZ if ring.p is None else sympy.GF(ring.p)
    return sympy.Poly.from_dict(to_dict(a, len(ring.vars)) or {(0,) * len(gens): 0},
                                *gens, domain=domain)


def _as_dict(expr, ring):
    d = sympy.Poly(expr, *sympy.symbols(ring.vars)).as_dict()
    if ring.p is not None:
        d = {e: int(c) % ring.p for e, c in d.items()}
    return {e: int(c) for e, c in d.items() if c}


QUOTIENTS = [
    (7, ["x"], ["1*x^3+-1"]),
    (11, ["x", "y"], ["1*x^2+-3", "1*y^2+-1*x^1"]),
    (17, ["y", "x"], ["1*y^3+-2*y^1+1", "1*x^5+-5*x^1*y^1+1"]),
    # the y-coefficients of the second generator are not reduced mod x^2 - 3
    (11, ["x", "y"], ["1*x^2+-3", "1*y^2+1*x^3*y^1+-1*x^1"]),
]


@pytest.mark.parametrize("p,varnames,ideal", QUOTIENTS)
def test_quotient_tower_against_sympy_reduced(p, varnames, ideal):
    helper = MultiPolynomialRing(p, varnames)
    qr = QuotientRing(p, varnames, [helper.parse(g) for g in ideal])
    gens = sympy.symbols(varnames)
    basis = [sympy.sympify(g.replace("^", "**")) for g in ideal]

    def normal_form(expr):
        # the triangular set is a lex Groebner basis with the last variable largest
        _, r = sympy.reduced(expr, basis, *gens[::-1], order="lex", modulus=p)
        return _as_dict(r, qr)

    rng = Rng(p)
    for _ in range(50):
        a, b = qr.random_element(rng), qr.random_element(rng)
        want = normal_form(_sympy_poly(helper, a).as_expr() * _sympy_poly(helper, b).as_expr())
        assert to_dict(qr.mul(a, b), len(varnames)) == want
    for _ in range(20):
        f = helper.random_element(rng, total_degree=9)
        want = normal_form(_sympy_poly(helper, f).as_expr())
        assert to_dict(qr.parse(helper.format(f)), len(varnames)) == want


@pytest.mark.parametrize("spec", ["Z[x,y]", "zp:11[x,y]", "Z[a,b,c]"])
def test_multipolynomial_ring_against_sympy_poly(spec):
    ring = ring_from_string(spec)
    k = len(ring.vars)
    rng = Rng(len(spec))
    for _ in range(30):
        a = ring.random_element(rng, total_degree=3, bound=20)
        b = ring.random_element(rng, total_degree=2, bound=20)
        sa, sb = _sympy_poly(ring, a), _sympy_poly(ring, b)
        ab = ring.mul(a, b)
        assert to_dict(ab, k) == _as_dict((sa * sb).as_expr(), ring)
        assert to_dict(ring.sub(a, b), k) == _as_dict((sa - sb).as_expr(), ring)
        if b:
            assert ring.exact_div(ab, b) == a
            _, rem = sa.div(sb, auto=False)       # over Z, not Q
            if rem.is_zero:
                assert to_dict(ring.exact_div(a, b), k) == _as_dict(
                    sa.exquo(sb, auto=False).as_expr(), ring)
            else:
                with pytest.raises(NotDivisible):
                    ring.exact_div(a, b)
