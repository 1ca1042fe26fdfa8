"""An independent oracle: characteristic polynomials and determinants over
Z, Q and Z/p checked against sympy (a test-only dependency)."""

from fractions import Fraction

import pytest

from exactla import charpoly, modular, registry
from exactla.matrix import DenseMatrix
from exactla.rings import QQ, ZZ, IntegersMod
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
    ran = 0
    for algo in registry.ALGORITHMS:
        lift, reason = algo.plan(a.ring, a.rows)
        if reason is not None:
            continue
        got = algo.run(a if lift is None else a.with_ring(*lift)).coeffs
        assert [back(c) for c in got] == want_coeffs, algo.id
        ran += 1
    assert ran == len(registry.ALGORITHMS)
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
