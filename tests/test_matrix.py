"""Dense matrices, Strassen-Winograd, triangular inversion, file format."""

import pytest

from exactla.errors import DimensionMismatch, NotInvertibleDiagonal
from exactla.matrix import (DenseMatrix, format_matrix, mat_mul, parse_matrix,
                            triangular_inverse)
from exactla.rings import QQ, ZZ, CountingRing, IntegersMod, RationalField

F = IntegersMod(10007)


def _rand(ring, rng, rows, cols, bound=99):
    return DenseMatrix(ring, rows, cols,
                       [ring.from_int(rng.int_between(-bound, bound))
                        for _ in range(rows * cols)])


def test_identity_product(rng):
    a = _rand(ZZ, rng, 5, 5)
    i5 = DenseMatrix.identity(ZZ, 5)
    assert mat_mul(i5, a).eq(a)
    assert mat_mul(a, i5).eq(a)


def test_dimension_mismatch():
    a = DenseMatrix.zeros(ZZ, 2, 3)
    b = DenseMatrix.zeros(ZZ, 2, 3)
    with pytest.raises(DimensionMismatch):
        mat_mul(a, b)


def test_strassen_2x2_operation_counts(rng):
    cr = CountingRing(ZZ)
    a = _rand(cr, rng, 2, 2)
    b = _rand(cr, rng, 2, 2)
    mat_mul(a, b, "strassen", cutoff=1)
    assert cr.stats.muls == 7
    assert cr.stats.adds + cr.stats.subs == 15


def test_strassen_power_of_two_counts(rng):
    for nu in (1, 2, 3):
        n = 1 << nu
        cr = CountingRing(ZZ)
        a = _rand(cr, rng, n, n, 9)
        b = _rand(cr, rng, n, n, 9)
        mat_mul(a, b, "strassen", cutoff=1)
        assert cr.stats.muls == 7 ** nu
        assert cr.stats.total == 6 * 7 ** nu - 5 * 4 ** nu


def test_strassen_equals_classical_various_sizes(rng):
    for n in (1, 2, 3, 5, 8, 13, 16, 31):
        a = _rand(F, rng, n, n)
        b = _rand(F, rng, n, n)
        assert mat_mul(a, b, "strassen", cutoff=2).eq(mat_mul(a, b, "classical"))
    # rectangular through padding
    a = _rand(F, rng, 5, 9)
    b = _rand(F, rng, 9, 4)
    assert mat_mul(a, b, "strassen", cutoff=2).eq(mat_mul(a, b, "classical"))


def test_product_associativity(rng):
    for _ in range(10):
        a = _rand(F, rng, 4, 4)
        b = _rand(F, rng, 4, 4)
        c = _rand(F, rng, 4, 4)
        assert mat_mul(mat_mul(a, b), c).eq(mat_mul(a, mat_mul(b, c)))


def test_triangular_inverse_examples():
    i3 = DenseMatrix.identity(QQ, 3)
    assert triangular_inverse(i3, "lower").eq(i3)
    a = DenseMatrix.from_rows(ZZ, [[1, 0], [5, 1]])
    inv = triangular_inverse(a, "lower")
    assert inv.to_rows() == [[1, 0], [-5, 1]]


def test_triangular_inverse_multiply_back(rng):
    for side in ("lower", "upper"):
        for n in (1, 2, 3, 5, 8):
            rows = [[F.zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    inside = j <= i if side == "lower" else j >= i
                    if inside:
                        rows[i][j] = rng.below(10007)
                rows[i][i] = rng.int_between(1, 10006)
            t = DenseMatrix.from_rows(F, rows)
            inv = triangular_inverse(t, side)
            assert mat_mul(t, inv).eq(DenseMatrix.identity(F, n))
            assert mat_mul(inv, t).eq(DenseMatrix.identity(F, n))


def test_triangular_inverse_not_invertible():
    t = DenseMatrix.from_rows(ZZ, [[1, 0], [3, 2]])   # 2 not a unit of Z
    with pytest.raises(NotInvertibleDiagonal):
        triangular_inverse(t, "lower")


class _BrokenInverse(RationalField):
    """Q whose inverse_of_unit fails with a programming error."""

    def inverse_of_unit(self, a):
        raise TypeError("broken inverse_of_unit")


def test_triangular_inverse_lets_ring_bugs_propagate():
    t = DenseMatrix.from_rows(_BrokenInverse(), [[QQ.one, QQ.zero], [QQ.one, QQ.one]])
    with pytest.raises(TypeError):
        triangular_inverse(t, "lower")


def test_matrix_text_format_roundtrip(rng):
    mats = [
        _rand(ZZ, rng, 3, 4),
        _rand(F, rng, 2, 2),
        DenseMatrix.from_rows(QQ, [[QQ.parse("1/2"), QQ.parse("-3")],
                                   [QQ.parse("0"), QQ.parse("7/5")]]),
    ]
    from exactla.rings import PolynomialRing
    zx = PolynomialRing(ZZ, "x")
    mats.append(DenseMatrix(zx, 2, 2, [zx.random_element(rng, degree=2, bound=9)
                                       for _ in range(4)]))
    for m in mats:
        again = parse_matrix(format_matrix(m))
        assert again.rows == m.rows and again.cols == m.cols
        assert again.ring.name == m.ring.name
        assert all(m.ring.eq(x, y) for x, y in zip(m.entries, again.entries))
