"""Pivot decompositions against multiply-back and brute-force oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _express_vec, cofactor_det
from exactla.elimination import (EchelonBasis, bunch_hopcroft, det_field,
                                 det_fraction_free, dodgson_hankel, gauss_lu,
                                 jordan_bareiss, jorbarsol, lup_surjective)
from test_pinv import _gauss_rank
from exactla.errors import (DimensionMismatch, ExactDivisionFailed, NotSurjective,
                            ZeroConnectedMinor)
from exactla.matrix import DenseMatrix, mat_mul
from exactla.rings import QQ, ZZ, IntegersMod, SeriesRing

F = IntegersMod(10007)

# the book's example matrix with rank 4
M3_ROWS = [[-73, -53, -30, 45, -58],
           [21, -54, -11, 0, -1],
           [72, -59, 52, -23, 77],
           [33, 55, 66, -15, 62],
           [-41, -95, -25, 51, -54],
           [14, 55, 35, -5, 25]]


def test_gauss_identity():
    i4 = DenseMatrix.identity(QQ, 4)
    f = gauss_lu(i4)
    assert f.L.eq(i4) and f.U.eq(i4) and f.rank_detected == 4


def test_gauss_2x2_derived():
    a = DenseMatrix.from_rows(QQ, [[Fraction(2), Fraction(1)], [Fraction(4), Fraction(3)]])
    f = gauss_lu(a)
    assert f.L.to_rows() == [[1, 0], [2, 1]]
    assert f.U.to_rows() == [[2, 1], [0, 1]]
    assert mat_mul(f.L, f.U).eq(a)


def test_gauss_m3_rank_and_multiply_back():
    a = DenseMatrix(QQ, 6, 5, [Fraction(x) for row in M3_ROWS for x in row])
    f = gauss_lu(a)
    assert f.rank_detected == 4
    assert mat_mul(f.L, f.U).eq(a)


def test_lup_swap_example():
    a = DenseMatrix.from_rows(F, [[0, 1], [1, 0]])
    f = lup_surjective(a)
    assert f.sign == -1
    assert f.multiply_back().eq(a)
    det = f.U.at(0, 0) * f.U.at(1, 1) % 10007 * (f.sign % 10007) % 10007
    assert det == 10006          # -1


def test_lup_rectangular_multiply_back():
    a = DenseMatrix.from_rows(QQ, [[Fraction(2), Fraction(1), Fraction(1)],
                                   [Fraction(0), Fraction(3), Fraction(4)]])
    f = lup_surjective(a)
    assert f.multiply_back().eq(a)


def test_lup_not_surjective():
    a = DenseMatrix.from_rows(QQ, [[Fraction(1), Fraction(2)],
                                   [Fraction(2), Fraction(4)]])
    with pytest.raises(NotSurjective):
        lup_surjective(a)


def test_bunch_hopcroft(rng):
    i4 = DenseMatrix.identity(F, 4)
    f = bunch_hopcroft(i4)
    assert f.multiply_back().eq(i4)
    for rows, cols in ((16, 16), (8, 12), (13, 20), (9, 9)):
        a = DenseMatrix(F, rows, cols, [rng.below(10007) for _ in range(rows * cols)])
        f = bunch_hopcroft(a)
        assert f.multiply_back().eq(a), (rows, cols)
        assert all(f.L.at(i, i) == 1 for i in range(rows))
        assert all(F.is_zero(f.L.at(i, j)) for i in range(rows) for j in range(i + 1, rows))
        assert all(F.is_zero(f.U.at(i, j)) for i in range(rows) for j in range(i))


def test_bunch_hopcroft_det_agrees_with_lup(rng):
    for n in (8, 16):
        a = DenseMatrix(F, n, n, [rng.below(10007) for _ in range(n * n)])
        f1 = bunch_hopcroft(a)
        f2 = lup_surjective(a)
        d1 = f1.sign % 10007
        d2 = f2.sign % 10007
        for i in range(n):
            d1 = d1 * f1.U.at(i, i) % 10007
            d2 = d2 * f2.U.at(i, i) % 10007
        assert d1 == d2


def test_jordan_bareiss_identity():
    i4 = DenseMatrix.identity(ZZ, 4)
    t = jordan_bareiss(i4)
    assert t.matrix.eq(i4)
    assert t.determinant() == 1
    singular = DenseMatrix.from_rows(ZZ, [[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert jordan_bareiss(singular).determinant() == 0
    with pytest.raises(DimensionMismatch):
        jordan_bareiss(DenseMatrix.from_rows(ZZ, [[1, 2, 3], [2, 4, 6]])).determinant()


def test_jordan_bareiss_book_row():
    a = DenseMatrix(ZZ, 6, 5, [x for row in M3_ROWS for x in row])
    t = jordan_bareiss(a)
    assert t.matrix.row(1)[:3] == [21, 5055, 1433]
    assert t.rank_detected == 4


def test_division_by_a_zero_divisor_is_exact_division_failed():
    z12 = IntegersMod(12)
    for decompose, rows in ((gauss_lu, [[2, 1], [1, 1]]),
                            (jordan_bareiss, [[2, 1, 1], [1, 1, 1], [1, 3, 1]])):
        with pytest.raises(ExactDivisionFailed, match="2 is a zero divisor mod 12"):
            decompose(DenseMatrix.from_rows(z12, rows))
    # a series pivot whose constant term is not a unit, over a field or not
    for base in (QQ, ZZ):
        s = SeriesRing(base, 2)
        z = (base.zero, base.one, base.zero)
        with pytest.raises(ExactDivisionFailed, match="not a unit"):
            det_fraction_free(DenseMatrix.from_rows(s, [[z, s.one, s.one], [s.one, z, s.one],
                                                        [s.one, s.one, z]]))


def test_jordan_bareiss_entries_are_bordered_minors(rng):
    for _ in range(6):
        n = 5
        rows = [[rng.int_between(-9, 9) for _ in range(n)] for _ in range(n)]
        a = DenseMatrix.from_rows(ZZ, rows)
        t = jordan_bareiss(a)
        r = t.rank_detected
        for i in range(n):
            for j in range(n):
                p = min(r, i, j)
                sub = [rows[k][:p] + [rows[k][j]] for k in range(p)] + \
                      [rows[i][:p] + [rows[i][j]]]
                want = cofactor_det(ZZ, sub)
                assert t.matrix.at(i, j) == want, (i, j, p)


def test_dodgson_hilbert_5():
    coeffs = [Fraction(1, k) for k in range(1, 10)]
    table = dodgson_hankel(coeffs, 5, 5, QQ)
    assert table.final_minor() == Fraction(1, 266716800000)


def test_dodgson_book_7x7():
    coeffs = [1, 7, 7, 1, 2, 2, 4, 3, 5, 3, 7, 2, 4]
    table = dodgson_hankel(coeffs, 7, 7, ZZ)
    assert table.final_minor() == 870
    assert table.row(2) == [-42, -42, 13, -2, 4, -10, 11, -16, 26, -43, 24]


def test_dodgson_1x1():
    table = dodgson_hankel([5], 1, 1, ZZ)
    assert table.row(0) == [1]
    assert table.row(1) == [5]
    assert table.final_minor() == 5


def test_dodgson_zero_minor_raises():
    # a_3 = 0 is the order-1 connected minor dividing the row-3 entry
    with pytest.raises(ZeroConnectedMinor):
        dodgson_hankel([1, 1, 0, 1, 1], 3, 3, ZZ)


def test_dodgson_agrees_with_bareiss_det(rng):
    done = 0
    while done < 10:
        coeffs = [rng.int_between(1, 30) for _ in range(9)]
        rows = [[coeffs[i + j] for j in range(5)] for i in range(5)]
        a = DenseMatrix.from_rows(ZZ, rows)
        try:
            table = dodgson_hankel(coeffs, 5, 5, ZZ)
        except ZeroConnectedMinor:
            continue
        assert table.final_minor() == det_fraction_free(a)
        done += 1


def test_jorbarsol_examples():
    a = DenseMatrix.from_rows(ZZ, [[1, 0, 2], [0, 1, 3]])
    assert jorbarsol(a) == [2, 3]
    b = DenseMatrix.from_rows(ZZ, [[1, 0, 0], [0, 1, 0]])
    assert jorbarsol(b) == [0, 0]


def test_jorbarsol_recovers_combination(rng):
    for _ in range(10):
        n = 4
        left = [[rng.int_between(-9, 9) for _ in range(n)] for _ in range(n)]
        want = [rng.int_between(-5, 5) for _ in range(n)]
        last = [sum(left[i][j] * want[j] for j in range(n)) for i in range(n)]
        rows = [left[i] + [last[i]] for i in range(n)]
        a = DenseMatrix.from_rows(ZZ, rows)
        try:
            got = jorbarsol(a)
        except Exception:
            continue           # occasionally not strongly regular
        assert got == want


def test_dets_agree_across_backends(rng):
    for n in range(1, 8):
        rows = [[rng.int_between(-9, 9) for _ in range(n)] for _ in range(n)]
        a = DenseMatrix.from_rows(ZZ, rows)
        want = cofactor_det(ZZ, rows)
        assert det_fraction_free(a) == want
        aq = a.with_ring(QQ, Fraction)
        assert det_field(aq) == want
        t = jordan_bareiss(a)
        if t.rank_detected == n or want == 0:
            if t.rank_detected == n:
                assert t.determinant() == want


def test_bareiss_never_leaves_z(rng):
    # strongly regular integer matrices: all exact divisions succeed
    ok = 0
    while ok < 500:
        n = rng.int_between(2, 5)
        rows = [[rng.int_between(-99, 99) for _ in range(n)] for _ in range(n)]
        a = DenseMatrix.from_rows(ZZ, rows)
        t = jordan_bareiss(a)       # raises ExactDivisionFailed on a bug
        if t.rank_detected == n:
            ok += 1
            assert all(isinstance(x, int) for x in t.matrix.entries)


@st.composite
def _low_rank_rows(draw):
    """(p, rows): m vectors of length n over Z/p spanned by r <= min(m, n)
    random generators, so most inputs are rank-deficient."""
    p = draw(st.sampled_from([2, 3, 7]))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 7))
    r = draw(st.integers(0, min(m, n)))
    residue = st.integers(0, p - 1)
    gens = [[draw(residue) for _ in range(n)] for _ in range(r)]
    rows = []
    for _ in range(m):
        coeffs = [draw(residue) for _ in range(r)]
        rows.append([sum(c * g[j] for c, g in zip(coeffs, gens)) % p for j in range(n)])
    return p, rows


@settings(max_examples=200, deadline=None)
@given(_low_rank_rows())
def test_echelon_basis_matches_gauss(case):
    p, rows = case
    ring = IntegersMod(p)
    basis = EchelonBasis(ring)
    inserted = []
    for v in rows:
        want = _express_vec(ring, inserted, v)
        assert basis.express(v) == want
        assert basis.insert(v) == want
        if want is None:
            inserted.append(v)
        assert basis.express(v) == _express_vec(ring, inserted, v)
    assert len(basis) == _gauss_rank(ring, DenseMatrix.from_rows(ring, rows))
