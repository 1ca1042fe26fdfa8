"""Characteristic-polynomial algorithms: frozen examples, counts and
cross-algorithm agreement."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import charpoly_cofactor, random_int_matrix
from exactla import bench
from exactla import charpoly as cp
from exactla.errors import AdjointVanishes, DimensionMismatch, ExactDivisionFailed
from exactla.matrix import DenseMatrix, mat_mul
from exactla.rings import (QQ, ZZ, CountingRing, IntegersMod,
                           MultiPolynomialRing, PolynomialRing, QuotientRing,
                           RationalField, ring_from_string)
from exactla.rng import Rng

F = IntegersMod(10007)

ALL_Z = [cp.charpoly_berkowitz, cp.charpoly_chistov, cp.charpoly_leverrier,
         cp.charpoly_preparata_sarwate, cp.charpoly_bareiss_modified,
         cp.charpoly_interpolation, cp.charpoly_kaltofen, cp.charpoly_frobenius]


def test_identity_2x2_all():
    i2 = DenseMatrix.identity(ZZ, 2)
    want = (1, -2, 1)
    for fn in ALL_Z:
        assert fn(i2).coeffs == want, fn.__name__
    got, adj, inv = cp.charpoly_faddeev(i2)
    assert got.coeffs == want
    assert adj.eq(DenseMatrix.identity(ZZ, 2))
    assert inv.eq(DenseMatrix.identity(ZZ, 2))


def test_symbolic_2x2_berkowitz_and_bareiss():
    ring = MultiPolynomialRing(None, ("a", "b", "c", "d"))
    a, b, c, d = (ring.parse("1*%s^1" % v) for v in "abcd")
    m = DenseMatrix(ring, 2, 2, [a, b, c, d])
    for fn in (cp.charpoly_berkowitz, cp.charpoly_chistov,
               cp.charpoly_bareiss_modified, cp.charpoly_kaltofen):
        got = fn(m)
        assert got.coeffs[0] == ring.one
        assert got.coeffs[1] == ring.neg(ring.add(a, d))
        assert got.coeffs[2] == ring.sub(ring.mul(a, d), ring.mul(b, c)), fn.__name__


def test_diag_examples():
    d = DenseMatrix.from_rows(ZZ, [[1, 0], [0, 2]])
    got, adj, inv = cp.charpoly_faddeev(d)
    assert got.constant_term() == 2          # det
    assert adj.to_rows() == [[2, 0], [0, 1]]
    i3 = DenseMatrix.identity(ZZ, 3)
    lv = cp.charpoly_leverrier(i3)
    assert lv.coeffs == (-1, 3, -3, 1)        # -(X-1)^3
    d3 = DenseMatrix.from_rows(ZZ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    ip = cp.charpoly_interpolation(d3)
    assert ip.coeffs == (-1, 6, -11, 6)       # -(X-1)(X-2)(X-3)


def test_n1_algorithms():
    one = DenseMatrix.from_rows(ZZ, [[5]])
    for fn in ALL_Z:
        got = fn(one)
        assert got.coeffs == (-1, 5), fn.__name__
    assert cp.charpoly_chistov(DenseMatrix.identity(ZZ, 1)).coeffs == (-1, 1)


def test_hessenberg_examples():
    a = DenseMatrix.from_rows(QQ, [[Fraction(1), Fraction(0), Fraction(1)],
                                   [Fraction(1), Fraction(1), Fraction(1)],
                                   [Fraction(0), Fraction(0), Fraction(1)]])
    got = cp.charpoly_hessenberg(a)
    want = charpoly_cofactor(QQ, a.to_rows())
    assert list(got.coeffs) == want == [-1, 3, -3, 1]
    i4 = DenseMatrix.identity(QQ, 4)
    assert cp.charpoly_hessenberg(i4).coeffs == (1, -4, 6, -4, 1)


def test_random_agreement_with_cofactor_oracle(rng):
    for n in range(1, 6):
        a = random_int_matrix(ZZ, rng, n, -9, 9)
        want = tuple(charpoly_cofactor(ZZ, a.to_rows()))
        for fn in ALL_Z:
            assert fn(a).coeffs == want, (fn.__name__, n)


def test_cross_agreement_zp(rng):
    for _ in range(10):
        n = rng.int_between(1, 12)
        a = DenseMatrix(F, n, n, [rng.below(10007) for _ in range(n * n)])
        ref = cp.charpoly_berkowitz(a)
        for fn in ALL_Z + [cp.charpoly_hessenberg]:
            assert fn(a).eq(ref), fn.__name__


def test_cross_agreement_quotient_ring(rng):
    helper = MultiPolynomialRing(7, ["x"])
    qr = QuotientRing(7, ["x"], [helper.parse("1*x^3+-1")])
    for _ in range(6):
        n = rng.int_between(1, 6)
        a = DenseMatrix(qr, n, n, [qr.random_element(rng) for _ in range(n * n)])
        ref = cp.charpoly_berkowitz(a)
        for fn in (cp.charpoly_chistov, cp.charpoly_bareiss_modified,
                   cp.charpoly_kaltofen, cp.charpoly_leverrier,
                   cp.charpoly_interpolation):
            assert fn(a).eq(ref), fn.__name__


def test_sparse_aware_variants_agree_and_save_muls(rng):
    n = 12
    entries = [0] * (n * n)
    placed = 0
    while placed < 2 * n:
        pos = rng.below(n * n)
        if entries[pos] == 0:
            entries[pos] = rng.int_between(1, 99)
            placed += 1
    cr = CountingRing(ZZ)
    a = DenseMatrix(cr, n, n, entries)
    dense = cp.charpoly_berkowitz(a)
    dense_muls = cr.stats.muls
    cr2 = CountingRing(ZZ)
    a2 = DenseMatrix(cr2, n, n, entries)
    sparse = cp.charpoly_berkowitz(a2, sparse_aware=True)
    assert sparse.eq(dense)
    assert cr2.stats.muls < dense_muls
    cr3 = CountingRing(ZZ)
    a3 = DenseMatrix(cr3, n, n, entries)
    assert cp.charpoly_chistov(a3, sparse_aware=True).eq(cp.charpoly_chistov(a))


def test_constant_term_is_determinant(rng):
    from exactla.elimination import det_fraction_free
    for _ in range(10):
        n = rng.int_between(1, 6)
        a = random_int_matrix(ZZ, rng, n, -9, 9)
        det = det_fraction_free(a)
        for fn in (cp.charpoly_berkowitz, cp.charpoly_chistov, cp.charpoly_kaltofen):
            assert fn(a).constant_term() == det


@pytest.mark.parametrize("spec", ["Z", "Q", "zp:7", "zp:12"])
@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 2)])
def test_determinant_of_a_non_square_matrix_is_a_dimension_mismatch(spec, rows, cols):
    # Z/12 has zero divisors, so determinant takes its Berkowitz fallback
    ring = ring_from_string(spec)
    a = DenseMatrix(ring, rows, cols, [ring.from_int(k + 1) for k in range(rows * cols)])
    with pytest.raises(DimensionMismatch, match="non-square"):
        cp.determinant(a)


def test_cayley_hamilton(rng):
    for _ in range(8):
        n = rng.int_between(1, 6)
        a = random_int_matrix(ZZ, rng, n, -9, 9)
        pc = cp.charpoly_berkowitz(a)
        acc = DenseMatrix.zeros(ZZ, n, n)
        pw = DenseMatrix.identity(ZZ, n)
        for k in range(n, -1, -1):
            acc = acc.add(pw.scale(pc.coeffs[k]))
            if k:
                pw = mat_mul(pw, a)
        assert acc.is_zero()


def test_newton_convert_examples():
    # P = X^2 - 3X + 2 (roots 1, 2): a = (3, -2), s = (3, 5)
    assert cp.newton_convert("coeffs_to_sums", [3, -2], 2, ZZ) == [3, 5]
    assert cp.newton_convert("sums_to_coeffs", [3, 5], 2, QQ) == [3, -2]
    assert cp.newton_convert("coeffs_to_sums", [7], 1, ZZ) == [7]
    assert cp.newton_convert("sums_to_coeffs", [7], 1, ZZ) == [7]


def test_newton_roundtrip_random(rng):
    for _ in range(20):
        n = 5
        a = [QQ.random_element(rng) for _ in range(n)]
        s = cp.newton_convert("coeffs_to_sums", a, n, QQ)
        back = cp.newton_convert("sums_to_coeffs", s, n, QQ)
        assert back == a


def test_preparata_sarwate_matrix_product_count(monkeypatch):
    calls = []
    real = cp.mat_mul
    monkeypatch.setattr(cp, "mat_mul", lambda x, y: calls.append(1) or real(x, y))
    rng = Rng(10)
    a = random_int_matrix(ZZ, rng, 9, -9, 9)
    got = cp.charpoly_preparata_sarwate(a)
    assert len(calls) == 3          # 2r - 3 products at r = 3
    assert got.eq(cp.charpoly_berkowitz(a))


def test_kaltofen_center_values():
    assert cp.kaltofen_center_vector(10) == [1, 1, 2, 3, 6, 10, 20, 35, 70, 126]
    c = cp.kaltofen_center_matrix(7)
    assert c[6] == [-1, 4, 6, -10, -5, 6, 1]
    for i in range(6):
        assert c[i][i + 1] == 1 and sum(map(abs, c[i])) == 1


FROB_7X7 = [[1, 5, 43, 683, 794, 206, 268],
            [-1, -2, -26, -458, -554, -148, -186],
            [0, 0, 1, 14, 18, 5, 6],
            [1, 3, 24, 387, 469, 125, 157],
            [1, 4, 21, 300, 357, 92, 119],
            [2, 5, 53, 888, 1082, 292, 363],
            [-7, -23, -163, -2547, -3074, -813, -1028]]


def test_frobenius_block_case_book_example():
    a = DenseMatrix.from_rows(ZZ, FROB_7X7)
    blocks = cp.frobenius_block_polynomials(a)
    # (X^2-5X-4)(X^3+2X^2-X-2)(X^2-5X-1), ascending coefficient lists
    assert blocks == [[-4, -5, 1], [-2, -1, 2, 1], [-1, -5, 1]]
    got = cp.charpoly_frobenius(a)
    pr = PolynomialRing(ZZ, "X")
    want = pr.mul(pr.mul((-4, -5, 1), (-2, -1, 2, 1)), (-1, -5, 1))
    want = tuple(-c for c in want)          # times (-1)^7
    assert tuple(got.ascending()) == want
    assert got.eq(cp.charpoly_berkowitz(a))


def test_frobenius_identity_degenerate():
    i3 = DenseMatrix.identity(ZZ, 3)
    assert cp.charpoly_frobenius(i3).coeffs == (-1, 3, -3, 1)
    assert cp.frobenius_block_polynomials(i3) == [[-1, 1]] * 3


def test_frobenius_block_polynomials_pinned():
    # the Krylov block triangularization, pinned before the incremental
    # echelon basis replaced the per-vector elimination
    one = [Fraction(-1), Fraction(1)]
    assert cp.frobenius_block_polynomials(DenseMatrix.identity(QQ, 4)) == [one] * 4
    derogatory = DenseMatrix.from_rows(QQ, [[Fraction(x) for x in row] for row in
                                            [[1, 2, 0, 0, 0], [0, 1, 0, 0, 0],
                                             [3, 0, 1, 0, 0], [0, 0, 0, 1, Fraction(1, 2)],
                                             [0, 0, 0, 0, -1]]])
    assert cp.frobenius_block_polynomials(derogatory) == [[1, -2, 1], one, one, [1, 1]]
    assert cp.frobenius_block_polynomials(bench.jou_matrix(5)) == [
        [(), (0, 0, 0, 0, -1400, 0, 1400, -1400, 0, 2800),
         (0, 300, 100, 8310, 2510, -1020, 3740, -200), (-225, -115, -1049, 80, -10), (1,)],
        [(), (1,)]]


@st.composite
def _z_matrices_e1_does_not_generate(draw):
    """Z matrices on which e_1 does not generate (so Frobenius takes its
    block chains): a k x k block repeated on the diagonal, bench group 5
    at n <= 12, or the zero matrix; and 1 x 1 matrices, where it does."""
    kind = draw(st.sampled_from(("repeated", "group5", "zero", "n1")))
    if kind == "group5":
        a = bench.generate_matrix(bench.BenchCase(5, draw(st.integers(2, 12)),
                                                  draw(st.integers(1, 50))))
        try:
            cp._frobenius_simple(a)
        except ExactDivisionFailed:
            return a
        return draw(st.nothing())
    if kind == "n1":
        return DenseMatrix.from_rows(ZZ, [[draw(st.integers(-99, 99))]])
    k = draw(st.integers(1, 4))
    n = k * draw(st.integers(2, 3))
    if kind == "zero":
        return DenseMatrix(ZZ, n, n, [0] * (n * n))
    block = draw(st.lists(st.lists(st.integers(-9, 9), min_size=k, max_size=k),
                          min_size=k, max_size=k))
    return DenseMatrix.from_rows(ZZ, [[block[i % k][j % k] if i // k == j // k else 0
                                       for j in range(n)] for i in range(n)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_z_matrices_e1_does_not_generate())
def test_frobenius_blocks_over_z_are_integral_and_monic(a):
    n = a.rows
    if n > 1:
        with pytest.raises(ExactDivisionFailed):
            cp._frobenius_simple(a)
    blocks = cp.frobenius_block_polynomials(a)
    pr = PolynomialRing(ZZ, "X")
    prod = pr.one
    for p in blocks:
        assert all(type(c) is int for c in p) and p[-1] == 1, p
        prod = pr.mul(prod, tuple(p))
    berkowitz = cp.charpoly_berkowitz(a)
    assert prod == tuple((-1) ** n * c for c in berkowitz.ascending())
    assert cp.charpoly_frobenius(a).digest() == berkowitz.digest()


class _BrokenInverse(RationalField):
    """Q whose inverse_of_unit fails with a programming error."""

    def inverse_of_unit(self, a):
        raise TypeError("broken inverse_of_unit")


def test_faddeev_inverse_lets_ring_bugs_propagate():
    a = DenseMatrix.from_rows(_BrokenInverse(), [[Fraction(2), Fraction(1)],
                                                 [Fraction(1), Fraction(1)]])
    with pytest.raises(TypeError):
        cp.charpoly_faddeev(a)
    # a singular matrix over Z/p: det is not a unit, so no inverse
    s = DenseMatrix.from_rows(F, [[1, 2], [2, 4]])
    assert cp.charpoly_faddeev(s)[2] is None


def test_faddeev_sequence_invariants(rng):
    # B_0 = I; B_k = A B_{k-1} - c_k I; A B_{n-1} = c_n I (and B_n = 0)
    n = 5
    a = random_int_matrix(ZZ, rng, n, -9, 9)
    bmats, cs = cp.faddeev_sequence(a)
    assert bmats[0].eq(DenseMatrix.identity(ZZ, n))
    for k in range(1, n + 1):
        prod = mat_mul(a, bmats[k - 1])
        want = DenseMatrix(ZZ, n, n, list(prod.entries))
        for i in range(n):
            want.entries[i * n + i] -= cs[k - 1]
        assert bmats[k].eq(want)
    assert bmats[n].is_zero()
    last = mat_mul(a, bmats[n - 1])
    assert last.eq(DenseMatrix.identity(ZZ, n).scale(cs[n - 1]))


def test_adjoint_from_charpoly(rng):
    i2 = DenseMatrix.identity(ZZ, 2)
    assert cp.adjoint_from_charpoly(i2, cp.charpoly_berkowitz(i2)).eq(i2)
    d = DenseMatrix.from_rows(ZZ, [[1, 0], [0, 2]])
    assert cp.adjoint_from_charpoly(d, cp.charpoly_berkowitz(d)).to_rows() == [[2, 0], [0, 1]]
    for _ in range(6):
        a = random_int_matrix(ZZ, rng, 5, -9, 9)
        pc = cp.charpoly_berkowitz(a)
        adj = cp.adjoint_from_charpoly(a, pc)
        det = pc.constant_term()
        want = DenseMatrix.identity(ZZ, 5).scale(det)
        assert mat_mul(a, adj).eq(want)
        assert mat_mul(adj, a).eq(want)


def test_eigenvector_examples():
    d = DenseMatrix.from_rows(ZZ, [[1, 0], [0, 2]])
    v = cp.eigenvector_simple(d, 2)
    assert v[0] == 0 and v[1] != 0
    swap = DenseMatrix.from_rows(ZZ, [[0, 1], [1, 0]])
    v = cp.eigenvector_simple(swap, 1)
    assert v[0] == v[1] != 0
    got = swap.apply(v)
    assert got == v
    with pytest.raises(AdjointVanishes):
        cp.eigenvector_simple(DenseMatrix.identity(ZZ, 2), 1)


def test_faddeev_inverse_over_q(rng):
    a = random_int_matrix(QQ, rng, 4, -9, 9)
    pc, adj, inv = cp.charpoly_faddeev(a)
    if inv is not None:
        assert mat_mul(a, inv).eq(DenseMatrix.identity(QQ, 4))


# ---------------------------------------------------------------------------
# instrumented operation counts (unit-level spot checks; the full table is
# exercised by the acceptance suite)

def _counted(fn, ring, n, seed=5):
    rng = Rng(seed)
    cr = CountingRing(ring)
    a = DenseMatrix(cr, n, n, [ring.from_int(rng.int_between(1, 99)) for _ in range(n * n)])
    fn(a)
    return cr.stats


def test_berkowitz_4x4_total_count():
    st = _counted(cp.charpoly_berkowitz, ZZ, 4)
    # literal sequential Berkowitz: (n^4 - 2n^3 + 5n^2)/2 - 2; the book's
    # Prop 2.6.1 estimate (91 at n=4) is not attainable by any faithful
    # implementation (it undercounts the 2x2 case below its minimum)
    assert st.total == 102
    assert cp.berkowitz_count(4) == 102


def test_chistov_stage1_count():
    st = _counted(lambda a: cp.chistov_diagonal_series(a), ZZ, 4)
    assert st.total == 4 * 4 * 5 * 15 // 6 == 200


def test_leverrier_count_matches_book():
    st = _counted(cp.charpoly_leverrier, QQ, 2)
    assert st.total == 12
    st = _counted(cp.charpoly_leverrier, QQ, 5)
    assert st.total == 2 * 5 * 9 * 17 // 2 == 765


def test_faddeev_count_corrected():
    st = _counted(lambda a: cp.charpoly_faddeev(a, compute_inverse=False), QQ, 3)
    assert st.total == cp.faddeev_count(3) == 75


def test_hessenberg_count_corrected():
    st = _counted(cp.charpoly_hessenberg, QQ, 3)
    assert st.total == cp.hessenberg_count(3) == 34


def test_frobenius_simple_count_corrected():
    st = _counted(lambda a: cp._frobenius_simple(a), ZZ, 3)
    assert st.total == cp.frobenius_simple_count(3) == 46
