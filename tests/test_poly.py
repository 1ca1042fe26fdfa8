"""Polynomial and truncated-series kernels."""

import pytest

from exactla import poly
from exactla.errors import DegreeTooHigh, DftUnavailable, NonUnitConstantTerm, ZeroDivisor
from exactla.rings import QQ, ZZ, CountingRing, IntegersMod
from exactla.rng import Rng

F101 = IntegersMod(101)
FDFT = IntegersMod(12289)        # 12*2^10 + 1


def test_product_examples():
    one_plus = [1, 1]
    one_minus = [1, -1]
    assert poly.poly_mul(ZZ, one_plus, one_minus, "schoolbook") == [1, 0, -1]
    assert poly.poly_mul(ZZ, one_plus, one_minus, "karatsuba") == [1, 0, -1]


def test_strategies_agree_over_z_and_zp(rng):
    for _ in range(120):
        da = rng.int_between(0, 12)
        db = rng.int_between(0, 12)
        a = [rng.int_between(-9, 9) for _ in range(da + 1)]
        b = [rng.int_between(-9, 9) for _ in range(db + 1)]
        sc = poly.poly_mul(ZZ, a, b, "schoolbook")
        ka = poly.poly_mul(ZZ, a, b, "karatsuba")
        assert sc == ka
        ap = [x % 101 for x in a]
        bp = [x % 101 for x in b]
        assert (poly.poly_mul(F101, ap, bp, "schoolbook")
                == poly.poly_mul(F101, ap, bp, "karatsuba"))


def test_dft_matches_schoolbook_up_to_degree_256(rng):
    for deg in (3, 17, 64, 100, 256):
        a = [rng.below(12289) for _ in range(deg + 1)]
        b = [rng.below(12289) for _ in range(deg + 1)]
        assert (poly.dft_mul(FDFT, a, b)
                == poly.poly_mul(FDFT, a, b, "schoolbook"))


def test_dft_unavailable_over_z():
    with pytest.raises(DftUnavailable):
        poly.dft_mul(ZZ, [1, 2, 3], [4, 5, 6])


def test_karatsuba_multiplication_counts():
    # degree-3 inputs: exactly 3^2 = 9 multiplications; 33 total ops
    rng = Rng(77)
    cr = CountingRing(ZZ)
    a = [rng.int_between(1, 9) for _ in range(4)]
    b = [rng.int_between(1, 9) for _ in range(4)]
    poly.karatsuba_mul(cr, a, b)
    assert cr.stats.muls == 9
    assert cr.stats.total == 33
    for nu in (0, 1, 3):
        cr = CountingRing(ZZ)
        m = 1 << nu
        poly.karatsuba_mul(cr, [rng.int_between(1, 9) for _ in range(m)],
                           [rng.int_between(1, 9) for _ in range(m)])
        assert cr.stats.muls == 3 ** nu
        assert cr.stats.total == 7 * 3 ** nu - 8 * 2 ** nu + 2


# counted auto_mul above AUTO_KARATSUBA_DEGREE: (ring, length, OpStats
# fields, max_bits, the strategy it dispatches to).  Over Z/m the operands
# are a_i = i^2 + 1 and b_i = 3i + 2 mod m, over Z a_i = i - 16, b_i = 2i + 1.
AUTO_MUL_PINS = [
    (FDFT, 17, (576, 576, 703, 33, 0), 14, "dft"),
    (FDFT, 33, (1344, 1344, 1599, 65, 0), 14, "dft"),
    (IntegersMod(10007), 17, (502, 502, 243, 0, 0), 14, "karatsuba"),
    (IntegersMod(10007), 33, (1572, 1572, 729, 0, 0), 14, "karatsuba"),
    (IntegersMod(2), 33, (1572, 1572, 729, 0, 0), 1, "karatsuba"),
    (IntegersMod(12), 33, (1572, 1572, 729, 0, 0), 4, "karatsuba"),
    (ZZ, 33, (1572, 1572, 729, 0, 0), 17, "karatsuba"),
]


@pytest.mark.parametrize("inner, length, counts, bits, path", AUTO_MUL_PINS,
                         ids=lambda v: getattr(v, "name", None))
def test_counted_auto_mul_is_pinned(inner, length, counts, bits, path):
    if inner is ZZ:
        a = [i - 16 for i in range(length)]
        b = [2 * i + 1 for i in range(length)]
    else:
        a = [(i * i + 1) % inner.m for i in range(length)]
        b = [(3 * i + 2) % inner.m for i in range(length)]
    cr = CountingRing(inner, track_bits=True)
    assert poly.auto_mul(cr, a, b) == poly.schoolbook_mul(inner, a, b)
    s = cr.stats
    assert (s.adds, s.subs, s.muls, s.divs, s.exact_divs) == counts
    assert cr.max_bits == bits
    direct = CountingRing(inner)
    poly.poly_mul(direct, a, b, path)
    assert direct.stats == s


def test_series_inverse_examples():
    # 1/(1-z) at order 2
    assert poly.series_inverse(ZZ, [1, -1, 0], 2) == [1, 1, 1]
    assert poly.series_inverse(ZZ, [1, 0, 0, 0], 3) == [1, 0, 0, 0]
    assert poly.series_inverse(ZZ, [1, 1, 0, 0], 3) == [1, -1, 1, -1]
    # a constant term that is not a unit: 2 over Z and over Z/12, and zero
    # over the fields Z/7 and Q
    for ring, a in ((ZZ, [2, 1]), (IntegersMod(12), [2, 1]), (IntegersMod(7), [0, 1]),
                    (QQ, [QQ.zero, QQ.one])):
        with pytest.raises(NonUnitConstantTerm):
            poly.series_inverse(ring, a, 1)


def test_series_inverse_property(rng):
    for _ in range(1000):
        order = rng.int_between(0, 32)
        a = [rng.below(101) for _ in range(order + 1)]
        a[0] = rng.int_between(1, 100)
        inv = poly.series_inverse(F101, a, order)
        back = poly.series_mul(F101, a, inv, order)
        assert back == [1] + [0] * order


def test_reciprocal_examples():
    assert poly.reciprocal(ZZ, [1, 2], 1) == [2, 1]
    assert poly.reciprocal(ZZ, [0, 0, 1], 2) == [1]
    with pytest.raises(DegreeTooHigh):
        poly.reciprocal(ZZ, [1, 2, 3], 1)


def test_reciprocal_involution(rng):
    for _ in range(60):
        n = rng.int_between(0, 8)
        a = [rng.int_between(-9, 9) for _ in range(n + 1)]
        a[0] = rng.int_between(1, 9)       # nonzero constant term
        a = poly.strip(ZZ, a)
        assert poly.reciprocal(ZZ, poly.reciprocal(ZZ, a, n), n) == a


def _naive_toeplitz(ring, first_col, first_row, v):
    m, k = len(first_col), len(first_row)
    out = []
    for i in range(m):
        acc = ring.zero
        for j in range(k):
            d = i - j
            t = first_col[d] if d >= 0 else first_row[-d]
            acc = ring.add(acc, ring.mul(t, v[j]))
        out.append(acc)
    return out


def test_toeplitz_identity():
    col = [1, 0, 0]
    row = [1, 0, 0]
    assert poly.toeplitz_apply(ZZ, col, row, [5, -7, 9]) == [5, -7, 9]


def test_toeplitz_lower_triangular_is_truncated_product(rng):
    # lower-triangular Toeplitz of a's times column of b's = truncated a*b
    n = 5
    a = [rng.int_between(-9, 9) for _ in range(n)]
    b = [rng.int_between(-9, 9) for _ in range(n)]
    col = list(a)
    row = [a[0]] + [0] * (n - 1)
    got = poly.toeplitz_apply(ZZ, col, row, b)
    full = poly.poly_mul(ZZ, a, b, "schoolbook")
    full = full + [0] * (n - len(full))
    assert got == full[:n]


def test_toeplitz_random_against_naive(rng):
    for _ in range(40):
        m = rng.int_between(1, 6)
        k = rng.int_between(1, 6)
        col = [rng.below(101) for _ in range(m)]
        row = [col[0]] + [rng.below(101) for _ in range(k - 1)]
        v = [rng.below(101) for _ in range(k)]
        assert (poly.toeplitz_apply(F101, col, row, v)
                == _naive_toeplitz(F101, col, row, v))
    # the spec's 6x4 shape explicitly
    col = [rng.below(101) for _ in range(6)]
    row = [col[0]] + [rng.below(101) for _ in range(3)]
    v = [rng.below(101) for _ in range(4)]
    assert (poly.toeplitz_apply(F101, col, row, v)
            == _naive_toeplitz(F101, col, row, v))


def test_divmod_and_exact_div(rng):
    for _ in range(50):
        a = [rng.int_between(-9, 9) for _ in range(rng.int_between(1, 8))]
        b = [rng.int_between(-9, 9) for _ in range(rng.int_between(1, 4))]
        b = poly.strip(ZZ, b)
        if not b:
            continue
        b[-1] = 1          # monic divisor works over any ring
        q, r = poly.divmod_poly(ZZ, a, b)
        back = poly.add(ZZ, poly.poly_mul(ZZ, q, b, "schoolbook"), r)
        assert back == poly.strip(ZZ, a)
        assert len(r) < len(b) or not r
    for b in ([], [0], [0, 0]):         # the zero polynomial, stripped or not
        with pytest.raises(ZeroDivisor):
            poly.divmod_poly(ZZ, [1, 2], b)
        with pytest.raises(ZeroDivisor):
            poly.exact_div_poly(F101, [], b)
