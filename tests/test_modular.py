"""Hadamard bounds, CRT reconstruction, the modular charpoly pipeline."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_int_matrix
from exactla import charpoly as cp
from exactla import modular as md
from exactla.elimination import det_fraction_free
from exactla.errors import NoCandidateWithinBound, PrimePoolExhausted
from exactla.matrix import DenseMatrix
from exactla.rings import ZZ, IntegersMod, _is_probable_prime


def test_hadamard_examples():
    assert md.hadamard_bound(DenseMatrix.identity(ZZ, 5)) == 1
    assert md.hadamard_bound(DenseMatrix.from_rows(ZZ, [[3, 4], [0, 5]])) == 20
    # all-entries-M: column norms M sqrt(n), product M^n n^(n/2)
    for n, m in ((3, 7), (4, 2)):
        a = DenseMatrix(ZZ, n, n, [m] * (n * n))
        simplified = m ** n * md._ceil_pow_half(n)
        assert md.hadamard_bound(a) <= simplified


def test_hadamard_dominates_det(rng):
    for _ in range(20):
        n = rng.int_between(1, 6)
        a = random_int_matrix(ZZ, rng, n, -20, 20)
        assert abs(det_fraction_free(a)) <= md.hadamard_bound(a)


def test_coeff_bounds_cover_true_coefficients(rng):
    z = DenseMatrix.zeros(ZZ, 4, 4)
    b = md.charpoly_coeff_bound(z)
    assert all(x >= 0 for x in b.per_coeff)
    ident = DenseMatrix.identity(ZZ, 6)
    bi = md.charpoly_coeff_bound(ident)
    true = cp.charpoly_berkowitz(ident)
    for k in range(7):
        assert abs(true.coeffs[k]) <= bi.per_coeff[k] <= bi.global_bound or k == 0
    for _ in range(10):
        a = random_int_matrix(ZZ, rng, 5, -99, 99)
        bb = md.charpoly_coeff_bound(a)
        got = cp.charpoly_berkowitz(a)
        for k in range(6):
            assert abs(got.coeffs[k]) <= bb.per_coeff[k], k


def test_crt_examples():
    assert md.crt_reconstruct(md.ResidueSystem([3, 5], [1, 2]), 7) == 7
    assert md.crt_reconstruct(md.ResidueSystem([3, 5], [2, 4]), 2) == -1
    assert md.crt_reconstruct(md.ResidueSystem([11], [3]), 5) == 3
    assert md.crt_reconstruct(md.ResidueSystem([7, 11], [5, 3]), 38) == -30


def test_crt_roundtrip(rng):
    primes = list(md.PRIME_LADDER[:3])
    m = primes[0] * primes[1] * primes[2]
    for _ in range(50):
        bound = m // 2 - 1
        x = rng.int_between(-bound, bound)
        sys = md.ResidueSystem(primes, [x % p for p in primes])
        assert md.crt_reconstruct(sys, bound) == x


def test_crt_failures():
    with pytest.raises(NoCandidateWithinBound):
        md.crt_reconstruct(md.ResidueSystem([3, 5], [1, 2]), 100)  # product too small
    with pytest.raises(NoCandidateWithinBound):
        md.crt_reconstruct(md.ResidueSystem([4, 6], [1, 1]), 2)    # not coprime
    with pytest.raises(NoCandidateWithinBound):
        md.crt_reconstruct(md.ResidueSystem([7, 11], [5, 3]), 20)  # -30 is past the bound


def test_prime_ladder():
    # rung k is the largest prime below 2^(32k), for k = 2, 3, ...
    assert list(md.PRIME_LADDER) == sorted(set(md.PRIME_LADDER))
    for k, p in enumerate(md.PRIME_LADDER, 2):
        top = 1 << 32 * k
        assert top - (1 << 16) < p < top and _is_probable_prime(p), k
        if 32 * k <= 256:
            assert not any(_is_probable_prime(q) for q in range(p + 2, top, 2)), k


def test_select_primes_at_rung_boundaries():
    ladder = md.PRIME_LADDER
    assert md.select_primes(0) == [ladder[0]]
    for k in range(len(ladder) - 1):
        p = ladder[k]
        assert md.select_primes((p - 1) // 2) == [p]               # 2*bound = p - 1
        assert md.select_primes(Fraction(p, 2)) == [ladder[k + 1]]  # 2*bound = p
        assert md.select_primes((p + 1) // 2) == [ladder[k + 1]]
    top = ladder[-1]
    assert md.select_primes((top - 1) // 2) == [top]
    # past the top rung: rungs from the top down, then the smallest rung
    # that takes the product past 2*bound
    assert md.select_primes((top + 1) // 2) == [top, ladder[0]]
    x = top * ladder[3]
    assert md.select_primes((x - 1) // 2) == [top, ladder[3]]
    assert md.select_primes((x + 1) // 2) == [top, ladder[4]]
    x = top * ladder[-2] * ladder[5]
    assert md.select_primes((x - 1) // 2) == [top, ladder[-2], ladder[5]]
    assert md.select_primes((x + 1) // 2) == [top, ladder[-2], ladder[6]]
    capacity = math.prod(ladder)
    assert md.select_primes((capacity - 1) // 2) == list(reversed(ladder))
    with pytest.raises(PrimePoolExhausted):
        md.select_primes((capacity + 1) // 2)


def test_modular_identity():
    ident = DenseMatrix.identity(ZZ, 6)
    got = md.charpoly_modular(ident)
    want = [math.comb(6, k) * (-1) ** 6 * (-1) ** k for k in range(7)]
    assert list(got.coeffs) == want           # (1-X)^6 expanded, descending


def test_modular_matches_direct(rng):
    for _ in range(8):
        n = rng.int_between(1, 10)
        a = random_int_matrix(ZZ, rng, n, -99, 99)
        assert md.charpoly_modular(a).eq(cp.charpoly_berkowitz(a))


def test_modular_det(rng):
    for _ in range(5):
        a = random_int_matrix(ZZ, rng, 12, -99, 99)
        assert md.det_modular(a) == det_fraction_free(a)
        assert md.charpoly_modular(a).constant_term() == det_fraction_free(a)


def test_modular_with_a_singular_first_image(rng):
    # the last row is the sum of the first two plus p times a random row,
    # so det is a nonzero multiple of the top rung p: the first image is
    # singular, and the entries near p put the bound past the top rung, so
    # the CRT takes more rungs than p alone
    p = md.PRIME_LADDER[-1]
    for _ in range(3):
        a = random_int_matrix(ZZ, rng, 5, -99, 99)
        for j in range(5):
            a.entries[20 + j] = a.at(0, j) + a.at(1, j) + p * rng.int_between(-9, 9)
        det = det_fraction_free(a)
        assert det != 0 and det % p == 0
        primes = md.select_primes(md.hadamard_bound(a))
        assert primes[0] == p and len(primes) > 1
        image = DenseMatrix(IntegersMod(p), 5, 5, [x % p for x in a.entries])
        assert cp.determinant(image) == 0
        assert md.det_modular(a) == det
        berk = cp.charpoly_berkowitz(a)
        assert berk.constant_term() == det
        assert md.charpoly_modular(a).eq(berk)


@st.composite
def int_matrices(draw):
    """Square Z matrices, n <= 6, with entries of up to 600 bits: the
    bounds fall on either side of rung boundaries and past the top rung."""
    n = draw(st.integers(1, 6))
    bits = draw(st.integers(1, 600))
    entries = draw(st.lists(st.integers(-(1 << bits), 1 << bits), min_size=n * n, max_size=n * n))
    return DenseMatrix(ZZ, n, n, entries)


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_modular_matches_berkowitz_and_bareiss(a):
    assert md.charpoly_modular(a).eq(cp.charpoly_berkowitz(a))
    assert md.det_modular(a) == det_fraction_free(a)


def test_modular_at_rung_boundaries():
    # 1x1 [x] has bound |x| for both det and charpoly: |x| = (p-1)/2 is
    # the last bound one rung p serves, and (p+1)/2 takes the next rung
    # (or, for the top rung, two rungs and the CRT)
    for p in md.PRIME_LADDER[:3] + md.PRIME_LADDER[-2:]:
        for x in ((p - 1) // 2, (p + 1) // 2):
            for v in (x, -x):
                a = DenseMatrix(ZZ, 1, 1, [v])
                assert md.det_modular(a) == v
                assert md.charpoly_modular(a).eq(cp.charpoly_berkowitz(a))
