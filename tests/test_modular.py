"""Hadamard bounds, CRT reconstruction, the modular charpoly pipeline."""

import math

import pytest

from conftest import random_int_matrix
from exactla import charpoly as cp
from exactla import modular as md
from exactla.elimination import det_fraction_free
from exactla.errors import NoCandidateWithinBound
from exactla.matrix import DenseMatrix
from exactla.rings import ZZ, IntegersMod


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


def test_crt_roundtrip(rng):
    primes = list(md.PRIME_POOL[:3])
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


def test_prime_pool():
    assert len(md.PRIME_POOL) == 200
    assert len(set(md.PRIME_POOL)) == 200
    assert all(p < (1 << 61) for p in md.PRIME_POOL)
    from exactla.rings import _is_probable_prime
    assert all(_is_probable_prime(p) for p in md.PRIME_POOL[:10])


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
    # so det is a nonzero multiple of p = PRIME_POOL[0]: the first image is
    # singular, and the bound asks for more primes than p alone
    p = md.PRIME_POOL[0]
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
