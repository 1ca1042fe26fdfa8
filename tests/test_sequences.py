"""Berlekamp-Massey, Hankel minimal polynomial, Wiedemann."""

import pytest

from conftest import minimal_polynomial_dense
from exactla import sequences as sq
from exactla.errors import (DimensionMismatch, RetriesExhausted, SingularHankelSystem,
                            ZeroSequence)
from exactla.matrix import DenseMatrix
from exactla.poly import divmod_poly
from exactla.rings import IntegersMod
from exactla.rng import Rng

F101 = IntegersMod(101)
F5 = IntegersMod(5)


def test_bm_examples():
    assert sq.berlekamp_massey(F101, [1, 2, 4, 8], 2) == [99, 1]         # X - 2
    fib = sq.berlekamp_massey(F101, [1, 1, 2, 3, 5, 8], 3)
    assert fib == [100, 100, 1]                                          # X^2 - X - 1
    assert sq.berlekamp_massey(F101, [1, 1], 1) == [100, 1]              # X - 1
    with pytest.raises(ZeroSequence):
        sq.berlekamp_massey(F101, [0, 0, 0, 0], 2)


def test_bm_fibonacci_has_no_degree_one_generator():
    fib = [1, 1, 2, 3, 5, 8]
    for c in range(101):
        # X - c generates iff a_{k+1} = c a_k for all k
        if all((c * fib[k]) % 101 == fib[k + 1] for k in range(5)):
            pytest.fail("degree-1 generator exists")
    got = sq.berlekamp_massey(F101, fib, 3)
    assert len(got) - 1 == 2
    assert sq.generates(F101, got, fib)


def _sequence_from_generator(ring, gen, init, length):
    d = len(gen) - 1
    seq = list(init)
    while len(seq) < length:
        acc = ring.zero
        for j in range(d):
            acc = ring.sub(acc, ring.mul(gen[j], seq[len(seq) - d + j]))
        seq.append(acc)
    return seq


def test_bm_recovers_constructed_generators(rng):
    for _ in range(80):
        d = rng.int_between(1, 6)
        gen = [rng.below(101) for _ in range(d)] + [1]
        init = [rng.below(101) for _ in range(d)]
        if all(x == 0 for x in init):
            init[0] = 1
        seq = _sequence_from_generator(F101, gen, init, 2 * d + 4)
        got = sq.berlekamp_massey(F101, seq, d + 2)
        assert sq.generates(F101, got, seq)
        assert len(got) - 1 <= d


def test_bm_minimality_exhaustive_small_fields():
    # every recurrent sequence over F5 with generator degree <= 4:
    # BM's output degree is minimal (checked by exhaustive search)
    rng = Rng(17)
    for _ in range(40):
        d = rng.int_between(1, 4)
        gen = [rng.below(5) for _ in range(d)] + [1]
        init = [rng.below(5) for _ in range(d)]
        if all(x == 0 for x in init):
            init[0] = 1
        seq = _sequence_from_generator(F5, gen, init, 2 * d + 2)
        got = sq.berlekamp_massey(F5, seq, d + 1)
        dd = len(got) - 1
        for smaller in range(1, dd):
            found = _exhaustive_generator(F5, seq, smaller)
            assert not found, (seq, got)


def _exhaustive_generator(ring, seq, degree):
    import itertools
    for tail in itertools.product(range(5), repeat=degree):
        gen = list(tail) + [1]
        if sq.generates(ring, gen, seq):
            return gen
    return None


def test_hankel_matches_bm_examples_and_random(rng):
    for terms, bound in [([1, 2, 4, 8], 2), ([1, 1, 2, 3, 5, 8], 3), ([1, 1], 1)]:
        assert sq.hankel_minpoly(F101, terms, bound) == sq.berlekamp_massey(F101, terms, bound)
    for _ in range(150):
        d = rng.int_between(1, 5)
        gen = [rng.below(101) for _ in range(d)] + [1]
        init = [rng.below(101) for _ in range(d)]
        if all(x == 0 for x in init):
            init[0] = 1
        p = d + 1
        seq = _sequence_from_generator(F101, gen, init, 2 * p)
        assert (sq.hankel_minpoly(F101, seq, p)
                == sq.berlekamp_massey(F101, seq, p))


def test_hankel_rank_detection():
    geo = [1, 2, 4, 8, 16, 32]          # degree 1
    got = sq.hankel_minpoly(F101, geo, 3)
    assert got == [99, 1]
    fib = [1, 1, 2, 3, 5, 8]
    assert len(sq.hankel_minpoly(F101, fib, 3)) - 1 == 2
    with pytest.raises(ZeroSequence):
        sq.hankel_minpoly(F101, [0, 0, 0, 0], 2)
    with pytest.raises(SingularHankelSystem):      # rank 0, yet a nonzero term
        sq.hankel_minpoly(F101, [0, 0, 0, 1], 2)


def test_wiedemann_identity():
    i4 = DenseMatrix.identity(F101, 4)
    got = sq.wiedemann_minpoly(i4, seed=1)
    assert got == [100, 1]              # X - 1


def test_wiedemann_companion():
    # companion of X^3 + 2X + 1: minimal = characteristic
    c = DenseMatrix.from_rows(F101, [[0, 0, 100], [1, 0, 99], [0, 1, 0]])
    got = sq.wiedemann_minpoly(c, seed=3, retries=8, degree_target=3)
    assert got == [1, 2, 0, 1]


def test_wiedemann_divides_minimal_polynomial(rng):
    for _ in range(25):
        n = rng.int_between(1, 8)
        a = DenseMatrix(F101, n, n, [rng.below(101) for _ in range(n * n)])
        w = sq.wiedemann_minpoly(a, seed=rng.below(1 << 30))
        minp = minimal_polynomial_dense(a)
        _, rem = divmod_poly(F101, minp, w)
        assert rem == []                # w divides the true minimal polynomial


def test_wiedemann_retries_exhausted():
    z = DenseMatrix.zeros(F101, 3, 3)
    with pytest.raises(RetriesExhausted, match="no generator of degree >= 3 found in 2 tries"):
        sq.wiedemann_minpoly(z, seed=1, retries=2, degree_target=3)
    # retries=0 still makes one try, and the message counts it
    with pytest.raises(RetriesExhausted, match="no generator of degree >= 3 found in 1 tries"):
        sq.wiedemann_minpoly(z, seed=1, retries=0, degree_target=3)
    # without a target too: on the 1x1 zero matrix over Z/2 every try of
    # this seed samples u.v = 0, and the zero sequence has no generator
    with pytest.raises(RetriesExhausted) as exc:
        sq.wiedemann_minpoly(DenseMatrix.zeros(IntegersMod(2), 1, 1), seed=5)
    assert str(exc.value) == ("no generator found in 4 tries "
                              "(an all-zero sampled sequence has none)")


def test_wiedemann_rejects_a_non_square_matrix():
    for rows, cols in ((2, 3), (3, 2), (1, 2)):
        a = DenseMatrix(F101, rows, cols, list(range(rows * cols)))
        with pytest.raises(DimensionMismatch):
            sq.wiedemann_minpoly(a, seed=1)


def test_wiedemann_deterministic_seeding():
    a = DenseMatrix.from_rows(F101, [[3, 1, 0], [0, 3, 0], [0, 0, 5]])
    g1 = sq.wiedemann_minpoly(a, seed=11)
    g2 = sq.wiedemann_minpoly(a, seed=11)
    assert g1 == g2
