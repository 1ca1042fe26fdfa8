"""Bulk ring hooks: every native override against the literal Ring
default it replaces, and whole algorithms run uncounted (native hooks)
against the same runs under CountingRing (literal defaults)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactla import charpoly, matrix, poly, registry, sequences
from exactla.elimination import det_field, gauss_lu
from exactla.errors import NotApplicable
from exactla.matrix import DenseMatrix
from exactla.rings import ZZ, CountingRing, IntegersMod, Ring
from exactla.rng import Rng

MODULI = (2, 12, 10007, 998244353, (1 << 61) - 1)


@st.composite
def residue_lists(draw, m, max_size=40):
    """Dense or mostly-zero residue lists, sometimes with trailing zeros."""
    value = st.integers(0, m - 1)
    if draw(st.booleans()):
        value = st.one_of(st.just(0), st.just(0), st.just(0), value)
    xs = draw(st.lists(value, max_size=max_size))
    return xs + [0] * draw(st.integers(0, 3))


@st.composite
def zp_operands(draw):
    ring = IntegersMod(draw(st.sampled_from(MODULI)))
    return ring, draw(residue_lists(ring.m)), draw(residue_lists(ring.m))


@settings(max_examples=300, deadline=None)
@given(zp_operands(), st.integers(0, 3))
def test_zp_dot_addmul_submul_match_literal(case, pick):
    ring, xs, ys = case
    c = [0, 1, ring.m - 1, (ring.m + 1) // 3][pick]
    assert ring.dot(xs, ys) == Ring.dot(ring, xs, ys)
    assert ring.addmul(ys, c, xs) == Ring.addmul(ring, ys, c, xs)
    assert ring.submul(ys, c, xs) == Ring.submul(ring, ys, c, xs)


@settings(max_examples=300, deadline=None)
@given(zp_operands(), st.one_of(st.none(), st.integers(0, 50)), st.booleans())
def test_zp_product_matches_literal(case, order, square):
    ring, a, b = case
    if square:
        b = a
    want = Ring.product(ring, a, b, order)
    assert ring.product(a, b, order) == want
    assert ring.product(tuple(a), tuple(b), order) == want
    if order is None:
        assert want == poly.auto_mul(ring, a, b)
    else:
        assert want == poly.truncated_mul(ring, a, b, order)


@pytest.mark.parametrize("m", MODULI)
def test_zp_product_edge_shapes(m):
    ring = IntegersMod(m)
    dense = [(7 * k + 1) % m for k in range(30)]
    sparse = [0] * 29 + [1]
    shapes = [[], [0], [0, 0], [1], [m - 1, 0, 0], dense, dense[:9] + [0, 0],
              sparse, [0, 1] + [0] * 20, dense[:12]]
    for a in shapes:
        for b in shapes:
            for order in (None, 0, 1, 5, 11, 29, 40, 70):
                assert ring.product(a, b, order) == Ring.product(ring, a, b, order), (a, b, order)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**70, 2**70), max_size=30),
       st.lists(st.integers(-2**70, 2**70), max_size=30),
       st.integers(-2**40, 2**40))
def test_integer_dot_addmul_submul_match_literal(xs, ys, c):
    assert ZZ.dot(xs, ys) == Ring.dot(ZZ, xs, ys)
    assert ZZ.addmul(ys, c, xs) == Ring.addmul(ZZ, ys, c, xs)
    assert ZZ.submul(ys, c, xs) == Ring.submul(ZZ, ys, c, xs)


@st.composite
def integer_lists(draw, max_size=40):
    """Dense or mostly-zero signed coefficient lists, sometimes with
    trailing zeros; coefficient sizes on both sides of the Kronecker
    bit cutoff."""
    bits = draw(st.sampled_from((1, 8, 64, 700, 1000)))
    value = st.integers(-2 ** bits, 2 ** bits)
    if draw(st.booleans()):
        value = st.one_of(st.just(0), st.just(0), st.just(0), value)
    xs = draw(st.lists(value, max_size=max_size))
    return xs + [0] * draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(integer_lists(), integer_lists(), st.one_of(st.none(), st.integers(0, 50)),
       st.booleans())
def test_integer_product_matches_literal(a, b, order, square):
    if square:
        b = a
    want = Ring.product(ZZ, a, b, order)
    assert ZZ.product(a, b, order) == want
    assert ZZ.product(tuple(a), tuple(b), order) == want


@pytest.mark.parametrize("bits", [1, 64, 700, 1000])
def test_integer_product_edge_shapes(bits):
    # the plain loop and the signed Kronecker product on every pairing of
    # shapes
    big = 2 ** bits - 1
    dense = [(-1) ** k * (big - 3 * k) for k in range(30)]
    sparse = [0] * 29 + [-big]
    shapes = [[], [0], [0, 0], [1], [-1], [-big, 0, 0], dense, dense[:9] + [0, 0],
              dense[:16], dense[:17] + [0], [abs(c) for c in dense], [-abs(c) for c in dense],
              sparse, [0, big] + [0] * 20, [big] + [0] * 15 + [big]]
    for a in shapes:
        for b in shapes:
            for order in (None, 0, 1, 5, 15, 16, 29, 40, 70):
                assert ZZ.product(a, b, order) == Ring.product(ZZ, a, b, order), (a, b, order)


def test_zp_product_reduces_operands_outside_the_residue_range():
    # a matrix built from raw ints hands the hook entries outside [0, m),
    # which the Kronecker slots are not sized for
    ring = IntegersMod(7)
    big = [1000] * 12
    for a, b in (([-1] * 12, [1] * 12), (big, big), (big, [-7 ** 20] * 15)):
        for order in (None, 3, 20):
            assert ring.product(a, b, order) == Ring.product(ring, a, b, order), (a, b, order)


def test_counting_ring_takes_the_literal_defaults():
    for inner in (IntegersMod(10007), ZZ):
        counted = CountingRing(inner)
        for hook in ("dot", "addmul", "submul", "product"):
            assert getattr(type(counted), hook) is getattr(Ring, hook)
        assert counted.dot([1, 2, 3], [4, 5, 6]) == 32
        assert (counted.stats.muls, counted.stats.adds) == (3, 2)


# ---------------------------------------------------------------------------
# differential: native hooks (uncounted) vs literal defaults (counted)

PRIMES = (7, 10007, (1 << 61) - 1)


def _matrix(ring, n, seed):
    rng = Rng(seed)
    return DenseMatrix(ring, n, n, [rng.below(ring.m) for _ in range(n * n)])


def _counted(m):
    return m.with_ring(CountingRing(m.ring, track_bits=True), lambda x: x)


@pytest.mark.parametrize("p", PRIMES)
def test_algorithms_agree_uncounted_and_counted(p):
    ring = IntegersMod(p)
    for n in range(1, 13):
        a = _matrix(ring, n, 1000 * p + n)
        for algo in registry.ALGORITHMS:
            try:
                assert algo.prepare(a) is a
            except NotApplicable:
                continue
            got = algo.run(a).coeffs
            assert got == algo.run(_counted(a)).coeffs, (algo.id, n)
        assert (sequences.wiedemann_minpoly(a, n) ==
                sequences.wiedemann_minpoly(_counted(a), n)), n
        assert det_field(a) == det_field(_counted(a)), n
        lu, counted_lu = gauss_lu(a), gauss_lu(_counted(a))
        assert (lu.L.entries, lu.U.entries, lu.rank_detected) == (
            counted_lu.L.entries, counted_lu.U.entries, counted_lu.rank_detected), n
        rng = Rng(n)
        lam = rng.below(p)
        assert (charpoly.eigenvector_simple(a, lam) ==
                charpoly.eigenvector_simple(_counted(a), lam)), n
        s = [1 + rng.below(p - 1)] + [rng.below(p) for _ in range(3 * n)]
        assert (poly.series_inverse(ring, s, 3 * n) ==
                poly.series_inverse(CountingRing(ring), s, 3 * n)), n
        assert (poly.divmod_poly(ring, s, s[:n + 1]) ==
                poly.divmod_poly(CountingRing(ring), s, s[:n + 1])), n


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", list(range(1, 13)) + [32])
def test_mat_mul_agrees_uncounted_and_counted(p, n):
    ring = IntegersMod(p)
    a, b = _matrix(ring, n, 3 * n), _matrix(ring, n, 3 * n + 1)
    for strategy in ("classical", "strassen"):
        got = matrix.mat_mul(a, b, strategy, 16).entries
        assert got == matrix.mat_mul(_counted(a), _counted(b), strategy, 16).entries
    assert a.apply(b.col(0)) == _counted(a).apply(b.col(0))
