"""Bulk ring hooks: every native override against the literal Ring
default it replaces, and whole algorithms run uncounted (native hooks)
against the same runs under CountingRing (literal defaults)."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactla import bench, charpoly, matrix, poly, registry, rings, sequences
from exactla import multipoly as mp
from exactla.elimination import det_field, gauss_lu
from exactla.errors import ExactDivisionFailed, ExactLAError, NotApplicable
from exactla.matrix import DenseMatrix
from exactla.pinv import rational_function_field
from exactla.rings import (QQ, ZZ, CountingRing, IntegersMod, MultiPolynomialRing, OpStats,
                           PolynomialRing, Ring, SeriesRing, ring_from_string)
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
def test_zp_dot_submul_match_literal(case, pick):
    ring, xs, ys = case
    c = [0, 1, ring.m - 1, (ring.m + 1) // 3][pick]
    assert ring.dot(xs, ys) == Ring.dot(ring, xs, ys)
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


@pytest.mark.parametrize("m", MODULI + (65521, 4294967291))
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
def test_integer_dot_submul_match_literal(xs, ys, c):
    assert ZZ.dot(xs, ys) == Ring.dot(ZZ, xs, ys)
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


@st.composite
def zp_matrices(draw):
    """(ring, a, b): a is r x k and b k x c, from single rows and
    columns up, sometimes all zero, sometimes with entries outside
    [0, m)."""
    m = draw(st.sampled_from(MODULI))
    r, k, c = (draw(st.sampled_from((1, 2, 7, 8, 9, 13))) for _ in range(3))
    value = draw(st.sampled_from((st.just(0), st.integers(0, m - 1),
                                  st.integers(-3 * m, 3 * m))))
    a = draw(st.lists(st.lists(value, min_size=k, max_size=k), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(value, min_size=c, max_size=c), min_size=k, max_size=k))
    return IntegersMod(m), a, b


@settings(max_examples=300, deadline=None)
@given(zp_matrices())
def test_zp_matmul_matches_literal(case):
    ring, a, b = case
    assert ring.matmul(a, b) == Ring.matmul(ring, a, b)


@pytest.mark.parametrize("m", MODULI + (65521, 4294967291))
def test_zp_matmul_edge_shapes(m):
    ring = IntegersMod(m)
    top = [[m - 1] * 16 for _ in range(16)]         # the widest slot sums
    ramp = [[(7 * i + j) * m - i for j in range(9)] for i in range(12)]
    shapes = [([[0]], [[0]]), ([[m - 1]], [[m - 1]]), ([[1] * 16], [[2]] * 16),
              ([[3]] * 16, [[5] * 16]), (top, top), (ramp, [r[:8] for r in ramp[:9]]),
              ([[0] * 8] * 8, top[:8]), ([[-1] * 10] * 8, [[-m] * 8] * 10)]
    for a, b in shapes:
        assert ring.matmul(a, b) == Ring.matmul(ring, a, b)


@st.composite
def zp_krylov_cases(draw):
    """(ring, a, v, k): a square of side len(v), k from 0 to 2*len(v),
    sometimes all zero, sometimes with entries outside [0, m)."""
    m = draw(st.sampled_from(MODULI + (7, 65521)))
    n = draw(st.sampled_from((1, 2, 5, 8, 13)))
    value = draw(st.sampled_from((st.just(0), st.integers(0, m - 1),
                                  st.integers(-3 * m, 3 * m))))
    a = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=n, max_size=n))
    v = draw(st.lists(value, min_size=n, max_size=n))
    return IntegersMod(m), a, v, draw(st.integers(0, 2 * n))


@settings(max_examples=300, deadline=None)
@given(zp_krylov_cases())
def test_zp_krylov_matches_literal(case):
    ring, a, v, k = case
    assert ring.krylov(a)(v, k) == Ring.krylov(ring, a)(v, k)


# (modulus, side, bytes per slot of the packed columns): every slot
# width, Z/2 and a composite modulus
@pytest.mark.parametrize("m, n, width", [(7, 5, 1), (7, 9, 2), (10007, 12, 4), (65521, 3, 8),
                                         (998244353, 16, 8), ((1 << 61) - 1, 6, 16),
                                         (2, 4, 1), (12, 7, 2)])
def test_zp_krylov_edge_shapes(m, n, width):
    assert rings._slot_format(n * (m - 1) ** 2)[0] == width
    ring = IntegersMod(m)
    top = [[m - 1] * n for _ in range(n)]           # the widest slot sums
    zero = [[0] * n for _ in range(n)]
    ramp = [[(7 * i + j) * m - i for j in range(n)] for i in range(n)]
    e1 = [1] + [0] * (n - 1)
    cases = [([[m - 1]], [m - 1], 0), ([[m - 1]], [m - 1], 4), ([[5 * m + 1]], [-1], 3),
             (top, e1, 0), (top, [m - 1] * n, 2 * n), (zero, [1] * n, 3), (top, [0] * n, 3),
             (ramp, [-m - 1] * n, n), (ramp, e1, 2 * n - 1)]
    for a, v, k in cases:
        assert ring.krylov(a)(v, k) == Ring.krylov(ring, a)(v, k), (a, v, k)


# (modulus, side, bytes per slot of the full-height packed columns): every
# slot width, the exact 9 bytes of Z/998244353 past n = 18, Z/2 and a
# composite modulus
KRYLOV_OPERATOR_WIDTHS = ((2, 6, 1), (7, 7, 1), (7, 13, 2), (12, 4, 2), (10007, 9, 4),
                          (65521, 5, 8), (998244353, 18, 8), (998244353, 19, 9),
                          ((1 << 61) - 1, 7, 16))
KRYLOV_SERIES_BASES = ("zp:10007", "zp:2305843009213693951", "Z", "zp:7[x]/1*x^3+-1", "Z[x]")


def _krylov_values(draw, ring):
    """A strategy for the entries of a matrix or vector over ring: all
    zero, mostly zero or dense, over Z/m sometimes outside [0, m); over a
    series ring, series of a drawn z-degree over the base's values."""
    if isinstance(ring, SeriesRing):
        base, order = ring.base, ring.order
        value = _krylov_values(draw, base)
        d = draw(st.integers(0, order))
        return st.lists(value, min_size=d + 1, max_size=d + 1).map(
            lambda cs: tuple(cs) + (base.zero,) * (order - d))
    if isinstance(ring, IntegersMod):
        m = ring.m
        value = draw(st.sampled_from((st.integers(0, m - 1), st.integers(-3 * m, 3 * m))))
    elif ring is ZZ:
        value = st.integers(-2 ** 70, 2 ** 70)
    elif ring is QQ:
        value = st.builds(Fraction, st.integers(-2 ** 40, 2 ** 40), st.sampled_from((1, 3, 2 ** 41)))
    elif type(ring) is PolynomialRing:
        value = zx_elements()
    elif ring._table is None:
        value = large_quotient_elements(ring)
    else:
        value = quotient_elements(ring)
    zero = st.just(ring.zero)
    return draw(st.sampled_from((zero, st.one_of(zero, zero, value), value)))


@st.composite
def krylov_operator_cases(draw):
    """(ring, rows, sparse, runs): a square matrix over Z/m with a
    modulus and side from KRYLOV_OPERATOR_WIDTHS, over Z of side 1..12
    (all-zero, mostly-zero and dense draws reach both sides of Z's
    density rule), over Q, over a quotient ring with a table or one past
    FLAT_TABLE_MAX (the Ring default over a native dot), or over a series
    ring; the sparse flag; and one run (v, k) on each leading block
    r = 0..n, k from 0 to 2r+1, v sometimes zero."""
    kind = draw(st.sampled_from(("zp", "Z", "Q", "quotient", "series")))
    if kind == "zp":
        m, n, width = draw(st.sampled_from(KRYLOV_OPERATOR_WIDTHS))
        assert rings._slot_format(n * (m - 1) ** 2)[0] == width
        ring = IntegersMod(m)
    elif kind == "Z":
        ring, n = ZZ, draw(st.integers(1, 12))
    elif kind == "Q":
        ring, n = QQ, draw(st.integers(1, 8))
    elif kind == "quotient":
        ring = draw(st.sampled_from((_quotient_pair(QUOTIENT_SPECS[1])[0],
                                     LARGE_QUOTIENTS["zp:7[x]/1*x^363+3*x^5+-1"])))
        n = draw(st.integers(1, 6 if ring._table is not None else 3))
    else:
        ring = SeriesRing(ring_from_string(draw(st.sampled_from(KRYLOV_SERIES_BASES))),
                          draw(st.integers(1, 4)))
        n = draw(st.integers(1, 5))
    value = _krylov_values(draw, ring)
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=n, max_size=n))
    sparse = draw(st.booleans())
    runs = []
    for r in range(n + 1):
        v = draw(st.one_of(st.just([ring.zero] * r), st.lists(value, min_size=r, max_size=r)))
        runs.append((v, draw(st.integers(0, 2 * r + 1))))
    return ring, rows, sparse, runs


@settings(max_examples=200, deadline=None)
@given(krylov_operator_cases())
def test_krylov_operator_matches_the_default_on_every_leading_block(case):
    # one operator per matrix, run on every leading block: the native
    # runs, the Ring default with the same flag, the dense default, and the
    # default on the block sliced out as a square all agree
    ring, rows, sparse, runs = case
    run = ring.krylov(rows, sparse)
    literal, dense = Ring.krylov(ring, rows, sparse), Ring.krylov(ring, rows)
    for v, k in runs:
        r = len(v)
        want = Ring.krylov(ring, [row[:r] for row in rows[:r]])(v, k)
        assert run(v, k) == literal(v, k) == dense(v, k) == want, (r, k)


@pytest.mark.parametrize("extra", [False, True])
def test_integer_krylov_at_half_density_and_empty_runs(extra):
    # Z picks its path once per matrix: this 4x4 matrix holds exactly 8
    # nonzeros, at the density rule's edge (the flat pass, sparse flag or
    # not), or 9 with extra (the Ring default, sparse flag or not)
    rows = [[1, 0, -2, 0], [0, 3, 0, -4], [2 ** 70, 0, -6, 0], [0, 7, 0, 8]]
    rows[3][0] = -5 if extra else 0
    owner = Ring if extra else rings.IntegerRing
    v = [3, -1, 2 ** 65, 4]
    for sparse in (False, True):
        run = ZZ.krylov(rows, sparse)
        assert run.__qualname__ == owner.krylov.__qualname__ + ".<locals>.run"
        for r in range(5):
            assert run(v[:r], 6) == Ring.krylov(ZZ, [row[:r] for row in rows[:r]])(v[:r], 6), r
        assert run(v, 0) == [v]
        assert run([], 3) == [[]] * 4


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integer_krylov_on_every_leading_block_of_a_group5_matrix(seed):
    # 2n nonzeros in n x n: most leading blocks take the flat pass, with
    # nonzeros past column r in their rows that a run must not read
    rows = bench.generate_matrix(bench.BenchCase(5, 12, seed)).to_rows()
    rng = Rng(seed)
    for sparse in (False, True):
        run = ZZ.krylov(rows, sparse)
        for r in range(13):
            v = [rng.int_between(-2 ** 70, 2 ** 70) for _ in range(r)]
            assert run(v, r + 1) == Ring.krylov(ZZ, [row[:r] for row in rows[:r]])(v, r + 1), r


def _support_dot(ring, row, v, cols):
    """row . v over the columns cols (ascending) below len(v), one scalar
    mul and add at a time: the loop that the sparse path of the Ring
    krylov default replaced, kept as its oracle."""
    acc = None
    for k in cols:
        if k >= len(v):
            break
        t = ring.mul(row[k], v[k])
        acc = t if acc is None else ring.add(acc, t)
    return ring.zero if acc is None else acc


# a 5x5 support: an empty row, rows with nonzeros at and past every r
# (column r is the first a run on the leading r x r block must not read),
# a full row and a lone entry
SUPPORT_PATTERN = ("x.x.x", ".....", "xx..x", "...xx", "x.xxx")


@pytest.mark.parametrize("spec", ["Z", "Q", "zp:7", "Z[x]", "zp:7[x]/1*x^3+-1"])
def test_krylov_support_runs_count_the_scalar_loop(spec):
    # on a counted ring the gathered dots of the Ring default make the
    # muls and adds of the scalar loop, on the same values in the same
    # order: equal iterates, OpStats and max_bits on every leading block
    inner, rng = ring_from_string(spec), Rng(11)

    def nonzero():
        while True:
            x = inner.random_element(rng)
            if not inner.is_zero(x):
                return x
    rows = [[nonzero() if c == "x" else inner.zero for c in p] for p in SUPPORT_PATTERN]
    support = [[j for j, c in enumerate(p) if c == "x"] for p in SUPPORT_PATTERN]
    v = [nonzero() for _ in range(5)]
    for r in range(6):
        for k in (0, 1, r + 1):
            got, want = CountingRing(inner, track_bits=True), CountingRing(inner, track_bits=True)
            iterates = got.krylov(rows, True)(v[:r], k)
            w, literal = v[:r], [v[:r]]
            for _ in range(k):
                w = [_support_dot(want, row, w, cols) for row, cols in zip(rows[:r], support)]
                literal.append(w)
            assert iterates == literal, (r, k)
            assert (got.stats, got.max_bits) == (want.stats, want.max_bits), (r, k)
            assert (got.stats.muls > 0) == (k > 0 and r > 0), (r, k)


def test_series_dot_counts_the_literal_stream_over_a_counted_tower():
    # a CountingRing directly under the series ring, and one under Z[x]
    # (bench group 4 counts Z inside Z[x]): both count the literal stream.
    # In the second case the z^1 terms of the second product cancel inside
    # its series mul (2 adds), and adding the two products costs no base
    # add: no z-coefficient is nonzero in both.
    cases = ((CountingRing(IntegersMod(7)), [(1, 2, 0), (3, 0, 0)], [(4, 5, 6), (1, 1, 1)],
              OpStats(adds=5, muls=8)),
             (PolynomialRing(CountingRing(ZZ)), [((1,), (), ()), ((1,), (1,), ())],
              [((), (5, 5, 5), ()), ((1, 1), (-1, -1), ())], OpStats(adds=2, muls=11)))
    for base, xs, ys, want in cases:
        counted = base if isinstance(base, CountingRing) else base.base
        got = SeriesRing(base, 2).dot(xs, ys)
        assert counted.stats == want
        counted.stats = OpStats()
        assert got == Ring.dot(SeriesRing(base, 2), xs, ys)
        assert counted.stats == want


# the series hooks Kaltofen runs: krylov split by powers of z over a base
# with a native dot, product and submul as one bivariate Kronecker product
# over exactly Z/p; everything else keeps the Ring default (the test name
# is older than krylov, which replaced the series matmul)
SERIES_BASES = ("zp:10007", "zp:998244353", "zp:2305843009213693951", "zp:7[x]/1*x^3+-1",
                "Z", "Z[x]")


def _series_shapes(base, order, seed):
    """Series elements for the hook tests: dense, Krylov-shaped (two
    nonzero z-coefficients, trailing zeros), zero, z^order alone, and
    the widest residues where the base is Z/m."""
    rng = Rng(seed)
    zero, one = base.zero, base.one
    top = base.m - 1 if isinstance(base, IntegersMod) else one
    return {
        "dense": lambda: tuple(base.random_element(rng) for _ in range(order + 1)),
        "krylov": lambda: (base.random_element(rng), base.random_element(rng)) + (zero,) * (order - 1),
        "zero": lambda: (zero,) * (order + 1),
        "z^order": lambda: (zero,) * order + (one,),
        "widest": lambda: (top,) * (order + 1),
    }


def _series_krylov_cases(base, order, seed):
    """(a, v, k) for krylov: a square of side len(v)."""
    shape = _series_shapes(base, order, seed)

    def mat(n, *kinds):
        return [[shape[kinds[(i + j) % len(kinds)]]() for j in range(n)] for i in range(n)]

    def vec(n, kind):
        return [shape[kind]() for _ in range(n)]
    yield mat(1, "dense"), vec(1, "dense"), 3
    for n in (2, 5):
        yield mat(n, "krylov"), vec(n, "dense"), 2 * n - 1    # Kaltofen's sequence
    yield mat(3, "zero"), vec(3, "dense"), 2
    yield mat(3, "krylov", "zero"), vec(3, "zero"), 2
    yield mat(3, "krylov", "z^order"), vec(3, "dense"), 3    # one entry of top degree
    yield mat(3, "widest"), vec(3, "widest"), 2
    yield mat(2, "dense"), vec(2, "dense"), 0
    yield [], [], 2


def _series_lists(base, order, seed):
    """Lists of series (polynomials in X over the series ring)."""
    shape = _series_shapes(base, order, seed)
    dense, zero, high = shape["dense"], shape["zero"], shape["z^order"]
    low = lambda: (base.zero, base.one) + (base.zero,) * (order - 1)     # z * z^order = 0
    yield from ([], [dense()], [zero()], [dense(), zero()], [zero(), dense()],
                [dense() for _ in range(5)], [dense(), shape["krylov"](), high()],
                [shape["widest"]() for _ in range(4)], [low()], [dense(), low()], [high()])


@pytest.mark.parametrize("spec", SERIES_BASES)
@pytest.mark.parametrize("order", [1, 2, 5, 9])
def test_series_matmul_product_submul_match_literal(spec, order):
    base = ring_from_string(spec)
    sr = SeriesRing(base, order)
    for seed in range(2):
        for a, v, k in _series_krylov_cases(base, order, seed):
            assert sr.krylov(a)(v, k) == Ring.krylov(sr, a)(v, k), (spec, a, v, k)
        lists = list(_series_lists(base, order, seed))
        for a in lists:
            for b in lists:
                want = Ring.product(sr, a, b)
                assert sr.product(a, b) == want, (spec, a, b)
                assert sr.product(a, b, 3) == Ring.product(sr, a, b, 3)
                for c in (a[:1] or [sr.zero]):
                    assert sr.submul(a, c, b) == Ring.submul(sr, a, c, b), (spec, a, c, b)
    # a product that vanishes mod z^(order+1) strips to the empty polynomial
    low = (base.zero, base.one) + (base.zero,) * (order - 1)
    high = (base.zero,) * order + (base.one,)
    assert sr.product([low], [high]) == [] == Ring.product(sr, [low], [high])
    assert sr.product([high, low], [high]) == []


def test_series_submul_fills_the_widest_slot():
    # over Z/7 at order 6 a submul slot sums 7 products of 6*6 and the y
    # added before unpacking: 258, past the one byte 7*36 alone needs
    sr = SeriesRing(IntegersMod(7), 6)
    ys, xs = [(6,) * 7, (6,) * 7], [(6,) * 7, (1,) * 7]
    assert sr.submul(ys, (1,) * 7, xs) == Ring.submul(sr, ys, (1,) * 7, xs)


def test_slot_format_rounds_up_to_struct_widths():
    # every packed Z/p product packs 1-, 2-, 4- or 8-byte slots through
    # struct, and exact widths only past 8 bytes
    bounds = (1, 255, 256, 2 ** 16, 2 ** 24 - 1, 2 ** 24, 2 ** 32, 2 ** 40, 2 ** 56,
              2 ** 64 - 1, 2 ** 64, 2 ** 72)
    assert [rings._slot_format(b) for b in bounds] == [
        (1, "B"), (1, "B"), (2, "H"), (4, "I"), (4, "I"), (4, "I"), (8, "Q"), (8, "Q"),
        (8, "Q"), (8, "Q"), (9, None), (10, None)]
    # 12-term products had exact 3-, 5-, 6- and 7-byte slots
    for m in (1009, 65537, 1048583, 16777213):
        ring, sr = IntegersMod(m), SeriesRing(IntegersMod(m), 4)
        a = [[(m - 1 - 3 * i * j) % m for j in range(12)] for i in range(12)]
        assert ring.product(a[0], a[1]) == Ring.product(ring, a[0], a[1])
        assert ring.matmul(a, a) == Ring.matmul(ring, a, a)
        xs = [tuple(row[:5]) for row in a]
        assert sr.product(xs, xs[:3]) == Ring.product(sr, xs, xs[:3])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_zp_series_product_and_submul_match_literal(data):
    m = data.draw(st.sampled_from(MODULI))
    order = data.draw(st.integers(0, 20))
    sr = SeriesRing(IntegersMod(m), order)
    series = st.lists(st.integers(0, m - 1), min_size=order + 1, max_size=order + 1).map(tuple)
    a = data.draw(st.lists(series, max_size=6))
    b = data.draw(st.lists(series, max_size=6))
    c = data.draw(series)
    assert sr.product(a, b) == Ring.product(sr, a, b)
    assert sr.submul(a, c, b) == Ring.submul(sr, a, c, b)


def test_series_hooks_stay_literal_over_a_counted_tower():
    # counted series hooks run the Ring defaults, so Kaltofen's counted
    # stream does not depend on them
    a = [[(1, 2, 0), (3, 0, 0)], [(0, 1, 0), (2, 2, 0)]]
    xs, ys, c = [(4, 5, 6), (1, 0, 0)], [(1, 1, 1), (0, 2, 0)], (1, 2, 3)
    calls = (("krylov", a), ("product", [c], xs), ("product", xs, ys), ("submul", ys, c, xs))
    for hook, *args in calls:
        counted, literal = CountingRing(IntegersMod(7)), CountingRing(IntegersMod(7))
        got = getattr(SeriesRing(counted, 2), hook)(*args)
        want = getattr(Ring, hook)(SeriesRing(literal, 2), *args)
        if hook == "krylov":        # the operator's run(v, k)
            got, want = got(xs, 3), want(xs, 3)
        assert got == want, hook
        assert counted.stats == literal.stats and counted.stats.muls > 0, hook


def test_series_krylov_splits_over_z_x_alone_among_the_polynomial_bases():
    # Z[x] over exactly ZZ splits (its dots are plain-int); a counted Z
    # below it, Q, Z[x,y] and Z/p[x] keep the Ring default
    split = [PolynomialRing(ZZ), MultiPolynomialRing(None, ("x",)), ZZ, IntegersMod(7)]
    default = [PolynomialRing(CountingRing(ZZ)), QQ, ZXY, ring_from_string("zp:10007[x]")]
    assert all(SeriesRing(base, 4)._split for base in split)
    assert not any(SeriesRing(base, 4)._split for base in default)


@st.composite
def rational_lists(draw, max_size=25):
    """Rational coefficient lists: zeros, negatives, trailing zeros and
    denominators up to 2^80."""
    num = st.integers(-2 ** 70, 2 ** 70)
    den = st.sampled_from((1, 1, 2, 3, 12, 2 ** 80 + 1, 3 ** 40))
    value = st.builds(Fraction, num, den)
    if draw(st.booleans()):
        value = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), value)
    xs = draw(st.lists(value, max_size=max_size))
    return xs + [Fraction(0)] * draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(rational_lists(), rational_lists(), st.one_of(st.none(), st.integers(0, 40)),
       st.booleans())
def test_rational_product_matches_literal(a, b, order, square):
    if square:
        b = a
    want = Ring.product(QQ, a, b, order)
    assert QQ.product(a, b, order) == want
    assert QQ.product(tuple(a), tuple(b), order) == want


def test_counting_ring_takes_the_literal_defaults():
    for inner in (IntegersMod(10007), ZZ):
        counted = CountingRing(inner)
        for hook in ("dot", "submul", "product", "matmul", "krylov"):
            assert getattr(type(counted), hook) is getattr(Ring, hook)
        assert counted.dot([1, 2, 3], [4, 5, 6]) == 32
        assert (counted.stats.muls, counted.stats.adds) == (3, 2)
    # a counted quotient counts one mul per scalar product, whatever the
    # flat form does inside it
    quotient = ring_from_string("zp:7[x]/1*x^3+-1")
    counted = CountingRing(quotient)
    xs, ys = [(1, 2), (3, 0, 1), ()], [(0, 1, 1), (5,), (2, 2, 2)]
    assert counted.dot(xs, ys) == quotient.dot(xs, ys)
    assert counted.stats == OpStats(adds=2, muls=3)
    # Z[x] over a counted Z is not over exactly ZZ: its three hooks make the
    # literal ops (one Z product per pair, one Z[x] add per sum), and give
    # what the plain-int hooks give
    xs, ys, c = [(1, 2), (), (3, 0, -1)], [(4, 5), (6,), (-7,)], (2, -1)
    for hook, args, stats in (("dot", (xs, ys), OpStats(adds=4, muls=7)),
                              ("submul", (ys, c, xs), OpStats(adds=3, subs=7, muls=10)),
                              ("product", (xs, ys), OpStats(adds=5, muls=20)),
                              ("product", (xs, ys, 1), OpStats(adds=1, muls=6))):
        counted = CountingRing(ZZ)
        got = getattr(PolynomialRing(counted), hook)(*args)
        assert got == getattr(PolynomialRing(ZZ), hook)(*args), hook
        assert counted.stats == stats, hook


# ---------------------------------------------------------------------------
# Z[x]: plain-int product, dot and submul over exactly ZZ

ZX_RINGS = (PolynomialRing(ZZ), MultiPolynomialRing(None, ("x",)))
ZXY = MultiPolynomialRing(None, ("x", "y"))


@st.composite
def zx_elements(draw):
    """Z[x] elements: zero, constants, short ones (either sign, up to
    2^70), mostly-zero ones, ones with 16 or more nonzero coefficients
    (IntegerRing.product's Kronecker branch) and long sparse ones such as
    x^300+1 (its loop)."""
    kind = draw(st.sampled_from(("zero", "constant", "short", "sparse", "dense", "long sparse")))
    bits = draw(st.sampled_from((3, 64, 70)))
    value = st.integers(-2 ** bits, 2 ** bits)
    nonzero = value.filter(bool)
    if kind == "zero":
        return ()
    if kind == "constant":
        return (draw(nonzero),)
    if kind == "short":
        return _stripped(ZZ, draw(st.lists(value, max_size=8)))
    if kind == "sparse":
        return _stripped(ZZ, draw(st.lists(st.one_of(st.just(0), st.just(0), value), max_size=24)))
    if kind == "dense":
        return tuple(draw(st.lists(nonzero, min_size=16, max_size=20)))
    return (draw(nonzero),) + (0,) * draw(st.integers(30, 299)) + (draw(nonzero),)


def _assert_zx_lists(got, want):
    # equal values, list lengths and types: lists of stripped tuples
    assert type(got) is list and got == want
    for x in got:
        assert type(x) is tuple and (not x or x[-1]), x


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_zx_hooks_match_literal(data):
    ring = data.draw(st.sampled_from(ZX_RINGS))
    elements = st.lists(zx_elements(), max_size=5)
    a = data.draw(elements) + [()] * data.draw(st.integers(0, 2))
    b = a if data.draw(st.booleans()) else data.draw(elements)
    order = data.draw(st.one_of(st.none(), st.integers(0, len(a) + len(b))))
    _assert_zx_lists(ring.product(a, b, order), Ring.product(ring, a, b, order))
    _assert_zx_lists([ring.dot(a, b)], [Ring.dot(ring, a, b)])
    c = data.draw(zx_elements())
    _assert_zx_lists(ring.submul(b, c, a), Ring.submul(ring, b, c, a))
    _assert_zx_lists(ring.submul(a, c, b), Ring.submul(ring, a, c, b))


def test_zx_hooks_edge_shapes():
    # every pairing of zero, constant, loop and Kronecker operands, at every
    # order up to past the product
    big = 2 ** 70 - 1
    dense = tuple((-1) ** k * (big - 3 * k) for k in range(16))
    shapes = [(), (1,), (-big,), (0, big), (-3, 0, 5), dense, dense[:15], dense + (0, 0, 1),
              (1,) + (0,) * 299 + (1,), (-big,) + (0,) * 40 + (big,)]
    lists = [[], [()], [(1,)], [dense], [dense, (), ()], shapes[:4], shapes[4:]]
    for ring in ZX_RINGS:
        for a in lists:
            for b in lists:
                for order in (None, 0, 1, 2, 3, 4, 6, 12):
                    _assert_zx_lists(ring.product(a, b, order), Ring.product(ring, a, b, order))
                _assert_zx_lists(ring.product(a, a), Ring.product(ring, a, a))
                _assert_zx_lists([ring.dot(a, b)], [Ring.dot(ring, a, b)])
                for c in ((), (1,), dense, shapes[8]):
                    _assert_zx_lists(ring.submul(a, c, b), Ring.submul(ring, a, c, b))


def test_zx_pairs_pack_where_integer_product_does(monkeypatch):
    # a pair takes the signed Kronecker product exactly when
    # IntegerRing.product would: 16 nonzero terms in the shorter operand
    calls = []
    real = rings._signed_kronecker
    monkeypatch.setattr(rings, "_signed_kronecker", lambda *args: calls.append(args) or real(*args))
    dense = tuple(range(1, 17))
    shapes = [(5,), dense, dense[:15], (0,) + dense, dense[:8] + (0,) + dense[8:],
              (1,) + (0,) * 299 + (1,), dense * 20]
    for x in shapes:
        for y in shapes:
            calls.clear()
            ZZ.product(x, y)
            want = len(calls)
            calls.clear()
            ZX_RINGS[0].dot([x], [y])
            assert len(calls) == want, (x, y)
            assert want == (min(len(x), len(y)) >= 16 and
                            min(x, y, key=len).count(0) <= min(len(x), len(y)) - 16)


@settings(max_examples=200, deadline=None)
@given(st.lists(zx_elements(), max_size=5), st.lists(zx_elements(), max_size=5),
       st.booleans())
def test_zxy_mul_matches_literal(a, b, square):
    # Z[x,y]'s mul is Z[x]'s product: against the Ring default of Z[x]
    a, b = _stripped(ZXY.base, a), _stripped(ZXY.base, b)
    if square:
        b = a
    got = ZXY.mul(a, b)
    assert type(got) is tuple and got == tuple(Ring.product(ZXY.base, a, b))
    assert all(type(x) is tuple and (not x or x[-1]) for x in got)


# counted runs over Z[x] (Jou, group 4, n = 4: Z counted under Z[x]) and
# Z[x,y] (group 2, n = 3: counted at the entry ring), pinned before Z[x]
# had its plain-int hooks: OpStats, max_bits and digest, counted and not
ZX_PINS = (
    (4, 4, "kaltofen", OpStats(35068, 2479, 41076, 0, 0), 45, "cc9ce311f4a13f51"),
    (4, 4, "chistov", OpStats(5367, 0, 6198, 0, 0), 37, "cc9ce311f4a13f51"),
    (4, 4, "bareiss_modified", OpStats(2920, 971, 4264, 0, 194), 19, "cc9ce311f4a13f51"),
    (2, 3, "kaltofen", OpStats(491, 157, 764, 3, 0), 35, "6e65ab1405745f80"),
    (2, 3, "chistov", OpStats(53, 0, 89, 1, 0), 26, "6e65ab1405745f80"),
    (2, 3, "bareiss_modified", OpStats(7, 25, 47, 0, 14), 32, "6e65ab1405745f80"),
)


@pytest.mark.parametrize("group, n, algo_id, stats, max_bits, digest", ZX_PINS)
def test_counted_zx_runs_are_pinned(group, n, algo_id, stats, max_bits, digest):
    case = bench.BenchCase(group, n, 1, algo_id)
    rec = bench.run_case(case)
    assert (rec.stats, rec.max_bits, rec.digest) == (stats, max_bits, digest)
    algo = registry.get(algo_id)
    assert algo.run(algo.prepare(bench.generate_matrix(case))).digest() == digest


# ---------------------------------------------------------------------------
# quotient rings: the flat products, reduced by the table or by _rem

QUOTIENT_SPECS = (
    "zp:7[x]/1*x^3+-1",
    "zp:11[x,y]/1*x^2+-3;1*y^2+-1*x^1",
    "zp:3[x,y,z]/1*x^2+1;1*y^2+-1*x^1;1*z^2+-1*y^1+1",
    "zp:5[x]/1*x^1+-2",                             # degree-1 generators
    "zp:7[x,y]/1*x^1+-3;1*y^3+-1*x^1",
    "zp:13[x,y]/1*x^3+2;1*y^1+-1*x^2",
    "zp:2[x]/1*x^4+1",                              # (x+1)^4: many zero divisors
    "zp:10007[x]/1*x^12+3*x^5+-1",                  # long flat forms: packed products
    "zp:2305843009213693951[x]/1*x^3+-5",           # slots wider than 8 bytes
    "zp:998244353[x,y]/1*x^2+-1;1*y^3+-1*x^1",
)


def _remainder_ring(spec):
    """The ring of spec with no table at any level: its flat products
    reduce by _rem, one level at a time."""
    saved, rings.FLAT_TABLE_MAX = rings.FLAT_TABLE_MAX, 0
    try:
        return ring_from_string(spec)
    finally:
        rings.FLAT_TABLE_MAX = saved


_QUOTIENT_PAIRS = {}


def _quotient_pair(spec):
    if spec not in _QUOTIENT_PAIRS:
        flat, remainder = ring_from_string(spec), _remainder_ring(spec)
        assert flat._table is not None and remainder._table is None
        _QUOTIENT_PAIRS[spec] = flat, remainder
    return _QUOTIENT_PAIRS[spec]


def quotient_elements(ring):
    """Reduced elements, often with zero coefficients, sometimes zero."""
    exps = list(mp.exponents_below(ring.degrees))
    coeff = st.one_of(st.just(0), st.just(0), st.integers(0, ring.p - 1))
    return st.lists(coeff, min_size=len(exps), max_size=len(exps)).map(
        lambda cs: mp.from_dict(dict(zip(exps, cs)), len(ring.vars)))


def _assert_hooks_literal(ring, a, b, c, xs, ys, order):
    """mul against _rem of the base product, and each hook against its
    Ring default."""
    assert ring.mul(a, b) == ring._rem(list(ring.base.product(a, b)))
    assert ring.product(xs, ys, order) == Ring.product(ring, xs, ys, order)
    assert ring.dot(xs, ys) == Ring.dot(ring, xs, ys)
    assert ring.submul(ys, c, xs) == Ring.submul(ring, ys, c, xs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quotient_hooks_match_the_remainder_reduction(data):
    flat, remainder = _quotient_pair(data.draw(st.sampled_from(QUOTIENT_SPECS)))
    element = quotient_elements(flat)
    a, b, c = data.draw(element), data.draw(element), data.draw(element)
    xs = data.draw(st.lists(element, max_size=7))
    ys = data.draw(st.lists(element, max_size=7))
    order = data.draw(st.one_of(st.none(), st.integers(0, 15)))
    for ring in (flat, remainder):
        _assert_hooks_literal(ring, a, b, c, xs, ys, order)


# rings that ring_from_string builds past FLAT_TABLE_MAX: one level with
# no table, and two levels with none at the top but one below (a case
# that FLAT_TABLE_MAX = 0 cannot build)
LARGE_QUOTIENTS = {spec: ring_from_string(spec) for spec in (
    "zp:7[x]/1*x^363+3*x^5+-1",
    "zp:11[x,y]/1*x^17+-3;1*y^17+-1*x^1",
)}


def large_quotient_elements(ring):
    """Dense random elements, or a few monomials anywhere (zero among
    them): drawing every coefficient would overrun hypothesis's buffer."""
    exps = list(mp.exponents_below(ring.degrees))
    sparse = st.dictionaries(st.sampled_from(exps), st.integers(1, ring.p - 1), max_size=4)
    return st.one_of(st.integers(0, 2 ** 32).map(lambda seed: ring.random_element(Rng(seed))),
                     sparse.map(lambda d: mp.from_dict(d, len(ring.vars))))


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_quotient_hooks_past_the_table_bound(data):
    ring = LARGE_QUOTIENTS[data.draw(st.sampled_from(sorted(LARGE_QUOTIENTS)))]
    assert ring._table is None and ring.span * ring.size > rings.FLAT_TABLE_MAX
    assert len(ring.vars) == 1 or ring.base._table is not None
    element = large_quotient_elements(ring)
    a, b, c = data.draw(element), data.draw(element), data.draw(element)
    xs = data.draw(st.lists(element, max_size=3))
    ys = data.draw(st.lists(element, max_size=3))
    order = data.draw(st.one_of(st.none(), st.integers(0, 4)))
    _assert_hooks_literal(ring, a, b, c, xs, ys, order)
    # zero, empty lists and single pairs
    zero = ring.zero
    for xs, ys in (([], []), ([a], []), ([a], [b]), ([zero, a], [b, zero])):
        _assert_hooks_literal(ring, a, zero, c, xs, ys, order)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quotient_dot_submul_on_short_and_unequal_inputs(data):
    # lengths 0, 1 and 2 and lists of unequal length take the same stacked
    # product as longer ones: one level, a two-level tower, and no table
    ring = data.draw(st.sampled_from((_quotient_pair(QUOTIENT_SPECS[0])[0],
                                      _quotient_pair(QUOTIENT_SPECS[1])[0],
                                      LARGE_QUOTIENTS["zp:7[x]/1*x^363+3*x^5+-1"])))
    element = quotient_elements(ring) if ring._table is not None else large_quotient_elements(ring)
    xs = data.draw(st.lists(element, max_size=2))
    ys = data.draw(st.lists(element, max_size=2))
    c = data.draw(element)
    for xs, ys in ((xs, ys), (ys, xs)):
        assert ring.dot(xs, ys) == Ring.dot(ring, xs, ys)
        assert ring.submul(ys, c, xs) == Ring.submul(ring, ys, c, xs)


def test_quotient_hooks_on_zero_divisors_and_zero():
    # (x-1)(x^2+x+1) = x^3-1, (x+1)^2 (x+1)^2 = x^4+1 over Z/2, and
    # (x-5)(x+5) = x^2-3 over Z/11 (in the lower level of the tower)
    cases = (("zp:7[x]/1*x^3+-1", (6, 1), (1, 1, 1)),
             ("zp:2[x]/1*x^4+1", (1, 0, 1), (1, 0, 1)),
             ("zp:11[x,y]/1*x^2+-3;1*y^2+-1*x^1", ((6, 1),), ((5, 1),)))
    for spec, a, b in cases:
        flat, remainder = _quotient_pair(spec)
        zero = flat.zero
        assert flat.mul(a, b) == remainder.mul(a, b) == zero
        for order in (None, 0, 1, 3):
            for xs, ys in (([a], [b]), ([a, a], [b, zero]), ([zero], [a]), ([], [a]), ([a], [])):
                want = remainder.product(xs, ys, order)
                assert flat.product(xs, ys, order) == want, (spec, xs, ys, order)
                assert want == ([] if order is None else [zero] * (order + 1))
        assert flat.dot([a, a], [b, b]) == zero
        assert flat.submul([a, b], a, [b, a]) == remainder.submul([a, b], a, [b, a])
        assert flat.submul([a], zero, [b]) == [a]
        assert flat.dot([], []) == flat.dot([a], []) == zero


def test_large_generator_flat_path_agrees_and_is_faster():
    # Berkowitz n=8 and 300 products over Z/7[x]/<x^64-1>: flat products
    # reduced by the table against the same reduced by _rem
    spec = "zp:7[x]/1*x^64+-1"
    case = bench.BenchCase(3, 8, 1, "", (("ideal", "1*x^64+-1"), ("p", "7"), ("vars", "x")))
    a = bench.generate_matrix(case)
    b = a.with_ring(_remainder_ring(spec), lambda x: x)
    rng = Rng(3)
    els = [a.ring.random_element(rng) for _ in range(301)]

    def best(run):
        out = []
        for _ in range(2):
            t0 = time.perf_counter()
            got = run()
            out.append(time.perf_counter() - t0)
        return got, min(out)

    def muls(ring):
        return lambda: [ring.mul(x, y) for x, y in zip(els, els[1:])]

    (flat_cp, flat_s), (rem_cp, rem_s) = (best(lambda: charpoly.charpoly_berkowitz(m))
                                          for m in (a, b))
    assert flat_cp.digest() == rem_cp.digest() == "eb040e78043da7c9"
    assert flat_s < rem_s
    (flat_p, flat_s), (rem_p, rem_s) = best(muls(a.ring)), best(muls(b.ring))
    assert flat_p == rem_p
    assert flat_s < rem_s


@st.composite
def polynomial_operands(draw):
    """(base, a, b): coefficient lists over Z, Z/7, Q or a quotient tower,
    of any lengths, sometimes with trailing zeros or cancelling terms."""
    kind = draw(st.sampled_from(("Z", "zp:7", "Q", "tower")))
    if kind == "tower":
        base = _quotient_pair("zp:11[x,y]/1*x^2+-3;1*y^2+-1*x^1")[0]
        value = quotient_elements(base)
    else:
        base = ring_from_string(kind)
        value = {"Z": st.integers(-5, 5), "zp:7": st.integers(0, 6),
                 "Q": st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))}[kind]
    a = draw(st.lists(value, max_size=6))
    b = draw(st.one_of(st.lists(value, max_size=6), st.just(list(a))))
    a += [base.zero] * draw(st.integers(0, 2))
    return base, a, b


def _stripped(base, x):
    x = list(x)
    while x and base.is_zero(x[-1]):
        x.pop()
    return tuple(x)


@settings(max_examples=300, deadline=None)
@given(polynomial_operands())
def test_polynomial_add_sub_neg_ring_laws(case):
    base, a, b = case
    ring = PolynomialRing(base)
    before = (list(a), list(b))
    for x, y in ((a, b), (b, a), (tuple(a), tuple(b))):
        s = ring.add(x, y)
        assert s == ring.add(y, x) == _stripped(base, s)
        assert ring.sub(s, y) == _stripped(base, x)
        assert ring.add(x, ring.neg(x)) == ring.zero
    assert (a, b) == before
    assert ring.neg(a) == tuple(base.neg(c) for c in a)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=6),
       st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=6))
def test_polynomial_add_sub_count_coefficientwise(a, b):
    """Exactly one base op per computed coefficient (a longer b's tail
    is subtracted from zero), no other op, and max_bits of those values."""
    for x, y in ((a, b), (b, a)):
        pad = [0] * abs(len(x) - len(y))
        xs, ys = (x + pad, y) if len(x) < len(y) else (x, y + pad)
        for op, want, made, stats in (
                ("add", [u + v for u, v in zip(xs, ys)], [u + v for u, v in zip(x, y)],
                 OpStats(adds=min(len(x), len(y)))),
                ("sub", [u - v for u, v in zip(xs, ys)], [u - v for u, v in zip(xs, y)],
                 OpStats(subs=len(y)))):
            ring = CountingRing(ZZ, track_bits=True)
            assert getattr(PolynomialRing(ring), op)(tuple(x), tuple(y)) == _stripped(ZZ, want)
            assert ring.stats == stats
            assert ring.max_bits == max((r.bit_length() for r in made), default=0)


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


# counted Kaltofen, pinned to the stream of the per-row series dot and the
# schoolbook v2*q it ran before the series hooks: OpStats, max_bits and
# digest at n = 5, 9 and 18 (n = 18 puts v2 past the Karatsuba cutoff of
# the Ring.product default, which v2*q must not reach)
KALTOFEN_PINS = (
    ("zp:10007", 5, OpStats(3553, 613, 4655, 5, 0), 14, "5bce0f2bc4497c0e"),
    ("zp:10007", 9, OpStats(34582, 3121, 40204, 9, 0), 14, "3a29654820296402"),
    ("zp:10007", 18, OpStats(518463, 22687, 558825, 18, 0), 14, "7a1b8b4fdfebbe21"),
    ("Z", 5, OpStats(3553, 613, 4610, 5, 0), 46, "03d7d936e63a5898"),
    ("Z", 9, OpStats(34402, 3121, 39871, 9, 0), 149, "28a4ad396d8d5f22"),
    ("Z", 18, OpStats(517203, 22687, 549375, 18, 0), 575, "de12ca49c10bddbc"),
)


@pytest.mark.parametrize("spec, n, stats, max_bits, digest", KALTOFEN_PINS)
def test_counted_kaltofen_is_pinned(spec, n, stats, max_bits, digest):
    ring = ring_from_string(spec)
    rng = Rng(100 + n)
    draw = (lambda: rng.int_between(-9, 9)) if ring is ZZ else (lambda: rng.below(ring.m))
    a = DenseMatrix(ring, n, n, [draw() for _ in range(n * n)])
    counted = CountingRing(ring, track_bits=True)
    got = charpoly.charpoly_kaltofen(a.with_ring(counted, lambda x: x))
    assert (counted.stats, counted.max_bits, got.digest()) == (stats, max_bits, digest)
    assert charpoly.charpoly_kaltofen(a).digest() == digest


# counted Krylov loops, pinned to the per-row dots they ran before the
# krylov hook: OpStats and max_bits (the dense loops on random matrices
# and, multiplying every zero, on a group-5 bench matrix; the sparse-aware
# ones on the same group-5 matrix), and each result
KRYLOV_ALGOS = {
    "berkowitz": lambda a: charpoly.charpoly_berkowitz(a).digest(),
    "berkowitz_sparse": lambda a: charpoly.charpoly_berkowitz(a, sparse_aware=True).digest(),
    "chistov": lambda a: charpoly.charpoly_chistov(a).digest(),
    "chistov_sparse": lambda a: charpoly.charpoly_chistov(a, sparse_aware=True).digest(),
    "frobenius_simple": lambda a: charpoly._frobenius_simple(a).digest(),
    "wiedemann": lambda a: sequences.wiedemann_minpoly(a, 5),
}
KRYLOV_PINS = (
    ("berkowitz", "zp:10007", 9, OpStats(1248, 0, 1504, 0, 0), 14, "5632f1e9ffffecf8"),
    ("berkowitz", "Z", 9, OpStats(1248, 0, 1504, 0, 0), 34, "6b8332a1784ad42a"),
    ("berkowitz_sparse", "group5", 14, OpStats(1060, 0, 1733, 0, 0), 82, "cde2f5e0ebb7b607"),
    ("chistov", "zp:10007", 5, OpStats(324, 0, 443, 1, 0), 14, "6d3f135a55dce3ef"),
    ("chistov", "Z", 9, OpStats(2774, 0, 3301, 1, 0), 49, "6b8332a1784ad42a"),
    ("chistov_sparse", "group5", 14, OpStats(2769, 0, 3955, 1, 0), 118, "cde2f5e0ebb7b607"),
    ("frobenius_simple", "zp:10007", 9, OpStats(576, 204, 1020, 0, 176), 14,
     "5632f1e9ffffecf8"),
    ("frobenius_simple", "Z", 5, OpStats(80, 30, 150, 0, 24), 47, "a99bbbe80948420e"),
    ("wiedemann", "zp:10007", 9, OpStats(1404, 387, 1972, 19, 0), 14,
     [8660, 9807, 2644, 1057, 3868, 4073, 8857, 1583, 9054, 1]),
    ("berkowitz", "group5", 14, OpStats(8008, 0, 8944, 0, 0), 82, "cde2f5e0ebb7b607"),
    ("chistov", "group5", 14, OpStats(14599, 0, 16331, 1, 0), 118, "cde2f5e0ebb7b607"),
)
# the path the sparse flag takes in the Ring default: a Q matrix with
# zeros (a last row with one nonzero below column m, and one with none),
# and a Z/10007 matrix with no zero, where the sparse-aware runs make the
# dense runs' products
SPARSE_KRYLOV_PINS = (
    ("berkowitz", "Q", 4, OpStats(38, 0, 64, 0, 0), 4, "1d5e63582526ec56"),
    ("berkowitz_sparse", "Q", 4, OpStats(20, 0, 45, 0, 0), 4, "1d5e63582526ec56"),
    ("chistov", "Q", 4, OpStats(154, 0, 225, 1, 0), 10, "1d5e63582526ec56"),
    ("chistov_sparse", "Q", 4, OpStats(94, 0, 165, 1, 0), 10, "1d5e63582526ec56"),
    ("berkowitz_sparse", "zp:10007", 9, OpStats(1248, 0, 1504, 0, 0), 14, "5632f1e9ffffecf8"),
    ("chistov_sparse", "zp:10007", 9, OpStats(2774, 0, 3301, 1, 0), 14, "5632f1e9ffffecf8"),
)
Q_PIN_ROWS = [[Fraction(1, 2), 0, 1, 0], [0, 2, 0, -3], [3, 0, -1, 0], [0, Fraction(1, 3), 0, 0]]


@pytest.mark.parametrize("algo, spec, n, stats, max_bits, result",
                         KRYLOV_PINS + SPARSE_KRYLOV_PINS)
def test_counted_krylov_loops_are_pinned(algo, spec, n, stats, max_bits, result):
    if spec == "group5":
        a = bench.generate_matrix(bench.BenchCase(5, n, 3))
    elif spec == "Q":
        a = DenseMatrix.from_rows(QQ, [[Fraction(x) for x in row] for row in Q_PIN_ROWS])
    else:
        ring = ring_from_string(spec)
        rng = Rng(200 + n)
        draw = (lambda: rng.int_between(-9, 9)) if ring is ZZ else (lambda: rng.below(ring.m))
        a = DenseMatrix(ring, n, n, [draw() for _ in range(n * n)])
    counted = CountingRing(a.ring, track_bits=True)
    got = KRYLOV_ALGOS[algo](a.with_ring(counted, lambda x: x))
    assert (counted.stats, counted.max_bits, got) == (stats, max_bits, result)
    assert KRYLOV_ALGOS[algo](a) == result


# counted Frobenius blocks, pinned to the per-row field dots of their
# Krylov steps before the krylov operator, and to one reduction of each
# chain's last vector: OpStats, max_bits and the block polynomials, over
# Z/10007 and over Z (counted in Q), on matrices that keep the span of
# e_1, e_2, e_3 invariant, so that e_1 does not generate
FROBENIUS_BLOCK_PINS = (
    ("zp:10007", 9, OpStats(803, 49, 933, 48, 0), 14,
     [[8771, 7687, 9674, 1], [9652, 4166, 3927, 5998, 5502, 4633, 1]]),
    ("Z", 7, OpStats(374, 15, 438, 31, 0), 23, [[1152, 46, 7, 1], [428, -183, 92, -16, 1]]),
)


@pytest.mark.parametrize("spec, n, stats, max_bits, result", FROBENIUS_BLOCK_PINS)
def test_counted_frobenius_blocks_are_pinned(spec, n, stats, max_bits, result):
    ring = ring_from_string(spec)
    rng = Rng(400 + n)
    draw = (lambda: rng.int_between(-9, 9)) if ring is ZZ else (lambda: rng.below(ring.m))
    rows = [[draw() for _ in range(n)] for _ in range(n)]
    for row in rows[3:]:
        row[:3] = [0, 0, 0]
    a = DenseMatrix.from_rows(ring, rows)
    with pytest.raises(ExactDivisionFailed):
        charpoly._frobenius_simple(a)
    counted = CountingRing(QQ if ring is ZZ else ring, track_bits=True)
    got = charpoly.frobenius_block_polynomials(a.with_ring(counted, counted.from_int))
    assert (counted.stats, counted.max_bits, got) == (stats, max_bits, result)
    assert charpoly.frobenius_block_polynomials(a) == result


# counted Hessenberg, pinned to the interleaved stream (one row submul and
# one mul and add per column entry for each eliminated row, one mul and add
# per coefficient of each earlier p_k) that
# every ring without a native dot keeps: OpStats, max_bits and digest of
# bench.run_case (Z input lifted to Q) on group-1 and group-5 matrices,
# and over Z/10007 on random and group-5 matrices (skipped columns, row
# swaps and zero multipliers)
HESSENBERG_Q_PINS = (
    (1, 8, 1, OpStats(252, 140, 456, 21, 0), 444, "a95035f3348ca6ea"),
    (1, 12, 1, OpStats(946, 506, 1596, 55, 0), 1170, "95d4f917a5c0ae7a"),
    (1, 16, 2, OpStats(2344, 1225, 3825, 104, 0), 2374, "9737bd09e9101da3"),
    (1, 20, 2, OpStats(4750, 2470, 7620, 171, 0), 3904, "5f9b59f19a0bd757"),
    (5, 8, 1, OpStats(140, 59, 263, 7, 0), 73, "0355cb07af43d72a"),
    (5, 12, 2, OpStats(466, 185, 795, 15, 0), 168, "36636ae00f37002d"),
    (5, 16, 2, OpStats(1096, 409, 1761, 26, 0), 118, "ec264799be10cc5b"),
    (5, 18, 1, OpStats(1977, 807, 3108, 56, 0), 533, "0f3b67a0c7edac4b"),
    (5, 18, 2, OpStats(1779, 720, 2823, 45, 0), 443, "34e9f1f6e7bef9d2"),
    (5, 20, 1, OpStats(2730, 1127, 4257, 70, 0), 1103, "0abe71423eaae1f8"),
    (5, 20, 2, OpStats(1690, 358, 2448, 18, 0), 76, "95c53eb74e92a3c0"),
    (1, 8, 2, OpStats(252, 140, 456, 21, 0), 434, "4632bdc05cc00eb7"),
)
HESSENBERG_ZP_PINS = (
    ("random", 9, OpStats(372, 204, 657, 28, 0), "b07eb0ca59e7345c"),
    ("random", 18, OpStats(3417, 1785, 5526, 136, 0), "002b33585a5afbf4"),
    ("group5", 9, OpStats(192, 83, 356, 8, 0), "3bb5f2692e6f54fd"),
    ("group5", 18, OpStats(1779, 720, 2823, 45, 0), "daf41627a603f88f"),
    ("random", 8, OpStats(252, 140, 456, 21, 0), "6c0ca0ac1fa367e0"),
    ("group5", 8, OpStats(108, 43, 215, 3, 0), "b2709bc756f1a79c"),
)


@pytest.mark.parametrize("group, n, seed, stats, max_bits, digest", HESSENBERG_Q_PINS)
def test_counted_hessenberg_over_q_is_pinned(group, n, seed, stats, max_bits, digest):
    rec = bench.run_case(bench.BenchCase(group, n, seed, "hessenberg"))
    assert (rec.stats, rec.max_bits, rec.digest) == (stats, max_bits, digest)


@pytest.mark.parametrize("kind, n, stats, digest", HESSENBERG_ZP_PINS)
def test_counted_hessenberg_over_zp_is_pinned(kind, n, stats, digest):
    zp = IntegersMod(10007)
    if kind == "group5":
        a = bench.generate_matrix(bench.BenchCase(5, n, 2)).with_ring(zp, zp.from_int)
    else:
        rng = Rng(300 + n)
        a = DenseMatrix(zp, n, n, [rng.below(zp.m) for _ in range(n * n)])
    counted = CountingRing(zp, track_bits=True)
    got = charpoly.charpoly_hessenberg(a.with_ring(counted, lambda x: x))
    assert (counted.stats, counted.max_bits, got.digest()) == (stats, 14, digest)
    assert charpoly.charpoly_hessenberg(a).digest() == digest


def test_counted_eigenvector_simple_is_pinned():
    # Berkowitz, the Horner B_k and one mul and add per entry for each B_k;
    # every row sums to 6, a simple root of the charpoly
    rows = [[1, 2, 0, 3], [2, 1, 3, 0], [0, 4, 1, 1], [3, 0, 2, 1]]
    counted = CountingRing(QQ, track_bits=True)
    a = DenseMatrix.from_rows(QQ, rows).with_ring(counted, QQ.from_int)
    assert charpoly.eigenvector_simple(a, Fraction(6)) == [55] * 4
    assert (counted.stats, counted.max_bits) == (OpStats(146, 12, 204, 0, 0), 8)


HESSENBERG_MODULI = (2, 7, 12, 65521, 10007, 998244353, (1 << 61) - 1, (1 << 256) - 189)


@st.composite
def hessenberg_cases(draw):
    """A matrix over Z/m, m from the slot-width ladder (and composite 12),
    side 1..12, dense or mostly zero, each column kept as drawn, zeroed
    below the subdiagonal (the pivot search skips it), zeroed on the
    subdiagonal (a row swap) or zeroed in some rows below it (zero
    multipliers among nonzero ones)."""
    m = draw(st.sampled_from(HESSENBERG_MODULI))
    n = draw(st.integers(1, 12))
    value = st.integers(0, m - 1)
    if draw(st.booleans()):
        value = st.one_of(st.just(0), st.just(0), st.just(0), value)
    rows = [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(n)]
    for j in range(n):
        mode = draw(st.sampled_from(("as drawn", "skip", "swap", "zero rows")))
        below = range(j + 1, n)
        if mode == "swap":
            below = below[:1]
        elif mode == "zero rows":
            below = [i for i in below if draw(st.booleans())]
        elif mode == "as drawn":
            below = ()
        for i in below:
            rows[i][j] = 0
    return IntegersMod(m), rows


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ExactLAError as e:
        return type(e)


@settings(max_examples=400, deadline=None)
@given(hessenberg_cases())
def test_hessenberg_dots_match_the_literal_stream(case):
    # IntegersMod has a native dot and takes the deferred column step and
    # the dot recurrence; CountingRing over it runs the literal stream on
    # the same residues.  Over Z/12 a non-unit pivot raises on both paths.
    ring, rows = case
    literal = CountingRing(ring)
    reduced = _outcome(charpoly._hessenberg_reduce, ring, [list(r) for r in rows])
    assert reduced == _outcome(charpoly._hessenberg_reduce, literal, [list(r) for r in rows])
    a = DenseMatrix.from_rows(ring, rows)
    got = _outcome(lambda m: charpoly.charpoly_hessenberg(m).coeffs, a)
    assert got == _outcome(lambda m: charpoly.charpoly_hessenberg(m).coeffs,
                           a.with_ring(literal, lambda x: x))
    if ring.spec.is_field:
        assert got == charpoly.charpoly_berkowitz(a).coeffs


def _kaltofen_literal_matrix(base, n, seed):
    if base == "group-2 Z[x,y]":
        return bench.generate_matrix(bench.BenchCase(2, n, seed))
    rng = Rng(seed)
    if base == "K(t)":      # quotients of polynomials of degree 1 over Q
        kt = rational_function_field(QQ)
        qt = kt.base
        entries = [kt.make(qt.random_element(rng, 1), qt.random_element(rng, 1) or qt.one)
                   for _ in range(n * n)]
        return DenseMatrix(kt, n, n, entries)
    ring = ring_from_string(base)
    return DenseMatrix(ring, n, n, [ring.random_element(rng) for _ in range(n * n)])


# the bases whose Krylov steps run the Ring krylov and matmul defaults (one
# Ring.dot per entry) and whose series products run the truncated_mul default;
# Kaltofen over K(t) normalizes every series coefficient, so it stays small
@pytest.mark.parametrize("base, n", [("zp:7[x]", 3), ("zp:7[x]", 5), ("Q", 3), ("Q", 6),
                                     ("K(t)", 2), ("group-2 Z[x,y]", 3)])
def test_kaltofen_agrees_with_berkowitz_over_the_literal_series_bases(base, n):
    for seed in (1, 2, 3):
        a = _kaltofen_literal_matrix(base, n, seed)
        got = charpoly.charpoly_kaltofen(a).coeffs
        assert got == charpoly.charpoly_berkowitz(a).coeffs, (base, n, seed)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", list(range(1, 13)) + [32])
def test_mat_mul_agrees_uncounted_and_counted(p, n):
    ring = IntegersMod(p)
    a, b = _matrix(ring, n, 3 * n), _matrix(ring, n, 3 * n + 1)
    for strategy in ("classical", "strassen"):
        got = matrix.mat_mul(a, b, strategy, 16).entries
        assert got == matrix.mat_mul(_counted(a), _counted(b), strategy, 16).entries
    assert a.apply(b.col(0)) == _counted(a).apply(b.col(0))


def test_mat_mul_default_never_takes_strassen(monkeypatch):
    # the default is the ring's matmul above any cutoff, over a native
    # matmul (Z/p) or the literal Ring.matmul (Z, the quotient rings),
    # counted or not; Strassen runs only when asked for, to the same product
    calls = []
    real = matrix._winograd
    monkeypatch.setattr(matrix, "_winograd", lambda *args: calls.append(1) or real(*args))
    rng = Rng(4)

    def square(ring, n):
        return DenseMatrix(ring, n, n, [ring.from_int(rng.int_between(-9, 9))
                                        for _ in range(n * n)])
    n = matrix.DEFAULT_STRASSEN_CUTOFF + 1
    for ring in (IntegersMod(10007), ZZ):
        a, b = square(ring, n), square(ring, n)
        assert matrix.mat_mul(a, b).entries == matrix.mat_mul(a, b, "classical").entries
    assert not calls
    for inner in (IntegersMod(10007), ZZ, ring_from_string("zp:7[x]/1*x^3+-1")):
        for ring in (inner, CountingRing(inner)):
            m = square(ring, 8)
            classical = matrix.mat_mul(m, m, cutoff=4).entries
            assert not calls, ring.name
            assert classical == matrix.mat_mul(m, m, "classical").entries
            assert matrix.mat_mul(m, m, "strassen", 4).entries == classical
            assert calls, ring.name
            calls.clear()
    with pytest.raises(ValueError):
        matrix.mat_mul(m, m, "auto")
