"""Gram coefficients and Moore-Penrose inverses, both star conventions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_minors
from exactla import pinv as pv
from exactla.charpoly import charpoly_berkowitz
from exactla.elimination import det_field
from exactla.errors import GramCoefficientZero, Inconsistent
from exactla.matrix import DenseMatrix, mat_mul
from exactla.rings import QQ, CountingRing, IntegersMod, OpStats

F5 = IntegersMod(5)
F7 = IntegersMod(7)


def _qmat(rows):
    return DenseMatrix.from_rows(QQ, [[Fraction(x) for x in r] for r in rows])


def test_star_operator_layout():
    kt = pv.rational_function_field(QQ)
    a = DenseMatrix.zeros(QQ, 3, 5)
    for i in range(3):
        for j in range(5):
            a.entries[i * 5 + j] = Fraction(10 * (i + 1) + (j + 1))   # marker a_ij
    akt, kt = pv.embed_in_kt(a, kt)
    st = pv.star_operator(akt)
    assert st.rows == 5 and st.cols == 3
    # (1,2) entry is t * a_21; (2,1) is t^-1 * a_12; corners per the book
    t = kt.from_base((Fraction(0), Fraction(1)))
    assert kt.eq(st.at(0, 1), kt.mul(t, kt.from_base((Fraction(21),))))
    assert kt.eq(st.at(1, 0), kt.div(kt.from_base((Fraction(12),)), t))
    assert kt.eq(st.at(4, 0), kt.div(kt.from_base((Fraction(15),)),
                                     kt.mul(kt.mul(t, t), kt.mul(t, t))))


def test_star_at_t_equals_one_is_transpose(rng):
    a = DenseMatrix(QQ, 3, 4, [Fraction(rng.int_between(-9, 9)) for _ in range(12)])
    akt, kt = pv.embed_in_kt(a)
    st = pv.star_operator(akt)
    tr = a.transpose()
    for i in range(4):
        for j in range(3):
            num, den = st.at(i, j)
            val_num = sum(Fraction(c) for c in num)     # evaluate polys at t=1
            val_den = sum(Fraction(c) for c in den)
            assert val_num / val_den == tr.at(i, j)


def test_gram_identity_and_projector():
    i2 = DenseMatrix.identity(QQ, 2)
    g = pv.gram_coefficients(i2, "plain")
    assert g.coefficients == [Fraction(2), Fraction(1)]
    p = _qmat([[1, 0], [0, 0]])
    gp = pv.gram_coefficients(p, "plain")
    assert gp.coefficients == [Fraction(1), Fraction(0)]


def test_gram_equals_sum_of_squared_minors(rng):
    for shape in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4), (4, 3)):
        m, n = shape
        a = DenseMatrix(QQ, m, n, [Fraction(rng.int_between(-5, 5)) for _ in range(m * n)])
        g = pv.gram_coefficients(a, "plain")
        rows = a.to_rows()
        for k in range(1, min(m, n) + 1):
            want = sum(x * x for x in all_minors(QQ, rows, k))
            assert g.coefficients[k - 1] == want, (shape, k)


def test_generalized_gram_laurent_structure(rng):
    a = DenseMatrix(F7, 3, 4, [rng.below(7) for _ in range(12)])
    g = pv.gram_coefficients(a, "generalized")
    r = pv.rank_from_gram(g)
    for k in range(1, r + 1):
        exp, coeff = g.laurent(k)
        assert exp == k * (4 - k)
        num, den = coeff
        # denominator is a pure power of t of the recorded exponent or less
        assert sum(1 for c in den if c != 0) == 1
        assert len(den) - 1 <= exp


def test_rank_examples(rng):
    i4 = DenseMatrix.identity(QQ, 4)
    assert pv.rank_from_gram(pv.gram_coefficients(i4, "plain")) == 4
    z = DenseMatrix.zeros(QQ, 3, 3)
    assert pv.rank_from_gram(pv.gram_coefficients(z, "plain")) == 0
    u = [1, 2, 3]
    v = [2, 0, 1]
    outer = DenseMatrix(F5, 3, 3, [(x * y) % 5 for x in u for y in v])
    g = pv.gram_coefficients(outer, "generalized")
    assert pv.rank_from_gram(g) == 1


def _gauss_rank(ring, a):
    rows = [list(r) for r in a.to_rows()]
    rank = 0
    row = 0
    for col in range(a.cols):
        sel = next((i for i in range(row, a.rows)
                    if not ring.is_zero(rows[i][col])), None)
        if sel is None:
            continue
        rows[row], rows[sel] = rows[sel], rows[row]
        piv = rows[row][col]
        for i in range(row + 1, a.rows):
            f = ring.div(rows[i][col], piv)
            for j in range(col, a.cols):
                rows[i][j] = ring.sub(rows[i][j], ring.mul(f, rows[row][j]))
        rank += 1
        row += 1
        if row == a.rows:
            break
    return rank


def test_generalized_rank_matches_elimination(rng):
    for ring in (F5, F7):
        for _ in range(30):
            m = rng.int_between(1, 5)
            n = rng.int_between(1, 5)
            a = DenseMatrix(ring, m, n, [ring.random_element(rng) for _ in range(m * n)])
            g = pv.gram_coefficients(a, "generalized")
            assert pv.rank_from_gram(g) == _gauss_rank(ring, a), (m, n)


def test_pinv_invertible_collapses_to_inverse(rng):
    while True:
        a = DenseMatrix(QQ, 3, 3, [Fraction(rng.int_between(-9, 9)) for _ in range(9)])
        if det_field(a) != 0:
            break
    x = pv.pinv_rank_r(a, 3, "plain").matrix
    assert mat_mul(a, x).eq(DenseMatrix.identity(QQ, 3))


def test_pinv_projection_matrix_is_self():
    p = _qmat([[1, 0], [0, 0]])
    x = pv.pinv_rank_r(p, 1, "plain").matrix
    assert x.eq(p)


def test_pinv_penrose_identities_rank_deficient(rng):
    done = 0
    while done < 25:
        m, n = 3, 4
        u = [[Fraction(rng.int_between(-5, 5)) for _ in range(n)] for _ in range(2)]
        c = [[Fraction(rng.int_between(-3, 3)) for _ in range(2)] for _ in range(m)]
        rows = [[sum(c[i][k] * u[k][j] for k in range(2)) for j in range(n)]
                for i in range(m)]
        a = DenseMatrix.from_rows(QQ, rows)
        g = pv.gram_coefficients(a, "plain")
        r = pv.rank_from_gram(g)
        if r != 2:
            continue
        x = pv.pinv_rank_r(a, 2, "plain").matrix
        assert mat_mul(mat_mul(a, x), a).eq(a)
        assert mat_mul(mat_mul(x, a), x).eq(x)
        done += 1


def test_pinv_gram_zero_raises():
    p = _qmat([[1, 0], [0, 0]])
    with pytest.raises(GramCoefficientZero):
        pv.pinv_rank_r(p, 2, "plain")


def test_generalized_pinv_over_f5(rng):
    done = 0
    while done < 10:
        m, n = 3, 3
        a = DenseMatrix(F5, m, n, [rng.below(5) for _ in range(m * n)])
        g = pv.gram_coefficients(a, "generalized")
        r = pv.rank_from_gram(g)
        if r == 0:
            continue
        res = pv.pinv_rank_r(a, r, "generalized")
        kt = res.matrix.ring
        akt, _ = pv.embed_in_kt(a, kt)
        assert mat_mul(mat_mul(akt, res.matrix), akt).eq(akt)
        assert mat_mul(mat_mul(res.matrix, akt), res.matrix).eq(res.matrix)
        done += 1


def test_solve_uniform_cases(rng):
    while True:
        a = DenseMatrix(QQ, 3, 3, [Fraction(rng.int_between(-9, 9)) for _ in range(9)])
        if det_field(a) != 0:
            break
    v = [Fraction(rng.int_between(-9, 9)) for _ in range(3)]
    x = pv.solve_uniform(a, v, 3, "plain")
    assert a.apply(x) == v
    # rank-1: V inside the column space
    u = [Fraction(1), Fraction(2), Fraction(-1)]
    w = [Fraction(3), Fraction(0), Fraction(1), Fraction(2)]
    rows = [[ui * wj for wj in w] for ui in u]
    a1 = DenseMatrix.from_rows(QQ, rows)
    v_in = [ui * Fraction(7) for ui in u]       # A (w-compatible) multiple of u
    x = pv.solve_uniform(a1, v_in, 1, "plain")
    assert a1.apply(x) == v_in
    # V outside the column space
    v_out = [Fraction(1), Fraction(0), Fraction(0)]
    with pytest.raises(Inconsistent):
        pv.solve_uniform(a1, v_out, 1, "plain")


def test_generalized_solution_of_injective_system_is_constant(rng):
    # injective 4x2 over F7: consistent solutions contain no t
    done = 0
    while done < 6:
        a = DenseMatrix(F7, 4, 2, [rng.below(7) for _ in range(8)])
        if _gauss_rank(F7, a) != 2:
            continue
        w = [rng.below(7), rng.below(7)]
        v = a.apply(w)
        x = pv.solve_uniform(a, v, 2, "generalized")
        kt = pv.rational_function_field(F7)
        for val, want in zip(x, w):
            num, den = val
            assert len(num) <= 1 and len(den) <= 1     # constant fraction
            got = 0 if not num else num[0]
            scale = 1 if not den else den[0]
            assert got == (want * scale) % 7
        done += 1


def test_specialized_pinv(rng):
    # t -> tau specialization over F7 avoiding zeros of a_r(t)
    done = 0
    while done < 6:
        a = DenseMatrix(F7, 3, 3, [rng.below(7) for _ in range(9)])
        g = pv.gram_coefficients(a, "generalized")
        r = pv.rank_from_gram(g)
        if r == 0:
            continue
        for tau in range(1, 7):
            try:
                res = pv.pinv_rank_r(a, r, "generalized", tau=tau)
            except GramCoefficientZero:
                continue
            x = res.matrix
            assert mat_mul(mat_mul(a, x), a).eq(a)
            assert mat_mul(mat_mul(x, a), x).eq(x)
            done += 1
            break
        else:
            continue


@pytest.mark.parametrize("mode", ["plain", "generalized"])
def test_negative_rank_is_refused(mode):
    a = _qmat([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        pv.pinv_rank_r(a, -1, mode)
    with pytest.raises(ValueError):
        pv.solve_uniform(a, [Fraction(1), Fraction(0)], -1, mode)


# counted plain and tau-mode runs over Q on a rank-2 3x4 matrix: OpStats
# and max_bits of the Gram charpoly, the alternating sum and the one
# inverse of a_r, which the generalized mode's K[t] form leaves alone
PINV_COUNTED_ROWS = [[1, 2, 0, -1], [2, 4, 0, -2], [0, 1, 3, Fraction(1, 2)]]


@pytest.mark.parametrize("mode, tau, stats, max_bits", [
    ("plain", None, OpStats(186, 0, 263, 1, 0), 11),
    ("generalized", Fraction(2), OpStats(186, 0, 284, 4, 0), 19),
])
def test_counted_pinv_over_q_is_pinned(mode, tau, stats, max_bits):
    counted = CountingRing(QQ, track_bits=True)
    a = DenseMatrix.from_rows(counted, [[Fraction(x) for x in r] for r in PINV_COUNTED_ROWS])
    x = pv.pinv_rank_r(a, 2, mode, tau).matrix
    assert (counted.stats, counted.max_bits) == (stats, max_bits)
    aq, xq = a.with_ring(QQ, Fraction), x.with_ring(QQ, Fraction)
    assert mat_mul(mat_mul(aq, xq), aq).eq(aq)
    assert mat_mul(mat_mul(xq, aq), xq).eq(xq)


def _kt_reference(a, r):
    """(Gram coefficients, inverse or GramCoefficientZero) by the literal
    K(t) sequence: embed_in_kt, star_operator, then the Gram charpoly and
    the alternating sum with every operation in K(t)."""
    akt, kt = pv.embed_in_kt(a)
    star = pv.star_operator(akt)
    m, n = a.rows, a.cols
    cp = charpoly_berkowitz(mat_mul(akt, star))
    gram = [cp.coeffs[k] if (m - k) % 2 == 0 else kt.neg(cp.coeffs[k])
            for k in range(1, min(m, n) + 1)]
    if r == 0:
        return gram, DenseMatrix.zeros(kt, n, m)
    ga = [kt.one] + gram
    if r >= len(ga) or kt.is_zero(ga[r]):
        return gram, GramCoefficientZero
    gmat = mat_mul(star, akt)
    acc = DenseMatrix.zeros(kt, n, n)
    power = DenseMatrix.identity(kt, n)
    for i in range(r):
        coef = ga[r - 1 - i]
        if i % 2 == 1:
            coef = kt.neg(coef)
        acc = acc.add(power.scale(coef))
        if i < r - 1:
            power = mat_mul(power, gmat)
    return gram, mat_mul(acc, star).scale(kt.inverse_of_unit(ga[r]))


def _check_against_kt_reference(a, r):
    gram, want = _kt_reference(a, r)
    got = pv.gram_coefficients(a, "generalized").coefficients
    assert got == gram and repr(got) == repr(gram)
    if want is GramCoefficientZero:
        with pytest.raises(GramCoefficientZero):
            pv.pinv_rank_r(a, r, "generalized")
        return
    res = pv.pinv_rank_r(a, r, "generalized")
    assert res.rank == r and (res.matrix.rows, res.matrix.cols) == (a.cols, a.rows)
    assert res.matrix.entries == want.entries
    assert repr(res.matrix.entries) == repr(want.entries)


LARGE_DENOMINATOR = Fraction(7, 10 ** 30 + 57)
PROPERTY_RINGS = (QQ, F5, F7, CountingRing(QQ))


@st.composite
def generalized_pinv_cases(draw):
    """A matrix over Q (small denominators, sometimes one entry with a
    large one), F5, F7 or CountingRing(QQ), 1..4 by 1..4: dense, zero or
    a product of 1..min(m,n)-1 columns and rows (rank deficient); and r
    from 0 to one past min(m, n)."""
    ring = draw(st.sampled_from(PROPERTY_RINGS))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if isinstance(ring, IntegersMod):
        value = st.integers(0, ring.m - 1)
    else:
        value = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))

    def block(rows, cols):
        return [[draw(value) for _ in range(cols)] for _ in range(rows)]
    kind = draw(st.sampled_from(("dense", "zero", "deficient")))
    if kind == "zero":
        rows = [[ring.zero] * n for _ in range(m)]
    elif kind == "deficient" and min(m, n) > 1:
        k = draw(st.integers(1, min(m, n) - 1))
        u, v = block(m, k), block(k, n)
        rows = [[ring.dot(u[i], [v[l][j] for l in range(k)]) for j in range(n)]
                for i in range(m)]
    else:
        rows = block(m, n)
    if not isinstance(ring, IntegersMod) and kind != "zero" and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = LARGE_DENOMINATOR
    return DenseMatrix.from_rows(ring, rows), draw(st.integers(0, min(m, n) + 1))


@settings(max_examples=60, deadline=None)
@given(generalized_pinv_cases())
def test_generalized_pinv_matches_the_kt_sequence(case):
    a, r = case
    _check_against_kt_reference(a, r)


@pytest.mark.parametrize("ring, rows, r", [
    (QQ, [[1, Fraction(-2, 3), 0, 4]], 1),                      # 1xN
    (F5, [[1], [4], [0], [2]], 1),                              # Nx1
    (F7, [[0, 0, 0], [0, 0, 0]], 1),                            # zero: a_1 = 0
    (QQ, [[1, 2], [3, 4]], 0),                                  # r = 0
    (CountingRing(QQ), [[1, 2, 3], [2, 4, 6], [1, 0, 1]], 3),   # r above the rank
    (QQ, [[1, 2, 3], [2, 4, 6], [LARGE_DENOMINATOR, 0, 1]], 2),
    (F7, [[1, 2, 3, 4], [2, 4, 6, 1], [3, 6, 2, 5]], 1),        # rank 1 over F7
])
def test_generalized_pinv_edge_cases_match_the_kt_sequence(ring, rows, r):
    conv = int if isinstance(ring, IntegersMod) else Fraction
    _check_against_kt_reference(DenseMatrix.from_rows(ring, [[conv(x) for x in row]
                                                            for row in rows]), r)


def _kt_solve_reference(a, v, r):
    """solve_uniform's generalized result by the literal K(t) check:
    X = A^+ V and A X = V with A, V and every operation in K(t); or the
    exception class it raises."""
    try:
        inverse = pv.pinv_rank_r(a, r, "generalized").matrix
    except GramCoefficientZero:
        return GramCoefficientZero
    kt = inverse.ring
    akt, _ = pv.embed_in_kt(a, kt)
    vv = [kt.from_base(kt.base.from_base(x)) for x in v]
    x = inverse.apply(vv)
    if any(not kt.eq(w, want) for w, want in zip(akt.apply(x), vv)):
        return Inconsistent
    return x


@st.composite
def solve_cases(draw):
    """A generalized_pinv_cases matrix and r (or its rank), and V: A times
    a drawn vector (in the column space), or drawn (mostly outside it)."""
    a, r = draw(generalized_pinv_cases())
    if draw(st.booleans()):
        r = pv.rank_from_gram(pv.gram_coefficients(a, "generalized"))
    if isinstance(a.ring, IntegersMod):
        value = st.integers(0, a.ring.m - 1)
    else:
        value = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    if draw(st.booleans()):
        return a, a.apply([draw(value) for _ in range(a.cols)]), r
    return a, [draw(value) for _ in range(a.rows)], r


@settings(max_examples=60, deadline=None)
@given(solve_cases())
def test_generalized_solve_checks_over_kt_polynomials_as_over_kt(case):
    a, v, r = case
    want = _kt_solve_reference(a, v, r)
    if want in (GramCoefficientZero, Inconsistent):
        with pytest.raises(want):
            pv.solve_uniform(a, v, r, "generalized")
        return
    got = pv.solve_uniform(a, v, r, "generalized")
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("rows, v, r, want", [
    ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], [1, 2, 0], 2, None),          # V in the column space
    ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], [1, 0, 0], 2, Inconsistent),  # V outside it
    ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], [1, 2, 0], 3, GramCoefficientZero),  # r above the rank
    ([[1, 2], [3, 4]], [1, 1], 1, Inconsistent),                      # r below the rank
    ([[1, 2], [3, 4]], [0, 0], 0, None),
    ([[1, 2], [3, 4]], [1, 0], 0, Inconsistent),
])
def test_generalized_solve_edge_cases(rows, v, r, want):
    a = _qmat(rows)
    v = [Fraction(x) for x in v]
    ref = _kt_solve_reference(a, v, r)
    if want:
        assert ref is want
        with pytest.raises(want):
            pv.solve_uniform(a, v, r, "generalized")
    else:
        assert repr(pv.solve_uniform(a, v, r, "generalized")) == repr(ref)
