"""Ring protocol: axioms, divisions, quotient reduction, counting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactla import rings
from exactla.charpoly import charpoly_berkowitz, charpoly_interpolation, charpoly_leverrier
from exactla.errors import (IntegerNotInvertible, NonTriangularIdeal,
                            NotDivisible, Unsupported, ZeroDivisor)
from exactla.matrix import DenseMatrix
from exactla.multipoly import to_dict
from exactla.elimination import gauss_lu
from exactla.pinv import rational_function_field
from exactla.poly import dft_mul, schoolbook_mul, strip
from exactla.rings import (QQ, ZZ, CountingRing, FractionField, IntegersMod,
                           MultiPolynomialRing, OpStats, PolynomialRing, QuotientRing, RingSpec,
                           SeriesRing, ring_from_string, quotient_reduce, with_counting)
from exactla.rng import Rng


F7 = IntegersMod(7)
ZX = PolynomialRing(ZZ, "x")


def _rings_and_samplers():
    rng = Rng(1)
    helper = MultiPolynomialRing(7, ["x"])
    qr = QuotientRing(7, ["x"], [helper.parse("1*x^3+-1")])
    zxy = MultiPolynomialRing(None, ["x", "y"])
    return [
        (ZZ, lambda: ZZ.random_element(rng)),
        (QQ, lambda: QQ.random_element(rng)),
        (F7, lambda: F7.random_element(rng)),
        (ZX, lambda: ZX.random_element(rng, degree=3, bound=5)),
        (FractionField(PolynomialRing(F7, "t")),
         lambda: FractionField(PolynomialRing(F7, "t")).random_element(rng, bound=4)),
        (qr, lambda: qr.random_element(rng)),
        (zxy, lambda: zxy.random_element(rng, total_degree=2, bound=5)),
    ]


@pytest.mark.parametrize("idx", range(7))
def test_ring_axioms_randomized(idx):
    ring, sample = _rings_and_samplers()[idx]
    for _ in range(60):
        a, b, c = sample(), sample(), sample()
        assert ring.eq(ring.add(a, b), ring.add(b, a))
        assert ring.eq(ring.mul(a, b), ring.mul(b, a))
        assert ring.eq(ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c)))
        assert ring.eq(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c)))
        assert ring.eq(ring.mul(a, ring.add(b, c)),
                       ring.add(ring.mul(a, b), ring.mul(a, c)))
        assert ring.eq(ring.add(a, ring.zero), a)
        assert ring.eq(ring.mul(a, ring.one), a)
        assert ring.eq(ring.add(a, ring.neg(a)), ring.zero)
        assert ring.eq(ring.sub(a, b), ring.add(a, ring.neg(b)))


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_exact_div_roundtrip_integers(a, b):
    if b == 0:
        return
    assert ZZ.exact_div(a * b, b) == a


@settings(max_examples=60)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_exact_div_roundtrip_polys(ac, bc):
    a, b = tuple(ac), tuple(bc)
    from exactla.poly import strip
    a = tuple(strip(ZZ, list(a)))
    b = tuple(strip(ZZ, list(b)))
    if not b:
        return
    assert ZX.exact_div(ZX.mul(a, b), b) == a


def test_exact_div_examples():
    assert ZZ.exact_div(6, 3) == 2
    x2m1 = ZX.parse("1*x^2+-1")
    xm1 = ZX.parse("1*x^1+-1")
    assert ZX.exact_div(x2m1, xm1) == ZX.parse("1*x^1+1")
    with pytest.raises(NotDivisible):
        ZZ.exact_div(5, 2)
    with pytest.raises(ZeroDivisor):
        ZZ.exact_div(5, 0)
    # a series ring divides by a unit other than one through its inverse
    sr = SeriesRing(QQ, 3)
    a, b = tuple(map(Fraction, (1, -3, 1, 5))), tuple(map(Fraction, (2, 1, 0, 0)))
    assert sr.mul(sr.exact_div(a, b), b) == a


def test_div_by_integer_examples():
    assert ZZ.div_by_int(6, 3) == 2
    assert F7.div_by_int(3, 2) == 5          # 2*5 = 10 = 3 mod 7
    with pytest.raises(NotDivisible):
        ZZ.div_by_int(5, 2)
    with pytest.raises(IntegerNotInvertible):
        F7.div_by_int(3, 7)
    with pytest.raises(IntegerNotInvertible):
        ZZ.div_by_int(5, 0)
    with pytest.raises(IntegerNotInvertible):      # Le Verrier divides by 1..n, and 5 = 0 mod 5
        charpoly_leverrier(DenseMatrix(IntegersMod(5), 5, 5, [1] * 25))
    # polynomials vet k on zero as on any other element, and a counted
    # base counts nothing for it
    for ring, k in ((ZX, 0), (PolynomialRing(F7, "x"), 7)):
        for a in (ring.zero, ring.one):
            with pytest.raises(IntegerNotInvertible):
                ring.div_by_int(a, k)
    counted = CountingRing(ZZ)
    czx = PolynomialRing(counted, "x")
    assert czx.div_by_int(czx.zero, 3) == czx.zero
    with pytest.raises(IntegerNotInvertible):
        czx.div_by_int(czx.zero, 0)
    assert counted.stats == OpStats()


def test_div_by_integer_unique_by_enumeration():
    # the returned residue is the unique x with 2x = 3 mod 7
    sols = [x for x in range(7) if (2 * x) % 7 == 3]
    assert sols == [F7.div_by_int(3, 2)]


def test_quotient_reduce_examples():
    helper = MultiPolynomialRing(7, ["x"])
    ideal = [helper.parse("1*x^3+-1")]
    qr = QuotientRing(7, ["x"], ideal)
    assert qr.reduce(helper.parse("1*x^3")) == qr.one
    assert qr.reduce(helper.parse("1*x^4")) == helper.parse("1*x^1")
    assert qr.reduce(helper.parse("8")) == qr.one
    assert quotient_reduce(qr, helper.parse("1*x^3")) == qr.one


def test_quotient_ring_triangular_validation():
    helper = MultiPolynomialRing(7, ["x", "y"])
    good = [helper.parse("1*x^2+1"), helper.parse("1*y^2+1*x^1")]
    QuotientRing(7, ["x", "y"], good)
    with pytest.raises(NonTriangularIdeal):
        QuotientRing(7, ["x", "y"], [helper.parse("1*x^2+1*y^1"), good[1]])
    with pytest.raises(NonTriangularIdeal):
        QuotientRing(7, ["x", "y"], [helper.parse("2*x^2+1"), good[1]])


def test_quotient_ring_bivariate_book_example():
    # Z17[x,y]/<H, L> with L = y^3 - 2y + 1 (y first so the ideal is triangular)
    helper = MultiPolynomialRing(17, ["y", "x"])
    L = helper.parse("1*y^3+-2*y^1+1")
    H = helper.parse("1*x^5+-5*x^1*y^1+1")
    qr = QuotientRing(17, ["y", "x"], [L, H])
    rng = Rng(3)
    for _ in range(30):
        a = qr.random_element(rng)
        b = qr.random_element(rng)
        ab = qr.mul(a, b)
        # canonical: degrees below the ideal degrees
        for e in to_dict(ab, 2):
            assert e[0] < 3 and e[1] < 5
        assert qr.mul(a, qr.one) == a


def test_tower_rings_keep_their_specs_and_error_contract():
    # the multivariate and quotient rings are PolynomialRing towers: the
    # multivariate rings derive their capability flags from their
    # coefficients as the univariate tower does, and the quotient rings
    # keep their own and refuse what PolynomialRing would allow
    specs = {
        "Z[x,y]": RingSpec(True, False, None),
        "zp:11[x,y]": RingSpec(True, False, 10),
        "zp:12[x,y]": RingSpec(False, False, 0),
        "zp:11[x,y]/1*x^2+-3;1*y^2+-1*x^1": RingSpec(False, False, 10),
    }
    for spec, want in specs.items():
        assert ring_from_string(spec).spec == want, spec
    zxy = ring_from_string("Z[x,y]")
    with pytest.raises(Unsupported):
        FractionField(zxy)
    qr = ring_from_string("zp:11[x,y]/1*x^2+-3;1*y^2+-1*x^1")
    x, minus_one = qr.parse("1*x^1"), qr.neg(qr.one)
    assert qr.exact_div(x, minus_one) == qr.neg(x)
    assert qr.inverse_of_unit(minus_one) == minus_one
    with pytest.raises(NotDivisible):
        qr.exact_div(qr.mul(x, x), x)      # only the units +-1 divide
    with pytest.raises(NotDivisible):
        qr.inverse_of_unit(x)              # a unit (x^2 = 3), but not +-1
    with pytest.raises(ZeroDivisor):
        qr.exact_div(x, qr.zero)
    for ring in (qr, ring_from_string("zp:11[x,y]"), ring_from_string("zp:12[x,y]")):
        for a in (ring.zero, ring.one):
            for k in (0, 22):
                with pytest.raises(IntegerNotInvertible):
                    ring.div_by_int(a, k)
    with pytest.raises(IntegerNotInvertible):
        zxy.div_by_int(zxy.zero, 0)
    with pytest.raises(NotDivisible):
        zxy.div_by_int(zxy.one, 2)
    helper = MultiPolynomialRing(7, ["x", "y"])
    good = [helper.parse("1*x^2+1"), helper.parse("1*y^2+1*x^1")]
    for bad in ([good[0]], [helper.parse("3"), good[1]], [good[0], helper.parse("1*x^3")]):
        with pytest.raises(NonTriangularIdeal):
            QuotientRing(7, ["x", "y"], bad)


@pytest.mark.parametrize("multi, uni", [("Z[x,y]", "Z[x]"), ("zp:11[x,y]", "zp:11[x]"),
                                         ("zp:12[x,y]", "zp:12[x]"), ("zp:4[x,y]", "zp:4[x]")])
def test_multivariate_spec_is_the_univariate_one(multi, uni):
    assert ring_from_string(multi).spec == ring_from_string(uni).spec


def test_counting_scope_examples():
    _, stats = with_counting(ZZ, lambda r: r.add(3, 4))
    assert stats.adds == 1 and stats.total == 1
    _, stats = with_counting(ZZ, lambda r: None)
    assert stats.total == 0


def test_counting_gauss_3x3_matches_prop_2_1_4():
    rng = Rng(9)
    def run(r):
        m = DenseMatrix(r, 3, 3, [QQ.from_int(rng.int_between(1, 50)) for _ in range(9)])
        return gauss_lu(m)
    _, stats = with_counting(QQ, run)
    assert stats.total == 13


def test_counting_nested_scopes_compose():
    outer = CountingRing(ZZ)
    inner = CountingRing(outer)
    inner.mul(2, 3)
    inner.add(1, 1)
    assert inner.stats.total == 2
    assert outer.stats.total == 2


def test_counting_transparent():
    rng = Rng(4)
    vals = [rng.int_between(-50, 50) for _ in range(8)]
    def work(r):
        acc = r.zero
        for v in vals:
            acc = r.add(r.mul(v, v), acc)
        return acc
    plain = work(ZZ)
    counted, stats = with_counting(ZZ, work)
    assert plain == counted
    assert stats.muls == 8 and stats.adds == 8


def test_principal_roots_property():
    p = 12289          # 1 + 12*1024: plenty of 2-power roots
    ring = IntegersMod(p)
    for order in (2, 4, 8, 16):
        xi = ring.principal_root(order)
        assert pow(xi, order, p) == 1
        for i in range(1, order):
            s = sum(pow(xi, i * j, p) for j in range(order)) % p
            assert s == 0


def test_fraction_field_normalization():
    ff = FractionField(ZZ)
    x = ff.make(4, -6)
    assert x == (-2, 3)          # reduced, positive denominator
    fx = FractionField(PolynomialRing(QQ, "t"))
    from fractions import Fraction
    num = (Fraction(2), Fraction(2))      # 2 + 2t
    den = (Fraction(0), Fraction(4))      # 4t
    v = fx.make(num, den)
    # denominator monic, gcd cleared
    assert v[1][-1] == Fraction(1)


def test_fraction_field_random_element_keeps_the_base_degree():
    # the bound sizes the coefficients, not the degree of K(t)'s
    # polynomials, which keeps PolynomialRing's default of 2
    kt = rational_function_field(QQ)
    rng = Rng(5)
    draws = [kt.random_element(rng) for _ in range(40)]
    assert all(len(num) <= 3 and 1 <= len(den) <= 3 for num, den in draws)
    assert max(len(den) for _, den in draws) == 3


def test_fraction_field_members_on_a_charpoly_over_k_of_t():
    # pinv's K(t): Le Verrier and interpolation reach from_int and
    # div_by_int, a bit-tracking CountingRing bit_size, and the digest format
    kt = rational_function_field(QQ)
    t = kt.from_base((Fraction(0), Fraction(1)))
    assert kt.from_int(3) == ((Fraction(3),), (Fraction(1),))
    assert kt.div_by_int(t, 2) == ((Fraction(0), Fraction(1, 2)), (Fraction(1),))
    with pytest.raises(IntegerNotInvertible):
        kt.div_by_int(t, 0)
    a = DenseMatrix.from_rows(kt, [[t, kt.one, kt.from_int(2)],
                                   [kt.div(kt.one, t), kt.from_int(-1), t],
                                   [kt.one, kt.div_by_int(t, 3), kt.zero]])
    want = charpoly_berkowitz(a)
    assert charpoly_interpolation(a).coeffs == want.coeffs
    counted = CountingRing(kt, track_bits=True)
    assert charpoly_leverrier(a.with_ring(counted, lambda x: x)).coeffs == want.coeffs
    assert counted.max_bits == 4 == max(kt.bit_size(c) for c in want.coeffs)
    assert [kt.format(c) for c in want.coeffs] == [
        "-1", "1*t^1-1", "(1/3*t^3+1*t^2+2*t^1+1)/(1*t^1)", "-1/3*t^3+1*t^1+8/3"]


def test_counting_ring_passes_bit_size_and_principal_root_through():
    # a bit-tracking wrapper over a counted ring sizes through the inner
    # wrapper's bit_size; a counted DFT product asks for its root
    outer = CountingRing(CountingRing(ZZ), track_bits=True)
    assert outer.mul(3, -5) == -15 and outer.max_bits == 4
    assert outer.inner.stats == OpStats(muls=1)
    ring = IntegersMod(12289)
    counted = CountingRing(ring)
    a, b = [1, 2, 3, 4, 5], [6, 7, 8]
    assert counted.principal_root(8) == ring.principal_root(8)
    assert dft_mul(counted, a, b) == schoolbook_mul(ring, a, b)


# ---------------------------------------------------------------------------
# one equality test: Ring's structural eq/is_zero/is_one, on canonical forms

BULK_HOOKS = ("dot", "submul", "product", "matmul", "krylov")


def test_ring_protocol_states_each_rule_once():
    classes = [c for c in vars(rings).values()
               if isinstance(c, type) and issubclass(c, rings.Ring) and c is not rings.Ring]
    for cls in classes:
        assert not {"eq", "is_zero", "is_one"} & set(vars(cls)), cls.__name__
    for hook in BULK_HOOKS:
        assert any(hook in vars(cls) for cls in classes), hook
    assert not hasattr(rings.Ring, "addmul")


CANONICAL_RINGS = (FractionField(ZX), FractionField(PolynomialRing(QQ, "t")),
                   SeriesRing(ZZ, 3), SeriesRing(F7, 2), SeriesRing(ZX, 2))


def _base_values(base):
    if base is ZZ:
        return st.integers(-3, 3)
    if base is QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if base is F7:
        return st.integers(0, 6)
    return st.lists(_base_values(base.base), max_size=3).map(lambda cs: tuple(strip(base.base, cs)))


def _elements(ring):
    """Fractions through make (zero numerators among them) or series of
    order+1 base values, mostly zero."""
    value = _base_values(ring.base)
    if isinstance(ring, FractionField):
        return st.builds(ring.make, value, value.filter(lambda d: not ring.base.is_zero(d)))
    zero = st.just(ring.base.zero)
    return st.lists(st.one_of(zero, zero, value), min_size=ring.order + 1,
                    max_size=ring.order + 1).map(tuple)


def _zero_by_parts(ring, a):
    """Zero part by part: the numerator, or every series coefficient."""
    if isinstance(ring, FractionField):
        return ring.base.is_zero(a[0])
    return all(ring.base.is_zero(x) for x in a)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_zero_is_canonical_in_fraction_and_series_rings(data):
    ring = data.draw(st.sampled_from(CANONICAL_RINGS))
    a, b = data.draw(_elements(ring)), data.draw(_elements(ring))
    zero = ring.zero
    assert ring.sub(a, a) == ring.mul(a, zero) == ring.neg(zero) == zero
    # a series with constant term 1, or a nonzero fraction, is a unit
    unit = (ring.base.one,) + a[1:] if isinstance(ring, SeriesRing) else a
    results = [a, ring.mul(a, b)]
    if not ring.is_zero(unit):
        results.append(ring.inverse_of_unit(unit))
    for x in results:
        assert ring.is_zero(x) == (x == zero) == _zero_by_parts(ring, x), x


# ---------------------------------------------------------------------------
# polynomial gcd over Z and Q: the heuristic gcd against Euclid

QX = PolynomialRing(QQ, "x")
QX_EUCLID = PolynomialRing(CountingRing(QQ), "x")      # the literal field Euclid


@st.composite
def gcd_pairs(draw):
    """(k*f*g1, f*g2) over Z, in either order: zero, constants, negative
    leading coefficients and shared content all occur."""
    bits = draw(st.sampled_from((1, 4, 30, 200)))
    coeff = st.integers(-2 ** bits, 2 ** bits)
    f, g1, g2 = (tuple(strip(ZZ, draw(st.lists(coeff, max_size=5)))) for _ in range(3))
    k = draw(coeff)
    a = tuple(strip(ZZ, [k * c for c in ZX.mul(f, g1)]))
    b = ZX.mul(f, g2)
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=300, deadline=None)
@given(gcd_pairs(), st.lists(st.integers(1, 2 ** 64), min_size=2, max_size=2))
def test_polynomial_gcd_matches_euclid(pair, dens):
    a, b = pair
    assert ZX.gcd(a, b) == tuple(rings._gcd_int_poly_euclid(list(a), list(b)))
    qa = tuple(Fraction(c, dens[0]) for c in a)
    qb = tuple(Fraction(c, dens[1]) for c in b)
    assert QX.gcd(qa, qb) == QX_EUCLID.gcd(qa, qb)


def test_polynomial_gcd_examples_and_fallback(monkeypatch):
    x2m1, xm1 = ZX.parse("1*x^2+-1"), ZX.parse("1*x^1+-1")
    cases = [((), (), ()), ((), (4, -2), (-4, 2)), ((6,), (), (6,)), ((6,), (4, 2), (2,)),
             (ZX.mul((6,), x2m1), ZX.mul((-4,), xm1), (-2, 2)),
             (ZX.mul(x2m1, x2m1), ZX.parse("-1*x^3+1"), (-1, 1)),
             # a candidate from a point below 2*min(norms)+2 can divide both
             # and still not be the gcd: x-2 is 1 at x = 3
             ((-2, 1), (2, -1), (-2, 1)), ((2, -1), (0, -2, 1), (-2, 1)),
             # coprime pairs whose first candidate divides only the first
             ((4, -1), (2, -1, -4), (1,)), ((3, -2), (3, 2, 4, 3), (1,))]
    for a, b, want in cases:
        assert tuple(rings._gcd_int_poly_euclid(list(a), list(b))) == want
        assert ZX.gcd(a, b) == want
    # with every evaluation point rejected, the gcd is Euclid's
    monkeypatch.setattr(rings, "_divides", lambda d, f: False)
    for a, b, want in cases:
        assert ZX.gcd(a, b) == want


def test_polynomial_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = Rng(23)

    def draw(bound):
        return tuple(strip(ZZ, [rng.int_between(-bound, bound) for _ in range(rng.below(5))]))

    def to_sympy(a, domain):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) if domain == "QQ" else c
                           for c in reversed(a)] or [0], x, domain=domain)

    for trial in range(80):
        bound = (3, 2 ** 20, 2 ** 200)[trial % 3]
        f = draw(bound)
        a = ZX.mul(tuple(rng.int_between(-9, 9) * c for c in f), draw(bound))
        b = ZX.mul(f, draw(bound))
        want = [int(c) for c in reversed(to_sympy(a, "ZZ").gcd(to_sympy(b, "ZZ")).all_coeffs())]
        want = strip(ZZ, want)
        if want and want[-1] < 0:
            want = [-c for c in want]
        assert ZX.gcd(a, b) == tuple(want), (a, b)
        qa = tuple(Fraction(c, 1 + rng.below(30)) for c in a)
        qb = tuple(Fraction(c, 1 + rng.below(30)) for c in b)
        got = QX.gcd(qa, qb)
        want = to_sympy(qa, "QQ").gcd(to_sympy(qb, "QQ"))
        assert got == tuple(strip(QQ, [Fraction(int(c.p), int(c.q))
                                       for c in reversed(want.all_coeffs())])), (qa, qb)


def test_counted_rational_polynomial_gcd_keeps_its_op_count():
    # a counted base takes the literal Euclid, whose ops are pinned
    counted = CountingRing(QQ)
    ring = PolynomialRing(counted, "x")
    a = tuple(Fraction(k, 3) for k in (6, -5, -3, 2))     # (x-1)(2x+3)(x-2)/3
    b = tuple(Fraction(k, 2) for k in (-3, 1, 2))         # (x-1)(2x+3)/2
    assert ring.gcd(a, b) == (Fraction(-3, 2), Fraction(1, 2), Fraction(1))
    assert counted.stats == OpStats(adds=0, subs=6, muls=9, divs=3, exact_divs=0)
    assert QX.gcd(a, b) == ring.gcd(a, b)


def test_ring_literal_and_spec_strings():
    for spec, probe in [("Z", "-42"), ("Q", "3/4"), ("zp:10007", "123"),
                        ("Z[x]", "2*x^2+-3*x^1+1"), ("Z[x,y]", "2*x^1*y^2+-7")]:
        ring = ring_from_string(spec)
        v = ring.parse(probe)
        assert ring.parse(ring.format(v)) == v
    qr = ring_from_string("zp:7[x]/1*x^3+-1")
    v = qr.parse("5*x^4+3")
    assert qr.parse(qr.format(v)) == v


def test_ringspec_invariants():
    assert ZZ.spec.is_integral_domain and not ZZ.spec.is_field
    assert QQ.spec.is_field and QQ.spec.max_invertible_integer is None
    assert F7.spec.is_field and F7.spec.max_invertible_integer == 6
    q = ring_from_string("zp:7[x]/1*x^3+-1")
    assert not q.spec.is_field and q.spec.max_invertible_integer == 6


def test_characteristic_two_field():
    from exactla import bench
    from exactla.matrix import DenseMatrix
    f2 = IntegersMod(2)
    rng = Rng(12)
    a = DenseMatrix(f2, 5, 5, [rng.below(2) for _ in range(25)])
    rep = bench.cross_validate(a)
    assert rep.unanimous
    by_id = {e.algo: e.status for e in rep.entries}
    assert by_id["berkowitz"] == "ok" and by_id["hessenberg"] == "ok"
    assert by_id["leverrier"].startswith("IntegerNotInvertible")   # 2 = 0 in F2
