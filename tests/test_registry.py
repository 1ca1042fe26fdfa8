"""The registry's Kronecker lift: a straight-line algorithm on input over
Z[x], Z[x,y] or Z[x,y,z] whose nonzero entries fill more than half of
their degree box runs over Z on the matrix evaluated at powers of two,
and each charpoly coefficient is unpacked once."""

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactla import bench, registry
from exactla.matrix import DenseMatrix
from exactla.rings import (ZZ, CountingRing, MultiPolynomialRing, PolynomialRing,
                           ring_from_string)

STRAIGHT_LINE = {"berkowitz", "berkowitz_sparse", "chistov", "chistov_sparse",
                 "faddeev", "leverrier", "preparata_sarwate", "kaltofen"}
LIFTED = [a for a in registry.ALGORITHMS if a.straight_line]
ZX, ZXY, ZXYZ = (PolynomialRing(ZZ, "x"), MultiPolynomialRing(None, ("x", "y")),
                 MultiPolynomialRing(None, ("x", "y", "z")))
WIDE = 2 ** 70


def test_exactly_the_straight_line_algorithms_are_flagged():
    assert {a.id for a in LIFTED} == STRAIGHT_LINE


def _names(ring):
    return ring.vars if isinstance(ring, MultiPolynomialRing) else (ring.var,)


def _literal(terms, names):
    return "+".join("%d" % c + "".join("*%s^%d" % (v, k) for v, k in zip(names, e) if k)
                    for c, e in terms)


def _coefficients(bound):
    return (st.sampled_from((bound, -bound)) | st.integers(-bound, bound)).filter(bool)


@st.composite
def entries(draw, ring, box):
    """A polynomial with every coefficient of the degree box nonzero, small
    or wide (up to +-2^70) and of either sign; in a mixed matrix also zero,
    a constant or the sparse x^300+1."""
    names = _names(ring)
    kinds = ("small", "wide") if box else ("zero", "constant", "small", "wide", "sparse_long")
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return ring.zero
    if kind == "sparse_long":
        return ring.parse("1*%s^300+1" % names[0])
    coeff = _coefficients(WIDE if kind == "wide" else 9)
    if kind == "constant":
        return ring.from_int(draw(coeff))
    if not box:
        box = [draw(st.integers(0, 2)) for _ in names]
    terms = itertools.product(*[range(d + 1) for d in box])
    return ring.parse(_literal([(draw(coeff), e) for e in terms], names))


@st.composite
def lift_cases(draw):
    """n x n over Z[x], Z[x,y] or Z[x,y,z]: the zero matrix, or entries
    that fill one degree box (the lift's case; n <= 4, or 3 over Z[x,y,z])
    or mixed ones (n <= 3, or 2), either with one zero row."""
    ring = draw(st.sampled_from((ZX, ZXY, ZXYZ)))
    kind = draw(st.sampled_from(("filled", "mixed", "zero")))
    n = draw(st.integers(1, (3 if kind == "mixed" else 4) - (ring is ZXYZ)))
    if kind == "zero":
        return DenseMatrix.zeros(ring, n, n)
    box = [draw(st.integers(0, 2)) for _ in _names(ring)] if kind == "filled" else None
    ents = [draw(entries(ring, box)) for _ in range(n * n)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        ents[i * n:(i + 1) * n] = [ring.zero] * n
    return DenseMatrix(ring, n, n, ents)


def _depth(ring):
    return len(_names(ring))


def _fill(a):
    """(nonzero coefficients, the degree box of the nonzero entries)."""
    degs = [0] * _depth(a.ring)
    sizes = [registry._sizes(x, len(degs), degs) for x in a.entries]
    box = math.prod(d + 1 for d in degs) * sum(1 for _, k in sizes if k)
    return sum(k for _, k in sizes), box


def _substituted(algo, a):
    """algo's charpoly of a through the Kronecker substitution, whatever
    the entries' fill."""
    degs = [0] * _depth(a.ring)
    norms = [registry._sizes(x, len(degs), degs)[0] for x in a.entries]
    image, unpack = registry._substitution(a, norms, degs)
    return tuple(map(unpack, algo.run(image).coeffs))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lift_cases())
def test_the_lift_equals_the_direct_run(a):
    nonzero, box = _fill(a)
    assert (registry._kronecker(a) is not None) == (2 * nonzero > box)
    for algo in LIFTED:
        want = algo.run(algo.prepare(a))
        got = algo.charpoly(a)
        assert got.ring is a.ring and repr(got.coeffs) == repr(want.coeffs), algo.id


@pytest.mark.parametrize("a", [
    bench.jou_matrix(4),
    bench.generate_matrix(bench.BenchCase(2, 3, 1)),
    DenseMatrix(ZX, 1, 1, [(-WIDE, 0, WIDE)]),
    # p_1 = a_11 attains the bound |a_11|_1 = 2^63 + 1, of 64 bits: the
    # slot must hold its sign bit too
    DenseMatrix(ZX, 1, 1, [(0, 2 ** 63 + 1)]),
    DenseMatrix(ZXY, 1, 1, [ZXY.parse("-%d*x^1*y^1" % (2 ** 63 + 1))]),
    DenseMatrix(ZX, 2, 2, [ZX.parse("1*x^300+1"), (1, -1), (WIDE,), (-3, 0, 2)]),
    DenseMatrix(ZXYZ, 2, 2, [ZXYZ.parse(s) for s in ("1*x^2*z^2+-%d*y^1" % WIDE, "0",
                                                     "%d*z^1+-1*x^1*y^3" % WIDE, "-1")]),
], ids=["jou4", "group2_n3", "wide_1x1", "bound_1x1", "bound_xy_1x1", "sparse_long",
        "xyz_2x2"])
def test_the_substitution_equals_the_direct_run_on_fixed_matrices(a):
    for algo in LIFTED:
        want = repr(algo.run(algo.prepare(a)).coeffs)
        assert repr(algo.charpoly(a).coeffs) == want and repr(_substituted(algo, a)) == want


def _spying(algo):
    """algo with run recording the matrix it is given."""
    seen = []

    def run(m):
        seen.append(m)
        return algo.run(m)
    return dataclasses.replace(algo, run=run), seen


@pytest.mark.parametrize("spec", ["zp:7[x]/1*x^3+-1", "zp:7[x]", "Q[x]", "Z"])
def test_other_rings_run_the_prepared_matrix_itself(spec):
    ring = ring_from_string(spec)
    a = DenseMatrix(ring, 3, 3, [ring.parse(s) for s in
                                 ("1", "2", "0", "3", "1", "4", "0", "5", "6")])
    for algo in LIFTED:
        spy, seen = _spying(algo)
        assert spy.charpoly(a).coeffs == algo.run(a).coeffs
        assert seen == [a], algo.id
    zx = bench.jou_matrix(3)
    spy, seen = _spying(registry.get("kaltofen"))
    spy.charpoly(zx)
    assert seen[0].ring is ZZ


def test_a_counted_base_keeps_the_direct_run():
    jou = bench.jou_matrix(4)
    for algo in LIFTED:
        stats = []
        for run in (algo.charpoly, algo.run):
            counted = CountingRing(ZZ, track_bits=True)
            m = jou.with_ring(PolynomialRing(counted, "x"), lambda x: x)
            cp = run(m)
            stats.append((cp.coeffs, counted.stats, counted.max_bits))
        assert stats[0] == stats[1], algo.id
        assert stats[0][1].total > 0
