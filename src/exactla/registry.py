"""Characteristic-polynomial algorithm registry: where each algorithm
applies, and the one place that decides which ring it runs on: Z input
lifted to Q for the algorithm that needs a field, and Z[x1..xk] input
evaluated into Z for the straight-line algorithms (the Kronecker lift)."""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import charpoly as cp
from .errors import NotApplicable, UnknownAlgorithm
from .matrix import DenseMatrix
from .rings import (QQ, ZZ, MultiPolynomialRing, PolynomialRing, _signed_pack,
                    _signed_unpack)


@dataclass(frozen=True)
class Algo:
    id: str
    run: object                  # DenseMatrix -> CharPoly
    applicable: object           # (ring, n) -> reason-or-None
    lifts: bool = False          # runs Z input over Q, where its results are integral
    # its ring ops branch on no entry value, except to skip zero entries, and
    # it divides only by the integers 1..n: it commutes with every ring map
    straight_line: bool = False

    def prepare(self, a):
        """The matrix to run on: a where the algorithm applies, a over Q for
        Z input to a lifting algorithm (Q formats an integral result as Z
        does, digest included), else NotApplicable with the reason."""
        reason = self.applicable(a.ring, a.rows)
        if reason is None:
            return a
        if self.lifts and a.ring is ZZ:
            return a.with_ring(QQ, Fraction)
        raise NotApplicable(reason)

    def charpoly(self, a):
        """The characteristic polynomial of a: run on the prepared matrix,
        or for a straight-line algorithm on Z[x1..xk] input, on its
        Kronecker image over Z, each coefficient unpacked once."""
        a = self.prepare(a)
        lift = _kronecker(a) if self.straight_line else None
        if lift is None:
            return self.run(a)
        image, unpack = lift
        return cp.CharPoly(a.ring, map(unpack, self.run(image).coeffs))


def _kronecker(a):
    """(a over Z, unpack) for a over Z[x1..xk], every level exactly
    PolynomialRing or MultiPolynomialRing over exactly ZZ, whose nonzero
    entries fill more than half of their degree box; None for any other
    matrix (over a counted or quotient ring, say), which runs as it is.

    x_l -> 2^(8 w_l): w_1 bytes hold one more bit than the charpoly
    coefficient bound of the entries' 1-norms, which bounds every
    coefficient of every charpoly coefficient (each is at most its sup
    norm on the unit torus, where |a_ij| <= |a_ij|_1), and w_(l+1) =
    w_l (n deg_l + 1), deg_l the entries' degree in x_l (n deg_l bounds
    the charpoly's).  Each level is one signed slot per coefficient, so
    unpacking the slots level by level inverts the map on that range."""
    depth, ring = 0, a.ring
    while type(ring) is PolynomialRing or type(ring) is MultiPolynomialRing:
        depth, ring = depth + 1, ring.base
    if not depth or ring is not ZZ:
        return None
    degs = [0] * depth
    norms, counts = zip(*[_sizes(x, depth, degs) for x in a.entries])
    box = math.prod(d + 1 for d in degs)
    if 2 * sum(counts) <= box * (len(counts) - counts.count(0)):
        return None
    return _substitution(a, norms, degs)


def _substitution(a, norms, degs):
    """(a over Z, unpack) by x_l -> 2^(8 w_l), for the entries' 1-norms
    and their degree in each variable, innermost first."""
    from .modular import charpoly_coeff_bound
    n = a.rows
    bound = max(charpoly_coeff_bound(DenseMatrix(ZZ, n, n, norms)).per_coeff)
    widths = [(bound.bit_length() + 8) // 8]
    for d in degs[:-1]:
        widths.append(widths[-1] * (n * d + 1))
    return (a.with_ring(ZZ, lambda x: _evaluate(x, widths)),
            lambda c: _unpack(c, widths))


def _sizes(x, depth, degs):
    """(1-norm, nonzero coefficients) of x, nested depth levels deep;
    raises degs[l] to x's degree in x_(l+1)."""
    if not depth:
        return abs(x), 1 if x else 0
    depth -= 1
    if len(x) > degs[depth] + 1:
        degs[depth] = len(x) - 1
    norm = count = 0
    for c in x:
        c_norm, c_count = _sizes(c, depth, degs)
        norm += c_norm
        count += c_count
    return norm, count


def _evaluate(x, widths):
    if not widths:
        return x
    inner = widths[:-1]
    return _signed_pack([_evaluate(c, inner) for c in x], widths[-1]) if x else 0


def _unpack(h, widths):
    if not widths:
        return h
    if not h:
        return ()
    width, inner = widths[-1], widths[:-1]
    n = 1 + abs(h).bit_length() // (8 * width)     # h's slots, the top one nonzero
    return tuple(_unpack(d, inner) for d in _signed_unpack(h, width, n, n))


def _any(ring, n):
    return None


def _needs_int_div(ring, n):
    if ring.spec.allows_div_by_int(n):
        return None
    return "IntegerNotInvertible: cannot divide by 1..%d in %s" % (n, ring.name)


def _needs_field(ring, n):
    return None if ring.spec.is_field else "%s is not a field" % ring.name


def _needs_domain(ring, n):
    if ring.spec.is_integral_domain:
        return None
    return "%s is not a field or exact-division domain" % ring.name


def _first(m):
    return cp.charpoly_faddeev(m, compute_inverse=False)[0]


ALGORITHMS = [
    Algo("berkowitz", cp.charpoly_berkowitz, _any, straight_line=True),
    Algo("berkowitz_sparse", lambda m: cp.charpoly_berkowitz(m, sparse_aware=True), _any,
         straight_line=True),
    Algo("chistov", cp.charpoly_chistov, _any, straight_line=True),
    Algo("chistov_sparse", lambda m: cp.charpoly_chistov(m, sparse_aware=True), _any,
         straight_line=True),
    Algo("faddeev", _first, _needs_int_div, straight_line=True),
    Algo("leverrier", cp.charpoly_leverrier, _needs_int_div, straight_line=True),
    Algo("preparata_sarwate", cp.charpoly_preparata_sarwate, _needs_int_div, straight_line=True),
    Algo("hessenberg", cp.charpoly_hessenberg, _needs_field, lifts=True),
    Algo("bareiss_modified", cp.charpoly_bareiss_modified, _any),
    Algo("interpolation", cp.charpoly_interpolation, _needs_int_div),
    Algo("frobenius", cp.charpoly_frobenius, _needs_domain),
    Algo("kaltofen", cp.charpoly_kaltofen, _any, straight_line=True),
]

_BY_ID = {a.id: a for a in ALGORITHMS}


def get(algo_id):
    try:
        return _BY_ID[algo_id]
    except KeyError:
        raise UnknownAlgorithm("unknown algorithm %r (have: %s)"
                               % (algo_id, ", ".join(sorted(_BY_ID))))


def ids():
    return [a.id for a in ALGORITHMS]
