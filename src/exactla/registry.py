"""Characteristic-polynomial algorithm registry: where each algorithm
applies, and the one place that lifts integer input for the algorithm
that needs a field."""

from dataclasses import dataclass
from fractions import Fraction

from . import charpoly as cp
from .errors import NotApplicable, UnknownAlgorithm
from .rings import QQ, ZZ


@dataclass(frozen=True)
class Algo:
    id: str
    run: object                  # DenseMatrix -> CharPoly
    applicable: object           # (ring, n) -> reason-or-None
    lifts: bool = False          # runs Z input over Q, where its results are integral

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
    Algo("berkowitz", cp.charpoly_berkowitz, _any),
    Algo("berkowitz_sparse", lambda m: cp.charpoly_berkowitz(m, sparse_aware=True), _any),
    Algo("chistov", cp.charpoly_chistov, _any),
    Algo("chistov_sparse", lambda m: cp.charpoly_chistov(m, sparse_aware=True), _any),
    Algo("faddeev", _first, _needs_int_div),
    Algo("leverrier", cp.charpoly_leverrier, _needs_int_div),
    Algo("preparata_sarwate", cp.charpoly_preparata_sarwate, _needs_int_div),
    Algo("hessenberg", cp.charpoly_hessenberg, _needs_field, lifts=True),
    Algo("bareiss_modified", cp.charpoly_bareiss_modified, _any),
    Algo("interpolation", cp.charpoly_interpolation, _needs_int_div),
    Algo("frobenius", cp.charpoly_frobenius, _needs_domain),
    Algo("kaltofen", cp.charpoly_kaltofen, _any),
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
