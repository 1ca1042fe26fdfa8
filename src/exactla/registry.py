"""Characteristic-polynomial algorithm registry with ring applicability
and the lift that runs a field algorithm on integer input."""

from dataclasses import dataclass
from fractions import Fraction

from . import charpoly as cp
from .errors import UnknownAlgorithm
from .rings import QQ, ZZ


@dataclass(frozen=True)
class Algo:
    id: str
    run: object                  # DenseMatrix -> CharPoly
    applicable: object           # (ring, n) -> reason-or-None
    label: str
    lift: object = None          # ring -> (field, embed) to run over instead, or None

    def plan(self, ring, n):
        """(lift, reason) for n x n input over ring: lift is None to run on
        the input itself, else the (field, embed) to run its image over;
        reason is why the algorithm does not apply, else None."""
        reason = self.applicable(ring, n)
        lift = self.lift(ring) if reason is not None and self.lift else None
        return (lift, None) if lift else (None, reason)


def _any(ring, n):
    return None


def _needs_int_div(ring, n):
    if ring.spec.allows_div_by_int(n):
        return None
    return "IntegerNotInvertible: cannot divide by 1..%d in %s" % (n, ring.name)


def _needs_field(ring, n):
    return None if ring.spec.is_field else "%s is not a field" % ring.name


def _needs_domain(ring, n):
    s = ring.spec
    if s.is_field or (s.is_integral_domain and s.has_exact_division):
        return None
    return "%s is not a field or exact-division domain" % ring.name


def _z_to_q(ring):
    """Z runs over Q; the results are integral and retract to Z."""
    return (QQ, Fraction) if ring is ZZ else None


def _first(m):
    return cp.charpoly_faddeev(m, compute_inverse=False)[0]


ALGORITHMS = [
    Algo("berkowitz", cp.charpoly_berkowitz, _any, "Berkowitz"),
    Algo("berkowitz_sparse", lambda m: cp.charpoly_berkowitz(m, sparse_aware=True),
         _any, "Berkowitz (sparse-aware)"),
    Algo("chistov", cp.charpoly_chistov, _any, "Chistov"),
    Algo("chistov_sparse", lambda m: cp.charpoly_chistov(m, sparse_aware=True),
         _any, "Chistov (sparse-aware)"),
    Algo("faddeev", _first, _needs_int_div, "Souriau-Faddeev-Frame"),
    Algo("leverrier", cp.charpoly_leverrier, _needs_int_div, "Le Verrier"),
    Algo("preparata_sarwate", cp.charpoly_preparata_sarwate, _needs_int_div,
         "Preparata-Sarwate"),
    Algo("hessenberg", cp.charpoly_hessenberg, _needs_field, "Hessenberg", _z_to_q),
    Algo("bareiss_modified", cp.charpoly_bareiss_modified, _any,
         "modified Jordan-Bareiss"),
    Algo("interpolation", cp.charpoly_interpolation, _needs_int_div,
         "Lagrange interpolation"),
    Algo("frobenius", cp.charpoly_frobenius, _needs_domain, "Frobenius"),
    Algo("kaltofen", cp.charpoly_kaltofen, _any, "Kaltofen-Wiedemann"),
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
