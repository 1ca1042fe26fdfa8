"""Linear-recurrence machinery: Berlekamp-Massey via extended Euclid,
the Hankel-system minimal polynomial, and probabilistic Wiedemann."""

from . import poly
from .elimination import EchelonBasis
from .errors import (DimensionMismatch, RetriesExhausted, SingularHankelSystem,
                     ZeroSequence)
from .rng import Rng


def berlekamp_massey(ring, terms, bound):
    """Minimal monic generator of a sequence known to admit a generator of
    degree <= bound; needs the first 2*bound terms (field coefficients).

    Extended Euclid on (X^(2n), sum a_i X^i) stopped at deg R < n, then
    P = X^d V(1/X) normalized monic, d = max(deg V, 1 + deg R).
    """
    n = bound
    if len(terms) < 2 * n:
        raise ValueError("need at least 2*bound terms")
    terms = list(terms[:2 * n])
    if all(ring.is_zero(t) for t in terms):
        raise ZeroSequence("all sampled terms are zero")
    r0 = [ring.zero] * (2 * n) + [ring.one]
    r1 = poly.strip(ring, terms)
    v0, v1 = [], [ring.one]
    while len(r1) - 1 >= n:
        q, r = poly.divmod_poly(ring, r0, r1)
        v = poly.sub(ring, v0, poly.poly_mul(ring, q, v1, "schoolbook"))
        v0, v1 = v1, v
        r0, r1 = r1, r
    d = max(len(v1) - 1, len(r1))       # len(r1) = deg(r1) + 1
    p = poly.reciprocal(ring, v1, d)
    lead_inv = ring.inverse_of_unit(p[-1])
    return [ring.mul(lead_inv, c) for c in p]


def generates(ring, gen, terms):
    """Check that the monic generator reproduces every supplied term."""
    d = len(gen) - 1
    if d == 0:
        return all(ring.is_zero(t) for t in terms)
    for k in range(d, len(terms)):
        acc = ring.zero
        for j in range(d):
            acc = ring.sub(acc, ring.mul(gen[j], terms[k - d + j]))
        if not ring.eq(acc, terms[k]):
            return False
    return True


def hankel_minpoly(ring, terms, bound):
    """Same output as berlekamp_massey, via the Hankel linear system.

    d = rank of H_{0,p,p}; solve H_{0,d,d} g = (a_d .. a_{2d-1}).
    """
    p = bound
    if len(terms) < 2 * p:
        raise ValueError("need at least 2*bound terms")
    terms = list(terms[:2 * p])
    if all(ring.is_zero(t) for t in terms):
        raise ZeroSequence("all sampled terms are zero")
    rows = EchelonBasis(ring)
    d = sum(rows.insert(terms[i:i + p]) is None for i in range(p))
    if d == 0:
        raise SingularHankelSystem("rank 0 for a nonzero sequence")
    # H_{0,d,d} g = (a_d .. a_{2d-1}): the right side in the columns of H
    cols = EchelonBasis(ring)
    if not all(cols.insert(terms[j:j + d]) is None for j in range(d)):
        raise SingularHankelSystem("leading Hankel block is singular")
    g = cols.express(terms[d:2 * d])
    return [ring.neg(x) for x in g] + [ring.one]


def wiedemann_minpoly(a, seed, retries=4, degree_target=None):
    """Generator of (u A^k v) for seeded random u, v over a finite field.

    The result always annihilates the sampled sequence (verified before
    returning) and equals the minimal polynomial of `a` with the usual
    1 - 1/(q^(k-1) - 1) style probability when min = char poly.  Raises
    RetriesExhausted when no try finds a generator (of degree at least
    degree_target, if given).  An all-zero sampled sequence has none, so
    it can raise without a target too: on the 1x1 zero matrix over Z/2,
    each try samples zero with probability 3/4.
    """
    if a.rows != a.cols:
        raise DimensionMismatch("Wiedemann needs a square matrix, not %dx%d" % (a.rows, a.cols))
    ring = a.ring
    n = a.rows
    krylov = ring.krylov(a.to_rows())
    rng = Rng(seed)
    for _ in range(max(1, retries)):
        u = [ring.random_element(rng) for _ in range(n)]
        v = [ring.random_element(rng) for _ in range(n)]
        terms = [ring.dot(u, w) for w in krylov(v, 2 * n - 1)]
        try:
            gen = berlekamp_massey(ring, terms, n)
        except ZeroSequence:
            continue
        if not generates(ring, gen, terms):
            continue
        if degree_target is None or len(gen) - 1 >= degree_target:
            return gen
    target = "" if degree_target is None else " of degree >= %d" % degree_target
    raise RetriesExhausted("no generator%s found in %d tries (an all-zero sampled "
                           "sequence has none)" % (target, max(1, retries)))
