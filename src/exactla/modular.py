"""Hadamard bounds, Chinese remaindering, and the modular characteristic
polynomial / determinant pipeline over Z: the image mod one prime of
PRIME_LADDER above twice the bound, or past the top rung the CRT over the
top rungs and the smallest rung that completes the product.  Reduction
mod p commutes with det and charpoly, so no image is unlucky."""

import math
from dataclasses import dataclass

from .charpoly import CharPoly, charpoly_hessenberg, determinant
from .errors import (DimensionMismatch, NoCandidateWithinBound,
                     PrimePoolExhausted)
from .matrix import DenseMatrix
from .rings import ZZ, IntegersMod


# rung k is the largest prime below 2^(32k), k = 2..32, as its offset from
# 2^(32k).  Hessenberg over Z/p at n = 24 costs per modulus bit (CPython
# 3.11, one CPU of a shared 2-CPU Xeon, best of 27): 79 us at 61 bits,
# 46-70 us at 192-1024, 78-88 us at 1280-1536 and 119 us at 2048; the
# ladder stops before the rise.
_RUNG_OFFSETS = (
    59, 17, 159, 47, 237, 63, 189, 167, 197, 657, 317, 435, 203, 47, 569,
    759, 789, 527, 305, 399, 245, 509, 825, 105, 143, 243, 213, 645, 167,
    1779, 105,
)
PRIME_LADDER = tuple((1 << 32 * k) - off for k, off in enumerate(_RUNG_OFFSETS, 2))


@dataclass
class CoeffBound:
    """Per-coefficient bounds B_k >= |mu_k| plus the global (2M)^n n^(n/2)."""
    per_coeff: list
    global_bound: int


@dataclass
class ResidueSystem:
    moduli: list
    residues: list


def _ceil_sqrt(x):
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def _ceil_pow_half(k):
    """ceil(k^(k/2))."""
    if k == 0:
        return 1
    if k % 2 == 0:
        return k ** (k // 2)
    return _ceil_sqrt(k ** k)


def hadamard_bound(a):
    """ceil of the column-norm product: |det A| <= prod_j sqrt(sum_i a_ij^2)."""
    if a.rows != a.cols:
        raise DimensionMismatch("Hadamard bound needs a square matrix")
    n = a.rows
    prod = 1
    for j in range(n):
        s = 0
        for i in range(n):
            s += a.at(i, j) ** 2
        prod *= s
    return _ceil_sqrt(prod)


def charpoly_coeff_bound(a):
    """B_k = binom(n,k) M^k ceil(k^(k/2)); global (2M)^n ceil(n^(n/2))."""
    n = a.rows
    m = max((abs(x) for x in a.entries), default=0)
    per = [math.comb(n, k) * m ** k * _ceil_pow_half(k) for k in range(n + 1)]
    per[0] = 1
    glob = (2 * m) ** n * _ceil_pow_half(n)
    return CoeffBound(per, glob)


def crt_reconstruct(system, bound):
    """Signed representative |x| <= bound congruent to every residue.

    Requires prod(moduli) > 2*bound; reconstructs into (-M/2, M/2] and
    rejects candidates outside the stated bound.
    """
    moduli, residues = system.moduli, system.residues
    m = 1
    for p in moduli:
        m *= p
    if m <= 2 * bound:
        raise NoCandidateWithinBound("modulus product %d <= 2*bound" % m)
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if math.gcd(moduli[i], moduli[j]) != 1:
                raise NoCandidateWithinBound("moduli are not pairwise coprime")
    x = 0
    for p, r in zip(moduli, residues):
        q = m // p
        x = (x + r * q * pow(q, -1, p)) % m
    if x > m // 2:
        x -= m
    if abs(x) > bound:
        raise NoCandidateWithinBound("reconstructed %d exceeds bound %d" % (x, bound))
    return x


def select_primes(bound):
    """The smallest rung whose product with the rungs taken so far exceeds
    2*bound; while no rung is enough, the largest rung left is taken."""
    rungs, chosen, prod = list(PRIME_LADDER), [], 1
    while rungs:
        last = next((p for p in rungs if prod * p > 2 * bound), None)
        if last:
            return chosen + [last]
        chosen.append(rungs.pop())
        prod *= chosen[-1]
    raise PrimePoolExhausted("a bound of %d bits needs more than the prime ladder's %d bits"
                             % (bound.bit_length(), prod.bit_length()))


def _images(a, primes):
    """a modulo each prime, as a matrix over Z/p."""
    for p in primes:
        yield DenseMatrix(IntegersMod(p), a.rows, a.cols, [x % p for x in a.entries])


def charpoly_modular(a):
    """Characteristic polynomial over Z from its Hessenberg images mod
    primes that the per-coefficient bounds pick."""
    bounds = charpoly_coeff_bound(a)
    primes = select_primes(max(bounds.per_coeff))
    per_prime = [charpoly_hessenberg(img).coeffs for img in _images(a, primes)]
    return CharPoly(ZZ, [crt_reconstruct(ResidueSystem(primes, list(residues)), bound)
                         for residues, bound in zip(zip(*per_prime), bounds.per_coeff)])


def det_modular(a):
    """Determinant over Z from its images mod primes that the Hadamard
    bound picks."""
    bound = hadamard_bound(a)
    primes = select_primes(bound)
    dets = [determinant(img) for img in _images(a, primes)]
    return crt_reconstruct(ResidueSystem(primes, dets), bound)
