"""Hadamard bounds, Chinese remaindering, and the modular characteristic
polynomial / determinant pipeline over Z."""

import math
from dataclasses import dataclass

from .charpoly import CharPoly, charpoly_hessenberg, determinant
from .errors import (DimensionMismatch, NoCandidateWithinBound,
                     PrimePoolExhausted)
from .matrix import DenseMatrix
from .rings import ZZ, IntegersMod


# the 200 largest primes below 2^61, embedded as offsets from 2^61
_POOL_LIMIT = 1 << 61
_PRIME_OFFSETS = (
    1, 31, 45, 229, 259, 283, 339, 391, 403, 465, 531, 579, 675, 759, 799,
    819, 829, 843, 859, 939, 985, 1015, 1153, 1195, 1215, 1281, 1299, 1351,
    1371, 1425, 1489, 1525, 1533, 1543, 1609, 1621, 1669, 1741, 1753, 1813,
    1845, 1849, 1855, 1863, 1869, 1909, 1921, 1923, 1945, 1959, 2023, 2083,
    2115, 2133, 2185, 2371, 2373, 2383, 2385, 2401, 2539, 2551, 2595, 2605,
    2665, 2695, 2911, 2919, 3015, 3045, 3069, 3079, 3081, 3105, 3139, 3151,
    3153, 3183, 3295, 3325, 3331, 3361, 3363, 3373, 3409, 3441, 3465, 3625,
    3669, 3793, 3799, 3835, 3865, 3895, 3913, 3931, 3933, 4003, 4015, 4075,
    4119, 4141, 4185, 4219, 4243, 4351, 4359, 4393, 4431, 4443, 4459, 4465,
    4473, 4525, 4575, 4599, 4659, 4723, 4729, 4749, 4789, 4795, 4819, 4863,
    4885, 4969, 5043, 5079, 5103, 5169, 5211, 5263, 5283, 5289, 5305, 5349,
    5383, 5389, 5473, 5529, 5565, 5593, 5661, 5719, 5725, 5779, 5793, 5811,
    5859, 5941, 5949, 6031, 6049, 6061, 6081, 6103, 6139, 6279, 6345, 6355,
    6375, 6433, 6469, 6471, 6535, 6553, 6583, 6621, 6655, 6705, 6735, 6825,
    6829, 6831, 6889, 6891, 6901, 6903, 6999, 7011, 7015, 7083, 7159, 7221,
    7245, 7333, 7395, 7489, 7521, 7549, 7551, 7575, 7591, 7635, 7771, 7795,
    7851, 7941, 7963, 8029,
)
PRIME_POOL = tuple(_POOL_LIMIT - off for off in _PRIME_OFFSETS)


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
    """Enough pool primes for a product exceeding 2*bound."""
    prod, chosen = 1, []
    for p in PRIME_POOL:
        if prod > 2 * bound:
            break
        chosen.append(p)
        prod *= p
    if prod <= 2 * bound:
        raise PrimePoolExhausted("a bound of %d bits needs more than the prime pool's %d bits"
                                 % (bound.bit_length(), prod.bit_length()))
    return chosen


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
