"""Commutative rings with capability flags, plus the counting wrapper.

Every ring object exposes the same small protocol (SeriesRing only what
Kaltofen uses):

    zero, one, from_int(k), add, sub, mul, neg, eq, is_zero,
    div (fields), exact_div, div_by_int, inverse_of_unit,
    principal_root(order), spec (a RingSpec), format, bit_size,
    random_element(rng, ...)

plus parse(s) on the rings a ring spec names (Z, Q, Z/m, polynomials,
quotients), and five bulk hooks, which the kernels and algorithms call
for their inner loops:

    dot(xs, ys)            sum of xs[k]*ys[k] over the common length
    submul(ys, c, xs)      [y - c*x for each pair]
    product(a, b, order)   polynomial product (order None, stripped), or
                           the series product mod z^(order+1)
    matmul(a_rows, b_rows) matrix product of two lists of rows, one dot
                           per entry
    krylov(rows, sparse)   run(v, k): [v, Av, ..., A^k v], A the leading
                           len(v) block, one dot per entry (sparse: over nonzeros)

The Ring defaults are the literal scalar loops, op for op, and they are
all a CountingRing has, so counted op streams, max_bits and digests do
not depend on the hooks.  IntegersMod overrides all five (sums in C,
one reduction per dot or entry, Kronecker substitution for products,
packed rows for matmul and the matrix's columns packed once for krylov,
in slots of 1, 2, 4 or 8 bytes for struct, exact widths past 8);
IntegerRing dot, submul, product and krylov (chosen once per matrix:
one more than half nonzero takes the dense Ring default, a sparser one
makes one prefix-sum pass over a block's nonzeros per step),
RationalField product (one Z product of the operands with their denominators
cleared), PolynomialRing over exactly ZZ (Z[x], and so Z[x,y]'s mul)
product, dot and submul (one plain-int accumulator per output
coefficient, a pair packed where IntegerRing.product would pack it; a
counted base keeps the defaults), QuotientRing dot, submul, product and
mul (one Z/p product of flat forms and one reduction per output
element; see its docstring).
SeriesRing overrides krylov over Z/p, Z, quotient rings and Z[x] over
exactly ZZ (the block split by powers of z once per run, one base matmul
per step), and product and submul over exactly IntegersMod (one
bivariate Kronecker product), chosen by its base alone: none of those
bases is or holds a CountingRing.

Elements are plain Python values (ints, Fractions, tuples) and are
immutable by convention; rings are stateless except for CountingRing.
Multivariate polynomials and triangular quotients are towers of the
univariate PolynomialRing, with nested dense tuples as elements; add and
sub at every level are poly.add and poly.sub.
"""

import functools
import math
import re
import struct
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from operator import add as _add
from operator import mul as _mul
from operator import sub as _sub

from . import multipoly as mp
from . import poly
from .errors import (DftUnavailable, IntegerNotInvertible, NonTriangularIdeal,
                     NotDivisible, ParseError, Unsupported, ZeroDivisor)


@dataclass(frozen=True)
class RingSpec:
    """Declared capabilities of a ring.

    is_integral_domain: no zero divisors, and exact_div divides whenever
    the quotient exists (so fraction-free elimination runs).
    max_invertible_integer: None means unbounded (division by any k!,
    when possible at all, is exact and unique); 0 means no integer
    division is available.  Neither the characteristic nor roots of unity
    are declared here: a ring has the roots its principal_root returns.
    """
    is_integral_domain: bool
    is_field: bool
    max_invertible_integer: object

    def allows_div_by_int(self, k):
        m = self.max_invertible_integer
        return m is None or (0 < k <= m)


@dataclass
class OpStats:
    adds: int = 0
    subs: int = 0
    muls: int = 0
    divs: int = 0
    exact_divs: int = 0

    @property
    def total(self):
        return self.adds + self.subs + self.muls + self.divs + self.exact_divs

    def merged(self, other):
        return OpStats(self.adds + other.adds, self.subs + other.subs,
                       self.muls + other.muls, self.divs + other.divs,
                       self.exact_divs + other.exact_divs)

    def as_dict(self):
        return {"adds": self.adds, "subs": self.subs, "muls": self.muls,
                "divs": self.divs, "exact_divs": self.exact_divs}


class Ring:
    """Base class: sensible defaults for optional capabilities.

    Every ring keeps its elements canonical (a zero fraction is (base.zero,
    base.one), a series order+1 canonical coefficients), so the structural
    eq, is_zero and is_one below hold in every ring."""

    name = "?"

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == self.zero

    def is_one(self, a):
        return a == self.one

    def div(self, a, b):
        raise NotDivisible("%s is not a field" % self.name)

    def exact_div(self, a, b):
        # division by +-1 works in every ring; anything else needs an algorithm
        if self.is_zero(b):
            raise ZeroDivisor("exact division by zero")
        if self.is_one(b):
            return a
        if self.eq(b, self.neg(self.one)):
            return self.neg(a)
        raise NotDivisible("%s has no exact-division algorithm" % self.name)

    def inverse_of_unit(self, a):
        if self.spec.is_field:
            if self.is_zero(a):
                raise ZeroDivisor("inverse of zero")
            return self.div(self.one, a)
        if self.is_one(a):
            return self.one
        if self.eq(a, self.neg(self.one)):
            return a
        raise NotDivisible("element is not a recognized unit of %s" % self.name)

    def div_by_int(self, a, k):
        if k <= 0:
            raise IntegerNotInvertible("integer divisor must be positive")
        return self.exact_div(a, self.from_int(k))

    def principal_root(self, order):
        raise DftUnavailable("%s has no principal root of order %d" % (self.name, order))

    def bit_size(self, a):
        return 0

    # bulk hooks: the literal loops, op for op (see the module docstring)

    def dot(self, xs, ys):
        acc = None
        for x, y in zip(xs, ys):
            t = self.mul(x, y)
            acc = t if acc is None else self.add(acc, t)
        return self.zero if acc is None else acc

    def submul(self, ys, c, xs):
        return [self.sub(y, self.mul(c, x)) for y, x in zip(ys, xs)]

    def product(self, a, b, order=None):
        if order is None:
            return poly.auto_mul(self, a, b)
        return poly.truncated_mul(self, a, b, order)

    def matmul(self, a_rows, b_rows):
        dot = self.dot
        cols = list(zip(*b_rows))
        return [[dot(row, col) for col in cols] for row in a_rows]

    def krylov(self, rows, sparse=False):
        # sparse and a zero in the matrix: a run gathers each row's nonzeros below
        # len(v) once, and each step is one dot with v at their columns (Ring.dot
        # makes one mul for one pair and none for no pairs)
        dot = self.dot
        support = sparse and [[j for j, x in enumerate(row) if not self.is_zero(x)] for row in rows]
        if support and sum(map(len, support)) == len(rows) ** 2:
            support = None

        def run(v, k):
            out, block = [v], rows[:len(v)]
            if support:
                cols = [js[:bisect_left(js, len(v))] for js in support[:len(v)]]
                xs = [list(map(row.__getitem__, js)) for row, js in zip(block, cols)]
            for _ in range(k):
                get = v.__getitem__
                v = ([dot(row, v) for row in block] if not support else
                     [dot(x, list(map(get, js))) for x, js in zip(xs, cols)])
                out.append(v)
            return out
        return run

    def pow(self, a, k):
        acc = self.one
        while k:
            if k & 1:
                acc = self.mul(acc, a)
            k >>= 1
            if k:
                a = self.mul(a, a)
        return acc

    def __repr__(self):
        return "<ring %s>" % self.name


# ---------------------------------------------------------------------------
# integers and rationals

def _decimal(k):
    """str(k) for an int of any size: past Python's int-to-str digit limit,
    the halves of a split by a power of ten."""
    try:
        return str(k)
    except ValueError:
        pass
    if k < 0:
        return "-" + _decimal(-k)
    h = k.bit_length() * 3 // 20        # about half the digits: log10(2) ~ 0.3
    hi, lo = divmod(k, 10 ** h)
    return _decimal(hi) + _decimal(lo).zfill(h)


class IntegerRing(Ring):
    name = "Z"
    zero = 0
    one = 1
    spec = RingSpec(True, False, None)

    def from_int(self, k):
        return k

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def dot(self, xs, ys):
        return sum(map(_mul, xs, ys))

    def submul(self, ys, c, xs):
        return [y - c * x for y, x in zip(ys, xs)]

    def krylov(self, rows, sparse=False):
        """Chosen once per matrix: more than n*n/2 nonzeros in n x n takes the
        dense Ring default (one dot per row).  Otherwise a run on the leading
        r x r block cuts each row's nonzero columns at r into flat column and
        value lists, and each step is one prefix sum of the nonzero products,
        differenced at the row ends."""
        n = len(rows)
        if 2 * sum(n - row.count(0) for row in rows) > n * n:
            return Ring.krylov(self, rows)
        support = [list(compress(range(n), row)) for row in rows]

        def run(v, k):
            r = len(v)
            cuts = [bisect_left(js, r) for js in support[:r]]
            cols = [j for js, t in zip(support, cuts) for j in js[:t]]
            xs = [row[j] for row, js, t in zip(rows, support, cuts) for j in js[:t]]
            ends = list(accumulate(cuts, initial=0))
            out, starts, ends = [v], ends[:-1], ends[1:]
            for _ in range(k):
                acc = list(accumulate(map(_mul, xs, map(v.__getitem__, cols)), initial=0))
                v = list(map(_sub, map(acc.__getitem__, ends), map(acc.__getitem__, starts)))
                out.append(v)
            return out
        return run

    def product(self, a, b, order=None):
        """Plain-int loop over the shorter operand (trailing zeros stripped),
        or one signed Kronecker product where _z_packs says so."""
        la, lb = len(a), len(b)
        while la and not a[la - 1]:
            la -= 1
        while lb and not b[lb - 1]:
            lb -= 1
        if not la or not lb:
            return [] if order is None else [0] * (order + 1)
        size = la + lb - 1
        if order is not None and size > order:
            size = order + 1
            la, lb = min(la, size), min(lb, size)
        if lb < la:
            a, la, b, lb = b, lb, a, la
        if _z_packs(a, la):
            out = _signed_kronecker(a, la, b, lb, size)
        else:
            out = _int_loop(a, la, b, lb, size)
        # the leading coefficient of a full product is nonzero over Z
        if order is not None and size <= order:
            out += [0] * (order + 1 - size)
        return out

    def exact_div(self, a, b):
        if b == 0:
            raise ZeroDivisor("exact division by zero")
        q, r = divmod(a, b)
        if r:
            raise NotDivisible("%d does not divide %d" % (b, a))
        return q

    def gcd(self, a, b):
        return math.gcd(a, b)

    def unit_normal(self, a):
        """(unit, normal form): normal form has positive sign."""
        return (-1, -a) if a < 0 else (1, a)

    def bit_size(self, a):
        return a.bit_length()

    def format(self, a):
        return _decimal(a)

    def parse(self, s):
        try:
            return int(s)
        except ValueError:
            raise ParseError("bad integer literal %r" % s)

    def random_element(self, rng, bound=99):
        return rng.int_between(-bound, bound)


class RationalField(Ring):
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)
    spec = RingSpec(True, True, None)

    def from_int(self, k):
        return Fraction(k)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisor("division by zero")
        return a / b

    exact_div = div

    def product(self, a, b, order=None):
        """One IntegerRing.product of the operands with their denominators
        cleared, then one Fraction per coefficient."""
        ia, da = _clear_denominators(a)
        ib, db = _clear_denominators(b)
        den = da * db
        return [Fraction(c, den) for c in ZZ.product(ia, ib, order)]

    def bit_size(self, a):
        return max(a.numerator.bit_length(), a.denominator.bit_length())

    def format(self, a):
        if a.denominator == 1:
            return _decimal(a.numerator)
        return "%s/%s" % (_decimal(a.numerator), _decimal(a.denominator))

    def parse(self, s):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad rational literal %r" % s)

    def random_element(self, rng, bound=9):
        num = rng.int_between(-bound, bound)
        den = rng.int_between(1, bound)
        return Fraction(num, den)


ZZ = IntegerRing()
QQ = RationalField()


# ---------------------------------------------------------------------------
# Z/pZ

# run by every IntegersMod(m), one per modular image: 4 ms at 320 bits and
# 63 ms at 1024, as much as a Hessenberg image of n = 24
@functools.lru_cache(maxsize=256)
def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class IntegersMod(Ring):
    """Z/mZ with canonical residues in [0, m)."""

    def __init__(self, m):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.name = "zp:%d" % m
        self.zero = 0
        self.one = 1 % m
        prime = _is_probable_prime(m)
        self.spec = RingSpec(prime, prime, m - 1 if prime else 0)

    def from_int(self, k):
        return k % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return (-a) % self.m

    # delayed reduction: one % per dot or entry instead of one per op

    def dot(self, xs, ys):
        return sum(map(_mul, xs, ys)) % self.m

    def submul(self, ys, c, xs):
        m = self.m
        return [(y - c * x) % m for y, x in zip(ys, xs)]

    def product(self, a, b, order=None):
        """Plain-int loop over the shorter operand (trailing zeros stripped)
        when it has under KRONECKER_MIN_TERMS nonzero coefficients, else
        one bigint product by Kronecker substitution; one reduction per
        coefficient either way."""
        m = self.m
        la, lb = len(a), len(b)
        while la and not a[la - 1]:
            la -= 1
        while lb and not b[lb - 1]:
            lb -= 1
        if not la or not lb:
            return [] if order is None else [0] * (order + 1)
        size = la + lb - 1
        if order is not None and size > order:
            size = order + 1
            la, lb = min(la, size), min(lb, size)
        if lb < la:
            a, la, b, lb = b, lb, a, la
        if la < KRONECKER_MIN_TERMS or a[:la].count(0) > la - KRONECKER_MIN_TERMS:
            out = [c % m for c in _int_loop(a, la, b, lb, size)]
        else:
            out = self._kronecker(a, la, b, lb, size)
        if order is None:
            while out and not out[-1]:
                out.pop()
        elif size <= order:
            out += [0] * (order + 1 - size)
        return out

    def _kronecker(self, a, la, b, lb, size):
        """First `size` coefficients of a[:la]*b[:lb] mod m: each operand
        packed into one int with a slot wide enough for any product
        coefficient, one bigint product, unpacked and reduced."""
        m = self.m
        width, code = _slot_format(min(la, lb) * (m - 1) ** 2)
        pa = _residue_slots(a[:la], m, width, code)
        if b is a:
            prod = pa * pa      # CPython squares faster than it multiplies
        else:
            prod = pa * _residue_slots(b[:lb], m, width, code)
        return _from_slots(prod.to_bytes(width * (la + lb - 1), "little"), width, code, size, m)

    def matmul(self, a_rows, b_rows):
        """Each row of b packed once into one int with a slot wide enough
        for any entry of the product; each output row is then one sum of
        (entry of a) * (packed row of b), unpacked and reduced."""
        m = self.m
        width, code = _slot_format(len(b_rows) * (m - 1) ** 2)
        cols = len(b_rows[0])
        size = width * cols
        packed = [_residue_slots(row, m, width, code) for row in b_rows]
        return [_from_slots(sum(map(_mul, [x % m for x in row], packed)).to_bytes(size, "little"),
                            width, code, cols, m)
                for row in a_rows]

    def krylov(self, rows, sparse=False):
        """Each column reduced and packed once, in slots wide enough for
        any entry of a product; a run on the leading r x r block masks r
        columns to r slots, and each step is one sum of (entry of v) *
        (masked column)."""
        m = self.m
        width, code = _slot_format(len(rows) * (m - 1) ** 2)
        cols = [_residue_slots(col, m, width, code) for col in zip(*rows)]

        def run(v, k):
            r = len(v)
            block = [col & ((1 << 8 * width * r) - 1) for col in cols[:r]]
            out, v = [v], [x % m for x in v]
            for _ in range(k):
                v = _from_slots(sum(map(_mul, v, block)).to_bytes(width * r, "little"),
                                width, code, r, m)
                out.append(v)
            return out
        return run

    def div(self, a, b):
        if b % self.m == 0:
            raise ZeroDivisor("division by zero in %s" % self.name)
        try:
            return a * pow(b, -1, self.m) % self.m
        except ValueError:
            raise ZeroDivisor("%d is a zero divisor mod %d" % (b, self.m))

    exact_div = div

    def inverse_of_unit(self, a):
        return self.div(self.one, a)

    def div_by_int(self, a, k):
        if k <= 0:
            raise IntegerNotInvertible("integer divisor must be positive")
        if math.gcd(k, self.m) != 1:
            raise IntegerNotInvertible("%d is not invertible mod %d" % (k, self.m))
        return a * pow(k, -1, self.m) % self.m

    def principal_root(self, order):
        if not self.spec.is_field or order < 2 or (self.m - 1) % order != 0:
            raise DftUnavailable("no principal root of order %d mod %d" % (order, self.m))
        m = self.m
        cof = (m - 1) // order
        qs = _prime_factors(order)
        for g in range(2, m):
            x = pow(g, cof, m)
            if all(pow(x, order // q, m) != 1 for q in qs):
                return x
        raise DftUnavailable("no principal root of order %d mod %d" % (order, self.m))

    def bit_size(self, a):
        return a.bit_length()

    def format(self, a):
        return str(a)

    def parse(self, s):
        try:
            return int(s) % self.m
        except ValueError:
            raise ParseError("bad residue literal %r" % s)

    def random_element(self, rng, bound=None):
        return rng.below(self.m)


# fewest nonzero coefficients of the shorter operand for which
# IntegersMod.product packs both operands (Kronecker substitution) rather
# than running the plain-int loop.  Measured on dense operands of equal
# length L over Z/10007, Z/998244353 and Z/(2^61-1) (CPython 3.11):
# Kronecker wins from L ~ 8-10 for full products and from L ~ 12 for
# products truncated at order L-1, and loses by up to 2x below L = 6.
KRONECKER_MIN_TERMS = 10

# The same cutoff for IntegerRing.product (_z_packs, which Z[x]'s hooks
# share per pair), whose signed packing costs more.  Measured on dense
# signed operands of equal length L (CPython 3.11, 2-CPU Xeon, best of
# 5): against the loop, Kronecker loses by 1.1-1.5x at L = 12-16 with
# 8-bit coefficients and wins from L = 20, or from L = 14 with 64-bit
# ones.
Z_KRONECKER_MIN_TERMS = 16

# most entries (flat positions times normal-form residues) of the table a
# QuotientRing builds; past it the ring reduces by _rem.  At the
# bound, Z/p[x]/<x^362+3x^5-1> builds its table in 13 ms (p = 7) to 41 ms
# (p = 2^61-1), holds it in 0.3-2.4 MB, and multiplies 22x to 3.7x faster
# than through _rem (CPython 3.11, one pinned CPU of a 2-CPU Xeon).
FLAT_TABLE_MAX = 1 << 18


def _slot_format(bound):
    """(bytes per slot, struct code) for slots that hold 0..bound: the
    bytes needed rounded up to 1, 2, 4 or 8 with their unsigned struct
    code, or past 8 bytes the exact width and None.  struct packs the
    wider slots faster than to_bytes packs the exact ones (in-process
    best of 7, CPython 3.11, one pinned CPU of a 2-CPU Xeon): 12-term
    products and 12x12 matmuls in exact 3- to 7-byte slots run 1.03-1.33x
    faster rounded up, 64-term products over Z/10007 1.46x.  Past a few
    hundred slots the wider bigint product costs more than struct saves:
    1024-term products over Z/10007 run 0.80x as fast."""
    width = (bound.bit_length() + 7) // 8
    for size, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")):
        if width <= size:
            return size, code
    return width, None


def _to_slots(xs, width, code):
    """The ints xs, each in [0, 256^width), as one int of `width`-byte
    slots, xs[0] lowest."""
    if code:
        return int.from_bytes(struct.pack("<%d%s" % (len(xs), code), *xs), "little")
    return int.from_bytes(b"".join([x.to_bytes(width, "little") for x in xs]), "little")


def _residue_slots(xs, m, width, code):
    """_to_slots of the residues of xs mod m, reduced in the packing pass
    (a separate pass costs the wide slots 13%)."""
    if code:
        return _to_slots([x % m for x in xs], width, code)
    return int.from_bytes(b"".join([(x % m).to_bytes(width, "little") for x in xs]), "little")


def _from_slots(raw, width, code, count, m):
    """The first `count` `width`-byte slots of the bytes `raw`, each
    reduced mod m."""
    if code:
        return [r % m for r in struct.unpack_from("<%d%s" % (count, code), raw)]
    unpack = int.from_bytes
    return [unpack(raw[i:i + width], "little") % m for i in range(0, width * count, width)]


def _z_packs(a, la):
    """Whether IntegerRing.product packs, for a shorter operand a[:la]: at
    least Z_KRONECKER_MIN_TERMS of its coefficients are nonzero."""
    return la >= Z_KRONECKER_MIN_TERMS and a[:la].count(0) <= la - Z_KRONECKER_MIN_TERMS


def _int_loop(a, la, b, lb, size):
    """The first `size` coefficients of a[:la]*b[:lb] over Z, unreduced:
    a plain-int loop over the nonzero coefficients of a."""
    out = [0] * size
    b = b[:lb]
    i = 0
    for x in a[:la]:
        if x:
            k = i
            for y in b[:size - i]:
                out[k] += x * y
                k += 1
        i += 1
    return out


def _signed_kronecker(a, la, b, lb, size):
    """First `size` coefficients of a[:la]*b[:lb] over Z by a signed
    Kronecker product: each operand packed into one int, a slot per
    coefficient with room for the sign of any product coefficient, one
    bigint product, and half a slot added to every coefficient of the
    product so that the slots unpack as unsigned bytes."""
    square = b is a
    a, b = a[:la], b[:lb]
    bits = _max_abs(a).bit_length()
    bits += bits if square else _max_abs(b).bit_length()
    width = (bits + la.bit_length() + 8) // 8
    pa = _signed_pack(a, width)
    prod = pa * pa if square else pa * _signed_pack(b, width)
    return _signed_unpack(prod, width, la + lb - 1, size)


def _signed_unpack(x, width, n, size):
    """The first `size` of the n signed `width`-byte slots of
    x = sum(d[i] * 2^(8*width*i)), each d[i] in [-2^(8*width-1),
    2^(8*width-1)): half a slot added to every slot, so that the slots
    read as unsigned bytes."""
    half = 1 << (8 * width - 1)
    raw = (x + int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")).to_bytes(
        width * n, "little")
    unpack = int.from_bytes
    return [unpack(raw[i:i + width], "little") - half for i in range(0, width * size, width)]


def _max_abs(a):
    return max(max(a), -min(a))


def _signed_pack(a, width):
    """sum(a[i] * 2^(8*width*i)): the two's-complement slots read as one
    unsigned int, less the borrow each negative slot owes the next."""
    packed = int.from_bytes(b"".join([x.to_bytes(width, "little", signed=True) for x in a]),
                            "little")
    if min(a) < 0:
        slot = bytes(width)
        borrow = b"\x01" + slot[1:]
        packed -= int.from_bytes(b"".join([borrow if x < 0 else slot for x in a]),
                                 "little") << (8 * width)
    return packed


def _kronecker_pack(x, widths):
    """x nested len(widths) deep at x_l -> 2^(8 widths[l]), innermost first."""
    if not widths:
        return x
    inner = widths[:-1]
    return _signed_pack([_kronecker_pack(c, inner) for c in x], widths[-1]) if x else 0


def _kronecker_unpack(h, widths):
    """Inverts _kronecker_pack where every slot holds its signed value."""
    if not widths:
        return h
    if not h:
        return ()
    width, inner = widths[-1], widths[:-1]
    n = 2 + abs(h).bit_length() // (8 * width)     # h's slots and up to two zero ones
    digits = poly.strip(ZZ, _signed_unpack(h, width, n, n))
    return tuple(_kronecker_unpack(d, inner) for d in digits)


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# ---------------------------------------------------------------------------
# univariate polynomials (dense tuples, ascending, trailing zeros stripped)

_NAME = r"[a-zA-Z]\w*"      # a variable name in a term or a ring spec
_TERM_RE = re.compile(r"([+-]?\d+)((?:\*%s\^\d+)*)$" % _NAME)

# largest exponent of one variable in a term of a polynomial literal
# (summed over the term's factors): literals are stored dense, so a
# larger one is refused before anything is sized by it
MAX_LITERAL_EXPONENT = 1 << 16


class PolynomialRing(Ring):
    def __init__(self, base, var="x"):
        self.base = base
        self.var = var
        self.name = "%s[%s]" % (base.name, var)
        self.zero = ()
        self.one = (base.one,)
        b = base.spec
        self.spec = RingSpec(b.is_integral_domain, False, b.max_invertible_integer)

    def from_int(self, k):
        c = self.base.from_int(k)
        return () if self.base.is_zero(c) else (c,)

    def from_base(self, c):
        return () if self.base.is_zero(c) else (c,)

    def add(self, a, b):
        return tuple(poly.add(self.base, a, b))

    def sub(self, a, b):
        return tuple(poly.sub(self.base, a, b))

    def mul(self, a, b):
        return tuple(self.base.product(a, b))

    def neg(self, a):
        return tuple(map(self.base.neg, a))

    # over exactly ZZ: plain-int accumulators, one per output coefficient
    # (_zx_addmul), each stripped to a tuple once; any other base, a
    # CountingRing(ZZ) included, keeps the Ring defaults

    def product(self, a, b, order=None):
        if self.base is not ZZ:
            return Ring.product(self, a, b, order)
        n = len(a) + len(b) - 1 if order is None else order + 1
        accs = [[] for _ in range(n)]
        for i, x in enumerate(a[:n]):
            if x:
                for acc, y in zip(accs[i:], b):
                    _zx_addmul(acc, x, y)
        out = list(map(_zx_strip, accs))
        if order is None:
            while out and not out[-1]:
                out.pop()
        return out

    def dot(self, xs, ys):
        if self.base is not ZZ:
            return Ring.dot(self, xs, ys)
        acc = []
        for x, y in zip(xs, ys):
            _zx_addmul(acc, x, y)
        return _zx_strip(acc)

    def submul(self, ys, c, xs):
        if self.base is not ZZ:
            return Ring.submul(self, ys, c, xs)
        c = [-t for t in c]
        return [_zx_strip(_zx_addmul(list(y), c, x)) for y, x in zip(ys, xs)]

    def exact_div(self, a, b):
        if not b:
            raise ZeroDivisor("exact division by zero polynomial")
        return tuple(poly.exact_div_poly(self.base, a, b))

    def div_by_int(self, a, k):
        if not a:       # vet k as for a nonzero a, without counting an op
            base = self.base
            while isinstance(base, CountingRing):
                base = base.inner
            base.div_by_int(base.zero, k)
        return tuple(self.base.div_by_int(c, k) for c in a)

    def gcd(self, a, b):
        """Monic gcd over a field; over Z the gcd of the contents times the
        primitive gcd with a positive leading coefficient.  Over exactly Z
        or Q the integer-only heuristic gcd (_gcd_int_poly), else Euclid."""
        base = self.base
        if base is ZZ:
            return tuple(_gcd_int_poly(list(a), list(b)))
        if base is QQ:
            return tuple(_gcd_rat_poly(a, b))
        if not base.spec.is_field:
            raise Unsupported("gcd unavailable over %s" % base.name)
        a, b = list(a), list(b)
        while b:
            _, r = poly.divmod_poly(base, a, b)
            a, b = b, r
        if a:
            lead_inv = base.inverse_of_unit(a[-1])
            a = [base.mul(lead_inv, c) for c in a]
        return tuple(a)

    def unit_normal(self, a):
        """(unit u of the fraction-field numerator scaling, u*a normalized).

        Over a field base: monic; over Z: positive leading coefficient.
        """
        if not a:
            return self.one, a
        base = self.base
        if base.spec.is_field:
            u = base.inverse_of_unit(a[-1])
            return (u,), tuple(base.mul(u, c) for c in a)
        if base is ZZ:
            if a[-1] < 0:
                return (-1,), tuple(-c for c in a)
            return self.one, tuple(a)
        raise Unsupported("normalization unavailable over %s" % base.name)

    def bit_size(self, a):
        return max((self.base.bit_size(c) for c in a), default=0)

    def format(self, a):
        """Nonzero terms, highest degree first; a need not be stripped."""
        parts = []
        for k in range(len(a) - 1, -1, -1):
            c = a[k]
            if self.base.is_zero(c):
                continue
            cs = self.base.format(c)
            if k and _is_sum(cs):
                cs = "(%s)" % cs
            parts.append(cs if k == 0 else "%s*%s^%d" % (cs, self.var, k))
        return _join_terms(parts) if parts else "0"

    def parse(self, s):
        base = self.base
        terms = _parse_terms(s, (self.var,))
        out = [base.zero] * (max(terms, default=(-1,))[0] + 1)
        for (k,), c in terms.items():
            out[k] = base.from_int(c)
        return tuple(poly.strip(base, out))

    def random_element(self, rng, degree=2, bound=99):
        out = [self.base.random_element(rng, bound) for _ in range(degree + 1)]
        return tuple(poly.strip(self.base, out))


def _zx_addmul(acc, x, y):
    """acc += x*y for x, y in Z[x] (tuples of ints) and acc a list of ints,
    lengthened as needed; returns acc.  IntegerRing.product's signed
    Kronecker product where _z_packs says so, else a loop over the nonzero
    coefficients of the shorter operand."""
    if len(x) > len(y):
        x, y = y, x
    lx = len(x)
    if not lx:
        return acc
    n = lx + len(y) - 1
    if len(acc) < n:
        acc += [0] * (n - len(acc))
    if _z_packs(x, lx):
        acc[:n] = map(_add, acc, _signed_kronecker(x, lx, y, len(y), n))
        return acc
    i = 0
    for c in x:
        if c:
            k = i
            for d in y:
                acc[k] += c * d
                k += 1
        i += 1
    return acc


def _zx_strip(acc):
    """The Z[x] element of the coefficient list acc (stripped in place)."""
    while acc and not acc[-1]:
        acc.pop()
    return tuple(acc)


def _split_terms(s):
    s = s.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial literal")
    terms, cur = [], ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "*^+-":
            terms.append(cur)
            cur = ch if ch == "-" else ""
        else:
            cur += ch
    terms.append(cur)
    return [t.lstrip("+") or t for t in terms if t not in ("", "+")]


def _parse_terms(s, varnames):
    """{exponent-tuple: summed integer coefficient} of a polynomial literal."""
    out = {}
    for t in _split_terms(s):
        m = _TERM_RE.match(t)
        if not m:
            raise ParseError("bad polynomial term %r" % t)
        e = [0] * len(varnames)
        for piece in filter(None, m.group(2).split("*")):
            var, _, exp = piece.partition("^")
            if var not in varnames:
                raise ParseError("unknown variable %r" % var)
            e[varnames.index(var)] += _literal_int(exp)
        if max(e, default=0) > MAX_LITERAL_EXPONENT:
            raise ParseError("exponent above %d in term %.40r" % (MAX_LITERAL_EXPONENT, t))
        e = tuple(e)
        out[e] = out.get(e, 0) + _literal_int(m.group(1))
    return out


def _literal_int(digits):
    try:
        return int(digits)
    except ValueError:      # longer than the interpreter converts
        raise ParseError("integer of %d digits in a polynomial literal" % len(digits))


def _join_terms(parts):
    """'a+b-c' from the terms ['a', 'b', '-c']."""
    return parts[0] + "".join(t if t.startswith("-") else "+" + t for t in parts[1:])


def _is_sum(text):
    """Whether text has a + or - outside parentheses after its first
    character."""
    depth = 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if i and not depth and ch in "+-":
            return True
    return False


def _gcd_int_poly(a, b):
    """gcd over Z[x] (lists): the gcd of the contents times the primitive
    gcd with a positive leading coefficient.

    The heuristic gcd GCDHEU (Char, Geddes and Gonnet, JSC 1989): the
    integer gcd of the primitive parts' values at 2^(8w), read back as
    signed w-byte slots, gives the gcd's primitive part.  With 2^(8w)
    above 2 min(|f|, |g|) + 1 (max norms of the primitive parts f and g)
    a candidate that divides both is the gcd, so every answer is exact;
    w is xi's byte count, xi grows from each point by sympy's rule for up
    to six points (as many as sympy's dup_zz_heu_gcd tries), then Euclid."""
    if not a or not b:
        return _make_positive(a or b)
    ca, cb = math.gcd(*a), math.gcd(*b)
    cg = math.gcd(ca, cb)
    if len(a) == 1 or len(b) == 1:
        return [cg]
    f = [c // ca for c in a]
    g = [c // cb for c in b]
    xi = 2 * min(_max_abs(f), _max_abs(g)) + 29
    for _ in range(6):
        w = (xi.bit_length() + 7) // 8
        # the gcd is positive, so its top slot is too
        digits = _kronecker_unpack(math.gcd(_horner(f, 8 * w), _horner(g, 8 * w)), [w])
        c = math.gcd(*digits)
        digits = [d // c for d in digits]
        if _divides(digits, f) and _divides(digits, g):
            return [cg * d for d in digits]
        xi = (73794 << 10 * w) // 27011         # 73794 xi isqrt(isqrt(xi)) // 27011 at 2^(8w)
    return _gcd_int_poly_euclid(a, b)


def _horner(f, shift):
    acc = 0
    for c in reversed(f):
        acc = (acc << shift) + c
    return acc


def _divides(d, f):
    """Whether d divides f in Z[x] (d primitive)."""
    try:
        return not poly.divmod_poly(ZZ, f, d)[1]
    except NotDivisible:
        return False


def _gcd_int_poly_euclid(a, b):
    """_gcd_int_poly by the primitive remainder sequence over Z: its
    fallback.  Each pseudo-remainder lc(g)^(df-dg+1) f mod g is divided by
    its content, so its coefficients are no larger than those of the
    subresultant of its degree."""
    if not a or not b:
        return _make_positive(a or b)
    ca, cb = math.gcd(*a), math.gcd(*b)
    f, g = [c // ca for c in a], [c // cb for c in b]
    if len(f) < len(g):
        f, g = g, f
    while g:
        lead = g[-1] ** (len(f) - len(g) + 1)
        r = poly.divmod_poly(ZZ, [c * lead for c in f], g)[1]
        content = math.gcd(*r) or 1
        f, g = g, [c // content for c in r]
    return _make_positive([c * math.gcd(ca, cb) for c in f])


def _gcd_rat_poly(a, b):
    """Monic gcd over Q[x]: the Z[x] gcd of the operands with their
    denominators cleared, made monic."""
    g = _gcd_int_poly(_clear_denominators(a)[0], _clear_denominators(b)[0])
    return [Fraction(c, g[-1]) for c in g]


def _clear_denominators(a):
    """(ints, den) with a[k] = ints[k] / den and den the lcm of the
    denominators of a."""
    den = math.lcm(*(c.denominator for c in a))
    return [c.numerator * (den // c.denominator) for c in a], den


def _make_positive(a):
    if a and a[-1] < 0:
        return [-c for c in a]
    return list(a)


# ---------------------------------------------------------------------------
# multivariate polynomials over Z or Z/mZ, and triangular quotients of
# them: towers of the univariate ring, elements nested dense tuples

class MultiPolynomialRing(PolynomialRing):
    """Z[v1..vk] (p=None) or Z/p[v1..vk]: the polynomials in vk over
    MultiPolynomialRing(p, v1..v(k-1)), or over Z or Z/p for k = 1.

    Elements are nested dense tuples, vk outermost.  Arithmetic is the
    univariate ring's: mul is the base's product hook (Kronecker at the
    bottom over Z/p), exact division the recursive divmod_poly, and spec
    the univariate tower's.  format, parse and random_element go through
    exponent dicts (multipoly).
    """

    gcd = unit_normal = None        # so FractionField refuses the ring

    def __init__(self, p, varnames):
        if p is not None and p < 2:
            raise ValueError("modulus must be >= 2")
        self.p = p
        self.vars = tuple(varnames)
        self.scalars = ZZ if p is None else IntegersMod(p)
        base = self.scalars if len(self.vars) == 1 else MultiPolynomialRing(p, self.vars[:-1])
        super().__init__(base, self.vars[-1])
        coeff_name = "Z" if p is None else "zp:%d" % p
        self.name = "%s[%s]" % (coeff_name, ",".join(self.vars))

    def format(self, a):
        d = mp.to_dict(a, len(self.vars))
        if not d:
            return "0"
        parts = []
        for e in sorted(d, key=lambda e: (sum(e), e), reverse=True):
            bits = [self.scalars.format(d[e])]
            for var, k in zip(self.vars, e):
                if k:
                    bits.append("%s^%d" % (var, k))
            parts.append("*".join(bits))
        return _join_terms(parts)

    def parse(self, s):
        return mp.from_dict(_parse_terms(s, self.vars), len(self.vars), self.p)

    def random_element(self, rng, total_degree=2, bound=99):
        k = len(self.vars)
        return mp.from_dict({e: self.scalars.random_element(rng, bound)
                             for e in mp.exponents_upto(k, total_degree)}, k)


class QuotientRing(PolynomialRing):
    """Z/p[v1..vk]/<I1..Ik> with Ii monic in vi and involving only v1..vi,
    as a tower of univariate quotients (Li, Moreno Maza and Schost, "Fast
    arithmetic for triangular sets", JSC 2009): the vk-polynomials over
    QuotientRing(p, v1..v(k-1), I1..I(k-1)), or over Z/p for k = 1,
    modulo Ik.

    Elements are the reduced MultiPolynomialRing(p, vars) elements, and
    the generators are MultiPolynomialRing(p, vars) elements.  The full
    normal form (reduce: each coefficient, then _rem by Ik) runs for parse,
    the generators and quotient_reduce.

    Arithmetic goes through a flat form: the residues of an element at
    mixed-radix positions, radix 2*d_i - 1 for v_i (d_i the degree of
    Ii), v1 fastest.  The product of two reduced elements then has every
    monomial at its own position below `span`, so one Z/p product of two
    flat forms -- or of two stacked lists of elements, element k at
    k*span -- holds every unreduced product (_kron: IntegersMod.product
    for short operands, else one packed bigint product of which only
    the wanted slots are unpacked).  mul, product, dot (ys stacked
    backward, the middle block) and submul each make one Z/p product and
    reduce each output element's block of `span` residues once, at every
    size; only _reduce_flat knows how.  Up to FLAT_TABLE_MAX table
    entries the normal form of the monomial at each position is
    tabulated when the ring is built (one packed row per position, from
    the lower level's reduction and one base.submul per row), and a
    block reduces by one packed sum.  Past it, each v_k-coefficient of
    the block reduces one level down and _rem divides by Ik.
    """

    exact_div = Ring.exact_div      # division by the units +-1 only
    gcd = unit_normal = None

    def __init__(self, p, varnames, ideal):
        if not _is_probable_prime(p):
            raise ValueError("quotient rings are built over prime p")
        varnames = tuple(varnames)
        k = len(varnames)
        if len(ideal) != k:
            raise NonTriangularIdeal("need one generator per variable")
        *lower, top = ideal
        for i, g in enumerate(lower):
            if len(g) > 1:
                raise NonTriangularIdeal("generator %d involves a later variable" % i)
        self._poly = MultiPolynomialRing(p, varnames)
        if k == 1:
            base = self._poly.scalars
        else:
            base = QuotientRing(p, varnames[:-1], [g[0] if g else () for g in lower])
        if len(top) < 2:
            raise NonTriangularIdeal("generator %d has no %s term" % (k - 1, varnames[-1]))
        if top[-1] != self._poly.base.one:
            raise NonTriangularIdeal("generator %d is not monic in %s" % (k - 1, varnames[-1]))
        super().__init__(base, varnames[-1])
        self.p = p
        self.vars = varnames
        self.scalars = self._poly.scalars
        self.degrees = (base.degrees if k > 1 else ()) + (len(top) - 1,)
        self.modulus = self._reduce_coefficients(top)
        self.name = "zp:%d[%s]/%s" % (
            p, ",".join(varnames), ";".join(self._poly.format(g) for g in ideal))
        self.spec = RingSpec(False, False, p - 1)
        d = self.degrees[-1]
        self.span = (base.span if k > 1 else 1) * (2 * d - 1)
        self.size = (base.size if k > 1 else 1) * d       # residues in a normal form
        self._tower = k > 1
        self._pad = [0] * self.span
        self._table = None
        if self.span * self.size <= FLAT_TABLE_MAX:
            self._tabulate()

    def _tabulate(self):
        """Packed normal forms of the monomials at every flat position:
        the lower level's monomials times v^t, for t < d as they are, for
        t >= d from t-1 by one shift and one base.submul by the modulus."""
        base, d, p = self.base, self.degrees[-1], self.p
        if self._tower:
            lower = [base._reduce_flat([0] * m + [1]) for m in range(base.span)]
        else:
            lower = [base.one]
        # a flat block holds residues below 2p (submul adds y before reducing)
        width, code = _slot_format(2 * self.span * (p - 1) ** 2)
        zero, g = base.zero, self.modulus[:d]
        table = [0] * self.span
        for m, c in enumerate(lower):
            for t in range(2 * d - 1):
                if t < d:
                    r = [zero] * d
                    r[t] = c
                else:
                    top = r.pop()
                    r.insert(0, zero)
                    if top != zero:
                        r = base.submul(r, top, g)
                table[t * len(lower) + m] = _to_slots(self._dense(r), width, code)
        self._table = table
        self._table_bytes = width * self.size
        self._unpack_table = (struct.Struct("<%d%s" % (self.size, code)).unpack if code else
                              lambda raw: _from_slots(raw, width, None, self.size, p))

    def _dense(self, a):
        """The `size` residues of a (not necessarily stripped) in the
        normal-form basis, v1 fastest."""
        if not self._tower:
            return list(a) + [0] * (self.size - len(a))
        out = []
        for c in a:
            out += self.base._dense(c)
        return out + [0] * (self.size - len(out))

    def _flat(self, a):
        """The residues of an element at their flat positions."""
        return self.base._stack(a) if self._tower else a

    def _stack(self, xs):
        """The flat forms of the elements xs, element k at k*span."""
        out, pad, flat = [], self._pad, self._flat
        for x in xs:
            f = flat(x)
            out += f
            out += pad[len(f):]
        return out

    def _kron(self, fa, fb, lo, count):
        """At most `count` residues of the product of the residue lists fa
        and fb, from position lo on (fewer where the product ends).  Short
        operands go to IntegersMod.product (its plain-int loop); longer
        ones are packed into slots wide enough for any product
        coefficient, one bigint product, of which only the wanted slots
        are unpacked."""
        p = self.p
        if min(len(fa), len(fb)) < KRONECKER_MIN_TERMS:
            return self.scalars.product(fa, fb)[lo:lo + count]
        width, code = _slot_format(min(len(fa), len(fb)) * (p - 1) ** 2)
        prod = (_to_slots(fa, width, code) * _to_slots(fb, width, code)) >> (8 * width * lo)
        raw = prod.to_bytes(width * max(count, len(fa) + len(fb) - lo), "little")
        return _from_slots(raw, width, code, count, p)

    def _reduce_flat(self, c):
        """The element whose flat form is c (at most `span` residues below
        2p, any monomials): one packed sum over the table, or without one
        each block of a power of the top variable reduced by the level
        below and then _rem."""
        p = self.p
        if self._table is None:
            if not self._tower:
                return self._rem([r % p for r in c])
            n, lower = self.base.span, self.base._reduce_flat
            return self._rem([lower(c[i:i + n]) for i in range(0, len(c), n)])
        raw = sum(map(_mul, c, self._table)).to_bytes(self._table_bytes, "little")
        return self._nest([r % p for r in self._unpack_table(raw)])

    def _nest(self, v):
        """The canonical element of its `size` residues v (a list)."""
        if self._tower:
            n, nest = self.base.size, self.base._nest
            v = [nest(v[i:i + n]) for i in range(0, self.size, n)]
        while v and not v[-1]:
            v.pop()
        return tuple(v)

    def mul(self, a, b):
        return self._reduce_flat(self._kron(self._flat(a), self._flat(b), 0, self.span))

    def product(self, a, b, order=None):
        n = len(a) + len(b) - 1 if order is None else order + 1
        if n <= 0:
            return []
        span, reduce = self.span, self._reduce_flat
        c = self._kron(self._stack(a), self._stack(b), 0, n * span)
        out = [reduce(c[i:i + span]) for i in range(0, n * span, span)]
        if order is None:
            while out and not out[-1]:
                out.pop()
        return out

    def dot(self, xs, ys):
        """The middle block of one product: xs stacked forward, ys backward."""
        n = min(len(xs), len(ys))
        span = self.span
        return self._reduce_flat(self._kron(self._stack(xs[:n]), self._stack(ys[:n][::-1]),
                                            (n - 1) * span, span))

    def submul(self, ys, c, xs):
        """One product of the flat form of -c and the stacked xs, the
        stacked ys added before the reduction."""
        n = min(len(ys), len(xs))
        p, span, reduce = self.p, self.span, self._reduce_flat
        c = self._kron([-r % p for r in self._flat(c)], self._stack(xs[:n]), 0, n * span)
        y = self._stack(ys[:n])
        c = list(map(_add, c, y)) + y[len(c):]
        return [reduce(c[i:i + span]) for i in range(0, n * span, span)]

    def _reduce_coefficients(self, a):
        lower = self.base.reduce if isinstance(self.base, QuotientRing) else self.base.from_int
        return [lower(c) for c in a]

    def _rem(self, r):
        """r (a list, coefficients reduced) modulo the monic modulus in the
        top variable."""
        base, g = self.base, self.modulus
        d = len(g) - 1
        zero = base.zero
        for top in range(len(r) - 1, d - 1, -1):
            c = r.pop()
            if c != zero:
                r[top - d:top] = base.submul(r[top - d:top], c, g)
        while r and r[-1] == zero:
            r.pop()
        return tuple(r)

    def reduce(self, a):
        """Normal form of a MultiPolynomialRing(p, vars) element."""
        return self._rem(self._reduce_coefficients(a))

    def format(self, a):
        return self._poly.format(a)

    def parse(self, s):
        return self.reduce(self._poly.parse(s))

    def random_element(self, rng, bound=None):
        return mp.from_dict({e: rng.below(self.p) for e in mp.exponents_below(self.degrees)},
                            len(self.vars))


def quotient_reduce(ring, polynomial):
    """Canonical representative of a MultiPolynomialRing(p, vars) element
    modulo the triangular ideal of the QuotientRing ring."""
    return ring.reduce(polynomial)


# ---------------------------------------------------------------------------
# fraction fields

class FractionField(Ring):
    """Field of fractions with mandatory gcd normalization on construction."""

    def __init__(self, base):
        if not base.spec.is_integral_domain:
            raise ValueError("fraction field needs an integral domain")
        if getattr(base, "gcd", None) is None:
            raise Unsupported("%s has no gcd; cannot normalize fractions" % base.name)
        self.base = base
        self.name = "Frac(%s)" % base.name
        self.zero = (base.zero, base.one)
        self.one = (base.one, base.one)
        self.spec = RingSpec(True, True, base.spec.max_invertible_integer)

    def make(self, num, den):
        base = self.base
        if base.is_zero(den):
            raise ZeroDivisor("zero denominator")
        if base.is_zero(num):
            return (base.zero, base.one)
        g = base.gcd(num, den)
        if not base.is_zero(g) and not base.is_one(g):
            num = base.exact_div(num, g)
            den = base.exact_div(den, g)
        u, den = base.unit_normal(den)
        if not base.is_one(u):
            num = base.mul(num, u)
        return (num, den)

    def from_int(self, k):
        return (self.base.from_int(k), self.base.one)

    def from_base(self, a):
        return (a, self.base.one)

    def add(self, a, b):
        base = self.base
        return self.make(base.add(base.mul(a[0], b[1]), base.mul(b[0], a[1])),
                         base.mul(a[1], b[1]))

    def sub(self, a, b):
        base = self.base
        return self.make(base.sub(base.mul(a[0], b[1]), base.mul(b[0], a[1])),
                         base.mul(a[1], b[1]))

    def mul(self, a, b):
        base = self.base
        return self.make(base.mul(a[0], b[0]), base.mul(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), a[1])

    def div(self, a, b):
        base = self.base
        if base.is_zero(b[0]):
            raise ZeroDivisor("division by zero fraction")
        return self.make(base.mul(a[0], b[1]), base.mul(a[1], b[0]))

    exact_div = div

    def div_by_int(self, a, k):
        if k <= 0:
            raise IntegerNotInvertible("integer divisor must be positive")
        kk = self.base.from_int(k)
        if self.base.is_zero(kk):
            raise IntegerNotInvertible("%d maps to zero in %s" % (k, self.name))
        return self.make(a[0], self.base.mul(a[1], kk))

    def bit_size(self, a):
        return max(self.base.bit_size(a[0]), self.base.bit_size(a[1]))

    def format(self, a):
        num = self.base.format(a[0])
        if self.base.is_one(a[1]):
            return num
        den = self.base.format(a[1])
        if "+" in num or "-" in num[1:] or "*" in num:
            num = "(%s)" % num
        if "+" in den or "-" in den[1:] or "*" in den:
            den = "(%s)" % den
        return "%s/%s" % (num, den)

    def random_element(self, rng, bound=9):
        num = self.base.random_element(rng, bound=bound)
        while True:
            den = self.base.random_element(rng, bound=bound)
            if not self.base.is_zero(den):
                return self.make(num, den)


# ---------------------------------------------------------------------------
# truncated power series A[z]/<z^(order+1)>

class SeriesRing(Ring):
    """Truncated series of fixed order over a base ring (tuples of length
    order+1).

    Kaltofen's is the only caller, so the ring has only what it uses.
    Its native hooks are chosen by the base: krylov over Z/p, Z,
    quotient rings and Z[x] over exactly ZZ, product and submul over
    exactly IntegersMod.  None of these is or holds a CountingRing, so
    counted streams do not move."""

    def __init__(self, base, order, var="z"):
        self.base = base
        self.order = order
        self.name = "%s[%s]/<%s^%d>" % (base.name, var, var, order + 1)
        self.zero = (base.zero,) * (order + 1)
        self.one = (base.one,) + (base.zero,) * order
        # Q, fraction fields and counted bases keep the default: the products
        # by the zeros of a split krylov cost full ring ops there
        self._split = (type(base) in (IntegersMod, IntegerRing, QuotientRing)
                       or isinstance(base, PolynomialRing) and base.base is ZZ)
        self._zp = type(base) is IntegersMod
        self.spec = RingSpec(False, False, base.spec.max_invertible_integer)

    def from_base(self, c):
        return (c,) + (self.base.zero,) * self.order

    def add(self, a, b):
        base = self.base
        return tuple(base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        base = self.base
        return tuple(base.sub(x, y) for x, y in zip(a, b))

    def mul(self, a, b):
        return tuple(self.base.product(a, b, self.order))

    def krylov(self, rows, sparse=False):
        """Each run splits its leading block A by powers of z once for all
        k steps: with d the largest z-degree in A, [A_0 | ... | A_d] times,
        at each step, the coefficient vectors of v shifted by z^0..z^d
        stacked, one base.matmul (d = 1 for Kaltofen's C + z(A - C))."""
        if not self._split:
            return Ring.krylov(self, rows, sparse)
        zero, n = self.zero, self.order + 1

        def run(v, k):
            if not v:
                return [v] * (k + 1)
            block = [row[:len(v)] for row in rows[:len(v)]]
            d = 0
            for row in block:
                for x in row:
                    while d < self.order and x[d + 1:] != zero[d + 1:]:
                        d += 1
            left = [[x[j] for j in range(d + 1) for x in row] for row in block]
            out = [v]
            for _ in range(k):
                right = [zero[:j] + y[:n - j] for j in range(d + 1) for y in v]
                v = [tuple(r) for r in self.base.matmul(left, right)]
                out.append(v)
            return out
        return run

    def product(self, a, b, order=None):
        """Over exactly IntegersMod, untruncated: one _kron, stripped."""
        if not self._zp or order is not None:
            return Ring.product(self, a, b, order)
        if not a or not b:
            return []
        out = self._kron(a, b, ())
        while out and out[-1] == self.zero:
            out.pop()
        return out

    def submul(self, ys, c, xs):
        if not self._zp:
            return Ring.submul(self, ys, c, xs)
        n, m = min(len(ys), len(xs)), self.base.m
        return self._kron([[-x % m for x in c]], xs[:n], ys[:n]) if n else []

    def _kron(self, a, b, ys):
        """a*b + ys for lists of series a, b and ys over Z/m (ys at most
        len(a)+len(b)-1 long): every series in a block of 2*(order+1)-1
        slots, one block per power of X, so one bigint product holds every
        series product; the first order+1 slots of each block are the
        coefficients mod z^(order+1)."""
        m, n = self.base.m, self.order + 1
        stride, count = 2 * n - 1, len(a) + len(b) - 1
        width, code = _slot_format(min(len(a), len(b)) * n * (m - 1) ** 2 + m - 1)
        pad = [0] * (n - 1)

        def blocks(xs):
            flat = []
            for x in xs:
                flat += x
                flat += pad
            return _residue_slots(flat, m, width, code)
        prod = blocks(a) * blocks(b) + blocks(ys)
        raw, step = prod.to_bytes(width * stride * count, "little"), width * stride
        return [tuple(_from_slots(raw[i:i + step], width, code, n, m))
                for i in range(0, step * count, step)]

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def inverse_of_unit(self, a):
        return tuple(poly.series_inverse(self.base, list(a), self.order))

    def exact_div(self, a, b):
        if b == self.one:
            return a
        return self.mul(a, self.inverse_of_unit(b))

    def eval_at_one(self, a):
        acc = self.base.zero
        for c in a:
            acc = self.base.add(acc, c)
        return acc


# ---------------------------------------------------------------------------
# instrumentation

class CountingRing(Ring):
    """Transparent wrapper counting every ring-level operation.

    Copies, negation and comparisons are free, matching the book's
    counting convention.  Wrapping a CountingRing composes additively.
    """

    def __init__(self, inner, track_bits=False):
        self.inner = inner
        self.stats = OpStats()
        self.track_bits = track_bits
        self.max_bits = 0
        self.name = "counted(%s)" % inner.name
        self.zero = inner.zero
        self.one = inner.one
        self.spec = inner.spec

    def _probe(self, r):
        if self.track_bits:
            b = self.inner.bit_size(r)
            if b > self.max_bits:
                self.max_bits = b
        return r

    def from_int(self, k):
        return self.inner.from_int(k)

    def add(self, a, b):
        self.stats.adds += 1
        return self._probe(self.inner.add(a, b))

    def sub(self, a, b):
        self.stats.subs += 1
        return self._probe(self.inner.sub(a, b))

    def mul(self, a, b):
        self.stats.muls += 1
        return self._probe(self.inner.mul(a, b))

    def neg(self, a):
        return self.inner.neg(a)

    def div(self, a, b):
        self.stats.divs += 1
        return self._probe(self.inner.div(a, b))

    def exact_div(self, a, b):
        self.stats.exact_divs += 1
        return self._probe(self.inner.exact_div(a, b))

    def div_by_int(self, a, k):
        self.stats.divs += 1
        return self._probe(self.inner.div_by_int(a, k))

    def inverse_of_unit(self, a):
        self.stats.divs += 1
        return self._probe(self.inner.inverse_of_unit(a))

    def principal_root(self, order):
        return self.inner.principal_root(order)

    def bit_size(self, a):
        return self.inner.bit_size(a)

    def format(self, a):
        return self.inner.format(a)

    def random_element(self, rng, **kw):
        return self.inner.random_element(rng, **kw)


def with_counting(ring, fn, track_bits=False):
    """Run fn(counted_ring) and return (result, OpStats)."""
    cr = CountingRing(ring, track_bits=track_bits)
    result = fn(cr)
    return result, cr.stats


# ---------------------------------------------------------------------------
# ring-spec strings (shared by the matrix file format and the CLI)

_QUOT_RE = re.compile(r"^zp:(\d+)\[([^\]]+)\]/(.+)$")
_POLY_RE = re.compile(r"^(Z|Q|zp:\d+)\[([^\]]+)\]$")


def ring_from_string(s):
    """Parse a ring-spec string: Z | Q | zp:<p> | Z[x] | Z[x,y] |
    zp:<p>[x] | zp:<p>[vars]/<poly>;<poly>."""
    try:
        return _ring_from_spec(s.strip())
    except ValueError as e:
        raise ParseError("bad ring spec %r: %s" % (s, e))


def _ring_from_spec(s):
    if s == "Z":
        return ZZ
    if s == "Q":
        return QQ
    m = _QUOT_RE.match(s)
    if m:
        p = int(m.group(1))
        varnames = _varnames(m.group(2))
        helper = MultiPolynomialRing(p, varnames)
        gens = [helper.parse(g) for g in m.group(3).split(";")]
        return QuotientRing(p, varnames, gens)
    m = _POLY_RE.match(s)
    if m:
        head, varnames = m.group(1), _varnames(m.group(2))
        if head == "Z":
            coeff = None
        elif head == "Q":
            if len(varnames) == 1:
                return PolynomialRing(QQ, varnames[0])
            raise ParseError("multivariate rings over Q are not supported")
        else:
            coeff = int(head.split(":")[1])
        if len(varnames) == 1:
            base = ZZ if coeff is None else IntegersMod(coeff)
            return PolynomialRing(base, varnames[0])
        return MultiPolynomialRing(coeff, varnames)
    if s.startswith("zp:"):
        return IntegersMod(int(s[3:]))
    raise ParseError("unknown ring spec %r" % s)


def _varnames(text):
    """The comma-separated variable names of a ring spec: each one the
    term grammar can write, none repeated, and none X, the variable
    charpoly prints."""
    names = [v.strip() for v in text.split(",")]
    for v in names:
        if not re.fullmatch(_NAME, v) or v == "X":
            raise ParseError("bad variable name %r" % v)
    if len(set(names)) < len(names):
        raise ParseError("repeated variable name in %r" % text)
    return names
