"""Dense matrices over a ring; classical (the ring's matmul hook) and
Strassen-Winograd products; block-recursive triangular inversion; the
shared matrix text format."""

from .errors import (NOT_A_UNIT, DimensionMismatch, NotInvertibleDiagonal,
                     ParseError)
from .rings import ring_from_string


class DenseMatrix:
    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, rows, cols, entries):
        if rows < 1 or cols < 1 or len(entries) != rows * cols:
            raise DimensionMismatch("need rows*cols entries")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)

    @classmethod
    def from_rows(cls, ring, rows):
        flat = [x for row in rows for x in row]
        return cls(ring, len(rows), len(rows[0]), flat)

    @classmethod
    def identity(cls, ring, n):
        e = [ring.zero] * (n * n)
        for i in range(n):
            e[i * n + i] = ring.one
        return cls(ring, n, n, e)

    @classmethod
    def zeros(cls, ring, rows, cols):
        return cls(ring, rows, cols, [ring.zero] * (rows * cols))

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def to_rows(self):
        c = self.cols
        return [self.entries[i * c:(i + 1) * c] for i in range(self.rows)]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return self.entries[j::self.cols]

    def transpose(self):
        rows = self.to_rows()
        return DenseMatrix.from_rows(self.ring, [list(col) for col in zip(*rows)])

    def eq(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            return False
        ring = self.ring
        return all(ring.eq(a, b) for a, b in zip(self.entries, other.entries))

    def is_zero(self):
        return all(self.ring.is_zero(x) for x in self.entries)

    def add(self, other):
        ring = self.ring
        return DenseMatrix(ring, self.rows, self.cols,
                           [ring.add(a, b) for a, b in zip(self.entries, other.entries)])

    def sub(self, other):
        ring = self.ring
        return DenseMatrix(ring, self.rows, self.cols,
                           [ring.sub(a, b) for a, b in zip(self.entries, other.entries)])

    def scale(self, c):
        ring = self.ring
        return DenseMatrix(ring, self.rows, self.cols,
                           [ring.mul(c, x) for x in self.entries])

    def neg(self):
        ring = self.ring
        return DenseMatrix(ring, self.rows, self.cols, [ring.neg(x) for x in self.entries])

    def apply(self, v):
        """Matrix times vector (list)."""
        if len(v) != self.cols:
            raise DimensionMismatch("vector length %d, expected %d" % (len(v), self.cols))
        dot = self.ring.dot
        return [dot(self.row(i), v) for i in range(self.rows)]

    def trace(self):
        ring = self.ring
        acc = self.at(0, 0)
        for i in range(1, self.rows):
            acc = ring.add(acc, self.at(i, i))
        return acc

    def with_ring(self, ring, convert):
        return DenseMatrix(ring, self.rows, self.cols, [convert(x) for x in self.entries])

    def __repr__(self):
        return "DenseMatrix(%s, %dx%d)" % (self.ring.name, self.rows, self.cols)


def _madd(ring, a, b):
    add = ring.add
    return [[add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _msub(ring, a, b):
    sub = ring.sub
    return [[sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _winograd(ring, a, b, cutoff):
    n = len(a)
    if n <= cutoff or n % 2 == 1:
        return ring.matmul(a, b)
    h = n // 2
    a11 = [r[:h] for r in a[:h]]
    a12 = [r[h:] for r in a[:h]]
    a21 = [r[:h] for r in a[h:]]
    a22 = [r[h:] for r in a[h:]]
    b11 = [r[:h] for r in b[:h]]
    b12 = [r[h:] for r in b[:h]]
    b21 = [r[:h] for r in b[h:]]
    b22 = [r[h:] for r in b[h:]]
    n1 = _msub(ring, a11, a21)
    n2 = _madd(ring, a21, a22)
    n3 = _msub(ring, b12, b11)
    n4 = _msub(ring, b22, b12)
    n5 = _msub(ring, n2, a11)
    n6 = _msub(ring, b22, n3)
    n7 = _msub(ring, a12, n5)
    n8 = _msub(ring, n6, b21)
    m1 = _winograd(ring, a11, b11, cutoff)
    m2 = _winograd(ring, a12, b21, cutoff)
    m3 = _winograd(ring, n1, n4, cutoff)
    m4 = _winograd(ring, n2, n3, cutoff)
    m5 = _winograd(ring, n5, n6, cutoff)
    m6 = _winograd(ring, n7, b22, cutoff)
    m7 = _winograd(ring, a22, n8, cutoff)
    c11 = _madd(ring, m1, m2)
    n9 = _madd(ring, m1, m5)
    n10 = _madd(ring, m4, m6)
    n11 = _madd(ring, m3, n9)
    c12 = _madd(ring, n9, n10)
    c21 = _msub(ring, n11, m7)
    c22 = _madd(ring, m4, n11)
    out = []
    for i in range(h):
        out.append(c11[i] + c12[i])
    for i in range(h):
        out.append(c21[i] + c22[i])
    return out


DEFAULT_STRASSEN_CUTOFF = 64


def mat_mul(a, b, strategy="classical", cutoff=DEFAULT_STRASSEN_CUTOFF):
    """Exact product; strategy in {classical, strassen}.

    classical, the default at every size, is the ring's matmul hook.
    strassen runs only when asked for: Strassen-Winograd on blocks above
    `cutoff`, padded with zeros to the next power of two and unpadded.
    The result never depends on the strategy.
    """
    if a.cols != b.rows:
        raise DimensionMismatch("%dx%d times %dx%d" % (a.rows, a.cols, b.rows, b.cols))
    ring = a.ring
    if strategy == "classical":
        rows = ring.matmul(a.to_rows(), b.to_rows())
        return DenseMatrix.from_rows(ring, rows)
    if strategy != "strassen":
        raise ValueError("unknown strategy %r" % (strategy,))
    n = 1
    while n < max(a.rows, a.cols, b.cols):
        n *= 2
    za = _pad(ring, a.to_rows(), n)
    zb = _pad(ring, b.to_rows(), n)
    rows = _winograd(ring, za, zb, max(1, min(cutoff, n)) if cutoff >= 1 else 1)
    return DenseMatrix.from_rows(ring, [r[:b.cols] for r in rows[:a.rows]])


def _pad(ring, rows, n):
    z = ring.zero
    out = [list(r) + [z] * (n - len(r)) for r in rows]
    while len(out) < n:
        out.append([z] * n)
    return out


def triangular_inverse(t, side):
    """Inverse of a triangular matrix by the block 2x2 recursion."""
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    if t.rows != t.cols:
        raise DimensionMismatch("triangular inverse needs a square matrix")
    ring = t.ring
    n = 1
    while n < t.rows:
        n *= 2
    rows = _pad(ring, t.to_rows(), n)
    for i in range(t.rows, n):
        rows[i][i] = ring.one
    inv = _tri_inv(ring, rows, side)
    return DenseMatrix.from_rows(ring, [r[:t.rows] for r in inv[:t.rows]])


def _tri_inv(ring, a, side):
    n = len(a)
    if n == 1:
        try:
            return [[ring.inverse_of_unit(a[0][0])]]
        except NOT_A_UNIT:
            raise NotInvertibleDiagonal("diagonal entry is not invertible")
    h = n // 2
    inv1 = _tri_inv(ring, [r[:h] for r in a[:h]], side)
    inv2 = _tri_inv(ring, [r[h:] for r in a[h:]], side)
    # [[A1, 0], [A3, A2]]^-1 = [[inv1, 0], [-inv2*A3*inv1, inv2]], and
    # [[A1, A3], [0, A2]]^-1 = [[inv1, -inv1*A3*inv2], [0, inv2]]
    if side == "lower":
        a3, first, last = [r[:h] for r in a[h:]], inv2, inv1
    else:
        a3, first, last = [r[h:] for r in a[:h]], inv1, inv2
    corner = [[ring.neg(x) for x in r]
              for r in ring.matmul(ring.matmul(first, a3), last)]
    z = [[ring.zero] * h for _ in range(h)]
    top, bottom = (z, corner) if side == "lower" else (corner, z)
    return ([x + y for x, y in zip(inv1, top)] +
            [x + y for x, y in zip(bottom, inv2)])


# ---------------------------------------------------------------------------
# matrix text format: line 1 "rows cols ring-spec", then rows*cols literals
# whitespace-separated in row-major order

def format_matrix(m):
    head = "%d %d %s" % (m.rows, m.cols, m.ring.name)
    lines = [head]
    for row in m.to_rows():
        lines.append(" ".join(m.ring.format(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    lines = text.strip().splitlines()
    if not lines:
        raise ParseError("empty matrix file")
    head = lines[0].split(None, 2)
    if len(head) != 3:
        raise ParseError("matrix header must be 'rows cols ring-spec'")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("matrix header: bad dimensions %r %r" % (head[0], head[1]))
    if rows < 1 or cols < 1:
        raise ParseError("matrix header: dimensions must be positive, got %d x %d" % (rows, cols))
    ring = ring_from_string(head[2])
    tokens = " ".join(lines[1:]).split()
    if len(tokens) != rows * cols:
        raise ParseError("expected %d entries, found %d" % (rows * cols, len(tokens)))
    return DenseMatrix(ring, rows, cols, [ring.parse(t) for t in tokens])
