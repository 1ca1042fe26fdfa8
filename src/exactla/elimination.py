"""Pivot-based decompositions: Gauss LU / LUP, fraction-free
Jordan-Bareiss, Dodgson condensation for Hankel matrices, the JorBarSol
dependence solver, the Bunch-Hopcroft recursive LUP, and an incremental
echelon basis over a field."""

from contextlib import contextmanager
from dataclasses import dataclass
from functools import reduce

from .errors import (NOT_A_UNIT, DimensionMismatch, ExactDivisionFailed,
                     NotSurjective, ZeroConnectedMinor)
from .matrix import DenseMatrix, mat_mul, triangular_inverse


@dataclass
class LUFactors:
    L: DenseMatrix
    U: DenseMatrix
    rank_detected: int     # order of the last nonzero dominant minor


@dataclass
class LUPFactors:
    L: DenseMatrix
    U: DenseMatrix
    perm: list             # A[:, perm[k]] = (L*U)[:, k]
    sign: int

    def permutation_matrix(self):
        ring = self.L.ring
        n = len(self.perm)
        P = DenseMatrix.zeros(ring, n, n)
        for k, j in enumerate(self.perm):
            P.entries[k * n + j] = ring.one
        return P

    def multiply_back(self):
        """L*U*P, which must equal the input."""
        return mat_mul(mat_mul(self.L, self.U), self.permutation_matrix())


@dataclass
class BareissTableau:
    """Entry (i,j) holds the bordered minor a_ij^(p), p = min(r, i-1, j-1)."""
    matrix: DenseMatrix
    rank_detected: int

    def determinant(self):
        m = self.matrix
        if m.rows != m.cols:
            raise DimensionMismatch("determinant of a non-square tableau")
        if self.rank_detected < m.rows:
            return m.ring.zero
        return m.at(m.rows - 1, m.cols - 1)


def gauss_lu(a):
    """Simplified Gauss pivoting (no search); stops at the first zero pivot.

    rank_detected is the order of the last nonzero dominant principal
    minor, which may differ from the true rank when the input is not
    strongly regular up to its rank.
    """
    ring = a.ring
    w = a.to_rows()
    rank = _forward(ring, w, min(a.rows, a.cols), _gauss_step)[0]
    return LUFactors(*_split_lu(ring, w, rank), rank)


@contextmanager
def _exact_division():
    """Reports a division that leaves the ring as ExactDivisionFailed."""
    try:
        yield
    except NOT_A_UNIT as e:
        raise ExactDivisionFailed(str(e))


def _forward(ring, w, steps, step, search=False):
    """Run step(ring, w, p) for p = 0 .. steps-1 on the rows w, each on a
    nonzero pivot w[p][p]: with search, the first row below p that is
    nonzero in column p is exchanged up to row p when w[p][p] is zero.
    Stops at the first step without a pivot.  Returns (steps run, sign of
    the row exchanges)."""
    sign = 1
    with _exact_division():
        for p in range(steps):
            i = _pivot_row(ring, w if search else w[:p + 1], p, p)  # else row p alone
            if i is None:
                return p, sign
            if i != p:
                w[p], w[i] = w[i], w[p]
                sign = -sign
            step(ring, w, p)
    return steps, sign


def _pivot_row(ring, w, p, j):
    """The first row at or below row p that is nonzero in column j, or None."""
    for i in range(p, len(w)):
        if not ring.is_zero(w[i][j]):
            return i
    return None


def _gauss_step(ring, w, p):
    """Eliminate column p below row p, keeping each multiplier in w[i][p];
    over a field the multipliers are quotients, otherwise exact ones."""
    divide = ring.div if ring.spec.is_field else ring.exact_div
    rp = w[p]
    piv = rp[p]
    tail = rp[p + 1:]
    for i in range(p + 1, len(w)):
        wi = w[i]
        c = wi[p] = divide(wi[p], piv)
        wi[p + 1:] = ring.submul(wi[p + 1:], c, tail)


def _split_lu(ring, w, rank):
    """(L, U) of rows eliminated by _gauss_step: L is unit lower triangular
    with the multipliers of the first `rank` columns, U the upper triangle."""
    m, n = len(w), len(w[0])
    zero = ring.zero
    lrows, urows = [], []
    for i, row in enumerate(w):
        k = min(i, rank)
        lrows.append(row[:k] + [zero] * (i - k) + [ring.one] + [zero] * (m - i - 1))
        urows.append([zero] * min(i, n) + row[i:])
    return DenseMatrix.from_rows(ring, lrows), DenseMatrix.from_rows(ring, urows)


def _bareiss_step(ring, w, p):
    """One fraction-free step below pivot row p (Sylvester's identity):
    w[i][j] = (piv*w[i][j] - w[i][p]*w[p][j]) / den for j > p, where den
    is the previous step's pivot w[p-1][p-1] (1 at p = 0).  Steps write
    only the rows below their pivot and row exchanges move only rows at
    or below it, so that entry is still in place."""
    rp = w[p]
    piv = rp[p]
    den = w[p - 1][p - 1] if p else ring.one
    mul, sub, exact_div = ring.mul, ring.sub, ring.exact_div
    for i in range(p + 1, len(w)):
        wi = w[i]
        coe = wi[p]
        for j in range(p + 1, len(rp)):
            wi[j] = exact_div(sub(mul(piv, wi[j]), mul(coe, rp[j])), den)


def lup_surjective(a):
    """LUP decomposition of a surjective matrix over a field (Alg with
    left-to-right pivot search and column exchanges)."""
    ring = a.ring
    m, n = a.rows, a.cols
    if m > n:
        raise NotSurjective("more rows than columns")
    w = a.to_rows()
    perm = list(range(n))
    sign = 1
    for p in range(m):
        j = p
        while j < n and ring.is_zero(w[p][j]):
            j += 1
        if j == n:
            raise NotSurjective("row %d has no pivot" % (p + 1,))
        if j != p:
            for row in w:
                row[p], row[j] = row[j], row[p]
            perm[p], perm[j] = perm[j], perm[p]
            sign = -sign
        _gauss_step(ring, w, p)
    return LUPFactors(*_split_lu(ring, w, m), perm, sign)


BH_RECURSION_FLOOR = 8


def bunch_hopcroft(a):
    """LUP decomposition by the recursive halving scheme, using fast
    multiplication and triangular inversion; falls back to the direct
    algorithm below the recursion floor."""
    ring = a.ring
    m, n = a.rows, a.cols
    if m > n:
        raise NotSurjective("more rows than columns")
    if m < BH_RECURSION_FLOOR:
        return lup_surjective(a)
    nu = 1
    while 2 * nu < m:
        nu *= 2
    n0 = nu
    n1 = m - n0
    rows = a.to_rows()
    a1 = DenseMatrix.from_rows(ring, rows[:n0])
    a2 = DenseMatrix.from_rows(ring, rows[n0:])
    f1 = bunch_hopcroft(a1)
    l1, u1, p1 = f1.L, f1.U, f1.perm
    a2p = _reorder_cols(a2, p1)
    u1rows = u1.to_rows()
    v1 = DenseMatrix.from_rows(ring, [r[:n0] for r in u1rows])
    b = DenseMatrix.from_rows(ring, [r[n0:] for r in u1rows])
    a2rows = a2p.to_rows()
    c = DenseMatrix.from_rows(ring, [r[:n0] for r in a2rows])
    d = DenseMatrix.from_rows(ring, [r[n0:] for r in a2rows])
    v1inv = triangular_inverse(v1, "upper")
    c1 = mat_mul(c, v1inv)
    e = d.sub(mat_mul(c1, b))
    f2 = bunch_hopcroft(e)
    l2, u2, p2 = f2.L, f2.U, f2.perm
    b2 = _reorder_cols(b, p2)
    zero = ring.zero
    # L = [[L1, 0], [C1, L2]] and U = [[V1, B2], [0, U2]], row by row
    lmat = DenseMatrix.from_rows(ring, [r + [zero] * n1 for r in l1.to_rows()] +
                                 [x + y for x, y in zip(c1.to_rows(), l2.to_rows())])
    umat = DenseMatrix.from_rows(ring, [x + y for x, y in zip(v1.to_rows(), b2.to_rows())] +
                                 [[zero] * n0 + r for r in u2.to_rows()])
    perm = list(p1[:n0]) + [p1[n0 + k] for k in p2]
    sign = f1.sign * f2.sign
    return LUPFactors(lmat, umat, perm, sign)


def _reorder_cols(m, perm):
    rows = m.to_rows()
    return DenseMatrix.from_rows(m.ring, [[r[k] for k in perm] for r in rows])


def jordan_bareiss(a):
    """Fraction-free elimination without pivot search (integral domain
    with exact division); returns the tableau of bordered minors."""
    ring = a.ring
    w = a.to_rows()
    rank = _forward(ring, w, min(a.rows, a.cols), _bareiss_step)[0]
    return BareissTableau(DenseMatrix.from_rows(ring, w), rank)


def det_fraction_free(a):
    """Determinant by Jordan-Bareiss with row pivot search (sign tracked).

    Intermediate divisions stay exact because every stored value is a
    minor of the row-permuted input.
    """
    return _determinant(a, _bareiss_step, lambda ring, w: w[-1][-1])


def det_field(a):
    """Determinant over a field by Gauss elimination with row pivoting."""
    return _determinant(a, _gauss_step,
                        lambda ring, w: reduce(ring.mul, [row[i] for i, row in enumerate(w)]))


def _determinant(a, step, finish):
    """det(a) from the n-1 steps of an elimination with row pivot search:
    zero when a step finds no pivot, else finish(ring, rows) with the
    sign of the row exchanges."""
    ring = a.ring
    if a.rows != a.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = a.rows
    w = a.to_rows()
    run, sign = _forward(ring, w, n - 1, step, search=True)
    if run < n - 1:
        return ring.zero
    d = finish(ring, w)
    return ring.neg(d) if sign < 0 else d


class HankelMinorTable:
    """Row r holds the connected minors of order r: entries t_{r,j} for
    j = r .. m+n-r (row 0 spans j = 1 .. m+n-1 by convention)."""

    def __init__(self, ring, m, n):
        self.ring = ring
        self.m = m
        self.n = n
        self.rows = []

    def row(self, r):
        return self.rows[r]

    def final_minor(self):
        if self.m != self.n:
            raise DimensionMismatch("final minor needs a square Hankel matrix")
        return self.rows[self.n][0]


def dodgson_hankel(first_coeffs, m, n, ring):
    """Dodgson condensation for the m x n Hankel matrix h_ij = a_{i+j-1}.

    first_coeffs lists the m+n-1 defining values.  Every connected minor
    used as a denominator must be nonzero (ZeroConnectedMinor otherwise).
    """
    if len(first_coeffs) != m + n - 1:
        raise DimensionMismatch("need m+n-1 Hankel coefficients")
    q = min(m, n)
    table = HankelMinorTable(ring, m, n)
    table.rows.append([ring.one] * (m + n - 1))
    table.rows.append(list(first_coeffs))
    with _exact_division():
        for r in range(1, q):
            prev = table.rows[r]
            above = table.rows[r - 1]
            out = []
            for j in range(r + 1, m + n - r):
                tl = prev[j - 1 - r]        # t_{r, j-1}
                tc = prev[j - r]            # t_{r, j}
                tr = prev[j + 1 - r]        # t_{r, j+1}
                if r == 1:
                    dn = above[j - 1]       # row 0 starts at j = 1
                else:
                    dn = above[j - (r - 1)]
                if ring.is_zero(dn):
                    raise ZeroConnectedMinor("zero connected minor of order %d at j=%d" % (r - 1, j))
                t = ring.sub(ring.mul(tl, tr), ring.mul(tc, tc))
                out.append(ring.exact_div(t, dn))
            table.rows.append(out)
    return table


def jorbarsol(a):
    """Linear dependence of the last column on the first n, for a strongly
    regular n x (n+1) matrix over a domain with exact division."""
    if a.cols != a.rows + 1:
        raise DimensionMismatch("JorBarSol expects an n x (n+1) matrix")
    return _jorbarsol_rows(a.ring, a.to_rows(), skip_first_pivot=False)


def _jorbarsol_rows(ring, w, skip_first_pivot):
    """Shared JorBarSol core on mutable rows.

    skip_first_pivot skips the no-op first elimination step and the final
    division by a_11; valid when column 1 is (1, 0, ..., 0), which is how
    the Frobenius algorithm builds its Krylov matrix.
    """
    n = len(w)
    coeffs = [ring.zero] * n
    with _exact_division():
        for p in range(1 if skip_first_pivot else 0, n - 1):
            if ring.is_zero(w[p][p]):
                raise ExactDivisionFailed("zero pivot at step %d" % (p + 1,))
            _bareiss_step(ring, w, p)
        for p in range(n - 1, -1, -1):
            if p == 0 and skip_first_pivot:
                lp = w[0][n]
            else:
                if ring.is_zero(w[p][p]):
                    raise ExactDivisionFailed("zero pivot at step %d" % (p + 1,))
                lp = ring.exact_div(w[p][n], w[p][p])
            coeffs[p] = lp
            for i in range(p):
                w[i][n] = ring.sub(w[i][n], ring.mul(lp, w[i][p]))
    return coeffs


class EchelonBasis:
    """Incremental row echelon basis over a field.

    express(v) gives the coefficients of v in the inserted vectors, in
    insertion order, or None when v is independent; insert(v) adds an
    independent v and returns None, or returns express(v) from its one
    reduction.  Each stored row is a vector reduced against the earlier
    rows, kept with the combination of inserted vectors it equals, so a
    vector costs one pass over the rows, not an elimination from scratch.
    """

    def __init__(self, field):
        self.field = field
        self.rows = []      # (pivot column, reduced row, its combination)

    def __len__(self):
        return len(self.rows)

    def _reduce(self, v):
        """(r, y) with v = r + sum_j y_j v_j and r zero in every pivot column."""
        f = self.field
        r = list(v)
        y = [f.zero] * len(self.rows)
        for col, row, comb in self.rows:
            if f.is_zero(r[col]):
                continue
            c = f.div(r[col], row[col])
            r[col] = f.zero
            for j in range(col + 1, len(r)):        # rows vanish before their pivot
                if not f.is_zero(row[j]):
                    r[j] = f.sub(r[j], f.mul(c, row[j]))
            for j, t in enumerate(comb):
                if not f.is_zero(t):
                    y[j] = f.add(y[j], f.mul(c, t))
        return r, y

    def insert(self, v):
        """Add v if it is independent of the basis and return None; else
        return its coefficients in the inserted vectors."""
        f = self.field
        r, y = self._reduce(v)
        for col, x in enumerate(r):
            if not f.is_zero(x):
                self.rows.append((col, r, [f.neg(t) for t in y] + [f.one]))
                return None
        return y

    def express(self, v):
        """Coefficients of v in the inserted vectors, or None if independent."""
        r, y = self._reduce(v)
        return None if any(not self.field.is_zero(x) for x in r) else y
