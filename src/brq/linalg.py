"""Exact integer and Z/N linear algebra.

Smith normal form over Z, Howell form over Z/N, canonical solves, kernels,
and invariant-factor presentations of finite abelian subquotients.  Every
routine is deterministic: identical inputs give identical outputs, including
all witness data.  Integer work uses arbitrary-precision Python ints; no
floating point anywhere.

One Howell engine serves every kernel and solve over Z/N: `augmented_echelon`
reduces [M^T | I] (Storjohann and Mulders, "Fast algorithms for linear
algebra modulo N", 1998) and `kernel`, `solve` and the cohomology solvers
read their answers from its (image, transform) pairs.  Its output is the
canonical Howell form of the span, so it is the same whichever path
computes it:

- Over Z/N with at least NUMPY_MIN_ROWS rows to reduce and N <= INT64_BOUND,
  the numpy sweep `HowellAccumulator` reduces the rows.  It keeps them
  unit-reduced: each kept row is zero at the unit-pivot columns (pivot
  entry 1) of the others.  So one scattered product clears each block of
  32 rows at every unit pivot found before it, just before the block is
  inserted; the insertion of each row clears it at the units that its own
  block placed and reduces it at the few non-unit pivots.  Its
  `canonical_rows` closes the non-unit rows under annihilators with the
  same insertion, then reduces the entries above the non-unit pivots one
  pivot column at a time.  Its `kernel` reads the right kernel of the kept
  rows off the unit pivots: the bar solvers of `cohomology` stream their
  cocycle identities into an accumulator and take their kernel from it, so
  `augmented_echelon` reduces only the non-unit rows on the columns that
  are not unit pivots (10 x 15 for H^2 of (Z/2)^4 x Z/4, where [M^T | I] of
  all the kept rows is 257 x 509).
- Otherwise the pure-Python loop `howell_rows` runs alone: on fewer rows
  (most of the many small solves of B0), and as the one fallback above
  INT64_BOUND.  It is also the reference the tests hold the sweep to.

One integer Smith form serves every computation over Z (modulus None):
`smith_transforms` returns U*M*V = D with both transforms and W = U^-1,
carried through one reduction.  The Z kernel is the columns of V past the
rank, `solve` returns x = V y with D y = U b, and the Z branch of
`subquotient_structure` reads its basis and coordinates off the Smith form
of its kernel generators.  The cohomology solvers work mod N; the Z path
serves only the `small_complex_h` oracle and the r-column kernel of lattice
invariants M^G.

`subquotient_structure` over Z/N canonicalises its kernel generators with
`canonical_howell` (so on the same path choice) and solves every image
generator against that basis in one numpy sweep (`howell_solve_rows`).  It
reads the quotient from the canonical Howell form of the relations: the
relations among the kernel basis come from its annihilator rows, and each
unit pivot of that form eliminates its coordinate.  The
integer SNF (`smith_transforms`) then runs only on the f coordinates left,
about as many as the answer has invariant factors, on entries below N with
N times the identity among the relations, so its numbers stay small.  The
SNF over Z of the stacked k-row relation matrix that this replaces let them
grow: on C_96 (95 x 191) its transforms reached 184-digit entries, though
every use of them was mod N (the growth that Domich, Kannan and
Trotter, "Hermite normal form computation using modulo determinant
arithmetic", 1987, avoid by working mod N).  Over Z (the lattice case of
`small_complex_h`, at most 4r coordinates) the SNF of the kernel generators
gives the kernel lattice its basis, and a second SNF runs on the image
coordinates in that basis.

INT64_BOUND = 2^20 keeps residue products below 2^40, so the sweep's row
operations, extended-gcd combinations and sums of fewer than 2^23 products,
and the bar-complex sums of the cohomology solvers, stay inside int64.
Those solvers build their constraints in int64 too, so `GModule` refuses
coefficients whose lcm exceeds the bound with a SizeLimitError (CLI exit 3).
NUMPY_MIN_ROWS is measured, not tuned per call.  On 2 CPUs (Python 3.11,
numpy 2.4), the 1301 nonempty Z/N reductions of one pass of each benchmark
workload (with the unit-reduced sweep) gave identical output on both paths.
The pure loop was faster on all 1149 with fewer than 16 rows (means
0.012-0.12 ms against 0.12-0.38 ms), the paths were level from 16 to 96
rows, and numpy won every one from 96 rows (means 12-17 ms against
105-147 ms).
Over three runs the total was 1.59-2.20 s pure and 0.35-0.48 s numpy from
8 rows; it was lowest from 24 or 32 rows and within 3% of that from 48
rows, inside the spread between runs, so NUMPY_MIN_ROWS stays 48.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

import numpy as np

from .errors import ContainmentError, DomainError, SizeLimitError, ValidationError

INT64_BOUND = 1 << 20
# Rows of [M^T | I] from which the numpy sweep beats the pure loop.
NUMPY_MIN_ROWS = 48
# Entries of the largest product array the sweep builds at once (512 KiB).
_SCATTER_CELLS = 1 << 16


def check_int64_modulus(modulus):
    """Refuse a modulus whose arithmetic could overflow int64."""
    if modulus > INT64_BOUND:
        raise SizeLimitError(f"modulus {modulus} exceeds the int64 limit {INT64_BOUND}",
                             witness={"modulus": modulus, "limit": INT64_BOUND})


def xgcd(a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def modinv(a, n):
    g, s, _ = xgcd(a % n, n)
    if g != 1:
        raise DomainError(f"{a} is not invertible mod {n}")
    return s % n


def stab_unit(a, n):
    """A unit u mod n with u*a = gcd(a, n) mod n."""
    a %= n
    if a == 0:
        return 1
    g = gcd(a, n)
    ap, np_ = a // g, n // g
    u = modinv(ap % np_, np_) if np_ > 1 else 1
    while gcd(u, n) != 1:
        u += np_
    return u % n


def annihilator(a, n):
    """Generator of {x : x*a = 0 mod n}, namely n // gcd(a, n)."""
    return n // gcd(a % n, n)


# ---------------------------------------------------------------------------
# matrix containers


def _as_rows(entries):
    rows = [list(map(int, r)) for r in entries]
    if rows:
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValidationError("ragged matrix")
    return rows


@dataclass(frozen=True)
class IntMatrix:
    """Rectangular matrix over Z with arbitrary-precision entries."""

    entries: tuple

    @classmethod
    def from_rows(cls, rows):
        return cls(tuple(tuple(int(x) for x in r) for r in _as_rows(rows)))

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    def to_lists(self):
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class ModMatrix:
    """Rectangular matrix over Z/N, entries reduced to [0, N)."""

    modulus: int
    entries: tuple

    @classmethod
    def from_rows(cls, rows, modulus):
        n = int(modulus)
        if n < 1:
            raise ValidationError("modulus must be >= 1")
        return cls(n, tuple(tuple(int(x) % n for x in r) for r in _as_rows(rows)))

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    def to_lists(self):
        return [list(r) for r in self.entries]


def _identity(k):
    return [[0] * i + [1] + [0] * (k - i - 1) for i in range(k)]


def pivot_columns(rows):
    """The column of the first nonzero entry of each (nonzero) row."""
    return [next(j for j, x in enumerate(row) if x != 0) for row in rows]


# ---------------------------------------------------------------------------
# Smith normal form


def smith_transforms(matrix):
    """Smith normal form core: (U, D, V, W) as lists of rows.

    U*M*V = D with U and V unimodular and D diagonal with d1 | d2 | ... >= 0.
    Both transforms are carried through the one reduction: every column
    operation on M is applied to V in place, and every row operation applied
    to U is matched by the inverse column operation on W, so W = U^-1 with
    no inverse ever computed.
    Pivot choice: smallest nonzero absolute value, ties broken row-major.
    """
    if isinstance(matrix, IntMatrix):
        a = matrix.to_lists()
    else:
        a = _as_rows(matrix)
    m = len(a)
    n = len(a[0]) if a else 0
    u = _identity(m)
    v = _identity(n)
    w = _identity(m)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in w:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        ad, asr = a[dst], a[src]
        for k in range(n):
            ad[k] += q * asr[k]
        ud, usr = u[dst], u[src]
        for k in range(m):
            ud[k] += q * usr[k]
        # (I + q e_dst e_src^T)^-1 = I - q e_dst e_src^T, applied on the right
        for r in w:
            r[src] -= q * r[dst]

    def add_col(dst, src, q):
        for r in a:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in w:
            r[i] = -r[i]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        return best

    t = 0
    while t < min(m, n):
        found = find_pivot(t)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        # clear column t and row t against the pivot; repeat while remainders
        # produce smaller entries
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        dirty = True
            if not dirty:
                break
            found = find_pivot(t)
            _, pi, pj = found
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
        # pivot must divide the rest of the submatrix
        p = a[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        if p < 0:
            negate_row(t)
        t += 1

    return u, a, v, w


def _rank(d):
    """The number of nonzero diagonal entries of a Smith form D."""
    return sum(1 for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i])


def smith_normal_form(matrix):
    """Smith normal form with transforms.

    Returns (U, D, V) as IntMatrix with U*M*V = D, U and V unimodular, D
    diagonal with d1 | d2 | ... >= 0: the transforms of `smith_transforms`,
    which also returns U^-1.
    """
    u, d, v, _ = smith_transforms(matrix)
    return IntMatrix.from_rows(u), IntMatrix.from_rows(d), IntMatrix.from_rows(v)


def invariant_presentation(relation_cols):
    """Invariant factors of Z^k / (column span of a k-row relation matrix).

    Returns (factors, U, W): `factors` lists all k SNF diagonal entries
    (0 for a free direction), U sends ambient coordinates to factor
    coordinates and its inverse W sends factor generator i to column i.
    """
    k = len(relation_cols)
    u, d, _, w = smith_transforms(relation_cols)
    width = len(d[0]) if d else 0
    return [d[i][i] if i < width else 0 for i in range(k)], u, w


# ---------------------------------------------------------------------------
# Howell form over Z/N


def _howell_basis(rows, n):
    """Insert rows into a Howell basis over Z/n, closing under annihilators.

    Returns {pivot column: row} with each pivot a divisor of n and the span
    closed under leading-zero truncation; the entries above the pivots are
    not yet reduced.
    """
    basis = {}  # pivot col -> row list, entries in [0, n)
    queue = [[int(x) % n for x in r] for r in rows]
    while queue:
        vec = queue.pop()
        while True:
            p = next((j for j, x in enumerate(vec) if x != 0), None)
            if p is None:
                break
            if p not in basis:
                u = stab_unit(vec[p], n)
                if u != 1:
                    vec = [(u * x) % n for x in vec]  # pivot becomes gcd(vec[p], n)
                basis[p] = vec
                a = annihilator(vec[p], n)
                if a != n and a > 1:
                    queue.append([(a * x) % n for x in vec])
                break
            cur = basis[p]
            if vec[p] % cur[p] == 0:
                q = vec[p] // cur[p]
                vec = [(x - q * y) % n for x, y in zip(vec, cur)]
            else:
                g, s, t = xgcd(cur[p], vec[p])
                new_cur = [(s * x + t * y) % n for x, y in zip(cur, vec)]
                vec = [(-(vec[p] // g) * x + (cur[p] // g) * y) % n
                       for x, y in zip(cur, vec)]
                u = stab_unit(new_cur[p], n)
                if u != 1:
                    new_cur = [(u * x) % n for x in new_cur]
                basis[p] = new_cur
                a = annihilator(new_cur[p], n)
                if a != n and a > 1:
                    queue.append([(a * x) % n for x in new_cur])
    return basis


def howell_rows(rows, n):
    """Canonical Howell form of the row span of `rows` over Z/n.

    The result is the unique minimal echelon generating set: strictly
    increasing pivot columns, each pivot a divisor of n, entries above a
    pivot reduced mod the pivot, and the span closed under leading-zero
    truncation (annihilator rows are included).  This pure loop is the
    reference for `HowellAccumulator.canonical_rows`.
    """
    if n == 1:
        return []
    basis = _howell_basis(rows, n)
    pivots = sorted(basis)
    # normalize entries above pivots; ascending column order per row, since
    # reducing at one column can alter entries at later columns
    for qi, q in enumerate(pivots):
        row = basis[q]
        for p in pivots[qi + 1 :]:
            f = row[p] // basis[p][p]
            if f:
                row = [(x - f * y) % n for x, y in zip(row, basis[p])]
        basis[q] = row
    return [basis[p] for p in pivots]


def howell_form(matrix):
    """Spec surface: canonical Howell form of a ModMatrix (same row span)."""
    if not isinstance(matrix, ModMatrix):
        raise ValidationError("howell_form expects a ModMatrix")
    rows = howell_rows(matrix.to_lists(), matrix.modulus)
    if not rows:
        rows = [[0] * matrix.cols] if matrix.cols else []
    return ModMatrix.from_rows(rows, matrix.modulus)


def howell_solve(basis_rows, target, n, pivots=None):
    """Express target in the span of canonical Howell rows over Z/n.

    Returns canonical (smallest nonnegative) coefficients, or None when the
    target is outside the span.  `pivots` are the rows' `pivot_columns`;
    a caller that solves against one basis many times passes them in.
    """
    if pivots is None:
        pivots = pivot_columns(basis_rows)
    coeffs = [0] * len(basis_rows)
    res = [int(x) % n for x in target]
    for i, (row, p) in enumerate(zip(basis_rows, pivots)):
        if res[p] == 0:
            continue
        g = gcd(row[p], n)
        if res[p] % g != 0:
            return None
        nn = n // g
        c = ((res[p] // g) * modinv(row[p] // g, nn)) % nn if nn > 1 else 0
        coeffs[i] = c
        if c:
            res = [(x - c * y) % n for x, y in zip(res, row)]
    if any(res):
        return None
    return coeffs


def howell_solve_rows(basis_rows, targets, n, pivots=None):
    """`howell_solve` of every target against one basis, in one numpy sweep:
    per target, the same coefficients, or None when it is outside the span.

    The rows must be canonical Howell rows, so the pivot column of a unit
    row is zero in every other row: the coefficient of a unit row is the
    target's entry at its pivot, and all of those come off in one product.
    The non-unit rows (zero at the unit-pivot columns) then take theirs in
    row order, one step each.  Products stay in int64 for n <= INT64_BOUND;
    above it the arrays hold Python ints.
    """
    if not targets:
        return []
    if pivots is None:
        pivots = pivot_columns(basis_rows)
    dtype = np.int64 if n <= INT64_BOUND else object
    res = np.array(targets, dtype=dtype) % n
    k = len(basis_rows)
    basis = np.array(basis_rows, dtype=dtype).reshape(k, res.shape[1])
    lead = [int(row[p]) for row, p in zip(basis_rows, pivots)]
    coeffs = res[:, pivots] * np.array([d == 1 for d in lead], dtype=bool)
    res = (res - coeffs @ basis) % n
    outside = False
    for i, d in enumerate(lead):
        if d == 1:
            continue
        g = gcd(d, n)
        col = res[:, pivots[i]]
        outside = outside | (col % g != 0)
        c = (col // g) * modinv(d // g, n // g) % (n // g)
        coeffs[:, i] = c
        res = (res - c[:, None] * basis[i]) % n
    outside = res.any(axis=1) | outside
    return [None if out else c for out, c in zip(outside.tolist(), coeffs.tolist())]


# ---------------------------------------------------------------------------
# the Howell engine: one augmented echelon for kernels and solves


class HowellAccumulator:
    """Howell reduction of a stream of int64 rows mod N (the numpy sweep).

    Keeps one row per pivot column, stacked in one array in the order the
    pivots were found; those rows span everything ingested, and
    `canonical_rows` turns them into its canonical Howell form.  Every kept
    row is zero at the unit-pivot columns (pivot entry 1) other than its
    own, so the unit rows clear a chunk at those columns in one step and in
    any order, a row once cleared at a unit column stays clear there, and
    `kernel` reads the right kernel off them.  Valid only for
    N <= INT64_BOUND.
    """

    def __init__(self, modulus):
        check_int64_modulus(modulus)
        self.n = int(modulus)
        self._k = 0  # rows kept
        self._units = 0  # of which unit rows
        self._row_at = {}  # pivot column -> index of its row
        self._grow(0, 0)  # the first _place sizes the rows

    def _grow(self, width, cap):
        """Room for `cap` rows of the given width, keeping the rows so far."""
        k, units = self._k, self._units
        m = np.zeros((cap, width), dtype=np.int64)
        piv, unit_cols, unit_rows = (np.zeros(cap, dtype=np.int64) for _ in range(3))
        if k:
            m[:k] = self._m[:k]
            piv[:k] = self._piv[:k]
            unit_cols[:units] = self._unit_cols[:units]
            unit_rows[:units] = self._unit_rows[:units]
        self._m = m  # kept rows, in the order their pivots were found
        self._piv = piv  # pivot column of each kept row
        self._unit_cols, self._unit_rows = unit_cols, unit_rows  # the unit pivots

    @property
    def rows(self):
        """The kept rows in ascending pivot order, as one array."""
        k = self._k
        return self._m[:k][np.argsort(self._piv[:k])]

    def _place(self, p, vec, i=None):
        """Keep `vec`, zero before column p and at every unit-pivot column,
        as the row of pivot p (replacing row i, if given), with its pivot
        normalised to gcd(vec[p], N); a unit pivot is then cleared from the
        other rows.  Returns the row's index."""
        n = self.n
        u = stab_unit(int(vec[p]), n)
        if u != 1:
            vec = (u * vec) % n
        if i is None:
            i = self._k
            if i == len(self._m):
                self._grow(len(vec), 2 * i or 64)
            self._k += 1
            self._piv[i] = p
            self._row_at[p] = i
        m = self._m
        m[i] = vec
        if vec[p] == 1:
            self._unit_cols[self._units] = p
            self._unit_rows[self._units] = i
            self._units += 1
            nz = m[:self._k, p].nonzero()[0]
            nz = nz[nz != i]
            if nz.size:
                m[nz] = (m[nz] - m[nz, p, None] * vec) % n
        return i

    def _clear_units(self, chunk):
        """Zero the chunk's entries at the unit-pivot columns (in place):
        subtract each nonzero entry times its unit row, the products of at
        most _SCATTER_CELLS // width entries at a time."""
        units = self._units
        if not units:
            return
        coeff = chunk[:, self._unit_cols[:units]]
        ri, ci = coeff.nonzero()
        vals = coeff[ri, ci]
        rows = self._unit_rows[ci]
        step = max(1, _SCATTER_CELLS // chunk.shape[1])
        for lo in range(0, len(ri), step):
            r = ri[lo:lo + step]
            starts = np.flatnonzero(np.diff(r, prepend=-1))
            sums = np.add.reduceat(vals[lo:lo + step, None] * self._m[rows[lo:lo + step]], starts)
            touched = r[starts]
            chunk[touched] = (chunk[touched] - sums) % self.n

    def _insert(self, vec):
        """Absorb one row (reduced mod N) into the kept rows; returns the
        indices of the rows placed or replaced."""
        n, units = self.n, self._units
        if units:
            coeff = vec[self._unit_cols[:units]]
            nz = coeff.nonzero()[0]
            if nz.size:
                vec = (vec - coeff[nz] @ self._m[self._unit_rows[nz]]) % n
        placed = []
        # vec stays zero at the unit columns: it only meets non-unit rows
        while True:
            nz = vec.nonzero()[0]
            if not nz.size:
                return placed
            p = int(nz[0])
            i = self._row_at.get(p)
            if i is None:
                placed.append(self._place(p, vec))
                return placed
            cur = self._m[i]
            cp, vp = int(cur[p]), int(vec[p])
            if vp % cp == 0:
                vec = (vec - (vp // cp) * cur) % n
            else:
                g, s, t = xgcd(cp, vp)
                new_cur = (s * cur + t * vec) % n
                vec = ((-(vp // g)) * cur + (cp // g) * vec) % n
                placed.append(self._place(p, new_cur, i))

    def ingest(self, chunk):
        """Reduce and absorb a 2-D int64 array of rows (mod N)."""
        chunk = np.asarray(chunk, dtype=np.int64) % self.n
        chunk = chunk[chunk.any(axis=1)]
        if chunk.size:
            # the distinct rows in ascending lexicographic order, as
            # np.unique(chunk, axis=0) gives them, without importing numpy.ma
            chunk = chunk[np.lexsort(chunk.T[::-1])]
            keep = np.ones(len(chunk), dtype=bool)
            keep[1:] = (chunk[1:] != chunk[:-1]).any(axis=1)
            chunk = chunk[keep]
        for lo in range(0, len(chunk), 32):
            # Each block of 32 rows is cleared at the unit pivots found so
            # far just before it is inserted; the insertion clears each row
            # at the units that the rows before it in the block placed, and
            # reduces it at the non-unit pivots, which are few: a sweep over
            # them as well changed no output and was slower.
            block = chunk[lo:lo + 32]
            self._clear_units(block)
            for row in block[block.any(axis=1)]:
                self._insert(row)

    def kernel(self, cols):
        """Canonical Howell form of the right kernel {x : M x = 0} of the
        kept rows M, which have `cols` columns: `kernel(self.rows, N, cols)`
        read off the unit pivots.

        A unit row is 1 at its pivot and zero at the other unit-pivot
        columns, and the non-unit rows are zero at all of them.  So x is in
        the kernel exactly when x on the other columns R is in the kernel
        of the non-unit rows on R, and x at each unit pivot is minus the
        unit row's product with x on R.  Only the non-unit rows on R go
        through `augmented_echelon`; each generator of their kernel is
        extended by that product, whose sums of fewer than 2^23 residue
        products fit int64, and the extensions span the kernel.
        """
        n, k, units = self.n, self._k, self._units
        m = self._m[:k] if k else np.zeros((0, cols), dtype=np.int64)
        unit_cols, unit_rows = self._unit_cols[:units], self._unit_rows[:units]
        rest = np.ones(cols, dtype=bool)
        rest[unit_cols] = False
        others = np.ones(k, dtype=bool)
        others[unit_rows] = False
        width = int(rest.sum())
        gens = kernel(m[others][:, rest].tolist(), n, width)
        gens = np.array(gens, dtype=np.int64).reshape(len(gens), width)
        x = np.zeros((len(gens), cols), dtype=np.int64)
        x[:, rest] = gens
        x[:, unit_cols] = -(gens @ m[unit_rows][:, rest].T) % n
        return canonical_howell(x.tolist(), n)

    def canonical_rows(self):
        """Exact canonical Howell form of everything ingested so far.

        Each non-unit row b with pivot d has (N/d) b inserted in turn, and so
        does each non-unit row that this places, which closes the span of
        the rows from each pivot on under annihilators, as the insertion of
        `howell_rows` does.  The entries above the non-unit pivots are then
        reduced mod the pivot by one numpy step per pivot, in ascending
        order; the unit-pivot columns are already zero off their own rows,
        and the non-unit rows stay zero there.  The Howell form is unique,
        so these are the rows of `howell_rows`.  Entries stay below
        N <= INT64_BOUND, so products fit int64.
        """
        n, k = self.n, self._k
        todo = np.flatnonzero(self._m[np.arange(k), self._piv[:k]] != 1).tolist()
        while todo:
            i = todo.pop()
            row = self._m[i]
            placed = self._insert(((n // row[self._piv[i]]) * row) % n)
            todo += [j for j in placed if self._m[j, self._piv[j]] != 1]
        order = np.argsort(self._piv[:self._k])
        m = self._m[order]
        pivots = self._piv[order]
        for i in np.flatnonzero(m[np.arange(len(m)), pivots] != 1):
            p = pivots[i]
            f = m[:i, p] // m[i, p]
            nz = np.flatnonzero(f)
            if nz.size:
                m[nz, p:] = (m[nz, p:] - f[nz, None] * m[i, p:]) % n
        return m.tolist()


def _numpy_path(row_count, modulus):
    """Whether the Howell engine reduces `row_count` rows mod `modulus` with
    the numpy sweep (module docstring)."""
    return row_count >= NUMPY_MIN_ROWS and modulus <= INT64_BOUND


def canonical_howell(rows, n):
    """Canonical Howell form of the row span of `rows` over Z/n, on the
    engine's path: the numpy sweep and its finish from NUMPY_MIN_ROWS rows
    when n <= INT64_BOUND, `howell_rows` otherwise.  On the numpy path
    `rows` may be a 2-D int64 array."""
    if _numpy_path(len(rows), n):
        acc = HowellAccumulator(n)
        acc.ingest(rows)
        return acc.canonical_rows()
    return howell_rows(rows, n)


def augmented_echelon(rows, modulus, cols):
    """Canonical Howell form of [M^T | I] over Z/N for the matrix M with the
    given rows.

    `cols` is the column count of M, so an M without rows is still an
    r x cols matrix with r = 0.  Returns (image, transform) pairs, one per
    row of the Howell form: transform t satisfies M t = image mod N.  The
    pairs with a zero image are the canonical form of the right kernel of
    M; the others solve M x = b.  `canonical_howell` chooses the reduction
    path.
    """
    r = len(rows)
    if _numpy_path(cols, modulus):
        mat = np.array(rows, dtype=np.int64).reshape(r, cols)
        aug = np.concatenate([mat.T, np.eye(cols, dtype=np.int64)], axis=1)
    else:
        columns = zip(*rows) if len(rows) else [()] * cols
        aug = [list(c) + [int(i == j) for j in range(cols)] for i, c in enumerate(columns)]
    return [(row[:r], row[r:]) for row in canonical_howell(aug, modulus)]


def kernel(rows, modulus, cols):
    """Generators of {x : M x = 0} over Z (modulus None) or Z/N.

    Over Z/N they are the canonical Howell form of the kernel.  Over Z they
    are the columns of V past the rank in the Smith form U*M*V = D: a basis
    of the kernel lattice, deterministic but not canonical.  An M without
    rows has the identity as its kernel basis (over Z/1 the kernel is zero
    and has no generators).
    """
    if modulus is not None:
        return [t for image, t in augmented_echelon(rows, modulus, cols) if not any(image)]
    if not len(rows):
        return _identity(cols)
    _, d, v, _ = smith_transforms(rows)
    return [[r[j] for r in v] for j in range(_rank(d), cols)]


def solve(matrix, rhs):
    """A solution x of M x = b over Z or Z/N, or None.

    Deterministic.  Over Z/N the Howell pivot walk yields the canonical
    smallest solution produced by minimal nonnegative coefficients.  Over Z
    it is x = V y for the Smith form U*M*V = D, with D y = U b and the
    entries of y past the rank zero.
    """
    if isinstance(matrix, ModMatrix):
        n = matrix.modulus
    elif isinstance(matrix, IntMatrix):
        n = None
    else:
        raise ValidationError("solve expects IntMatrix or ModMatrix")
    rows = matrix.to_lists()
    if len(rhs) != len(rows):
        raise ValidationError("dimension mismatch in solve")
    if n is None:
        u, d, v, _ = smith_transforms(rows)
        ub = [sum(x * int(y) for x, y in zip(row, rhs)) for row in u]
        rank = _rank(d)
        if any(ub[rank:]) or any(ub[i] % d[i][i] for i in range(rank)):
            return None
        y = [ub[i] // d[i][i] for i in range(rank)]
        return [sum(a * b for a, b in zip(row, y)) for row in v]
    pairs = [p for p in augmented_echelon(rows, n, matrix.cols) if any(p[0])]
    coeffs = howell_solve([image for image, _ in pairs], rhs, n)
    if coeffs is None:
        return None
    x = [0] * matrix.cols
    for c, (_, t) in zip(coeffs, pairs):
        if c:
            x = [xi + c * ti for xi, ti in zip(x, t)]
    return [xi % n for xi in x]


# ---------------------------------------------------------------------------
# invariant-factor presentation of subquotients


@dataclass(frozen=True)
class AbelianStructure:
    """Finite abelian group in invariant-factor form with witnesses.

    `witness_generators` are ambient vectors mapping onto the factor
    generators; `class_map` converts an ambient vector into coordinates in
    the direct sum of Z/d_i.
    """

    invariant_factors: tuple
    witness_generators: tuple
    class_map: object

    @property
    def order(self):
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def coords(self, vector):
        return self.class_map(vector)

    def to_json(self):
        return list(self.invariant_factors)


def _trivial_structure():
    return AbelianStructure((), (), lambda v: ())


def subquotient_structure(ambient_dim, modulus, kernel_gens, image_gens):
    """Invariant factors of span(kernel_gens)/span(image_gens) with witnesses.

    `modulus` is an integer N >= 1 for Z/N ambient, or None for Z ambient
    (in which case the quotient must be finite).  Containment of the image
    in the kernel is verified; a violating generator is reported.
    """
    kernel_gens = [list(map(int, v)) for v in kernel_gens]
    image_gens = [list(map(int, v)) for v in image_gens]
    for v in kernel_gens + image_gens:
        if len(v) != ambient_dim:
            raise ValidationError("generator has wrong ambient dimension")

    if modulus is not None:
        n = int(modulus)
        if n == 1:
            return _trivial_structure()
        span = "kernel span"
        basis = canonical_howell(kernel_gens, n)
        pivots = pivot_columns(basis)

        def solve_in_basis(v):
            return howell_solve(basis, v, n, pivots)
    else:
        n = None
        span = "kernel lattice"
        # the Smith form U*K*V = D of the generator rows K: the nonzero rows
        # of U*K (d_i times row i of V^-1) are a basis of their lattice, and
        # a vector v has coordinates (v*V)_i / d_i in it
        u, d, v, _ = smith_transforms(kernel_gens)
        rank = _rank(d)
        basis = [[sum(x * y for x, y in zip(row, col)) for col in zip(*kernel_gens)]
                 for row in u[:rank]]
        v_cols = list(zip(*v))

        def solve_in_basis(vec):
            c = [sum(x * y for x, y in zip(vec, col)) for col in v_cols]
            if any(c[rank:]) or any(c[i] % d[i][i] for i in range(rank)):
                return None
            return [c[i] // d[i][i] for i in range(rank)]

    if not basis:
        for v in image_gens:
            if any(x % n for x in v) if n else any(v):
                raise ContainmentError(f"image generator outside {span}", witness=v)
        return _trivial_structure()
    k = len(basis)
    if n:
        img_coords = howell_solve_rows(basis, image_gens, n, pivots)
    else:
        img_coords = [solve_in_basis(v) for v in image_gens]
    for v, c in zip(image_gens, img_coords):
        if c is None:
            raise ContainmentError(f"image generator outside {span}", witness=v)
    if n:
        free, lift, rel = _mod_n_relations(basis, pivots, img_coords, n)
    elif img_coords:
        free, lift, rel = range(k), _identity(k), img_coords
    else:
        raise DomainError("subquotient is not finite")
    factors_all, u, uinv = invariant_presentation([list(c) for c in zip(*rel)])
    if any(f == 0 for f in factors_all):
        raise DomainError("subquotient is not finite")
    kept = [i for i, f in enumerate(factors_all) if f > 1]
    witnesses = []
    for i in kept:
        w = [0] * ambient_dim
        for t, j in enumerate(free):
            cij = uinv[t][i]
            if cij:
                w = [x + cij * y for x, y in zip(w, basis[j])]
        witnesses.append(tuple(x % n for x in w) if n else tuple(w))
    # basis coordinate j -> factor i, reduced mod the factor
    factor_rows = [([sum(x * y for x, y in zip(row, u[i])) % factors_all[i] for row in lift],
                    factors_all[i]) for i in kept]

    def class_map(vector):
        c = solve_in_basis(list(vector))
        if c is None:
            raise ContainmentError(f"vector not in the {span}", witness=list(vector))
        return tuple(sum(x * y for x, y in zip(row, c)) % f for row, f in factor_rows)

    return AbelianStructure(tuple(factors_all[i] for i in kept), tuple(witnesses), class_map)


def _annihilator_relations(basis, pivots, n):
    """Generators of the relations over Z/n among canonical Howell rows.

    Row b_j with pivot d_j != 1 gives (n/d_j) e_j - c, c the coordinates of
    (n/d_j) b_j.  These generate every relation: in a relation c, the first
    nonzero c_j is a multiple of n/d_j, since only b_j is nonzero at its
    pivot column; subtracting that multiple of its relation leaves a
    relation with a later first nonzero entry.
    """
    relations = []
    for j, (row, p) in enumerate(zip(basis, pivots)):
        if row[p] != 1:
            a = n // row[p]
            rel = [-c % n for c in howell_solve(basis, [a * x for x in row], n, pivots)]
            rel[j] = a
            relations.append(rel)
    return relations


def _mod_n_relations(basis, pivots, img_coords, n):
    """The quotient of (Z/n)^k, k = len(basis), by the relations among the
    basis and the image coordinates, cut to its few non-unit coordinates.

    In the canonical Howell form of those relations, a row with pivot 1 is
    the only row nonzero at its pivot column q (entries above a pivot are
    reduced mod it), so it eliminates e_q.  Returns (free, lift, rel): the
    remaining coordinates, the k x len(free) matrix of the elimination, and
    the relations over Z among the free coordinates (the non-unit rows and
    n times the identity), for `invariant_presentation`.
    """
    howell = canonical_howell(_annihilator_relations(basis, pivots, n) + img_coords, n)
    pairs = list(zip(howell, pivot_columns(howell)))
    unit = {p: row for row, p in pairs if row[p] == 1}
    free = [j for j in range(len(basis)) if j not in unit]
    lift = [[-unit[j][t] if j in unit else int(j == t) for t in free] for j in range(len(basis))]
    rel = [[row[t] for t in free] for row, p in pairs if row[p] != 1]
    rel += [[n if s == t else 0 for t in free] for s in free]
    return free, lift, rel


def _scaled_unit_structure(factors, relation_coord_vectors):
    """Z/f_1 + ... + Z/f_k modulo relations, in canonical form.

    The sum sits in (Z/lcm)^k as the span of the scaled units lcm/f_i;
    witnesses and the class map use the unscaled factor coordinates.
    """
    k = len(factors)
    if k == 0:
        return _trivial_structure()
    big = lcm(*factors)
    scale = [big // f for f in factors]

    def embed(coord_vec):
        return [(s * int(x)) % big for s, x in zip(scale, coord_vec)]

    units = [[s if i == j else 0 for j in range(k)] for i, s in enumerate(scale)]
    inner = subquotient_structure(k, big, units, [embed(r) for r in relation_coord_vectors])
    witnesses = tuple(tuple((x // s) % f for x, s, f in zip(w, scale, factors))
                      for w in inner.witness_generators)
    inner_map = inner.class_map
    return AbelianStructure(inner.invariant_factors, witnesses,
                            lambda coord_vec: inner_map(embed(coord_vec)))


def quotient_of_structure(structure, relation_coord_vectors):
    """Quotient of a presented finite abelian group by extra relations.

    Relations are coordinate vectors in the structure's factor coordinates.
    Returns a new AbelianStructure whose ambient space is the old coordinate
    space (witnesses are coordinate vectors of the old structure).
    """
    return _scaled_unit_structure(list(structure.invariant_factors), relation_coord_vectors)


def direct_sum_structure(a, b):
    """Canonical invariant-factor form of a direct sum of two structures.

    Witnesses live in the concatenated coordinate space (len(a) + len(b)).
    """
    return _scaled_unit_structure(list(a.invariant_factors) + list(b.invariant_factors), [])
