"""Exact integer and Z/N linear algebra.

Smith normal form over Z, Howell form over Z/N, canonical solves, kernels,
and invariant-factor presentations of finite abelian subquotients.  Every
routine is deterministic: identical inputs give identical outputs, including
all witness data.  Integer work uses arbitrary-precision Python ints; no
floating point anywhere.

One Howell engine serves every kernel and solve: `augmented_echelon` reduces
[M^T | I] (Storjohann and Mulders, "Fast algorithms for linear algebra modulo
N", 1998) and `kernel`, `solve` and the cohomology solvers read their answers
from its (image, transform) pairs.  Its output is the canonical Howell (or
Hermite) form of the span, so it is the same whichever path computes it:

- Over Z/N with at least NUMPY_MIN_ROWS rows to reduce and N <= INT64_BOUND,
  the numpy sweep `HowellAccumulator` reduces the rows first and
  `howell_rows` canonicalises what is left.
- Otherwise the pure-Python loop `howell_rows` (`hnf_rows` over Z) runs
  alone.  It is the reference, and the one fallback above INT64_BOUND.

INT64_BOUND = 2^20 keeps residue products below 2^40, so the sweep's row
operations and extended-gcd combinations, and the bar-complex sums of the
cohomology solvers, stay inside int64.  Those solvers build their
constraints in int64 too, so `GModule` refuses coefficients whose lcm
exceeds the bound with a SizeLimitError (CLI exit 3).
NUMPY_MIN_ROWS is measured once, not tuned per call.  On 2 CPUs (Python
3.11, numpy 2.4), the 849 Z/N reductions of one pass of each benchmark
workload gave identical output on both paths; the pure loop was faster on
all 742 with fewer than 16 rows (means 0.02-0.18 ms against 0.12-0.45 ms),
the paths were level from 32 to 96 rows, and numpy won every one from 96
rows (means 26-210 ms against 45-560 ms).  The total over all 849 was 2.04 s
pure, 1.16 s numpy from 8 rows, and lowest at 1.09 s from 48 rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

import numpy as np

from .errors import ContainmentError, DomainError, SizeLimitError, ValidationError

INT64_BOUND = 1 << 20
# Rows of [M^T | I] from which the numpy sweep beats the pure loop.
NUMPY_MIN_ROWS = 48


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
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


# ---------------------------------------------------------------------------
# Smith normal form


def smith_transforms(matrix):
    """Smith normal form core: (U, D, V, W) as lists of rows.

    U*M*V = D with U and V unimodular and D diagonal with d1 | d2 | ... >= 0.
    W = U^-1 is carried through the reduction: every row operation applied
    to U is matched by the inverse column operation on W, so no inverse is
    ever computed.  Pivot choice: smallest nonzero absolute value, ties
    broken row-major.
    """
    if isinstance(matrix, IntMatrix):
        a = matrix.to_lists()
    else:
        a = _as_rows(matrix)
    m = len(a)
    n = len(a[0]) if a else 0
    u = _identity(m)
    w = _identity(m)
    v = _identity(n)

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


def smith_normal_form(matrix):
    """Smith normal form with transforms.

    Returns (U, D, V) as IntMatrix with U*M*V = D, U and V unimodular, D
    diagonal with d1 | d2 | ... >= 0.  U^-1 is carried through the same
    reduction, not computed afterwards; `smith_transforms` returns it too.
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


def invariant_factors_of(matrix):
    """Diagonal of the SNF, zeros dropped, unit factors dropped."""
    _, d, _ = smith_normal_form(matrix)
    out = []
    for i in range(min(d.rows, d.cols)):
        x = d.entries[i][i]
        if x > 1:
            out.append(x)
        elif x == 0:
            out.append(0)
    return out


# ---------------------------------------------------------------------------
# Hermite form over Z (internal work-horse for lattices)


def hnf_rows(rows):
    """Canonical row Hermite form of the lattice spanned by the given rows.

    Returns a list of nonzero rows with strictly increasing pivot columns,
    positive pivots, and entries above each pivot reduced to [0, pivot).
    """
    rows = [[int(x) for x in r] for r in rows]
    basis = {}  # pivot col -> row (list)

    def insert(vec):
        vec = list(vec)
        while True:
            p = next((j for j, x in enumerate(vec) if x != 0), None)
            if p is None:
                return
            if p not in basis:
                if vec[p] < 0:
                    vec = [-x for x in vec]
                basis[p] = vec
                return
            cur = basis[p]
            if vec[p] % cur[p] == 0:
                q = vec[p] // cur[p]
                vec = [x - q * y for x, y in zip(vec, cur)]
            else:
                g, s, t = xgcd(cur[p], vec[p])
                new_cur = [s * x + t * y for x, y in zip(cur, vec)]
                vec = [-(vec[p] // g) * x + (cur[p] // g) * y for x, y in zip(cur, vec)]
                basis[p] = new_cur

    for r in rows:
        insert(r)
    # reduce entries above pivots; ascending column order per row
    pivots = sorted(basis)
    for qi, q in enumerate(pivots):
        row = basis[q]
        for p in pivots[qi + 1 :]:
            f = row[p] // basis[p][p]
            if f:
                row = [x - f * y for x, y in zip(row, basis[p])]
        basis[q] = row
    return [basis[p] for p in pivots]


def hnf_solve(basis_rows, target):
    """Express target as an integer combination of canonical HNF rows.

    Returns the coefficient list or None when target is outside the lattice.
    """
    coeffs = [0] * len(basis_rows)
    res = [int(x) for x in target]
    pivots = [next(j for j, x in enumerate(r) if x != 0) for r in basis_rows]
    for i, (row, p) in enumerate(zip(basis_rows, pivots)):
        if res[p] % row[p] != 0:
            return None
        c = res[p] // row[p]
        if c:
            res = [x - c * y for x, y in zip(res, row)]
        coeffs[i] = c
    if any(res):
        return None
    return coeffs


# ---------------------------------------------------------------------------
# Howell form over Z/N


def howell_rows(rows, n):
    """Canonical Howell form of the row span of `rows` over Z/n.

    The result is the unique minimal echelon generating set: strictly
    increasing pivot columns, each pivot a divisor of n, entries above a
    pivot reduced mod the pivot, and the span closed under leading-zero
    truncation (annihilator rows are included).
    """
    if n == 1:
        return []
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


def howell_solve(basis_rows, target, n):
    """Express target in the span of canonical Howell rows over Z/n.

    Returns canonical (smallest nonnegative) coefficients, or None when the
    target is outside the span.
    """
    coeffs = [0] * len(basis_rows)
    res = [int(x) % n for x in target]
    for i, row in enumerate(basis_rows):
        p = next(j for j, x in enumerate(row) if x != 0)
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


# ---------------------------------------------------------------------------
# the Howell engine: one augmented echelon for kernels and solves


class HowellAccumulator:
    """Howell reduction of a stream of int64 rows mod N (the numpy sweep).

    Keeps one reduced row per pivot column; `canonical_rows` hands the kept
    rows to `howell_rows`, so the result is the canonical Howell form of
    everything ingested.  Valid only for N <= INT64_BOUND.
    """

    def __init__(self, modulus):
        check_int64_modulus(modulus)
        self.n = int(modulus)
        self.rows = {}  # pivot column -> np.int64 row

    def _insert_slow(self, vec):
        n = self.n
        while True:
            nz = np.flatnonzero(vec)
            if len(nz) == 0:
                return
            p = int(nz[0])
            if p not in self.rows:
                u = stab_unit(int(vec[p]), n)
                if u != 1:
                    vec = (u * vec) % n
                self.rows[p] = vec
                return
            cur = self.rows[p]
            cp, vp = int(cur[p]), int(vec[p])
            if vp % cp == 0:
                vec = (vec - (vp // cp) * cur) % n
            else:
                g, s, t = xgcd(cp, vp)
                new_cur = (s * cur + t * vec) % n
                vec = ((-(vp // g)) * cur + (cp // g) * vec) % n
                u = stab_unit(int(new_cur[p]), n)
                if u != 1:
                    new_cur = (u * new_cur) % n
                self.rows[p] = new_cur

    def ingest(self, chunk):
        """Reduce and absorb a 2-D int64 array of rows (mod N)."""
        n = self.n
        chunk = np.asarray(chunk, dtype=np.int64) % n
        chunk = chunk[chunk.any(axis=1)]
        if chunk.size:
            chunk = np.unique(chunk, axis=0)
        while chunk.size:
            for p in sorted(self.rows):
                row = self.rows[p]
                q = chunk[:, p] // int(row[p])
                nz = np.nonzero(q)[0]
                if nz.size:
                    chunk[nz] = (chunk[nz] - q[nz, None] * row[None, :]) % n
            chunk = chunk[chunk.any(axis=1)]
            if not chunk.size:
                break
            # establish or refine pivots in small batches, then re-sweep
            take = min(len(chunk), 32)
            for i in range(take):
                self._insert_slow(chunk[i].copy())
            chunk = chunk[take:]

    def canonical_rows(self):
        """Exact canonical Howell form of everything ingested so far."""
        rows = [self.rows[p].tolist() for p in sorted(self.rows)]
        return howell_rows(rows, self.n)


def augmented_echelon(rows, modulus, cols):
    """Canonical echelon of [M^T | I] for the matrix M with the given rows.

    `modulus` is N for Z/N or None for Z; `cols` is the column count of M,
    so an M without rows is still an r x cols matrix with r = 0.  Returns
    (image, transform) pairs, one per row of the Howell form (Z/N) or the
    Hermite form (Z): transform t satisfies M t = image.  The pairs with a
    zero image are the canonical form of the right kernel of M; the others
    solve M x = b.  The reduction path is chosen here (module docstring).
    """
    r = len(rows)
    if modulus is not None and cols >= NUMPY_MIN_ROWS and modulus <= INT64_BOUND:
        mat = np.array(rows, dtype=np.int64).reshape(r, cols)
        acc = HowellAccumulator(modulus)
        acc.ingest(np.concatenate([mat.T, np.eye(cols, dtype=np.int64)], axis=1))
        reduced = acc.canonical_rows()
    else:
        columns = zip(*rows) if rows else [()] * cols
        aug = [list(c) + [int(i == j) for j in range(cols)] for i, c in enumerate(columns)]
        reduced = hnf_rows(aug) if modulus is None else howell_rows(aug, modulus)
    return [(row[:r], row[r:]) for row in reduced]


def kernel(rows, modulus, cols):
    """Canonical generators of {x : M x = 0} over Z (modulus None) or Z/N.

    An M without rows has the identity as its kernel basis (over Z/1 the
    kernel is zero and has no generators).
    """
    return [t for image, t in augmented_echelon(rows, modulus, cols) if not any(image)]


def solve(matrix, rhs):
    """Canonical solution x of M x = b over Z or Z/N, or None.

    Deterministic: the Howell/Hermite pivot walk yields the canonical
    smallest solution produced by minimal nonnegative coefficients.
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
    pairs = [p for p in augmented_echelon(rows, n, matrix.cols) if any(p[0])]
    span = [image for image, _ in pairs]
    coeffs = howell_solve(span, rhs, n) if n else hnf_solve(span, rhs)
    if coeffs is None:
        return None
    x = [0] * matrix.cols
    for c, (_, t) in zip(coeffs, pairs):
        if c:
            x = [xi + c * ti for xi, ti in zip(x, t)]
    return [xi % n for xi in x] if n else x


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

    def describe(self):
        if not self.invariant_factors:
            return "0"
        return " + ".join(f"Z/{d}" for d in self.invariant_factors)

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
        basis = howell_rows(kernel_gens, n)

        def solve_in_basis(v):
            return howell_solve(basis, v, n)
    else:
        n = None
        span = "kernel lattice"
        basis = hnf_rows(kernel_gens) if kernel_gens else []

        def solve_in_basis(v):
            return hnf_solve(basis, v)

    if not basis:
        for v in image_gens:
            if any(x % n for x in v) if n else any(v):
                raise ContainmentError(f"image generator outside {span}", witness=v)
        return _trivial_structure()
    k = len(basis)
    img_coords = []
    for v in image_gens:
        c = solve_in_basis(v)
        if c is None:
            raise ContainmentError(f"image generator outside {span}", witness=v)
        img_coords.append(c)
    if n:
        # relation lattice in kernel coordinates: combinations that vanish
        rel = kernel([list(c) for c in zip(*basis)], n, k)
        rel += [[n if i == j else 0 for j in range(k)] for i in range(k)]
        rel += img_coords
    elif img_coords:
        rel = img_coords
    else:
        raise DomainError("subquotient is not finite")
    factors_all, u, uinv = invariant_presentation([list(c) for c in zip(*rel)])
    if any(f == 0 for f in factors_all):
        raise DomainError("subquotient is not finite")
    kept = [i for i, f in enumerate(factors_all) if f > 1]
    witnesses = []
    for i in kept:
        w = [0] * ambient_dim
        for j in range(k):
            cij = uinv[j][i]
            if cij:
                w = [x + cij * y for x, y in zip(w, basis[j])]
        witnesses.append(tuple(x % n for x in w) if n else tuple(w))
    factor_rows = [(u[i], factors_all[i]) for i in kept]

    def class_map(vector):
        c = solve_in_basis(list(vector))
        if c is None:
            raise ContainmentError(f"vector not in the {span}", witness=list(vector))
        return tuple(sum(x * y for x, y in zip(row, c)) % f for row, f in factor_rows)

    return AbelianStructure(tuple(factors_all[i] for i in kept), tuple(witnesses), class_map)


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
