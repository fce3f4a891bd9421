"""Exact arithmetic in cyclotomic fields Q(zeta_m) and matrices over them.

Numbers are residues mod the m-th cyclotomic polynomial with Fraction
coefficients; the algebraically closed coefficient field of the theory is
realized as the union of these fields, which suffices because every finite
projective matrix group is conjugate into one and all scalar defects are
roots of unity.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import DomainError, ValidationError


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficient tuple (low degree first) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise DomainError("conductor must be positive")
    # x^m - 1 divided by the product of lower cyclotomic polynomials
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            q = cyclotomic_polynomial(d)
            poly = _poly_divide_exact(poly, list(q))
    return tuple(poly)


def _poly_divide_exact(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num[: len(den) - 1]) or any(num[len(den) - 1 :][len(out) :]):
        raise DomainError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def euler_phi(m):
    out = m
    mm = m
    p = 2
    while p * p <= mm:
        if mm % p == 0:
            out -= out // p
            while mm % p == 0:
                mm //= p
        p += 1
    if mm > 1:
        out -= out // mm
    return out


def _reduce_mod_cyclotomic(coeffs, m):
    """Reduce a rational coefficient list mod Phi_m; returns length-phi(m) tuple."""
    phi = euler_phi(m)
    poly = cyclotomic_polynomial(m)
    c = list(coeffs) + [Fraction(0)] * max(0, phi - len(coeffs))
    for i in range(len(c) - 1, phi - 1, -1):
        top = c[i]
        if top:
            for j in range(phi + 1):
                c[i - phi + j] -= top * poly[j]
        c.pop()
    while len(c) < phi:
        c.append(Fraction(0))
    return tuple(Fraction(x) for x in c)


class CycloNumber:
    """Element of Q(zeta_m), reduced mod the m-th cyclotomic polynomial."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        self.m = int(m)
        self.coeffs = _reduce_mod_cyclotomic([Fraction(x) for x in coeffs], self.m)

    @classmethod
    def from_rational(cls, value, m=1):
        return cls(m, [Fraction(value)])

    @classmethod
    def zeta(cls, m, k=1):
        k %= m
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        return cls(m, coeffs)

    def promote(self, m_new):
        if m_new == self.m:
            return self
        if m_new % self.m:
            raise DomainError("can only promote to a multiple conductor")
        step = m_new // self.m
        coeffs = [Fraction(0)] * (step * (len(self.coeffs) - 1) + 1 if self.coeffs else 1)
        for i, c in enumerate(self.coeffs):
            if c:
                coeffs[i * step] += c
        return CycloNumber(m_new, coeffs)

    @staticmethod
    def common(a, b):
        m = a.m * b.m // gcd(a.m, b.m)
        return a.promote(m), b.promote(m)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def __add__(self, other):
        other = _coerce(other)
        a, b = CycloNumber.common(self, other)
        return CycloNumber(a.m, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return CycloNumber(self.m, [-x for x in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        a, b = CycloNumber.common(self, other)
        out = [Fraction(0)] * (2 * len(a.coeffs))
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] += x * y
        return CycloNumber(a.m, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DomainError("inversion of zero")
        # extended Euclid in Q[x] against the (irreducible) cyclotomic polynomial
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.m)]
        a = list(self.coeffs)
        r0, r1 = phi, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _degree(r1) > 0:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if _degree(r1) < 0:
            raise DomainError("inversion of zero")
        lead = r1[0]
        inv = [c / lead for c in s1]
        return CycloNumber(self.m, inv)

    def __truediv__(self, other):
        other = _coerce(other)
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloNumber.from_rational(1, self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, CycloNumber):
            other = _coerce(other)
        a, b = CycloNumber.common(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def __repr__(self):
        return f"CycloNumber(m={self.m}, coeffs={[str(c) for c in self.coeffs]})"

    def to_json(self):
        return {"m": self.m, "c": [[c.numerator, c.denominator] for c in self.coeffs]}


def _coerce(x):
    if isinstance(x, CycloNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNumber.from_rational(x)
    raise ValidationError(f"cannot interpret {x!r} as a cyclotomic number")


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return list(p)


def _degree(p):
    p = _trim(p)
    if len(p) == 1 and p[0] == 0:
        return -1
    return len(p) - 1


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _poly_divmod(a, b):
    a = _trim(a)
    b = _trim(b)
    if _degree(b) < 0:
        raise DomainError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    while _degree(r) >= _degree(b) >= 0 and _degree(r) >= 0:
        shift = _degree(r) - _degree(b)
        c = r[_degree(r)] / b[_degree(b)]
        q[shift] += c
        for j in range(len(b)):
            r[shift + j] -= c * b[j]
        r = _trim(r) if _degree(r) < 0 else r
        while len(r) > 1 and r[-1] == 0:
            r.pop()
        if all(x == 0 for x in r):
            r = [Fraction(0)]
            break
    return _trim(q), _trim(r)


# ---------------------------------------------------------------------------
# torsion recognition


@lru_cache(maxsize=None)
def _torsion_order_bound(m):
    return m if m % 2 == 0 else 2 * m


def is_root_of_unity(x):
    """Multiplicative order of x when x is a root of unity, else None.

    The torsion units of Q(zeta_m) are exactly +-zeta_m^k, so it suffices
    to test exponents dividing 2m.
    """
    if x.is_zero():
        return None
    bound = _torsion_order_bound(x.m)
    if not (x ** bound).is_one():
        return None
    order = bound
    for p in _prime_factors(bound):
        while order % p == 0 and (x ** (order // p)).is_one():
            order //= p
    return order


def _prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def _primitive_torsion_root(m):
    """Generator of the torsion units of Q(zeta_m) with its order."""
    t = _torsion_order_bound(m)
    if m % 2 == 0:
        return CycloNumber.zeta(m), m
    root = -CycloNumber.zeta(m, (m + 1) // 2)
    return root, t


def as_unit_fraction(x):
    """Write a torsion unit as a Q/Z value: returns Fraction a/t in [0,1)."""
    order = is_root_of_unity(x)
    if order is None:
        return None
    root, t = _primitive_torsion_root(x.m)
    step = root ** (t // order)
    cur = CycloNumber.from_rational(1, x.m)
    for j in range(order):
        if cur == x:
            return Fraction(j, order)
        cur = cur * step
    return None


# ---------------------------------------------------------------------------
# matrices


class CycloMatrix:
    """Rectangular matrix with cyclotomic entries at a uniform conductor."""

    __slots__ = ("m", "entries")

    def __init__(self, entries, m=None):
        rows = [[_coerce(x) for x in row] for row in entries]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValidationError("matrix must be rectangular and nonempty")
        conductor = m or 1
        for row in rows:
            for x in row:
                conductor = conductor * x.m // gcd(conductor, x.m)
        self.m = conductor
        self.entries = tuple(tuple(x.promote(conductor) for x in row) for row in rows)

    @classmethod
    def identity(cls, n, m=1):
        one = CycloNumber.from_rational(1, m)
        zero = CycloNumber.from_rational(0, m)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], m)

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0])

    def promote(self, m_new):
        if m_new == self.m:
            return self
        return CycloMatrix([[x.promote(m_new) for x in row] for row in self.entries], m_new)

    def __mul__(self, other):
        if isinstance(other, CycloNumber):
            return CycloMatrix([[x * other for x in row] for row in self.entries])
        m = self.m * other.m // gcd(self.m, other.m)
        a, b = self.promote(m), other.promote(m)
        if a.ncols != b.nrows:
            raise ValidationError("matrix dimensions do not match")
        out = []
        for i in range(a.nrows):
            row = []
            for j in range(b.ncols):
                acc = CycloNumber.from_rational(0, m)
                for k in range(a.ncols):
                    acc = acc + a.entries[i][k] * b.entries[k][j]
                row.append(acc)
            out.append(row)
        return CycloMatrix(out, m)

    def apply(self, vector):
        """Matrix times a column vector of CycloNumbers."""
        m = self.m
        vec = [_coerce(v).promote(m * _coerce(v).m // gcd(m, _coerce(v).m)) for v in vector]
        conductor = m
        for v in vec:
            conductor = conductor * v.m // gcd(conductor, v.m)
        a = self.promote(conductor)
        vec = [v.promote(conductor) for v in vec]
        out = []
        for i in range(a.nrows):
            acc = CycloNumber.from_rational(0, conductor)
            for k in range(a.ncols):
                acc = acc + a.entries[i][k] * vec[k]
            out.append(acc)
        return out

    def transpose(self):
        return CycloMatrix([[self.entries[i][j] for i in range(self.nrows)]
                            for j in range(self.ncols)], self.m)

    def __eq__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        m = self.m * other.m // gcd(self.m, other.m)
        a, b = self.promote(m), other.promote(m)
        return a.entries == b.entries

    def __hash__(self):
        return hash(self.entries)

    def scalar_ratio(self, other):
        """Scalar c with self = c * other, or None when not proportional."""
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return None
        m = self.m * other.m // gcd(self.m, other.m)
        a, b = self.promote(m), other.promote(m)
        pivot = None
        for i in range(a.nrows):
            for j in range(a.ncols):
                if not b.entries[i][j].is_zero():
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            return None
        i, j = pivot
        c = a.entries[i][j] / b.entries[i][j]
        for i in range(a.nrows):
            for j in range(a.ncols):
                if a.entries[i][j] != c * b.entries[i][j]:
                    return None
        return c

    def determinant(self):
        if self.nrows != self.ncols:
            raise ValidationError("determinant of a non-square matrix")
        n = self.nrows
        work = [list(row) for row in self.entries]
        det = CycloNumber.from_rational(1, self.m)
        for col in range(n):
            piv = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
            if piv is None:
                return CycloNumber.from_rational(0, self.m)
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                det = -det
            det = det * work[col][col]
            inv = work[col][col].inverse()
            for r in range(col + 1, n):
                if not work[r][col].is_zero():
                    f = work[r][col] * inv
                    work[r] = [x - f * y for x, y in zip(work[r], work[col])]
        return det

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValidationError("inverse of a non-square matrix")
        n = self.nrows
        one = CycloNumber.from_rational(1, self.m)
        zero = CycloNumber.from_rational(0, self.m)
        work = [list(row) + [one if i == j else zero for j in range(n)]
                for i, row in enumerate(self.entries)]
        for col in range(n):
            piv = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
            if piv is None:
                raise DomainError("matrix is singular")
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
            inv = work[col][col].inverse()
            work[col] = [x * inv for x in work[col]]
            for r in range(n):
                if r != col and not work[r][col].is_zero():
                    f = work[r][col]
                    work[r] = [x - f * y for x, y in zip(work[r], work[col])]
        return CycloMatrix([row[n:] for row in work], self.m)


def r_subsets(n, r):
    """Lexicographically ordered r-subsets of 0..n-1 (the index convention
    for all exterior-power and star constructions)."""
    return list(itertools.combinations(range(n), r))


def exterior_power(m, r):
    """Matrix of r x r minors on the lexicographic r-subset basis.

    Functorial: exterior_power(A*B, r) == exterior_power(A, r) * exterior_power(B, r).
    """
    if m.nrows != m.ncols:
        raise ValidationError("exterior power of a non-square matrix")
    n = m.nrows
    if not 1 <= r <= n:
        raise DomainError(f"exterior power degree {r} out of range 1..{n}")
    subsets = r_subsets(n, r)
    out = []
    for rows in subsets:
        out_row = []
        for cols in subsets:
            sub = CycloMatrix([[m.entries[i][j] for j in cols] for i in rows], m.m)
            out_row.append(sub.determinant())
        out.append(out_row)
    return CycloMatrix(out, m.m)


def shuffle_sign(subset, n):
    """Sign of the permutation (subset, complement) against 0..n-1."""
    comp = [i for i in range(n) if i not in subset]
    seq = list(subset) + comp
    inversions = sum(1 for i in range(n) for j in range(i + 1, n) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def hodge_star(n, r):
    """Integer matrix sending e_S to sign(S, S^c) * e_{S^c} on r-subsets.

    For n = 2r this realizes the identification used to build correlation
    matrices; star(n-r) . star(r) = (-1)^(r(n-r)) * identity.
    """
    subsets = r_subsets(n, r)
    co_subsets = r_subsets(n, n - r)
    index_of = {s: i for i, s in enumerate(co_subsets)}
    size = len(subsets)
    out = [[0] * size for _ in range(len(co_subsets))]
    for col, s in enumerate(subsets):
        comp = tuple(i for i in range(n) if i not in s)
        out[index_of[comp]][col] = shuffle_sign(s, n)
    return out


def plucker_vector(basis_vectors, n):
    """Plucker coordinates (lexicographic minors) of the span of the rows."""
    r = len(basis_vectors)
    mat = CycloMatrix(basis_vectors)
    out = []
    for cols in r_subsets(n, r):
        sub = CycloMatrix([[mat.entries[i][j] for j in cols] for i in range(r)], mat.m)
        out.append(sub.determinant())
    return out
