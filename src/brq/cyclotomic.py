"""Exact arithmetic in cyclotomic fields Q(zeta_m) and matrices over them.

A number of Q(zeta_m) is stored as a tuple `num` of phi(m) integer
numerators, on the basis 1, zeta_m, ..., zeta_m^(phi(m)-1), over one
positive denominator `den`: its residue mod the m-th cyclotomic polynomial
Phi_m, in lowest terms.  Phi_m is monic, so the reduction stays integral,
and equal numbers at one conductor have equal fields.  `Fraction` appears
only at the boundary: constructor input, the derived `coeffs`, `to_json`
and the value `as_unit_fraction` returns.  `_dot` is the one product: it
reduces a sum of products once, for numbers, matrix products and
matrix-vector products.

The inverse of x is the product of its Galois conjugates sigma_k(x)
(zeta_m -> zeta_m^k, k in (Z/m)^*, k != 1) divided by the rational norm,
x times that product (Cohen, A Course in Computational Algebraic Number
Theory, 4.3).  Built along a chain of subgroups of (Z/m)^*, doubling
within each step, the product takes O(log phi(m)) multiplications.  The
torsion units of Q(zeta_m) are the t = lcm(2, m) numbers +-zeta_m^k; one
table per conductor, built on first use, maps each to its value e/t in
Q/Z, so recognising a root of unity is one lookup.

The algebraically closed coefficient field of the theory is realized as
the union of these fields, which suffices because every finite projective
matrix group is conjugate into one and all scalar defects are roots of
unity.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DomainError, ValidationError

# The largest conductor accepted from an input document; the torsion table
# of Q(zeta_m) takes about a second to build at m = 4096.
MAX_CONDUCTOR = 4096


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


def euler_phi(m):
    return len(cyclotomic_polynomial(m)) - 1


def _number(m, num, den=1):
    """The CycloNumber num/den at conductor m, for an integer polynomial
    `num` (low degree first) and a nonzero integer `den`."""
    phi = euler_phi(m)
    poly = cyclotomic_polynomial(m)
    c = list(num)
    for i in range(len(c) - 1, phi - 1, -1):
        top = c[i]
        if top:
            for j in range(phi):
                c[i - phi + j] -= top * poly[j]
    c = c[:phi] + [0] * (phi - len(c))
    g = gcd(den, *c)
    if den < 0:
        g = -g
    if g != 1:
        c = [x // g for x in c]
        den //= g
    x = object.__new__(CycloNumber)
    x.m, x.num, x.den = m, tuple(c), den
    return x


def _dot(m, xs, ys):
    """sum(x * y) over paired CycloNumbers at conductor m, reduced once."""
    pairs = list(zip(xs, ys))
    den = lcm(*(x.den * y.den for x, y in pairs))
    acc = [0] * (2 * euler_phi(m) - 1)
    for x, y in pairs:
        scale = den // (x.den * y.den)
        for i, a in enumerate(x.num):
            if a:
                a *= scale
                for j, b in enumerate(y.num):
                    acc[i + j] += a * b
    return _number(m, acc, den)


class CycloNumber:
    """Element of Q(zeta_m): integer numerators `num` over a positive `den`,
    reduced mod the m-th cyclotomic polynomial and in lowest terms."""

    __slots__ = ("m", "num", "den")

    def __new__(cls, m, coeffs):
        fracs = [Fraction(x) for x in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        return _number(int(m), [f.numerator * (den // f.denominator) for f in fracs], den)

    @property
    def coeffs(self):
        """The reduced coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @classmethod
    def from_rational(cls, value, m=1):
        value = Fraction(value)
        return _number(m, [value.numerator], value.denominator)

    @classmethod
    def zeta(cls, m, k=1):
        return _number(m, [0] * (k % m) + [1])

    def _substitute(self, k, m):
        """The image under zeta_self.m -> zeta_m^k."""
        c = [0] * m
        for i, a in enumerate(self.num):
            c[i * k % m] += a
        return _number(m, c, self.den)

    def promote(self, m_new):
        if m_new == self.m:
            return self
        if m_new % self.m:
            raise DomainError("can only promote to a multiple conductor")
        return self._substitute(m_new // self.m, m_new)

    @staticmethod
    def common(a, b):
        m = lcm(a.m, b.m)
        return a.promote(m), b.promote(m)

    def is_zero(self):
        return not any(self.num)

    def is_one(self):
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def __add__(self, other):
        a, b = CycloNumber.common(self, _coerce(other))
        return _number(a.m, [x * b.den + y * a.den for x, y in zip(a.num, b.num)],
                       a.den * b.den)

    def __neg__(self):
        return _number(self.m, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        a, b = CycloNumber.common(self, _coerce(other))
        return _dot(a.m, (a,), (b,))

    __radd__ = __add__
    __rmul__ = __mul__

    def inverse(self):
        """The product `rest` of the conjugates sigma_k(self), k != 1, over
        the rational norm self * rest."""
        if self.is_zero():
            raise DomainError("inversion of zero")
        m = self.m
        # Grow a subgroup S of (Z/m)^* one unit k at a time, keeping rest as
        # the product over s in S, s != 1.  With o least such that k^o is in
        # S, the new subgroup is the union of the cosets k^j S for j < o, so
        # rest gains sigma_k of _orbit(self * rest, k, o - 1).
        rest, sub = _number(m, [1]), {1}
        for k in range(2, m):
            if gcd(k, m) == 1 and k not in sub:
                o = next(j for j in itertools.count(2) if pow(k, j, m) in sub)
                rest = rest * _orbit(self * rest, k, o - 1)._substitute(k, m)
                sub = {s * pow(k, j, m) % m for s in sub for j in range(o)}
        norm = self * rest
        return _number(m, [c * norm.den for c in rest.num], rest.den * norm.num[0])

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = _number(self.m, [1])
        for bit in bin(k)[2:]:
            out = out * out * self if bit == "1" else out * out
        return out

    def __eq__(self, other):
        a, b = CycloNumber.common(self, _coerce(other))
        return a.num == b.num and a.den == b.den

    def __repr__(self):
        return f"CycloNumber(m={self.m}, coeffs={[str(c) for c in self.coeffs]})"

    def to_json(self):
        return {"m": self.m, "c": [[c.numerator, c.denominator] for c in self.coeffs]}


def _orbit(y, k, n):
    """The product of sigma_(k^j)(y) over 0 <= j < n, for n >= 1, by doubling."""
    if n == 1:
        return y
    m = y.m
    half = _orbit(y, k, n // 2)
    out = half * half._substitute(pow(k, n // 2, m), m)
    return out * y._substitute(pow(k, n - 1, m), m) if n % 2 else out


def _coerce(x):
    if isinstance(x, CycloNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloNumber.from_rational(x)
    raise ValidationError(f"cannot interpret {x!r} as a cyclotomic number")


# ---------------------------------------------------------------------------
# torsion recognition


@lru_cache(maxsize=None)
def _torsion_units(m):
    """{num: e/t} over the t = lcm(2, m) torsion units zeta_t^e of Q(zeta_m).

    For odd m, zeta_2m = -zeta_m^((m+1)/2)."""
    t = lcm(2, m)
    table = {}
    for e in range(t):
        sign, k = (1, e) if m % 2 == 0 else ((-1) ** e, e * (m + 1) // 2 % m)
        table[_number(m, [0] * k + [sign]).num] = Fraction(e, t)
    return table


def as_unit_fraction(x):
    """Write a torsion unit as a Q/Z value: returns Fraction a/t in [0,1),
    or None when x is not a root of unity."""
    if x.den != 1:
        return None
    return _torsion_units(x.m).get(x.num)


def is_root_of_unity(x):
    """Multiplicative order of x when x is a root of unity, else None."""
    value = as_unit_fraction(x)
    return None if value is None else value.denominator


# ---------------------------------------------------------------------------
# matrices


class CycloMatrix:
    """Rectangular matrix with cyclotomic entries at a uniform conductor."""

    __slots__ = ("m", "entries")

    def __init__(self, entries, m=None):
        rows = [[_coerce(x) for x in row] for row in entries]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValidationError("matrix must be rectangular and nonempty")
        conductor = lcm(m or 1, *(x.m for row in rows for x in row))
        self.m = conductor
        self.entries = tuple(tuple(x.promote(conductor) for x in row) for row in rows)

    @classmethod
    def identity(cls, n, m=1):
        one = _number(m, [1])
        zero = _number(m, [])
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
        m = lcm(self.m, other.m)
        a, b = self.promote(m), other.promote(m)
        if a.ncols != b.nrows:
            raise ValidationError("matrix dimensions do not match")
        cols = list(zip(*b.entries))
        return CycloMatrix([[_dot(m, row, col) for col in cols] for row in a.entries], m)

    def apply(self, vector):
        """Matrix times a column vector of CycloNumbers."""
        vec = [_coerce(v) for v in vector]
        m = lcm(self.m, *(v.m for v in vec))
        vec = [v.promote(m) for v in vec]
        return [_dot(m, row, vec) for row in self.promote(m).entries]

    def transpose(self):
        return CycloMatrix([[self.entries[i][j] for i in range(self.nrows)]
                            for j in range(self.ncols)], self.m)

    def __eq__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        m = lcm(self.m, other.m)
        return self.promote(m).entries == other.promote(m).entries

    def scalar_ratio(self, other):
        """Scalar c with self = c * other, or None when not proportional."""
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return None
        m = lcm(self.m, other.m)
        a, b = self.promote(m).entries, other.promote(m).entries
        pivot = next(((i, j) for i, row in enumerate(b) for j, x in enumerate(row)
                      if not x.is_zero()), None)
        if pivot is None:
            return None
        i, j = pivot
        c = a[i][j] / b[i][j]
        for row_a, row_b in zip(a, b):
            for x, y in zip(row_a, row_b):
                if x != c * y:
                    return None
        return c

    def _gauss_jordan(self, right):
        """Gauss-Jordan elimination of the square matrix [self | right]:
        (determinant of self, rows of the reduced right block), or
        (0, None) when self is singular."""
        n = self.nrows
        work = [list(row) + list(extra) for row, extra in zip(self.entries, right)]
        det = _number(self.m, [1])
        for col in range(n):
            piv = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
            if piv is None:
                return _number(self.m, []), None
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                det = -det
            det = det * work[col][col]
            inv = work[col][col].inverse()
            pivot_row = work[col][col:] = [x * inv for x in work[col][col:]]
            for r in range(n):
                f = work[r][col]
                if r != col and not f.is_zero():
                    work[r][col:] = [x - f * y for x, y in zip(work[r][col:], pivot_row)]
        return det, [row[n:] for row in work]

    def determinant(self):
        if self.nrows != self.ncols:
            raise ValidationError("determinant of a non-square matrix")
        return self._gauss_jordan([()] * self.nrows)[0]

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValidationError("inverse of a non-square matrix")
        _, right = self._gauss_jordan(CycloMatrix.identity(self.nrows, self.m).entries)
        if right is None:
            raise DomainError("matrix is singular")
        return CycloMatrix(right, self.m)


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
