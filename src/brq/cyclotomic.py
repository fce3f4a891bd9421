"""Exact arithmetic in cyclotomic fields Q(zeta_m) and matrices over them.

A number of Q(zeta_m) is stored as a tuple `num` of phi(m) integer
numerators, on the basis 1, zeta_m, ..., zeta_m^(phi(m)-1), over one
positive denominator `den`: its residue mod the m-th cyclotomic polynomial
Phi_m, in lowest terms.  Phi_m is monic, so the reduction stays integral,
and equal numbers at one conductor have equal fields.  `Fraction` appears
only at the boundary: constructor input, the derived `coeffs`, `to_json`
and the value `as_unit_fraction` returns.  `_dot` is the product of numbers:
it reduces a sum of products once.

A `CycloMatrix` is stored the same way as one integer array `num` of shape
(rows, cols, phi(m)) over one positive denominator, in lowest terms; its
`entries` as CycloNumbers are built on first use and kept.  One kernel,
`_matmul`, multiplies numerator arrays with any leading batch axes: an
einsum into the coefficient pairs a_p b_q of each sum, then one product with
the (phi^2, phi) matrix of x^(p+q) mod Phi_m, built once per conductor.
Promotion to a multiple conductor is one product with the matrix of
x^(s k) mod Phi_m', built the same way.  One test, `_proportional`, decides
A = c B by the cross-multiplication A b_p == a_p B at the first nonzero
entry b_p of B, with no inverse.  Matrix products, `scalar_ratio` and the
batched scalar-defect check of `brauer.gamma_from_projective_action` all go
through these two functions.

Every array operation is exact.  Before each one, a bound on its largest
intermediate value is computed from the operands' largest entries: for a
product, max|a| max|b| k times the largest column sum of the reduction
matrix.  While the bound is below 2^63 (`INT64_LIMIT`) the operation runs on
int64; otherwise the same code runs on dtype=object arrays of Python ints,
as `linalg` does above its INT64_BOUND.  Results go back to int64 when their
entries fit, so a large intermediate does not slow later operations.

The inverse of x is the product of its Galois conjugates sigma_k(x)
(zeta_m -> zeta_m^k, k in (Z/m)^*, k != 1) divided by the rational norm,
x times that product (Cohen, A Course in Computational Algebraic Number
Theory, 4.3).  Built along a chain of subgroups of (Z/m)^*, doubling
within each step, the product takes O(log phi(m)) multiplications.  The
torsion units of Q(zeta_m) are the t = lcm(2, m) numbers +-zeta_m^k; one
table per conductor, built on first use, maps each to its value e/t in
Q/Z, so recognising a root of unity is one lookup.  For a batch of
ratios, `_unit_exponents` compares a_p den_B with the t multiples of
b_p den_A by the unit-multiplication matrices derived from that table.

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

import numpy as np

from .errors import DomainError, ValidationError

# The largest conductor accepted from an input document; the torsion table
# of Q(zeta_m) takes about a second to build at m = 4096.
MAX_CONDUCTOR = 4096

# int64 holds exactly the integers of absolute value below this
INT64_LIMIT = 1 << 63


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
# integer cyclotomic arrays


def _array(values):
    """An integer ndarray of nested Python ints: int64 when every entry fits,
    else dtype=object."""
    try:
        return _narrow(np.array(values, dtype=np.int64))
    except OverflowError:
        return _narrow(np.array(values, dtype=object))


def _maxabs(a):
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _narrow(a):
    """`a` as int64 when every entry fits (never -2^63, whose absolute value
    does not), else as dtype=object."""
    fits = _maxabs(a) < INT64_LIMIT
    if a.dtype == object:
        return a.astype(np.int64) if fits else a
    return a if fits else a.astype(object)


def _exact(bound, *arrays):
    """`arrays` unchanged when `bound` rules out int64 overflow in the
    operation that follows, else as dtype=object arrays."""
    if bound < INT64_LIMIT:
        return arrays
    return tuple(np.asarray(a).astype(object) for a in arrays)


@lru_cache(maxsize=None)
def _reduction(m):
    """(R, norm): the (phi^2, phi) integer matrix whose row s * phi + t
    holds x^(s+t) mod Phi_m, and the largest column sum of |R|."""
    phi = euler_phi(m)
    rows = [_number(m, [0] * (s + t) + [1]).num for s in range(phi) for t in range(phi)]
    return _array(rows), max(sum(abs(r[j]) for r in rows) for j in range(phi))


@lru_cache(maxsize=None)
def _substitution(m, m_new):
    """(S, norm): the (phi(m), phi(m_new)) integer matrix whose row s holds
    x^(s k) mod Phi_m_new for k = m_new / m, and its largest column sum of
    |S|; numerators @ S promotes from conductor m to m_new."""
    k = m_new // m
    rows = [_number(m_new, [0] * (s * k) + [1]).num for s in range(euler_phi(m))]
    return _array(rows), max(sum(abs(r[j]) for r in rows) for j in range(euler_phi(m_new)))


def _matmul(m, a, b):
    """Numerators of the products a @ b over Q(zeta_m): integer arrays of
    shape (..., r, k, phi) and (..., k, c, phi), leading axes broadcast.
    Every coefficient pair a_p b_q of a sum over k lands on x^(p+q) by one
    product with `_reduction(m)`."""
    red, norm = _reduction(m)
    phi = a.shape[-1]
    a, b, red = _exact(_maxabs(a) * _maxabs(b) * a.shape[-2] * norm, a, b, red)
    pairs = np.einsum("...ikp,...kjq->...ijpq", a, b)
    return pairs.reshape(pairs.shape[:-2] + (phi * phi,)) @ red


def _lowest(num, den):
    """num / den in lowest terms: numerator matrices of shape batch + (r, c,
    phi) over positive denominators of the batch shape."""
    den = _array(den)
    if object in (num.dtype, den.dtype):  # no Python int meets an int64 operand
        num, den = num.astype(object), den.astype(object)
    g = np.asarray(np.gcd(np.gcd.reduce(num.reshape(num.shape[:-3] + (-1,)), axis=-1), den))
    return _narrow(num // g[..., None, None, None]), _narrow(np.asarray(den // g))


def _proportional(m, a, b):
    """(ok, a_p, b_p) for batches of numerator matrices a and b of shape
    batch + (r, c, phi): b_p and a_p are the entries of b and a at the first
    nonzero entry of b, and ok says A b_p == a_p B entry by entry, that is
    a = c b for a scalar c.  ok is False where b is zero."""
    flat_a = a.reshape(a.shape[:-3] + (-1, 1, 1, a.shape[-1]))
    flat_b = b.reshape(b.shape[:-3] + (-1, 1, 1, b.shape[-1]))
    nonzero = flat_b.any(axis=(-3, -2, -1))
    pivot = nonzero.argmax(axis=-1)[..., None, None, None, None]
    a_p = np.take_along_axis(flat_a, pivot, axis=-4)
    b_p = np.take_along_axis(flat_b, pivot, axis=-4)
    ok = (_matmul(m, flat_a, b_p) == _matmul(m, a_p, flat_b)).all(axis=(-4, -3, -2, -1))
    return ok & nonzero.any(axis=-1), a_p[..., 0, 0, 0, :], b_p[..., 0, 0, 0, :]


@lru_cache(maxsize=None)
def _unit_matrices(m):
    """(U, norm): U[e] is the (phi, phi) matrix of multiplication by the
    torsion unit zeta_t^e, in the order of `_torsion_units(m)`, and norm the
    largest entry of |U|."""
    red, _ = _reduction(m)
    phi = euler_phi(m)
    units = _array(list(_torsion_units(m)))
    u = np.einsum("ep,pqs->esq", units, red.reshape(phi, phi, phi))
    return u, _maxabs(u)


def _unit_exponents(m, a, da, b, db):
    """The exponent e with a/da = zeta_t^e b/db (t = lcm(2, m)) for each item
    of a batch, or -1 where the ratio is not a root of unity: numerator
    vectors a, b (nonzero) of shape batch + (phi,) over positive
    denominators da, db of the batch shape.  This compares a db with each of
    the t unit multiples of b da, and inverts nothing."""
    u, norm = _unit_matrices(m)
    da, db = (_array(np.asarray(d))[..., None] for d in (da, db))
    bound = max(_maxabs(a) * _maxabs(db), _maxabs(b) * _maxabs(da) * a.shape[-1] * norm)
    a, da, b, db, u = _exact(bound, a, da, b, db, u)
    hit = (np.einsum("esq,...q->...es", u, b * da) == (a * db)[..., None, :]).all(axis=-1)
    return np.where(hit.any(axis=-1), hit.argmax(axis=-1), -1)


def _gauss_jordan(m, rows, right):
    """Gauss-Jordan elimination of [rows | right] for a square list of lists
    `rows` of CycloNumbers at conductor m: (determinant of rows, rows of the
    reduced right block), or (0, None) when rows is singular."""
    n = len(rows)
    work = [list(row) + list(extra) for row, extra in zip(rows, right)]
    det = _number(m, [1])
    for col in range(n):
        piv = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if piv is None:
            return _number(m, []), None
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


# ---------------------------------------------------------------------------
# matrices


class CycloMatrix:
    """Rectangular matrix over Q(zeta_m): an integer array `num` of shape
    (rows, cols, phi(m)) over one positive denominator `den`, in lowest
    terms.  `entries` is the same matrix as CycloNumbers, built on first
    use."""

    __slots__ = ("m", "num", "den", "_entries")

    def __init__(self, entries, m=None):
        rows = [[_coerce(x) for x in row] for row in entries]
        if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
            raise ValidationError("matrix must be rectangular and nonempty")
        conductor = lcm(m or 1, *(x.m for row in rows for x in row))
        rows = [[x.promote(conductor) for x in row] for row in rows]
        # every entry is in lowest terms, so the scaled numerators are too
        den = lcm(*(x.den for row in rows for x in row))
        self._set(conductor, _array([[[c * (den // x.den) for c in x.num] for x in row]
                                     for row in rows]), den)

    def _set(self, m, num, den):
        num.flags.writeable = False
        self.m, self.num, self.den, self._entries = m, num, int(den), None

    @classmethod
    def _from_array(cls, m, num, den):
        out = object.__new__(cls)
        out._set(m, num, den)
        return out

    @classmethod
    def identity(cls, n, m=1):
        num = np.zeros((n, n, euler_phi(m)), dtype=np.int64)
        num[range(n), range(n), 0] = 1
        return cls._from_array(m, num, 1)

    @property
    def entries(self):
        if self._entries is None:
            self._entries = tuple(tuple(_number(self.m, c, self.den) for c in row)
                                  for row in self.num.tolist())
        return self._entries

    @property
    def nrows(self):
        return self.num.shape[0]

    @property
    def ncols(self):
        return self.num.shape[1]

    def promote(self, m_new):
        if m_new == self.m:
            return self
        if m_new % self.m:
            raise DomainError("can only promote to a multiple conductor")
        sub, norm = _substitution(self.m, m_new)
        num, sub = _exact(_maxabs(self.num) * norm, self.num, sub)
        # the embedding keeps lowest terms: Z[zeta_m_new] meets Q(zeta_m) in Z[zeta_m]
        return CycloMatrix._from_array(m_new, _narrow(num @ sub), self.den)

    def __mul__(self, other):
        if isinstance(other, CycloNumber):
            scalar = CycloMatrix([[other]])
            a, b = _common(self, scalar)
            num = _matmul(a.m, a.num[:, :, None, None, :], b.num)[:, :, 0, 0]
        else:
            a, b = _common(self, other)
            if a.ncols != b.nrows:
                raise ValidationError("matrix dimensions do not match")
            num = _matmul(a.m, a.num, b.num)
        return CycloMatrix._from_array(a.m, *_lowest(num, a.den * b.den))

    def apply(self, vector):
        """Matrix times a column vector of CycloNumbers."""
        return [row[0] for row in (self * CycloMatrix([[v] for v in vector])).entries]

    def transpose(self):
        return CycloMatrix._from_array(self.m, self.num.transpose(1, 0, 2), self.den)

    def __eq__(self, other):
        if self.num.shape[:2] != other.num.shape[:2]:
            return False
        a, b = _common(self, other)
        return a.den == b.den and np.array_equal(a.num, b.num)

    def scalar_ratio(self, other):
        """Scalar c with self = c * other, or None when not proportional."""
        if self.num.shape[:2] != other.num.shape[:2]:
            return None
        a, b = _common(self, other)
        ok, a_p, b_p = _proportional(a.m, a.num, b.num)
        if not ok:
            return None
        return _number(a.m, a_p.tolist(), a.den) / _number(a.m, b_p.tolist(), b.den)

    def determinant(self):
        if self.nrows != self.ncols:
            raise ValidationError("determinant of a non-square matrix")
        return _gauss_jordan(self.m, self.entries, [()] * self.nrows)[0]

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValidationError("inverse of a non-square matrix")
        _, right = _gauss_jordan(self.m, self.entries,
                                 CycloMatrix.identity(self.nrows, self.m).entries)
        if right is None:
            raise DomainError("matrix is singular")
        return CycloMatrix(right, self.m)


def _common(a, b):
    m = lcm(a.m, b.m)
    return a.promote(m), b.promote(m)


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
    return CycloMatrix([[_minor(m, rows, cols) for cols in subsets] for rows in subsets], m.m)


def _minor(mat, rows, cols):
    e = mat.entries
    return _gauss_jordan(mat.m, [[e[i][j] for j in cols] for i in rows], [()] * len(rows))[0]


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
    mat = CycloMatrix(basis_vectors)
    rows = range(mat.nrows)
    return [_minor(mat, rows, cols) for cols in r_subsets(n, mat.nrows)]
