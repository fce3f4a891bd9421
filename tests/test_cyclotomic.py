from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brq.cyclotomic import (
    CycloMatrix,
    CycloNumber,
    _dot,
    _lowest,
    _matmul,
    _proportional,
    _unit_exponents,
    as_unit_fraction,
    cyclotomic_polynomial,
    euler_phi,
    exterior_power,
    hodge_star,
    is_root_of_unity,
    plucker_vector,
    shuffle_sign,
)
from brq.errors import DomainError


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta4_squared_is_minus_one():
    z = CycloNumber.zeta(4)
    assert z * z == CycloNumber.from_rational(-1)


def test_inverse_of_zeta8():
    z = CycloNumber.zeta(8)
    assert z.inverse() == z ** 7
    assert (z * z.inverse()).is_one()


def test_additive_cancellation():
    z3 = CycloNumber.zeta(3)
    x = CycloNumber.from_rational(1) + z3
    y = -CycloNumber.from_rational(1) - z3
    assert (x + y).is_zero()


def test_field_axioms_random_spotcheck():
    # m = 1 and 2 have a trivial (Z/m)^*, so the norm inverse is the rational
    # inverse; 5, 10 and 15 run it over (Z/m)^* of order 4 and 8
    rng = random.Random(42)
    for m in (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 24):
        nums = []
        for _ in range(3):
            coeffs = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(4)]
            nums.append(CycloNumber(m, coeffs))
        a, b, c = nums
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert (a * a.inverse()).is_one()


def _reduce_with_fractions(m, coeffs):
    """Plain Fraction polynomial remainder mod Phi_m, low degree first."""
    poly = cyclotomic_polynomial(m)
    phi = len(poly) - 1
    c = [Fraction(x) for x in coeffs] + [Fraction(0)] * phi
    for i in range(len(c) - 1, phi - 1, -1):
        top = c[i]
        for j in range(phi + 1):
            c[i - phi + j] -= top * poly[j]
    return c[:phi]


def test_to_json_is_the_reduced_fraction_remainder():
    rng = random.Random(5)
    for m in (1, 2, 3, 5, 6, 8, 9, 12, 15):
        for _ in range(4):
            coeffs = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 7)) for _ in range(2 * m)]
            want = _reduce_with_fractions(m, coeffs)
            x = CycloNumber(m, coeffs)
            assert x.to_json() == {"m": m, "c": [[c.numerator, c.denominator] for c in want]}
            assert x.coeffs == tuple(want)
            product = x * CycloNumber.zeta(m, 3)
            shifted = _reduce_with_fractions(m, [0, 0, 0] + want)
            assert product.to_json()["c"] == [[c.numerator, c.denominator] for c in shifted]


def test_every_torsion_unit_is_recognised_with_its_order():
    for m in range(1, 13):
        one = CycloNumber.from_rational(1, m)
        for k in range(m):
            for sign in (1, -1):
                x = CycloNumber.zeta(m, k) * sign
                order, power = 1, x
                while not power.is_one():
                    order, power = order + 1, power * x
                assert is_root_of_unity(x) == order
                value = as_unit_fraction(x)
                assert value.denominator == order
                t = lcm(2, m)
                root = CycloNumber.zeta(m) if m % 2 == 0 else -CycloNumber.zeta(m, (m + 1) // 2)
                assert root ** (value.numerator * (t // order)) == x
        assert is_root_of_unity(one * 2) is None
    unit = CycloNumber.zeta(5) + CycloNumber.zeta(5, 4)  # a unit of infinite order
    assert (unit * unit.inverse()).is_one()
    assert is_root_of_unity(unit) is None
    assert as_unit_fraction(unit) is None


def test_cross_conductor_arithmetic():
    z4 = CycloNumber.zeta(4)
    z3 = CycloNumber.zeta(3)
    prod = z4 * z3
    assert prod == CycloNumber.zeta(12, 7)  # zeta12^3 * zeta12^4


def test_is_root_of_unity():
    assert is_root_of_unity(CycloNumber.from_rational(1)) == 1
    assert is_root_of_unity(CycloNumber.from_rational(-1)) == 2
    assert is_root_of_unity(CycloNumber.zeta(8) ** 3) == 8
    assert is_root_of_unity(CycloNumber.from_rational(1) + CycloNumber.zeta(4)) is None
    assert is_root_of_unity(CycloNumber.from_rational(0)) is None
    # odd conductor: -zeta_3 has order 6
    assert is_root_of_unity(-CycloNumber.zeta(3)) == 6


def test_as_unit_fraction():
    assert as_unit_fraction(CycloNumber.from_rational(1)) == Fraction(0, 1)
    assert as_unit_fraction(CycloNumber.from_rational(-1)) == Fraction(1, 2)
    assert as_unit_fraction(CycloNumber.zeta(4)) == Fraction(1, 4)
    assert as_unit_fraction(CycloNumber.zeta(8) ** 5) == Fraction(5, 8)
    assert as_unit_fraction(-CycloNumber.zeta(3)) in (Fraction(1, 6), Fraction(5, 6))
    z = -CycloNumber.zeta(3)
    f = as_unit_fraction(z)
    # consistency: zeta_6^(6f) reproduces the value
    root = CycloNumber.zeta(6)
    assert root ** (f.numerator * (6 // f.denominator)) == z


def test_matrix_inverse_examples():
    ident = CycloMatrix.identity(3)
    assert ident.inverse() == ident
    z3 = CycloNumber.zeta(3)
    zero = CycloNumber.from_rational(0, 3)
    d = CycloMatrix([[z3, zero], [zero, z3 * z3]])
    dinv = d.inverse()
    assert dinv == CycloMatrix([[z3 * z3, zero], [zero, z3]])
    swap = CycloMatrix([[0, 1], [1, 0]])
    assert swap.inverse() == swap


def test_matrix_inverse_singular():
    with pytest.raises(DomainError):
        CycloMatrix([[1, 1], [1, 1]]).inverse()


def test_matrix_inverse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(5):
        m = CycloMatrix([[rng.randrange(-3, 4) + 0 for _ in range(3)] for _ in range(3)])
        try:
            inv = m.inverse()
        except DomainError:
            continue
        assert m * inv == CycloMatrix.identity(3)


def test_exterior_power_small_cases():
    m = CycloMatrix([[1, 2], [3, 4]])
    assert exterior_power(m, 1) == m
    det = exterior_power(m, 2)
    assert det.entries[0][0] == CycloNumber.from_rational(-2)
    a, b, c = CycloNumber.from_rational(2), CycloNumber.from_rational(3), CycloNumber.from_rational(5)
    zero = CycloNumber.from_rational(0)
    d = CycloMatrix([[a, zero, zero], [zero, b, zero], [zero, zero, c]])
    e = exterior_power(d, 2)
    assert e == CycloMatrix([[a * b, zero, zero], [zero, a * c, zero], [zero, zero, b * c]])


def test_exterior_power_functorial_random():
    rng = random.Random(11)
    for n, r in ((3, 2), (4, 2), (4, 3)):
        a = CycloMatrix([[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)])
        b = CycloMatrix([[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)])
        assert exterior_power(a * b, r) == exterior_power(a, r) * exterior_power(b, r)


def test_hodge_star_conventions():
    s = hodge_star(2, 1)
    # e_0 -> +e_1, e_1 -> -e_0
    assert s == [[0, -1], [1, 0]]
    s42 = hodge_star(4, 2)
    # e_{01} -> +e_{23}
    assert s42[5][0] == 1
    # star . star = (-1)^(r(n-r)) identity
    for n, r in ((2, 1), (4, 2), (4, 1), (5, 2)):
        a = hodge_star(n, r)
        b = hodge_star(n, n - r)
        prod = [[sum(b[i][k] * a[k][j] for k in range(len(a))) for j in range(len(a[0]))]
                for i in range(len(b))]
        sign = (-1) ** (r * (n - r))
        size = len(prod)
        assert prod == [[sign if i == j else 0 for j in range(size)] for i in range(size)]


def test_shuffle_sign():
    assert shuffle_sign((0,), 2) == 1
    assert shuffle_sign((1,), 2) == -1
    assert shuffle_sign((0, 1), 4) == 1


def test_plucker_vector():
    vecs = [[1, 0, 0, 0], [0, 1, 0, 0]]
    pv = plucker_vector(vecs, 4)
    assert [x.coeffs[0] for x in pv] == [1, 0, 0, 0, 0, 0]


def test_numbers_and_matrices_are_unhashable_so_no_hash_can_disagree_with_eq():
    # equal numbers at conductors 4 and 1; a hash of (m, num, den) put them apart
    minus_one = CycloNumber.from_rational(-1)
    assert CycloNumber.zeta(4) ** 2 == minus_one
    with pytest.raises(TypeError):
        minus_one in {CycloNumber.zeta(4) ** 2}  # noqa: B015
    a = CycloMatrix([[CycloNumber.zeta(4) ** 2]])
    assert a == CycloMatrix([[minus_one]])
    with pytest.raises(TypeError):
        hash(a)


# ---------------------------------------------------------------------------
# the integer array core against a per-entry reference


def _reference_product(a, b):
    """a @ b entry by entry, each entry one `_dot` of CycloNumbers."""
    cols = list(zip(*b.entries))
    return [[_dot(a.m, row, col) for col in cols] for row in a.entries]


def _reference_ratio(a, b):
    """c with a = c b by field arithmetic on the entries, or None."""
    pairs = [(x, y) for row_a, row_b in zip(a.entries, b.entries) for x, y in zip(row_a, row_b)]
    pivot = next(((x, y) for x, y in pairs if not y.is_zero()), None)
    if pivot is None:
        return None
    c = pivot[0] * pivot[1].inverse()
    return c if all(x == c * y for x, y in pairs) else None


_COEFF = (st.integers(-3, 3) | st.integers(-2 ** 70, 2 ** 70)
          | st.sampled_from([2 ** 31, 2 ** 62, 2 ** 63 - 1, 2 ** 63, -(2 ** 63), -(2 ** 63) - 1]))


@pytest.mark.parametrize("x, y", [(2 ** 62, 2), (-(2 ** 62), 2), (2 ** 63, Fraction(1, 2 ** 63)),
                                  (2 ** 40, 2 ** 40), (2 ** 63 - 1, -1)])
def test_products_cross_the_int64_limit_exactly(x, y):
    got = CycloMatrix([[x]]) * CycloMatrix([[y]])
    assert got.entries == ((CycloNumber.from_rational(Fraction(x) * y),),)
    assert got.num.dtype == (object if abs(Fraction(x) * y) >= 2 ** 63 else np.int64)


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_batched_products_and_ratios_equal_the_per_entry_reference(data):
    """Products of a batch of matrices, single products and scalar ratios,
    on int64 and on dtype=object numerators (entries up to 2^70), equal a
    reference that multiplies one entry at a time; the unit exponent of a
    ratio is its torsion-table value."""
    m = data.draw(st.sampled_from([1, 3, 4, 5, 8, 12]))
    phi = euler_phi(m)

    def number():
        coeffs = data.draw(st.lists(_COEFF, min_size=1, max_size=phi))
        return CycloNumber(m, [Fraction(c, data.draw(st.integers(1, 4))) for c in coeffs])

    def matrix(rows, cols):
        return CycloMatrix([[number() for _ in range(cols)] for _ in range(rows)], m)

    r, k, c, batch = (data.draw(st.integers(1, 3)) for _ in range(4))
    lefts, right = [matrix(r, k) for _ in range(batch)], matrix(k, c)
    products = _matmul(m, np.stack([a.num for a in lefts]), right.num)
    for a, num in zip(lefts, products):
        want = CycloMatrix(_reference_product(a, right), m)
        assert CycloMatrix._from_array(m, *_lowest(num, a.den * right.den)) == want
        assert a * right == want
        assert (a * right).entries == want.entries

    b = matrix(r, c)
    if data.draw(st.booleans()):  # a multiple of b, often by a root of unity
        scalar = (CycloNumber.zeta(m, data.draw(st.integers(0, m - 1)))
                  * data.draw(st.sampled_from([1, -1, 2])) if data.draw(st.booleans())
                  else number())
        a = CycloMatrix([[scalar * y for y in row] for row in b.entries], m)
    else:
        a = matrix(r, c)
    want = _reference_ratio(a, b)
    got = a.scalar_ratio(b)
    assert (got is None) == (want is None) and (want is None or got == want)
    ok, a_p, b_p = _proportional(m, a.num, b.num)
    assert bool(ok) == (want is not None)
    if ok:
        e = int(_unit_exponents(m, a_p, a.den, b_p, b.den))
        unit = as_unit_fraction(want)
        assert (e == -1) == (unit is None)
        assert unit is None or Fraction(e, lcm(2, m)) == unit
