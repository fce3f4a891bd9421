"""Named group constructions used by the bundled verification suites."""

from __future__ import annotations

from math import gcd

from .errors import DomainError
from .groups import (
    FiniteGroup,
    central_extension_from_cocycle,
    cyclic_group,
    direct_product,
    from_permutation_generators,
    semidirect_product,
)


def abelian_group(factors):
    g = cyclic_group(1)
    for f in factors:
        g = direct_product(g, cyclic_group(f))
    return g


def klein_four():
    return abelian_group([2, 2])


def dihedral(n):
    """Dihedral group of order 2n (symmetries of the n-gon)."""
    rot = [(i + 1) % n for i in range(n)]
    refl = [(n - i) % n for i in range(n)]
    return from_permutation_generators(n, [rot, refl])


def symmetric(n):
    if n < 1:
        raise DomainError("need n >= 1")
    if n == 1:
        return cyclic_group(1)
    swap = [1, 0] + list(range(2, n))
    cycle = list(range(1, n)) + [0]
    return from_permutation_generators(n, [swap, cycle])


def alternating4(nonstandard_in_s6=False):
    """The alternating group on 4 letters.

    With the flag set, the degree-6 copy generated by (024)(135), (01)(23)
    and (01)(45) is returned; its Klein subgroup consists of the three
    double transpositions supported on {0,1}, {2,3}, {4,5}.
    """
    if nonstandard_in_s6:
        a = [2, 3, 4, 5, 0, 1]  # (024)(135)
        b = [1, 0, 3, 2, 4, 5]  # (01)(23)
        c = [1, 0, 2, 3, 5, 4]  # (01)(45)
        return from_permutation_generators(6, [a, b, c])
    return from_permutation_generators(4, [[1, 0, 3, 2], [1, 2, 0, 3]])


def metacyclic(m, n, k):
    """Z/m x| Z/n where the Z/n generator acts by x -> k*x mod m."""
    if pow(k, n, m) != 1 % m or gcd(k, m) != 1:
        raise DomainError(f"k={k} does not define an order-dividing-{n} automorphism of Z/{m}")
    a = cyclic_group(m)
    b = cyclic_group(n)

    def action(y):
        mult = pow(k, y, m)
        return [(mult * x) % m for x in range(m)]

    return semidirect_product(a, b, action)


def dicyclic(n):
    """Dicyclic group of order 4n: <a, b | a^(2n), b^2 = a^n, b a b^-1 = a^-1>.

    dicyclic(2) is the quaternion group Q8, dicyclic(4) is Q16.
    """
    order = 4 * n
    two_n = 2 * n

    def enc(i, e):
        return i * 2 + e

    table = []
    for i in range(two_n):
        for e in range(2):
            row = []
            for j in range(two_n):
                for f in range(2):
                    # (a^i b^e)(a^j b^f)
                    if e == 0:
                        ii, ff = (i + j) % two_n, f
                    else:
                        # b a^j = a^-j b ; b^2 = a^n
                        if f == 0:
                            ii, ff = (i - j) % two_n, 1
                        else:
                            ii, ff = (i - j + n) % two_n, 0
                    row.append(enc(ii, ff))
            table.append(row)
    return FiniteGroup(table, generators=[enc(1, 0), enc(0, 1)])


def quaternion8():
    return dicyclic(2)


def heisenberg(p):
    """Extraspecial group of order p^3 and exponent p (for odd p)."""
    base = abelian_group([p, p])
    # index of (a, b) in the direct product is a*p + b
    m = base.order
    coc = [[0] * m for _ in range(m)]
    for a1 in range(p):
        for b1 in range(p):
            for a2 in range(p):
                for b2 in range(p):
                    coc[a1 * p + b1][a2 * p + b2] = (a1 * b2) % p
    return central_extension_from_cocycle(base, p, coc)


def extraspecial27_exponent9():
    return metacyclic(9, 3, 4)  # 4^3 = 64 = 1 mod 9, 4 has order 3 mod 9


def extraspecial32(arf):
    """Extraspecial groups of order 32: arf=0 gives the D4-type central
    product, arf=1 the Q8-type one (distinguished by the involution count)."""
    base = abelian_group([2, 2, 2, 2])

    def bits(x):
        return ((x >> 3) & 1, (x >> 2) & 1, (x >> 1) & 1, x & 1)

    # index of (v1,v2,v3,v4) in the iterated product: v1*8 + v2*4 + v3*2 + v4
    m = base.order
    coc = [[0] * m for _ in range(m)]
    for x in range(m):
        v = bits(x)
        for y in range(m):
            w = bits(y)
            val = v[0] * w[1] + v[2] * w[3]
            if arf:
                val += v[0] * w[0] + v[1] * w[1]
            coc[x][y] = val % 2
    return central_extension_from_cocycle(base, 2, coc)


def pauli_cocycle_klein():
    """The sign 2-cocycle of the Pauli projective representation of K4.

    Ordering of K4 = Z/2 x Z/2 matches abelian_group([2, 2]): index 2*a + b
    with lifts I, Z, X, XZ respectively for (a, b) = (0,0), (0,1), (1,0), (1,1).
    """
    # lift(a, b) = X^a Z^b ; X^a Z^b X^c Z^d = (-1)^(b*c) X^(a+c) Z^(b+d)
    coc = [[0] * 4 for _ in range(4)]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    coc[a * 2 + b][c * 2 + d] = (b * c) % 2
    return coc


def quaternion_via_cocycle():
    base = klein_four()
    # X^a (iZ)^b style lift turning every nonidentity element to order 4:
    # c((a,b),(c,d)) = b*c + a*c + b*d  gives the quaternion group
    coc = [[0] * 4 for _ in range(4)]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    coc[a * 2 + b][c * 2 + d] = (b * c + a * c + b * d) % 2
    return central_extension_from_cocycle(base, 2, coc)


def semidihedral16():
    return metacyclic(8, 2, 3)


def modular16():
    return metacyclic(8, 2, 5)


def elementary_abelian_semidirect():
    """(Z/3)^2 x| Z/2 by inversion."""
    a = abelian_group([3, 3])

    def action(y):
        if y == 0:
            return list(range(9))
        return list(a.inverse)

    return semidirect_product(a, cyclic_group(2), action)


def z4_semidirect_z4():
    return metacyclic(4, 4, 3)


def b0_vanishing_corpus():
    """Curated corpus for the Bogomolov-multiplier vanishing battery.

    Every entry has order <= 64 and multiplier zero: abelian-by-cyclic
    groups, semidirect products of abelian groups with bicyclic actors, and
    central extensions of bicyclic groups, plus S4 and A4.
    """
    entries = [
        ("dihedral8", dihedral(4)),
        ("dihedral10", dihedral(5)),
        ("dihedral12", dihedral(6)),
        ("dihedral14", dihedral(7)),
        ("dihedral16", dihedral(8)),
        ("quaternion8", quaternion8()),
        ("quaternion16", dicyclic(4)),
        ("dicyclic12", dicyclic(3)),
        ("semidihedral16", semidihedral16()),
        ("modular16", modular16()),
        ("metacyclic_3_4", metacyclic(3, 4, 2)),
        ("metacyclic_5_4_faithful", metacyclic(5, 4, 2)),
        ("metacyclic_5_4_inversion", metacyclic(5, 4, 4)),
        ("metacyclic_7_3", metacyclic(7, 3, 2)),
        ("metacyclic_7_6", metacyclic(7, 6, 3)),
        ("metacyclic_9_3", extraspecial27_exponent9()),
        ("metacyclic_15_4", metacyclic(15, 4, 2)),
        ("metacyclic_16_2", metacyclic(16, 2, 7)),
        ("metacyclic_3_8", metacyclic(3, 8, 2)),
        ("z4_semidirect_z4", z4_semidirect_z4()),
        ("heisenberg27", heisenberg(3)),
        ("extraspecial32_plus", extraspecial32(0)),
        ("extraspecial32_minus", extraspecial32(1)),
        ("pauli_extension_d4", central_extension_from_cocycle(klein_four(), 2, pauli_cocycle_klein())),
        ("pauli_extension_q8", quaternion_via_cocycle()),
        ("threesquared_by_two", elementary_abelian_semidirect()),
        ("abelian_2_2_2", abelian_group([2, 2, 2])),
        ("abelian_2_4_4", abelian_group([2, 4, 4])),
        ("abelian_2_2_3", abelian_group([2, 2, 3])),
        ("abelian_2_2_2_2", abelian_group([2, 2, 2, 2])),
        ("symmetric4", symmetric(4)),
        ("alternating4", alternating4()),
    ]
    return entries


def gl2z_bicyclic_cases():
    """Representatives of the bicyclic finite-subgroup classes of GL2(Z)."""
    return [
        ("trivial", [[[1, 0], [0, 1]]]),
        ("c2_minus_identity", [[[-1, 0], [0, -1]]]),
        ("c2_reflection_diag", [[[1, 0], [0, -1]]]),
        ("c2_reflection_swap", [[[0, 1], [1, 0]]]),
        ("c3", [[[0, -1], [1, -1]]]),
        ("c4", [[[0, -1], [1, 0]]]),
        ("c6", [[[1, -1], [1, 0]]]),
        ("klein_diagonal", [[[-1, 0], [0, -1]], [[1, 0], [0, -1]]]),
        ("klein_swap", [[[-1, 0], [0, -1]], [[0, 1], [1, 0]]]),
    ]
