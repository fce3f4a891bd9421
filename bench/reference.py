"""Reference values computed apart from ``brq``, in plain Python.

Nothing here imports ``brq``.  Each value comes from a closed form in the
literature, evaluated from the parameters a group was built from:

* Schur multiplier of an abelian group Z/d1 x ... x Z/dk: the direct sum
  of Z/gcd(di, dj) over the pairs i < j (Schur 1907).
* Split metacyclic Z/m x|_k Z/n, the generator of Z/n acting by x -> kx:
  cyclic of order gcd(m, k - 1) * gcd(m, 1 + k + ... + k^(n-1)) / m.
* Dihedral group of order 2n: Z/2 exactly when n is even.
* Dicyclic and cyclic groups: 0.
* Bogomolov multiplier: 0 for every group of order below 64 (Bogomolov
  1987 for p-groups of order at most p^4 and the reduction to Sylow
  subgroups; Chu-Hu-Kang-Prokhorov 2008 for order 32), and Z/2 for nine
  stem groups of order 64 (Chu-Hu-Kang-Kunyavskii 2010).
* Unramified Brauer group of a quotient by a 2-dimensional torus action:
  0, since such quotients are rational (Voskresenskii).

Groups are written as lists of invariant factors d1 | d2 | ..., with the
trivial group as [].
"""

from __future__ import annotations

from math import gcd


def prime_powers(n):
    """{p: p^e} over the prime powers exactly dividing n."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 1) * p
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 1) * n
    return out


def invariant_form(cyclic_orders):
    """Invariant factors d1 | d2 | ... of a direct sum of cyclic groups.

    Each Z/c splits into its prime-power parts; the parts of each prime are
    sorted, and the i-th largest parts of all primes multiply to the i-th
    largest invariant factor.
    """
    by_prime = {}
    for c in cyclic_orders:
        for p, q in prime_powers(c).items():
            by_prime.setdefault(p, []).append(q)
    length = max((len(qs) for qs in by_prime.values()), default=0)
    factors = [1] * length
    for qs in by_prime.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[i] *= q
    return sorted(factors)


def abelian_schur(factors):
    """Schur multiplier of Z/d1 x ... x Z/dk from the pairwise gcds."""
    gcds = [gcd(a, b) for i, a in enumerate(factors) for b in factors[i + 1:]]
    return invariant_form([g for g in gcds if g > 1])


def metacyclic_schur(m, n, k):
    """Schur multiplier of the split metacyclic group Z/m x|_k Z/n."""
    norm = sum(pow(k, i) for i in range(n))
    order = gcd(m, k - 1) * gcd(m, norm) // m
    return [order] if order > 1 else []


def dihedral_schur(n):
    """Schur multiplier of the dihedral group of order 2n."""
    return [2] if n % 2 == 0 else []


def dicyclic_schur(n):
    """Schur multiplier of the dicyclic group of order 4n."""
    return []


def cyclic_schur(n):
    """Schur multiplier of Z/n."""
    return []


# How each group of ``corpus.b0_vanishing_corpus()`` was built, for the
# groups a closed form above covers.  The others (extraspecial, Heisenberg,
# the Pauli extensions, S4, A4 and (Z/3)^2 x| Z/2) have no entry.
B0_CORPUS_SCHUR = {
    "dihedral8": dihedral_schur(4),
    "dihedral10": dihedral_schur(5),
    "dihedral12": dihedral_schur(6),
    "dihedral14": dihedral_schur(7),
    "dihedral16": dihedral_schur(8),
    "quaternion8": dicyclic_schur(2),
    "quaternion16": dicyclic_schur(4),
    "dicyclic12": dicyclic_schur(3),
    "semidihedral16": metacyclic_schur(8, 2, 3),
    "modular16": metacyclic_schur(8, 2, 5),
    "metacyclic_3_4": metacyclic_schur(3, 4, 2),
    "metacyclic_5_4_faithful": metacyclic_schur(5, 4, 2),
    "metacyclic_5_4_inversion": metacyclic_schur(5, 4, 4),
    "metacyclic_7_3": metacyclic_schur(7, 3, 2),
    "metacyclic_7_6": metacyclic_schur(7, 6, 3),
    "metacyclic_9_3": metacyclic_schur(9, 3, 4),
    "metacyclic_15_4": metacyclic_schur(15, 4, 2),
    "metacyclic_16_2": metacyclic_schur(16, 2, 7),
    "metacyclic_3_8": metacyclic_schur(3, 8, 2),
    "z4_semidirect_z4": metacyclic_schur(4, 4, 3),
    "abelian_2_2_2": abelian_schur([2, 2, 2]),
    "abelian_2_4_4": abelian_schur([2, 4, 4]),
    "abelian_2_2_3": abelian_schur([2, 2, 3]),
    "abelian_2_2_2_2": abelian_schur([2, 2, 2, 2]),
}

# Bogomolov multiplier of the frozen order-64 stem group: one of the nine
# groups of order 64 with B0 = Z/2 (Chu-Hu-Kang-Kunyavskii 2010).
B0_WITNESS_ORDER64 = [2]


# Schur multiplier of the alternating group A4 (Schur 1904).
ALTERNATING4_SCHUR = [2]

# Unramified Brauer group of the quotient by any faithful action on a
# 2-dimensional torus (Voskresenskii: such quotients are rational).
TORUS_DIM2_BR_NR = []


def projective_stack(schur, class_order, r):
    """H2(G)/<r * gamma> for a class gamma of the given order.

    A class of order 1 is zero and leaves all of H2(G).  A nonzero class
    must generate a cyclic H2(G) = Z/m; then r * gamma has order
    class_order / gcd(class_order, r).
    """
    if class_order == 1:
        return list(schur)
    if len(schur) != 1 or schur[0] % class_order:
        raise ValueError("a nonzero class needs a cyclic H2 it generates")
    quotient = schur[0] // (class_order // gcd(class_order, r))
    return [quotient] if quotient > 1 else []


def b0_below_64(order):
    """Bogomolov multiplier of any group of order below 64."""
    if order >= 64:
        raise ValueError("the vanishing theorem covers orders below 64 only")
    return []


def group_order(factors):
    out = 1
    for f in factors:
        out *= f
    return out


def divides(a, b):
    """True when the finite abelian group a has order dividing that of b."""
    return group_order(b) % group_order(a) == 0
