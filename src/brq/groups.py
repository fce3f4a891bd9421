"""Finite groups as validated Cayley tables.

Element 0 is always the identity and all orderings are deterministic
(breadth-first generation with lexicographic tie-breaks), so downstream
reports are byte-reproducible.  Construction is capped at MAX_ORDER
elements, a constant that every constructor applies; cohomology routines
impose tighter per-computation limits of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .errors import DomainError, SizeLimitError, ValidationError
from .linalg import invariant_presentation

MAX_ORDER = 4096


class FiniteGroup:
    """Finite group on elements 0..order-1 given by a multiplication table."""

    __slots__ = ("order", "table", "inverse", "generators", "labels",
                 "_np_table", "_abelian", "_orders", "_key")

    def __init__(self, table, generators=None, labels=None, _validated=False):
        rows = [tuple(int(x) for x in r) for r in table]
        self.order = len(rows)
        self.table = tuple(rows)
        self._np_table = np.array(rows, dtype=np.int64) if rows else np.zeros((0, 0), dtype=np.int64)
        self._abelian = None
        self._orders = None
        self._key = None
        if not _validated:
            self._validate()
        self.inverse = tuple(self._find_inverses())
        if generators is None:
            generators = self._greedy_generators()
        self.generators = tuple(dict.fromkeys(int(g) for g in generators if int(g) != 0))
        if not self.generators and self.order > 1:
            raise ValidationError("empty generating set for nontrivial group")
        gen_span = self.closure(self.generators) if self.order > 1 else [0]
        if len(gen_span) != self.order:
            raise ValidationError("generators do not generate the group")
        self.labels = tuple(labels) if labels else None

    # -- construction helpers ------------------------------------------------

    def _validate(self):
        n = self.order
        t = self._np_table
        if n == 0:
            raise ValidationError("empty table")
        outside = np.argwhere((t < 0) | (t >= n))
        if t.shape != (n, n) or len(outside):
            raise ValidationError("table is not a square over 0..n-1",
                                  witness=tuple(int(x) for x in outside[0]) if len(outside) else None)
        if list(t[0]) != list(range(n)) or list(t[:, 0]) != list(range(n)):
            raise ValidationError("element 0 is not an identity")
        for a in range(n):
            if sorted(t[a]) != list(range(n)) or sorted(t[:, a]) != list(range(n)):
                raise ValidationError(f"row or column {a} is not a permutation", witness=a)
        # Light's associativity test over a generating set
        gens = self._greedy_generators()
        for g in gens:
            left = t[t[g]]           # (a,b) -> (g*a)*b
            right = t[g][t]          # (a,b) -> g*(a*b)
            if not np.array_equal(left, right):
                bad = np.argwhere(left != right)[0]
                a, b = int(bad[0]), int(bad[1])
                raise ValidationError(
                    "multiplication is not associative",
                    witness=(g, a, b),
                )

    def _find_inverses(self):
        n = self.order
        inv = [None] * n
        for a in range(n):
            hits = [b for b in range(n) if self.table[a][b] == 0]
            if len(hits) != 1 or self.table[hits[0]][a] != 0:
                raise ValidationError(f"element {a} has no two-sided inverse", witness=a)
            inv[a] = hits[0]
        return inv

    def _greedy_generators(self):
        gens = []
        seen = {0}
        for a in range(1, self.order):
            if a not in seen:
                gens.append(a)
                seen = set(self.closure(gens))
                if len(seen) == self.order:
                    break
        return gens

    # -- basic operations ----------------------------------------------------

    def conj(self, g, a):
        """g * a * g^-1"""
        return self.table[self.table[g][a]][self.inverse[g]]

    def power(self, a, k):
        if k < 0:
            a, k = self.inverse[a], -k
        out = 0
        while k:
            if k & 1:
                out = self.table[out][a]
            a = self.table[a][a]
            k >>= 1
        return out

    def element_order(self, a):
        if self._orders is None:
            orders = []
            for x in range(self.order):
                k, y = 1, x
                while y != 0:
                    y = self.table[y][x]
                    k += 1
                orders.append(k)
            self._orders = tuple(orders)
        return self._orders[a]

    def exponent(self):
        e = 1
        for a in range(self.order):
            o = self.element_order(a)
            e = e * o // gcd(e, o)
        return e

    def is_abelian(self):
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self._np_table, self._np_table.T))
        return self._abelian

    def closure(self, seed):
        """Subgroup generated by seed elements, as a sorted list."""
        members = {0}
        frontier = [0]
        seed = [int(s) for s in seed]
        while frontier:
            x = frontier.pop()
            for s in seed:
                for y in (self.table[x][s], self.table[s][x]):
                    if y not in members:
                        members.add(y)
                        frontier.append(y)
        return sorted(members)

    def subgroup(self, elements):
        return Subgroup(self, tuple(sorted(set(int(x) for x in elements))))

    def generated_subgroup(self, seed):
        return Subgroup(self, tuple(self.closure(seed)))

    def center(self):
        t = self._np_table
        mask = (t == t.T).all(axis=1)
        return [int(i) for i in np.flatnonzero(mask)]

    def commutator_subgroup(self):
        comms = set()
        for a in range(self.order):
            for b in range(self.order):
                ab = self.table[a][b]
                ba = self.table[b][a]
                comms.add(self.table[ab][self.inverse[ba]])
        return self.generated_subgroup(comms)

    def cayley_key(self):
        if self._key is None:
            self._key = (self.order, self.table)
        return self._key

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, generators={list(self.generators)})"


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a parent group, stored as a sorted element list.

    `pair`, when given, is a commuting pair (a, b) of members that generates
    the subgroup; it does not take part in equality or hashing.
    """

    parent: FiniteGroup
    elements: tuple
    pair: tuple = field(default=None, compare=False)

    def __post_init__(self):
        els = set(self.elements)
        if 0 not in els:
            raise ValidationError("subgroup must contain the identity")
        for a in self.elements:
            if self.parent.inverse[a] not in els:
                raise ValidationError("subgroup not closed under inverse", witness=a)
            for b in self.elements:
                if self.parent.table[a][b] not in els:
                    raise ValidationError("subgroup not closed under product", witness=(a, b))
        if self.pair is not None:
            self._check_pair(els)

    def _check_pair(self, els):
        """The pair commutes, lies in the subgroup and generates it: <a><b>
        is a subgroup of order |a| |b| / |<a> n <b>|, inside this one."""
        g = self.parent
        a, b = self.pair
        if a not in els or b not in els or g.table[a][b] != g.table[b][a]:
            raise ValidationError("generating pair does not commute inside the subgroup",
                                  witness=(a, b))
        powers_a = set(_powers(g, a))
        meet = sum(1 for y in _powers(g, b) if y in powers_a)
        if len(powers_a) * g.element_order(b) != meet * self.order:
            raise ValidationError("pair does not generate the subgroup", witness=(a, b))

    @property
    def order(self):
        return len(self.elements)

    def index(self):
        return self.parent.order // self.order

    def as_group(self):
        """Relabelled copy of this subgroup plus the embedding element list."""
        pos = {g: i for i, g in enumerate(self.elements)}
        table = [[pos[self.parent.table[a][b]] for b in self.elements] for a in self.elements]
        grp = FiniteGroup(table, _validated=True)
        return grp, list(self.elements)

    def is_abelian(self):
        t = self.parent.table
        for a in self.elements:
            for b in self.elements:
                if t[a][b] != t[b][a]:
                    return False
        return True


# ---------------------------------------------------------------------------
# constructors


def _perm_tuple(perm, degree):
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(degree)):
        raise ValidationError(f"not a permutation of 0..{degree - 1}", witness=list(perm))
    return p


def from_permutation_generators(degree, perms):
    """Closure of the given permutations under composition.

    Element 0 is the identity; the element order is breadth-first by word
    length with lexicographic tie-breaks on the permutation images.
    """
    degree = int(degree)
    gens = [_perm_tuple(p, degree) for p in perms]
    ident = tuple(range(degree))
    gens = [g for g in dict.fromkeys(gens) if g != ident]

    def compose(p, q):
        # (p*q)(i) = p(q(i))
        return tuple(p[q[i]] for i in range(degree))

    elems = [ident]
    index = {ident: 0}
    level = [ident]
    while level:
        found = set()
        for x in level:
            for g in gens:
                y = compose(x, g)
                if y not in index and y not in found:
                    found.add(y)
        new_level = sorted(found)
        for y in new_level:
            index[y] = len(elems)
            elems.append(y)
            if len(elems) > MAX_ORDER:
                raise SizeLimitError(
                    f"closure exceeds the maximum order {MAX_ORDER}",
                    witness={"max_order": MAX_ORDER},
                )
        level = new_level

    n = len(elems)
    table = [[index[compose(elems[a], elems[b])] for b in range(n)] for a in range(n)]
    gen_ids = [index[g] for g in gens]
    return FiniteGroup(table, generators=gen_ids)


def from_cayley_table(table, generators=None):
    """Validated group from a raw multiplication table.

    The identity may sit anywhere in the input; it is relabelled to index 0
    by a deterministic swap.
    """
    rows = [list(map(int, r)) for r in table]
    n = len(rows)
    short = next((a for a, r in enumerate(rows) if len(r) != n), None)
    if n == 0 or short is not None:
        raise ValidationError("table must be square and nonempty",
                              witness={"rows": n, "row": short})
    if n > MAX_ORDER:
        raise SizeLimitError(f"table larger than the maximum order {MAX_ORDER}",
                             witness={"max_order": MAX_ORDER})
    ident = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            ident = e
            break
    if ident is None:
        raise ValidationError("table has no identity element", witness={"order": n})
    if ident != 0:
        # the swap is an involution, so it is its own relabelling inverse
        swap = list(range(n))
        swap[0], swap[ident] = ident, 0
        rows = [[swap[rows[swap[a]][swap[b]]] for b in range(n)] for a in range(n)]
        if generators is not None:
            generators = [swap[g] for g in generators]
    return FiniteGroup(rows, generators=generators)


def cyclic_group(n):
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, generators=[1] if n > 1 else [], _validated=True)


def direct_product(a, b):
    """Direct product with element (x, y) at index x*|B| + y."""
    nb = b.order

    def enc(x, y):
        return x * nb + y

    table = [
        [enc(a.table[x1][x2], b.table[y1][y2]) for x2 in range(a.order) for y2 in range(nb)]
        for x1 in range(a.order)
        for y1 in range(nb)
    ]
    gens = [enc(g, 0) for g in a.generators] + [enc(0, g) for g in b.generators]
    return FiniteGroup(table, generators=gens, _validated=True)


def _check_automorphism(a, perm):
    if perm[0] != 0 or sorted(perm) != list(range(a.order)):
        return False
    for x in range(a.order):
        for y in range(a.order):
            if perm[a.table[x][y]] != a.table[perm[x]][perm[y]]:
                return False
    return True


def semidirect_product(a, b, action):
    """Semidirect product A x| B for an action of B by automorphisms of A.

    `action` maps each element of B to a permutation of A's elements; it is
    validated to consist of automorphisms and to be a homomorphism.  Element
    (x, y) sits at index x*|B| + y, making A the normal factor.
    """
    if not a.is_abelian():
        raise DomainError("normal factor must be abelian", witness=next(
            (x, y) for x in range(a.order) for y in range(x) if a.table[x][y] != a.table[y][x]))
    perms = [tuple(int(v) for v in action(y)) if callable(action) else tuple(action[y])
             for y in range(b.order)]
    for y, p in enumerate(perms):
        if not _check_automorphism(a, p):
            raise ValidationError("action image is not an automorphism", witness=y)
    for y1 in range(b.order):
        for y2 in range(b.order):
            composed = tuple(perms[y1][perms[y2][x]] for x in range(a.order))
            if composed != perms[b.table[y1][y2]]:
                raise ValidationError("action is not a homomorphism", witness=(y1, y2))
    nb = b.order

    def enc(x, y):
        return x * nb + y

    table = [
        [enc(a.table[x1][perms[y1][x2]], b.table[y1][y2])
         for x2 in range(a.order) for y2 in range(nb)]
        for x1 in range(a.order)
        for y1 in range(nb)
    ]
    gens = [enc(g, 0) for g in a.generators] + [enc(0, g) for g in b.generators]
    return FiniteGroup(table, generators=gens)


def central_extension_from_cocycle(g, n, cocycle):
    """Central extension of g by Z/n twisted by a normalized 2-cocycle.

    Elements are pairs (z, x) at index z*|G| + x with multiplication
    (z1, x1)(z2, x2) = (z1 + z2 + c(x1, x2), x1 x2).
    """
    n = int(n)
    if n < 1:
        raise ValidationError("cyclic kernel order must be positive", witness={"n": n})
    m = g.order
    c = [[int(cocycle[x][y]) % n for y in range(m)] for x in range(m)]
    for x in range(m):
        if c[0][x] or c[x][0]:
            raise ValidationError("cocycle is not normalized", witness=x)
    from .cohomology import _d2, _require_cocycle  # cohomology imports this module

    _require_cocycle(_d2, np.ones((m, 1, 1), dtype=np.int64), g._np_table,
                     np.array(c, dtype=np.int64)[:, :, None], g.generators,
                     "cocycle identity fails", lambda diff: diff % n)

    def enc(z, x):
        return z * m + x

    table = [
        [enc((z1 + z2 + c[x1][x2]) % n, g.table[x1][x2])
         for z2 in range(n) for x2 in range(m)]
        for z1 in range(n)
        for x1 in range(m)
    ]
    gens = [enc(1, 0)] if n > 1 else []
    gens += [enc(0, x) for x in g.generators]
    return FiniteGroup(table, generators=gens)


def quotient_group(g, normal):
    """Quotient by a normal subgroup; returns (group, projection list).

    Cosets are ordered by their smallest member.
    """
    els = set(normal.elements)
    for x in range(g.order):
        for a in normal.elements:
            if g.conj(x, a) not in els:
                raise DomainError("subgroup is not normal", witness=(x, a))
    coset_of = [None] * g.order
    reps = []
    for x in range(g.order):
        if coset_of[x] is None:
            members = sorted(g.table[x][a] for a in normal.elements)
            idx = len(reps)
            reps.append(members[0])
            for y in members:
                coset_of[y] = idx
    k = len(reps)
    table = [[coset_of[g.table[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    grp = FiniteGroup(table, _validated=True)
    return grp, coset_of


def abelianization(g):
    """Quotient by the commutator subgroup; returns (group, projection)."""
    return quotient_group(g, g.commutator_subgroup())


# ---------------------------------------------------------------------------
# subgroup enumeration


def _powers(g, a):
    """[1, a, a^2, ..., a^(|a| - 1)]."""
    out, y = [0], a
    while y != 0:
        out.append(y)
        y = g.table[y][a]
    return out


def bicyclic_subgroups(g, up_to_conjugacy=True):
    """All subgroups generated by a commuting pair of elements.

    Includes the trivial and cyclic subgroups.  With `up_to_conjugacy` one
    representative per conjugacy class is kept (the minimal element list).
    Sorted by (order, element list).  Each subgroup carries a generating
    pair.

    A commuting pair generates <a><b> = {x y : x in <a>, y in <b>}, and
    replacing a and b by generators of <a> and <b> changes neither that set
    nor commutation.  So the pairs of the smallest generators of the cyclic
    subgroups give every such subgroup; a pair with one member in the
    other's cyclic subgroup gives a cyclic one, which its own (c, c) gives.
    """
    t = g.table
    cyclic = {}
    for a in range(g.order):
        cyclic.setdefault(frozenset(_powers(g, a)), a)
    seen = {tuple(sorted(members)): (a, a) for members, a in cyclic.items()}
    gens = sorted((a, members) for members, a in cyclic.items())
    for i, (a, in_a) in enumerate(gens):
        for b, in_b in gens[i + 1:]:
            if t[a][b] != t[b][a] or b in in_a or a in in_b:
                continue
            members = tuple(sorted({t[x][y] for x in in_a for y in in_b}))
            seen.setdefault(members, (a, b))
    ordered = sorted(seen, key=lambda members: (len(members), members))
    if up_to_conjugacy:
        conj = g._np_table[g._np_table, np.array(g.inverse)[:, None]]  # [x, a] -> x a x^-1
        reps = []
        claimed = set()
        for members in ordered:
            if members in claimed:
                continue
            orbit = set(map(tuple, np.sort(conj[:, list(members)], axis=1).tolist()))
            claimed |= orbit
            reps.append(min(orbit))
        ordered = sorted(reps, key=lambda members: (len(members), members))
    return [Subgroup(g, members, seen[members]) for members in ordered]


def all_subgroups(g, max_count=20000):
    """Every subgroup, by iterated closure of joins with cyclic subgroups."""
    atoms = {tuple(g.closure([a])) for a in range(g.order)}
    found = set(atoms)
    frontier = list(atoms)
    while frontier:
        members = frontier.pop()
        for a in range(g.order):
            if a in members:
                continue
            ext = tuple(g.closure(list(members) + [a]))
            if ext not in found:
                found.add(ext)
                frontier.append(ext)
                if len(found) > max_count:
                    raise SizeLimitError("subgroup lattice too large to enumerate")
    subs = [Subgroup(g, m) for m in found]
    subs.sort(key=lambda s: (s.order, s.elements))
    return subs


def subgroups_of_index_at_most(g, k):
    return [s for s in all_subgroups(g) if s.order * k >= g.order]


# ---------------------------------------------------------------------------
# abelian invariants


def abelian_structure(s):
    """Invariant factors of an abelian subgroup with witness elements.

    Returns (factors, witnesses) where witnesses are parent-group elements
    realizing the decomposition.  Raises DomainError with a non-commuting
    pair on non-abelian input.
    """
    if isinstance(s, FiniteGroup):
        s = s.subgroup(range(s.order))
    p = s.parent
    for a in s.elements:
        for b in s.elements:
            if p.table[a][b] != p.table[b][a]:
                raise DomainError("subgroup is not abelian", witness=(a, b))
    grp, embed = s.as_group()
    if grp.order == 1:
        return [], []
    gens = list(grp.generators)
    k = len(gens)
    # relation lattice of Z^k -> grp: Cayley-graph relations plus orders
    coords = {0: tuple([0] * k)}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for i, s_i in enumerate(gens):
            y = grp.table[x][s_i]
            if y not in coords:
                c = list(coords[x])
                c[i] += 1
                coords[y] = tuple(c)
                frontier.append(y)
    rels = []
    for x in range(grp.order):
        for i, s_i in enumerate(gens):
            y = grp.table[x][s_i]
            diff = [coords[x][j] + (1 if j == i else 0) - coords[y][j] for j in range(k)]
            if any(diff):
                rels.append(diff)
    for i, s_i in enumerate(gens):
        o = grp.element_order(s_i)
        rels.append([o if j == i else 0 for j in range(k)])
    factors_all, _, uinv = invariant_presentation([list(c) for c in zip(*rels)])
    if any(f == 0 for f in factors_all):
        raise DomainError("abelian structure relations are incomplete")
    factors, witnesses = [], []
    for i, f in enumerate(factors_all):
        if f <= 1:
            continue
        w = 0
        for j in range(k):
            w = grp.table[w][grp.power(gens[j], uinv[j][i] % (grp.element_order(gens[j])))]
        factors.append(f)
        witnesses.append(embed[w])
    return factors, witnesses


def abelian_invariants(s):
    return abelian_structure(s)[0]


# ---------------------------------------------------------------------------
# derived helpers used across the package


def coset_representatives(g, sub_elements):
    """Right-coset representatives of the subgroup (smallest member each).

    Cosets H*t; returns reps sorted by their smallest element.
    """
    els = list(sub_elements)
    seen = set()
    reps = []
    for x in range(g.order):
        if x in seen:
            continue
        coset = sorted(g.table[h][x] for h in els)
        reps.append(coset[0])
        seen.update(coset)
    return reps
