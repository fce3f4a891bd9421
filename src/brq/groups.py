"""Finite groups as validated Cayley tables.

Element 0 is always the identity and all orderings are deterministic
(breadth-first generation with lexicographic tie-breaks), so downstream
reports are byte-reproducible.  Every constructor refuses a group of more
than MAX_ORDER elements before it builds a table; cohomology routines
impose tighter per-computation limits of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

import numpy as np

from .errors import DomainError, SizeLimitError, ValidationError
from .linalg import invariant_presentation

MAX_ORDER = 4096

# largest number of entries one gather of the permutation constructor
# builds at a time
_GATHER_ENTRIES = 1 << 15


def _check_order(n):
    """The construction limit, applied to the order a constructor is about
    to build."""
    if n > MAX_ORDER:
        raise SizeLimitError(f"a group of {n} or more elements exceeds the maximum order "
                             f"{MAX_ORDER}",
                             witness={"max_order": MAX_ORDER})


class FiniteGroup:
    """Finite group on elements 0..order-1 given by a multiplication table.

    `table` (order x order, table[a, b] = ab) and `inverse` are read-only
    int64 arrays, the group's one copy of its table.  The scalar accessors
    (`generators`, `closure`, `element_order`, `conj`, `power` and the
    element lists of subgroups) return Python ints.
    """

    __slots__ = ("order", "table", "inverse", "generators", "_abelian", "_orders")

    def __init__(self, table, generators=None, _validated=False):
        self.table = np.array(table, dtype=np.int64)
        self.table.flags.writeable = False
        self.order = len(self.table)
        self._abelian = None
        self._orders = None
        if self.order == 0:
            raise ValidationError("empty table")
        _check_order(self.order)
        if not _validated:
            self._validate()
        self.inverse = self._find_inverses()
        if generators is None:
            self.generators = tuple(self._greedy_generators())
            return
        self.generators = tuple(dict.fromkeys(int(g) for g in generators if int(g) != 0))
        if not self.generators and self.order > 1:
            raise ValidationError("empty generating set for nontrivial group")
        if self.order > 1 and len(self.closure(self.generators)) != self.order:
            raise ValidationError("generators do not generate the group")

    # -- construction helpers ------------------------------------------------

    def _validate(self):
        n, t = self.order, self.table
        outside = np.argwhere((t < 0) | (t >= n))
        if t.shape != (n, n) or len(outside):
            raise ValidationError("table is not a square over 0..n-1",
                                  witness=tuple(int(x) for x in outside[0]) if len(outside) else None)
        ar = np.arange(n)
        if (t[0] != ar).any() or (t[:, 0] != ar).any():
            raise ValidationError("element 0 is not an identity")
        bad = (np.sort(t, axis=1) != ar).any(axis=1) | (np.sort(t, axis=0) != ar[:, None]).any(axis=0)
        if bad.any():
            a = int(bad.argmax())
            raise ValidationError(f"row or column {a} is not a permutation", witness=a)
        # Light's associativity test over a generating set
        for g in self._greedy_generators():
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
        t = self.table
        hits = t == 0
        inv = hits.argmax(axis=1)
        bad = (hits.sum(axis=1) != 1) | (t[inv, np.arange(self.order)] != 0)
        if bad.any():
            a = int(bad.argmax())
            raise ValidationError(f"element {a} has no two-sided inverse", witness=a)
        inv.flags.writeable = False
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

    def _element_orders(self):
        if self._orders is None:
            ar = np.arange(self.order)
            orders = np.zeros(self.order, dtype=np.int64)
            y, k = ar, 1
            while not orders.all():
                orders[(y == 0) & (orders == 0)] = k
                y = self.table[y, ar]
                k += 1
            self._orders = tuple(orders.tolist())
        return self._orders

    # -- basic operations ----------------------------------------------------

    def conj(self, g, a):
        """g * a * g^-1"""
        return int(self.table[self.table[g, a], self.inverse[g]])

    def power(self, a, k):
        return _powers(self.table[:, a].tolist(), int(a))[k % self.element_order(a)]

    def element_order(self, a):
        return self._element_orders()[a]

    def exponent(self):
        return lcm(*set(self._element_orders()))

    def is_abelian(self):
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.table, self.table.T))
        return self._abelian

    def closure(self, seed):
        """Subgroup generated by seed elements, as a sorted list."""
        t = self.table
        seed = [int(s) for s in seed]
        steps = [t[:, s].tolist() for s in seed] + [t[s].tolist() for s in seed]  # x s, s x
        members = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for step in steps:
                y = step[x]
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return sorted(members)

    def subgroup(self, elements):
        return Subgroup(self, tuple(sorted(set(int(x) for x in elements))))

    def generated_subgroup(self, seed):
        return Subgroup(self, tuple(self.closure(seed)))

    def center(self):
        t = self.table
        mask = (t == t.T).all(axis=1)
        return [int(i) for i in np.flatnonzero(mask)]

    def commutator_subgroup(self):
        t = self.table
        commutators = np.zeros(self.order, dtype=bool)
        commutators[t[t, self.inverse[t.T]]] = True  # ab (ba)^-1
        return self.generated_subgroup(np.flatnonzero(commutators))

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
        g = self.parent
        els = np.array(self.elements, dtype=np.int64)
        inside = np.zeros(g.order, dtype=bool)
        inside[els] = True
        closed = inside[g.table.take(els, axis=0).take(els, axis=1)]
        # a finite set closed under products holds every inverse, a power
        if not (inside[0] and closed.all()):
            if not inside[0]:
                raise ValidationError("subgroup must contain the identity")
            for a, row in zip(self.elements, closed):
                if not inside[g.inverse[a]]:
                    raise ValidationError("subgroup not closed under inverse", witness=a)
                if not row.all():
                    raise ValidationError("subgroup not closed under product",
                                          witness=(a, self.elements[row.argmin()]))
        if self.pair is not None:
            self._check_pair()

    def _check_pair(self):
        """The pair commutes, lies in the subgroup and generates it: <a><b>
        is a subgroup of order |a| |b| / |<a> n <b>|, inside this one."""
        g = self.parent
        a, b = self.pair
        if a not in self.elements or b not in self.elements or g.table[a, b] != g.table[b, a]:
            raise ValidationError("generating pair does not commute inside the subgroup",
                                  witness=(a, b))
        meet = len(set(_powers(g.table[:, a].tolist(), a)).intersection(
            _powers(g.table[:, b].tolist(), b)))
        if g.element_order(a) * g.element_order(b) != meet * self.order:
            raise ValidationError("pair does not generate the subgroup", witness=(a, b))

    def _products(self):
        """The parent's table on the rows and columns of the elements."""
        els = np.array(self.elements, dtype=np.int64)
        return self.parent.table[els[:, None], els]

    @property
    def order(self):
        return len(self.elements)

    def index(self):
        return self.parent.order // self.order

    def as_group(self):
        """Relabelled copy of this subgroup plus the embedding element list."""
        pos = np.zeros(self.parent.order, dtype=np.int64)
        pos[list(self.elements)] = np.arange(self.order)
        grp = FiniteGroup(pos[self._products()], _validated=True)
        return grp, list(self.elements)

    def is_abelian(self):
        products = self._products()
        return bool(np.array_equal(products, products.T))


# ---------------------------------------------------------------------------
# constructors


def _perm_tuple(perm, degree):
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(degree)):
        raise ValidationError(f"not a permutation of 0..{degree - 1}", witness=list(perm))
    return p


def _row_keys(rows):
    """One opaque, sortable key per row (last axis) of an array."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[-1])))[..., 0]


def from_permutation_generators(degree, perms):
    """Closure of the given permutations under composition.

    Element 0 is the identity; the element order is breadth-first by word
    length with lexicographic tie-breaks on the permutation images.
    """
    degree = int(degree)
    gens = [_perm_tuple(p, degree) for p in perms]
    ident = tuple(range(degree))
    gens = [g for g in dict.fromkeys(gens) if g != ident]
    if degree < 1:
        return cyclic_group(1)  # the empty permutation alone
    # breadth-first over the words: one composition per element and
    # generator, so it stays a loop; the table below is the n^2 part
    elems, seen, level = [ident], {ident}, [ident]
    while level:
        # (p*q)(i) = p(q(i))
        level = sorted({tuple(map(p.__getitem__, q)) for p in level for q in gens} - seen)
        seen.update(level)
        elems += level
        _check_order(len(elems))

    n = len(elems)
    elems = np.array(elems, dtype=np.int64)
    gen_perms = np.array(gens, dtype=np.int64).reshape(len(gens), degree)
    keys = _row_keys(elems)
    by_key = np.argsort(keys)
    table = np.empty((n, n), dtype=np.int64)
    step = max(1, _GATHER_ENTRIES // (n * degree))
    for lo in range(0, n, step):
        composed = _row_keys(elems[lo:lo + step][:, elems])  # [a, b] = elems[a] o elems[b]
        table[lo:lo + step] = by_key[np.searchsorted(keys[by_key], composed)]
    gen_ids = by_key[np.searchsorted(keys[by_key], _row_keys(gen_perms))]
    return FiniteGroup(table, generators=gen_ids.tolist())


def from_cayley_table(table, generators=None):
    """Validated group from a raw multiplication table.

    The identity may sit anywhere in the input; it is relabelled to index 0
    by a deterministic swap.
    """
    n = len(table)
    short = next((a for a, r in enumerate(table) if len(r) != n), None)
    if n == 0 or short is not None:
        raise ValidationError("table must be square and nonempty",
                              witness={"rows": n, "row": short})
    _check_order(n)
    try:
        t = np.array(table, dtype=np.int64)
    except OverflowError:
        raise ValidationError("table is not a square over 0..n-1", witness={"order": n}) from None
    ar = np.arange(n)
    ident = np.flatnonzero((t == ar).all(axis=1) & (t == ar[:, None]).all(axis=0))
    if not ident.size:
        raise ValidationError("table has no identity element", witness={"order": n})
    e = int(ident[0])
    if e:
        # the swap of 0 and e is an involution, so it is its own relabelling
        # inverse; entries outside 0..n-1 are left for the validation
        swap = ar.copy()
        swap[[0, e]] = e, 0
        t = t[np.ix_(swap, swap)]
        t = np.where(t == 0, e, np.where(t == e, 0, t))
        if generators is not None:
            generators = [swap[g] for g in generators]
    return FiniteGroup(t, generators=generators)


def cyclic_group(n):
    _check_order(n)
    ar = np.arange(n)
    return FiniteGroup((ar[:, None] + ar) % max(n, 1), generators=[1] if n > 1 else [],
                       _validated=True)


def _product(a, b, perms, _validated):
    """A x| B with element (x, y) at index x*|B| + y, where
    (x1, y1)(x2, y2) = (x1 perms[y1][x2], y1 y2)."""
    na, nb = a.order, b.order
    table = (a.table[np.arange(na)[:, None, None, None], perms[None, :, :, None]] * nb
             + b.table[None, :, None, :])
    gens = [g * nb for g in a.generators] + list(b.generators)
    return FiniteGroup(table.reshape(na * nb, na * nb), generators=gens, _validated=_validated)


def direct_product(a, b):
    """Direct product with element (x, y) at index x*|B| + y."""
    _check_order(a.order * b.order)
    return _product(a, b, np.broadcast_to(np.arange(a.order), (b.order, a.order)), True)


def semidirect_product(a, b, action):
    """Semidirect product A x| B for an action of B by automorphisms of A.

    `action` maps each element of B to a permutation of A's elements; it is
    validated to consist of automorphisms and to be a homomorphism.  Element
    (x, y) sits at index x*|B| + y, making A the normal factor.
    """
    _check_order(a.order * b.order)
    t = a.table
    if not a.is_abelian():
        x, y = np.argwhere(np.tril(t != t.T))[0]
        raise DomainError("normal factor must be abelian", witness=(int(x), int(y)))
    ar = list(range(a.order))
    perms = [[int(v) for v in (action(y) if callable(action) else action[y])]
             for y in range(b.order)]
    valid = np.array([p[0] == 0 and sorted(p) == ar for p in perms])
    p = np.array([q if ok else ar for q, ok in zip(perms, valid)], dtype=np.int64)
    automorphic = (p[:, t] == t[p[:, :, None], p[:, None, :]]).all(axis=(1, 2))
    bad = np.flatnonzero(~(valid & automorphic))
    if bad.size:
        raise ValidationError("action image is not an automorphism", witness=int(bad[0]))
    broken = np.argwhere((p[:, p] != p[b.table]).any(axis=2))  # p[y1] p[y2] vs p[y1 y2]
    if len(broken):
        raise ValidationError("action is not a homomorphism",
                              witness=(int(broken[0][0]), int(broken[0][1])))
    return _product(a, b, p, False)


def central_extension_from_cocycle(g, n, cocycle):
    """Central extension of g by Z/n twisted by a normalized 2-cocycle.

    Elements are pairs (z, x) at index z*|G| + x with multiplication
    (z1, x1)(z2, x2) = (z1 + z2 + c(x1, x2), x1 x2).
    """
    n = int(n)
    if n < 1:
        raise ValidationError("cyclic kernel order must be positive", witness={"n": n})
    m = g.order
    _check_order(n * m)
    c = np.array(cocycle, dtype=object)
    if c.shape != (m, m):
        raise ValidationError("cocycle must be a table over the group", witness={"order": m})
    c = (c % n).astype(np.int64)
    unnormalized = np.flatnonzero(c[0] | c[:, 0])
    if unnormalized.size:
        raise ValidationError("cocycle is not normalized", witness=int(unnormalized[0]))
    from .cohomology import _d2, _require_cocycle  # cohomology imports this module

    _require_cocycle(_d2, np.ones((m, 1, 1), dtype=np.int64), g.table, c[:, :, None],
                     g.generators, "cocycle identity fails", lambda diff: diff % n)
    z = np.arange(n)
    table = ((z[:, None, None, None] + z[None, None, :, None] + c[None, :, None, :]) % n * m
             + g.table[None, :, None, :])
    gens = [m] if n > 1 else []
    gens += list(g.generators)
    return FiniteGroup(table.reshape(n * m, n * m), generators=gens)


def quotient_group(g, normal):
    """Quotient by a normal subgroup; returns (group, projection list).

    Cosets are ordered by their smallest member.
    """
    t = g.table
    els = np.array(normal.elements, dtype=np.int64)
    inside = np.zeros(g.order, dtype=bool)
    inside[els] = True
    outside = np.argwhere(~inside[t[t[:, els], g.inverse[:, None]]])  # x a x^-1
    if len(outside):
        x, i = outside[0]
        raise DomainError("subgroup is not normal", witness=(int(x), normal.elements[i]))
    smallest = t[:, els].min(axis=1)  # of the coset xH
    reps = np.flatnonzero(smallest == np.arange(g.order))
    coset_of = np.searchsorted(reps, smallest)
    grp = FiniteGroup(coset_of[t[np.ix_(reps, reps)]], _validated=True)
    return grp, coset_of.tolist()


def abelianization(g):
    """Quotient by the commutator subgroup; returns (group, projection)."""
    return quotient_group(g, g.commutator_subgroup())


# ---------------------------------------------------------------------------
# subgroup enumeration


def _powers(right, a):
    """[1, a, a^2, ..., a^(|a| - 1)], where right[x] = x a."""
    out, y = [0], a
    while y != 0:
        out.append(y)
        y = right[y]
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

    The pairs are read off one local list of the table: on the groups of
    the benchmark, which are small, the loop beats array operations.
    """
    t, columns = g.table.tolist(), g.table.T.tolist()
    cyclic = {}
    for a in range(g.order):
        cyclic.setdefault(frozenset(_powers(columns[a], a)), a)
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
        conj = g.table[g.table, g.inverse[:, None]]  # [x, a] -> x a x^-1
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
    products = s._products()
    apart = np.argwhere(products != products.T)
    if len(apart):
        i, j = apart[0]
        raise DomainError("subgroup is not abelian", witness=(s.elements[i], s.elements[j]))
    grp, embed = s.as_group()
    if grp.order == 1:
        return [], []
    gens = list(grp.generators)
    k = len(gens)
    steps = grp.table[:, gens].tolist()  # [x][i] = x s_i
    # relation lattice of Z^k -> grp: Cayley-graph relations plus orders
    coords = {0: tuple([0] * k)}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for i, y in enumerate(steps[x]):
            if y not in coords:
                c = list(coords[x])
                c[i] += 1
                coords[y] = tuple(c)
                frontier.append(y)
    rels = []
    for x in range(grp.order):
        for i, y in enumerate(steps[x]):
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
            w = int(grp.table[w, grp.power(gens[j], uinv[j][i])])
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
    smallest = g.table[list(sub_elements)].min(axis=0)  # of the coset Hx
    return np.flatnonzero(smallest == np.arange(g.order)).tolist()
