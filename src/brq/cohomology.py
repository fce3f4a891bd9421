"""Group cohomology in degrees one and two.

Coefficients are Q/Z with trivial action (realized at a finite modulus),
finite abelian modules, or integral lattices.  The solver works on the
normalized bar complex but eliminates all unknowns except the generator
rows of a cochain: the cocycle identity on triples with a generator in the
first slot implies the identity everywhere, which keeps the linear systems
at #generators * (n-1) unknowns instead of (n-1)^2.

Q/Z with trivial action is realized as Z/N for any N divisible by |G|: the
cohomology in degree two is the quotient of the mod-N cohomology by the
connecting images of Hom(G, Z/N), and in degree one the two groups agree.
Lattice coefficients in degree two are reached through the multiplication-
by-N exact sequence, which reduces them to two degree-one computations.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass
from math import lcm, prod

import numpy as np

from . import linalg
from .errors import DomainError, SizeLimitError, ValidationError
from .groups import FiniteGroup, Subgroup, coset_representatives, homs_to_cyclic
from .linalg import (
    AbelianStructure,
    HowellAccumulator,
    augmented_echelon,
    howell_solve,
    kernel,
    quotient_of_structure,
    subquotient_structure,
)

DEFAULT_FINITE_LIMIT = 96
DEFAULT_LATTICE_LIMIT = 24
DEFAULT_LATTICE_RANK_LIMIT = 8


# ---------------------------------------------------------------------------
# coefficient modules


class GModule:
    """Coefficient module: finite abelian or free lattice with a G-action.

    Finite modules are direct sums of cyclic factors; action matrices act
    with component i read mod factors[i].  The action homomorphism is
    verified on the whole group.
    """

    __slots__ = ("group", "kind", "factors", "rank", "mats", "_key")

    def __init__(self, group, kind, factors=None, rank=None, element_mats=None):
        self.group = group
        self.kind = kind
        if kind == "trivial_qz" and factors is None:
            factors = [group.order if group.order > 0 else 1]
        self.factors = _checked_factors(factors) if factors is not None else None
        self.rank = _positive_int("rank", rank) if rank is not None else \
            (len(self.factors) if self.factors else 1)
        n = group.order
        r = self.rank
        if element_mats is None:
            element_mats = np.broadcast_to(np.eye(r, dtype=np.int64), (n, r, r)).copy()
        self.mats = np.asarray(element_mats, dtype=np.int64)
        if self.mats.shape != (n, r, r):
            raise ValidationError("need one r x r action matrix per group element")
        self._key = None
        self._verify()

    def _verify(self):
        n = self.group.order
        r = self.rank
        if not np.array_equal(self.mats[0], np.eye(r, dtype=np.int64)):
            raise ValidationError("identity must act as the identity matrix")
        t = self.group._np_table
        products = np.einsum("aij,bjk->abik", self.mats, self.mats)
        if self.kind == "lattice":
            if not np.array_equal(products, self.mats[t]):
                bad = np.argwhere((products != self.mats[t]).any(axis=(2, 3)))[0]
                raise ValidationError("action is not a homomorphism",
                                      witness=(int(bad[0]), int(bad[1])))
            # No determinant test is needed: with M_0 = I and M_g M_h = M_gh
            # checked exactly, M_g M_{g^-1} = I over Z, so every M_g is
            # unimodular.
        else:
            f = np.array(self.factors, dtype=np.int64)
            diff = products - self.mats[t]
            if (diff % f[None, None, :, None]).any():
                bad = np.argwhere((diff % f[None, None, :, None]).any(axis=(2, 3)))[0]
                raise ValidationError("action is not a homomorphism",
                                      witness=(int(bad[0]), int(bad[1])))
            # well-definedness: A[i, j] * factors[j] = 0 mod factors[i]
            for g in range(n):
                for i in range(r):
                    for j in range(r):
                        if (self.mats[g, i, j] * self.factors[j]) % self.factors[i]:
                            raise ValidationError(
                                "action matrix not well defined on the factors",
                                witness=(g, i, j))

    @classmethod
    def trivial_qz(cls, group):
        return cls(group, "trivial_qz", factors=None, rank=1)

    @classmethod
    def finite(cls, group, factors, gen_mats=None):
        factors = _checked_factors(factors)
        mats = _element_mats_from_gens(group, len(factors), gen_mats)
        return cls(group, "finite", factors=factors, element_mats=mats)

    @classmethod
    def lattice(cls, group, rank, gen_mats=None):
        rank = _positive_int("rank", rank)
        mats = _element_mats_from_gens(group, rank, gen_mats)
        return cls(group, "lattice", rank=rank, element_mats=mats)

    def restricted(self, subgroup_elements):
        """Same module over the relabelled subgroup on the given elements."""
        sub = Subgroup(self.group, tuple(sorted(subgroup_elements)))
        grp, embed = sub.as_group()
        mats = self.mats[np.array(embed, dtype=np.int64)]
        return GModule(grp, self.kind, factors=self.factors,
                       rank=self.rank, element_mats=mats)

    def is_faithful(self):
        eye = np.eye(self.rank, dtype=np.int64)
        hits = [g for g in range(self.group.order) if np.array_equal(self.mats[g], eye)]
        return hits == [0]

    def key(self):
        if self._key is None:
            self._key = (self.kind, self.factors, self.rank,
                         self.mats.tobytes(), self.group.cayley_key())
        return self._key


def _positive_int(field, value, index=None):
    """`value` as an int >= 1; otherwise a ValidationError whose witness
    names the field, the index within it and the value."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1:
        return int(value)
    where = {"field": field} if index is None else {"field": field, "index": index}
    raise ValidationError(f"{field} must be a positive integer", witness={**where, "value": value})


def _checked_factors(factors):
    """Cyclic factor orders as a tuple of ints >= 1 whose lcm the int64
    Howell engine can take as its modulus."""
    if not isinstance(factors, (list, tuple)) or not factors:
        raise ValidationError("factors must be a nonempty list of positive integers",
                              witness={"field": "factors", "value": factors})
    out = tuple(_positive_int("factors", f, i) for i, f in enumerate(factors))
    linalg.check_int64_modulus(lcm(*out))
    return out


def _element_mats_from_gens(group, rank, gen_mats):
    n = group.order
    mats = np.zeros((n, rank, rank), dtype=np.int64)
    mats[0] = np.eye(rank, dtype=np.int64)
    given = {}
    for g, m in dict(gen_mats or {}).items():
        try:
            arr = np.asarray(m)
        except ValueError:  # ragged rows
            arr = np.asarray(None)
        if arr.dtype.kind not in "iu" or arr.shape != (rank, rank):
            raise ValidationError(f"action of element {g} is not an integer {rank} x {rank} "
                                  "matrix", witness={"element": int(g), "value": m})
        given[int(g)] = arr.astype(np.int64)
    for g in given:
        if g not in group.generators:
            raise ValidationError(f"element {g} is not one of the group generators")
    for s in group.generators:
        if s not in given:
            given[s] = np.eye(rank, dtype=np.int64)
    for g, parent, gen in bfs_tree(group):
        mats[g] = mats[parent] @ given[gen]
    return mats


def bfs_tree(group):
    """Deterministic spanning tree of the Cayley graph: (g, parent, gen)
    triples with g = parent * gen, in breadth-first discovery order."""
    out = []
    discovered = {0}
    level = [0]
    while level:
        nxt = []
        for p in level:
            for s in group.generators:
                q = group.table[p][s]
                if q not in discovered:
                    discovered.add(q)
                    out.append((q, p, s))
                    nxt.append(q)
        level = nxt
    return out


# ---------------------------------------------------------------------------
# cochain containers


@dataclass(frozen=True)
class Cochain2:
    """Normalized 2-cochain: values indexed by G x G with module values."""

    module: GModule
    values: tuple  # (n, n, r) nested tuples of ints
    denominator: int = 1  # for Q/Z realizations the value a means a/denominator

    def as_array(self):
        return np.asarray(self.values, dtype=np.int64)


def _to_value_array(table, n, r):
    arr = np.asarray(table, dtype=np.int64)
    if arr.shape == (n, n) and r == 1:
        arr = arr[:, :, None]
    if arr.shape != (n, n, r):
        raise ValidationError(f"cochain table must have shape ({n},{n},{r})")
    return arr


# ---------------------------------------------------------------------------
# degree-2 bar solver (finite coefficients, modulus L)


class _BarH2Solver:
    def __init__(self, group, factors, mats):
        self.group = group
        self.factors = tuple(int(f) for f in factors)
        self.mats = mats  # (n, r, r) int64
        self.r = len(self.factors)
        self.L = lcm(*self.factors)
        n = group.order
        self.n = n
        self.gens = list(group.generators)
        self.slots = len(self.gens) * (n - 1) * self.r
        self._build()

    def slot(self, si, h, comp):
        return si * (self.n - 1) * self.r + (h - 1) * self.r + comp

    def _build(self):
        n, r, L = self.n, self.r, self.L
        U = self.slots
        t = self.group._np_table
        mats = self.mats % L
        w = np.zeros((n, n, r, U), dtype=np.int64)
        for si, s in enumerate(self.gens):
            for h in range(1, n):
                for comp in range(r):
                    w[s, h, comp, self.slot(si, h, comp)] = 1
        tree = bfs_tree(self.group)
        gen_set = set(self.gens)
        for g, p, x in tree:
            if g in gen_set and p == 0:
                continue
            acted = np.einsum("ij,kjl->kil", mats[p], w[x]) % L
            w[g] = (acted + w[p][t[x]] - w[p, x][None, :, :]) % L
        self.w = w
        scale = np.array([L // f for f in self.factors], dtype=np.int64)
        acc = HowellAccumulator(L)
        for s in self.gens:
            acted = np.einsum("ij,hkjl->hkil", mats[s], w[1:, 1:]) % L
            f = acted + w[s][t[1:, 1:]] - w[t[s, 1:]][:, 1:] - w[s, 1:][:, None]
            f = (f % L) * scale[None, None, :, None] % L
            acc.ingest(f.reshape(-1, U))
        self.kernel_gens = kernel(acc.canonical_rows(), L, U)

    def coboundary_gens(self):
        n, r, L = self.n, self.r, self.L
        out = []
        for g0 in range(1, n):
            for j in range(r):
                vec = np.zeros(self.slots, dtype=np.int64)
                for si, s in enumerate(self.gens):
                    col = self.mats[s][:, j] % L
                    for i in range(r):
                        if col[i]:
                            vec[self.slot(si, g0, i)] += col[i]
                    h0 = self.group.table[self.group.inverse[s]][g0]
                    if h0 != 0:
                        vec[self.slot(si, h0, j)] -= 1
                    if s == g0:
                        for h in range(1, n):
                            vec[self.slot(si, h, j)] += 1
                out.append([int(x) % L for x in vec])
        return out

    def gauge_gens(self):
        L = self.L
        out = []
        for comp, f in enumerate(self.factors):
            if f == L:
                continue
            for si in range(len(self.gens)):
                for h in range(1, self.n):
                    vec = [0] * self.slots
                    vec[self.slot(si, h, comp)] = f
                    out.append(vec)
        return out

    def expand(self, uvec):
        u = np.asarray(uvec, dtype=np.int64) % self.L
        return np.einsum("ghrl,l->ghr", self.w, u) % self.L

    def read_slots(self, values):
        u = np.zeros(self.slots, dtype=np.int64)
        for si, s in enumerate(self.gens):
            for h in range(1, self.n):
                for comp in range(self.r):
                    u[self.slot(si, h, comp)] = values[s, h, comp] % self.L
        return u

    def validate_cocycle(self, values):
        n, L = self.n, self.L
        t = self.group._np_table
        mats = self.mats % L
        acted = np.einsum("gij,hkj->ghki", mats, values) % L
        lhs = (acted + values[:, t][:, :, :, :]) % L
        rhs = (values[t][:, :, :, :] + values[:, :, None, :]) % L
        diff = (lhs - rhs) % L
        scale = np.array([L // f for f in self.factors], dtype=np.int64)
        diff = (diff * scale[None, None, None, :]) % L
        if diff.any():
            bad = np.argwhere(diff.any(axis=3))[0]
            raise ValidationError("table is not a 2-cocycle",
                                  witness=tuple(int(x) for x in bad))


# ---------------------------------------------------------------------------
# degree-1 bar solver


class _BarH1Solver:
    """Solver for 1-cocycles; modulus L for finite modules, None for Z."""

    def __init__(self, group, rank, mats, factors=None):
        self.group = group
        self.r = rank
        self.mats = mats
        self.factors = tuple(factors) if factors else None
        self.L = lcm(*self.factors) if self.factors else None
        self.n = group.order
        self.gens = list(group.generators)
        self.slots = len(self.gens) * rank
        self._build()

    def slot(self, si, comp):
        return si * self.r + comp

    def _mod(self, arr):
        return arr % self.L if self.L else arr

    def _build(self):
        n, r = self.n, self.r
        U = self.slots
        t = self.group._np_table
        w = np.zeros((n, r, U), dtype=np.int64)
        for si, s in enumerate(self.gens):
            for comp in range(r):
                w[s, comp, self.slot(si, comp)] = 1
        gen_set = set(self.gens)
        for g, p, x in bfs_tree(self.group):
            if g in gen_set and p == 0:
                continue
            w[g] = self._mod(w[p] + np.einsum("ij,jl->il", self.mats[p], w[x]))
        self.w = w
        rows = []
        for s in self.gens:
            # c(s) + s.c(h) - c(s h) = 0 for all h
            f = w[s][None, :, :] + np.einsum("ij,hjl->hil", self.mats[s], w) - w[t[s]]
            f = self._mod(f)
            rows.append(f.reshape(-1, U))
        big = np.concatenate(rows, axis=0) if rows else np.zeros((0, U), dtype=np.int64)
        if self.L:
            scale = np.array([self.L // f for f in self.factors], dtype=np.int64)
            big = (big.reshape(-1, r, U) * scale[None, :, None]).reshape(-1, U) % self.L
            acc = HowellAccumulator(self.L)
            acc.ingest(big)
            self.kernel_gens = kernel(acc.canonical_rows(), self.L, U)
        else:
            self.kernel_gens = kernel(big.tolist(), None, U)

    def coboundary_gens(self):
        out = []
        for j in range(self.r):
            vec = [0] * self.slots
            for si, s in enumerate(self.gens):
                for i in range(self.r):
                    v = int(self.mats[s][i, j]) - (1 if i == j else 0)
                    if v:
                        vec[self.slot(si, i)] += v
            out.append([x % self.L for x in vec] if self.L else vec)
        return out

    def gauge_gens(self):
        if not self.L:
            return []
        out = []
        for comp, f in enumerate(self.factors):
            if f == self.L:
                continue
            for si in range(len(self.gens)):
                vec = [0] * self.slots
                vec[self.slot(si, comp)] = f
                out.append(vec)
        return out

    def expand(self, uvec):
        u = np.asarray(uvec, dtype=np.int64)
        out = np.einsum("grl,l->gr", self.w, u)
        return self._mod(out)

    def read_slots(self, values):
        u = np.zeros(self.slots, dtype=np.int64)
        for si, s in enumerate(self.gens):
            for comp in range(self.r):
                u[self.slot(si, comp)] = values[s, comp]
        return self._mod(u)

    def validate_cocycle(self, values):
        t = self.group._np_table
        lhs = values[:, None, :] + np.einsum("gij,hj->ghi", self.mats, values)
        rhs = values[t]
        diff = lhs - rhs
        if self.L:
            scale = np.array([self.L // f for f in self.factors], dtype=np.int64)
            diff = (diff * scale[None, None, :]) % self.L
        if diff.any():
            bad = np.argwhere(diff.any(axis=2))[0]
            raise ValidationError("table is not a 1-cocycle",
                                  witness=tuple(int(x) for x in bad))


# ---------------------------------------------------------------------------
# public cohomology objects


class CohomologyGroup:
    """Computed H^i with structure, representatives, and a reduce map."""

    def __init__(self, group, module, degree, structure, engine, modulus,
                 rep_tables, reducer, denominator=1):
        self.group = group
        self.module = module
        self.degree = degree
        self.structure = structure
        self.modulus = modulus
        self.denominator = denominator
        self._engine = engine
        self._reducer = reducer
        self.rep_tables = rep_tables  # list of np arrays

    @property
    def invariant_factors(self):
        return list(self.structure.invariant_factors)

    def representatives(self):
        out = []
        for tab in self.rep_tables:
            vals = tuple(tuple(tuple(int(x) for x in row) for row in plane) for plane in tab)
            out.append(Cochain2(self.module, vals, denominator=self.denominator))
        return out

    def reduce(self, table):
        """Class coordinates of a cocycle table (validated)."""
        arr = table.as_array() if isinstance(table, Cochain2) else \
            np.asarray(table, dtype=np.int64)
        n, r = self.group.order, self.module.rank
        if self.degree == 2:
            arr = _to_value_array(arr, n, r)
        else:
            if arr.shape == (n,) and r == 1:
                arr = arr[:, None]
            if arr.shape != (n, r):
                raise ValidationError(f"1-cochain table must have shape ({n},{r})")
        return self._reducer(arr)

    def expand(self, coords):
        """A representative table for the class with the given coordinates."""
        n = self.group.order
        if self.degree == 2:
            shape = (n, n, self.module.rank)
        else:
            shape = (n, self.module.rank)
        out = np.zeros(shape, dtype=np.int64)
        for c, tab in zip(coords, self.rep_tables):
            if c:
                out += int(c) * tab
        if self.modulus:
            out %= self.modulus
        return out


def _finite_limit_check(group, max_order, unknowns):
    """Reject a finite-coefficient solve over the order limit; the witness
    gives the bar-solver unknowns that the solve would have built."""
    limit = max_order or int(os.environ.get("BRQ_MAX_ORDER", DEFAULT_FINITE_LIMIT))
    if group.order > limit:
        raise SizeLimitError(
            f"group order {group.order} exceeds the finite-coefficient limit {limit}",
            witness={"order": group.order, "unknowns": unknowns})


def _lattice_limit_check(group, max_order):
    limit = max_order or DEFAULT_LATTICE_LIMIT
    if group.order > limit:
        raise SizeLimitError(f"group order {group.order} exceeds the lattice limit {limit}")


def _h2_unknowns(group, rank):
    return len(group.generators) * (group.order - 1) * rank


def _trivial_cohomology(group, module, degree, modulus, denominator=1):
    structure = linalg.subquotient_structure(0, modulus or 2, [], [])
    return CohomologyGroup(group, module, degree, structure, None, modulus,
                           [], lambda arr: (), denominator=denominator)


def h2(module, max_order=None, extra_image_tables=None, denominator=1):
    """H^2(G, M) for finite or lattice coefficients.

    For finite coefficients the computation runs over Z/lcm(factors) via
    Howell forms; for lattices it runs through the multiplication-by-|G|
    exact sequence and integer kernels.  `extra_image_tables` adjoins the
    classes of additional cocycle tables to the coboundary side (used for
    the Q/Z realization).
    """
    group = module.group
    if module.kind == "lattice":
        return _h2_lattice(module, max_order=max_order)
    _finite_limit_check(group, max_order, _h2_unknowns(group, module.rank))
    if group.order == 1:
        return _trivial_cohomology(group, module, 2, 2, denominator=denominator)
    factors = module.factors
    solver = _BarH2Solver(group, factors, module.mats)
    image = solver.coboundary_gens() + solver.gauge_gens()
    if extra_image_tables:
        for tab in extra_image_tables:
            arr = _to_value_array(tab, group.order, module.rank)
            solver.validate_cocycle(arr % solver.L)
            image.append([int(x) for x in solver.read_slots(arr % solver.L)])
    structure = subquotient_structure(solver.slots, solver.L, solver.kernel_gens, image)
    rep_tables = [solver.expand(w) for w in structure.witness_generators]

    def reducer(arr):
        arr = arr % solver.L
        solver.validate_cocycle(arr)
        return structure.coords(solver.read_slots(arr))

    return CohomologyGroup(group, module, 2, structure, solver, solver.L,
                           rep_tables, reducer, denominator=denominator)


def h1(module, max_order=None):
    """H^1(G, M): crossed homomorphisms modulo principal ones."""
    group = module.group
    if group.order == 1:
        return _trivial_cohomology(group, module, 1, None if module.kind == "lattice" else 2)
    if module.kind == "lattice":
        _lattice_limit_check(group, max_order)
    else:
        _finite_limit_check(group, max_order, len(group.generators) * module.rank)
    solver = _BarH1Solver(group, module.rank, module.mats, factors=module.factors)
    modulus = solver.L
    image = solver.coboundary_gens() + solver.gauge_gens()
    structure = subquotient_structure(solver.slots, modulus, solver.kernel_gens, image)
    rep_tables = [solver.expand(w) for w in structure.witness_generators]

    def reducer(arr):
        if modulus:
            arr = arr % modulus
        solver.validate_cocycle(arr)
        return structure.coords(solver.read_slots(arr))

    return CohomologyGroup(group, module, 1, structure, solver, modulus,
                           rep_tables, reducer)


def connecting_bockstein(group, chi, modulus):
    """Bockstein 2-cocycle of a homomorphism chi: G -> Z/N.

    Realizes the connecting map for Z/N inside Z/N^2: lift chi to the
    integers in [0, N), take the coboundary, divide by N.
    """
    n = group.order
    vals = [int(c) % modulus for c in chi]
    for a in range(n):
        for b in range(n):
            if (vals[a] + vals[b] - vals[group.table[a][b]]) % modulus:
                raise ValidationError("chi is not a homomorphism to Z/N", witness=(a, b))
    table = np.zeros((n, n, 1), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            table[a, b, 0] = ((vals[a] + vals[b] - vals[group.table[a][b]]) // modulus) % modulus
    return table


def h2_qz(group, modulus=None, max_order=None):
    """H^2(G, Q/Z) realized at a modulus divisible by |G|.

    Classes are stored as Z/N-valued cocycles carrying denominator N; the
    invariant factors do not depend on the admissible modulus chosen.
    """
    n = group.order
    N = int(modulus) if modulus else n
    if n == 1:
        return _trivial_cohomology(group, GModule.trivial_qz(group), 2, N, denominator=N)
    if N % n:
        raise DomainError(f"modulus {N} must be divisible by the group order {n}")
    module = GModule(group, "trivial_qz", factors=[N], rank=1)
    bocksteins = [connecting_bockstein(group, chi, N) for chi in homs_to_cyclic(group, N)]
    return h2(module, max_order=max_order, extra_image_tables=bocksteins, denominator=N)


# ---------------------------------------------------------------------------
# lattice H^2 via the multiplication-by-N sequence


class _LatticeH2Engine:
    def __init__(self, module, max_order=None):
        group = module.group
        _lattice_limit_check(group, max_order)
        if module.rank > DEFAULT_LATTICE_RANK_LIMIT and group.order > 12:
            raise SizeLimitError("lattice rank too large for this group order",
                                 witness={"rank": module.rank})
        self.module = module
        self.group = group
        self.L = group.order
        self.r = module.rank
        finite = GModule(group, "finite", factors=[self.L] * self.r,
                         element_mats=module.mats % self.L)
        self.h1_mod = h1(finite, max_order=max_order)
        int_solver = _BarH1Solver(group, self.r, module.mats)
        image_coords = []
        for gen in int_solver.kernel_gens:
            arr = self.h1_mod._engine.expand([x % self.L for x in gen])
            image_coords.append(list(self.h1_mod._reducer(arr)))
        self.structure = quotient_of_structure(self.h1_mod.structure, image_coords)
        self._solver_cache = None

    def cocycle_from_h1_coords(self, inner_coords):
        """Integer 2-cocycle from a degree-one class of M/L."""
        u = np.zeros(self.h1_mod._engine.slots, dtype=np.int64)
        for c, w in zip(inner_coords, self.h1_mod.structure.witness_generators):
            u = (u + int(c) * np.asarray(w, dtype=np.int64)) % self.L
        cbar = self.h1_mod._engine.expand(u)  # (n, r) values in [0, L)
        return self._coboundary_over_l(cbar)

    def _coboundary_over_l(self, cbar):
        n, L = self.group.order, self.L
        t = self.group._np_table
        mats = self.module.mats
        lhs = cbar[:, None, :] + np.einsum("gij,hj->ghi", mats, cbar) - cbar[t]
        if (lhs % L).any():
            raise DomainError("table is not a 1-cocycle mod L")
        return lhs // L

    def rep_tables(self):
        out = []
        for w in self.structure.witness_generators:
            out.append(self.cocycle_from_h1_coords(w))
        return out

    def _d1_solver(self):
        """Howell factorization of the degree-one coboundary map mod L^2."""
        if self._solver_cache is not None:
            return self._solver_cache
        n, r, L = self.group.order, self.r, self.L
        L2 = L * L
        cols = (n - 1) * r
        rows = []
        t = self.group.table
        mats = self.module.mats
        for g in range(1, n):
            for hh in range(1, n):
                for i in range(r):
                    row = [0] * cols
                    # d1 c (g, h)_i = c(g)_i + (A_g c(h))_i - c(gh)_i
                    row[(g - 1) * r + i] += 1
                    for j in range(r):
                        row[(hh - 1) * r + j] += int(mats[g][i, j])
                    gh = t[g][hh]
                    if gh != 0:
                        row[(gh - 1) * r + i] -= 1
                    rows.append(row)
        self._solver_cache = [p for p in augmented_echelon(rows, L2, cols) if any(p[0])]
        return self._solver_cache

    def reduce(self, ztable):
        """Coordinates of an integer 2-cocycle table."""
        n, r, L = self.group.order, self.r, self.L
        arr = np.asarray(ztable, dtype=np.int64)
        self._validate_int_cocycle(arr)
        L2 = L * L
        pairs = self._d1_solver()
        target = []
        for g in range(1, n):
            for hh in range(1, n):
                for i in range(r):
                    target.append((L * int(arr[g, hh, i])) % L2)
        coeffs = howell_solve([image for image, _ in pairs], target, L2)
        if coeffs is None:
            raise DomainError("2-cocycle is not in the image of the connecting map")
        chat = [0] * ((n - 1) * r)
        for c, (_, carry) in zip(coeffs, pairs):
            if c:
                chat = [x + c * y for x, y in zip(chat, carry)]
        cbar = np.zeros((n, r), dtype=np.int64)
        cbar[1:] = np.array([x % L for x in chat], dtype=np.int64).reshape(n - 1, r)
        inner = self.h1_mod._reducer(cbar)
        return self.structure.coords(list(inner))

    def _validate_int_cocycle(self, arr):
        t = self.group._np_table
        mats = self.module.mats
        acted = np.einsum("gij,hkj->ghki", mats, arr)
        lhs = acted + arr[:, t][:, :, :, :]
        rhs = arr[t][:, :, :, :] + arr[:, :, None, :]
        if (lhs - rhs).any():
            bad = np.argwhere((lhs - rhs).any(axis=3))[0]
            raise ValidationError("table is not an integer 2-cocycle",
                                  witness=tuple(int(x) for x in bad))


def _h2_lattice(module, max_order=None):
    group = module.group
    if group.order == 1:
        return _trivial_cohomology(group, module, 2, None)
    engine = _LatticeH2Engine(module, max_order=max_order)
    return CohomologyGroup(group, module, 2, engine.structure, engine, None,
                           engine.rep_tables(), engine.reduce)


# ---------------------------------------------------------------------------
# restriction / corestriction


_COHOMOLOGY_CACHE = {}


def _cached_h2_qz(group, modulus, max_order):
    # The order limit is checked before the lookup, so a class computed
    # under a higher limit is not handed to a caller with a lower one.
    _finite_limit_check(group, max_order, _h2_unknowns(group, 1))
    key = ("h2qz", group.cayley_key(), modulus)
    if key not in _COHOMOLOGY_CACHE:
        _COHOMOLOGY_CACHE[key] = h2_qz(group, modulus, max_order=max_order)
    return _COHOMOLOGY_CACHE[key]


def h2_qz_cached(group, modulus, max_order=None):
    """`h2_qz` through the process-wide cache."""
    return _cached_h2_qz(group, modulus, max_order)


def subgroup_h2_qz(sub, modulus, max_order=None):
    """H^2 of a subgroup (relabelled) at the ambient modulus, with embedding."""
    grp, embed = sub.as_group()
    return _cached_h2_qz(grp, modulus, max_order), grp, embed


def restrict_table(table, elements):
    arr = np.asarray(table)
    idx = np.array(list(elements), dtype=np.int64)
    return arr[np.ix_(idx, idx)]


def restrict_qz_class(parent_coh, coords, sub, modulus):
    """Restrict a Q/Z degree-two class to a subgroup; returns (coh_A, coords)."""
    coh_a, grp, embed = subgroup_h2_qz(sub, modulus)
    table = parent_coh.expand(coords)
    sub_tab = restrict_table(table, embed)
    return coh_a, coh_a.reduce(sub_tab)


def corestrict_qz_table(group, sub, table, modulus):
    """Transfer of a Q/Z-valued 2-cocycle from a subgroup to the group.

    Uses the right transversal with the smallest element of each coset; the
    class of the output is independent of that choice.
    """
    arr = np.asarray(table, dtype=np.int64)
    els = list(sub.elements)
    pos = {g: i for i, g in enumerate(els)}
    el_set = set(els)
    reps = coset_representatives(group, els)
    rep_of = {}
    for t in reps:
        for h in els:
            rep_of[group.table[h][t]] = t
    n = group.order
    out = np.zeros((n, n, 1), dtype=np.int64)
    for g1 in range(n):
        for g2 in range(n):
            acc = 0
            for t in reps:
                tg1 = group.table[t][g1]
                t1 = rep_of[tg1]
                hpart1 = group.table[tg1][group.inverse[t1]]
                tg2 = group.table[t1][g2]
                t2 = rep_of[tg2]
                hpart2 = group.table[tg2][group.inverse[t2]]
                if hpart1 not in el_set or hpart2 not in el_set:
                    raise DomainError("transfer decomposition left the subgroup")
                acc += arr[pos[hpart1], pos[hpart2], 0]
            out[g1, g2, 0] = acc % modulus
    return out


def corestrict_qz_class(sub_coh, coords, sub, parent_coh):
    """Transfer a subgroup class into the parent group's Q/Z cohomology."""
    table = sub_coh.expand(coords)
    big = corestrict_qz_table(sub.parent, sub, table, parent_coh.modulus)
    return parent_coh.reduce(big)


# ---------------------------------------------------------------------------
# small cyclic / bicyclic complexes (independent oracle)


def small_complex_h(group, gen_pair, module, degree, qz_modulus=None):
    """Cohomology of the small complex of a cyclic or bicyclic group.

    `gen_pair` is one or two generators decomposing the group as a direct
    product of cyclic subgroups.  Returns the AbelianStructure; only the
    invariant factors are contractual (no comparison map to bar classes).
    """
    gens = [g for g in gen_pair if g != 0]
    if not gens:
        gens = [0]
    if len(gens) > 2:
        raise DomainError("small complex needs at most two generators")
    for a in gens:
        for b in gens:
            if group.table[a][b] != group.table[b][a]:
                raise DomainError("generators do not commute", witness=(a, b))
    orders = [group.element_order(g) for g in gens]
    if prod(orders) != group.order:
        raise DomainError("generators do not decompose the group as a direct product")
    if len(gens) == 2:
        inter = set(group.closure([gens[0]])) & set(group.closure([gens[1]]))
        if inter != {0}:
            raise DomainError("cyclic factors intersect nontrivially")

    r = module.rank
    if module.kind == "trivial_qz":
        N = qz_modulus or group.order
        if N % group.order:
            raise DomainError("Q/Z modulus must be divisible by the group order")
        factors = [N]
        mats = np.broadcast_to(np.eye(1, dtype=np.int64), (group.order, 1, 1))
        r = 1
    elif module.kind == "finite":
        factors = list(module.factors)
        mats = module.mats
    else:
        factors = None
        mats = module.mats

    eye = np.eye(r, dtype=np.int64)
    deltas, norms = [], []
    for g, o in zip(gens, orders):
        a = np.asarray(mats[g], dtype=np.int64)
        deltas.append(a - eye)
        acc = np.zeros((r, r), dtype=np.int64)
        p = eye.copy()
        for _ in range(o):
            acc += p
            p = p @ a
        norms.append(acc)

    z = np.zeros((r, r), dtype=np.int64)
    if len(gens) == 1:
        d1, n1 = deltas[0], norms[0]
        d_maps = [d1, n1, d1]  # d0, d1, d2
        sizes = [1, 1, 1, 1]
    else:
        dl1, dl2 = deltas
        n1, n2 = norms
        d0 = np.concatenate([dl1, dl2], axis=0)
        d1 = np.block([[n1, z], [-dl2, dl1], [z, n2]])
        d2 = np.block([[dl1, z, z], [dl2, n1, z], [z, -n2, dl1], [z, z, dl2]])
        d_maps = [d0, d1, d2]
        sizes = [1, 2, 3, 4]

    if degree not in (0, 1, 2):
        raise DomainError("small complex supports degrees 0..2")

    din = d_maps[degree - 1] if degree >= 1 else None
    dout = d_maps[degree]
    dim = sizes[degree] * r

    if factors is not None:
        L = lcm(*factors) if module.kind == "finite" else factors[0]
        full_factors = factors * sizes[degree] if module.kind == "finite" else [L] * dim
        out_factors = factors * sizes[degree + 1] if module.kind == "finite" else [L] * (sizes[degree + 1] * r)
        out_scale = np.array([L // f for f in out_factors], dtype=np.int64)
        scaled = (dout % L) * out_scale[:, None] % L
        kern = kernel(scaled.tolist(), L, dim)
        image = []
        if din is not None:
            for col in range(din.shape[1]):
                image.append([int(x) % L for x in din[:, col]])
        for comp, f in enumerate(full_factors):
            if f != L:
                vec = [0] * dim
                vec[comp] = f
                image.append(vec)
        if module.kind == "trivial_qz" and degree == 2:
            # connecting images of degree-one Q/Z classes
            d1m = d_maps[1]
            one_cocycle_gens = kernel((d1m % L).tolist(), L, d1m.shape[1])
            for gen in one_cocycle_gens:
                lifted = np.asarray([int(x) % L for x in gen], dtype=np.int64)
                img = d1m @ lifted
                if (img % L).any():
                    raise DomainError("connecting lift is not exact")
                image.append([(int(x) // L) % L for x in img])
        return subquotient_structure(dim, L, kern, image)

    # lattice case, over Z
    kern = kernel(dout.tolist(), None, dim)
    image = []
    if din is not None:
        for col in range(din.shape[1]):
            image.append([int(x) for x in din[:, col]])
    return subquotient_structure(dim, None, kern, image)
