"""Group cohomology in degrees one and two.

Coefficients are Q/Z with trivial action (realized at a finite modulus),
finite abelian modules, or integral lattices.  The solver works on the
normalized bar complex but eliminates all unknowns except the generator
rows of a cochain, |S| (n-1) values per component for a generating set S,
instead of (n-1)^2.  In degree two the cocycle identity on the generator
edges (s, h, y), s and y generators, implies it everywhere, so |S|^2 (n-1)
rows cut out the cocycles.  Degree two also fixes the gauge on a spanning
tree of the left Cayley graph: every class has a cocycle that vanishes on
its n - 1 - |S| edges (s, h), h != 1, so (|S| - 1)(n - 1) + |S| unknowns
per component remain.  The coboundaries that vanish on the tree are the
d(b_v), b_v fixed by its values v on S, so |S| of them per component span
them (proofs at `_BarSolver`).  Generator rows are extended to whole
cochains by a depth-first walk of a BFS tree, so degree two never holds the
(n, n, r, U) tensor of the unit cochains.

Q/Z with trivial action is realized as Z/N for any N divisible by |G|: the
cohomology in degree two is the quotient of the mod-N cohomology by the
connecting images of Hom(G, Z/N), and in degree one the two groups agree.
Hom(G, Z/N) is the group of 1-cocycles of the trivial module Z/N, which has
no coboundaries, so it is read from the degree-one solver's cocycles.
Lattice coefficients go through the multiplication-by-|G| sequence
0 -> M -> M -> M/L -> 0, L = |G|, in both degrees: L kills H^k(G, M) for
k >= 1, so H^k(M) is the cokernel of H^(k-1)(M) -> H^(k-1)(M/L).  H^1(M) is
(M/L)^G / (M^G mod L), two kernels with r columns; H^2(M) is H^1(M/L), a bar
computation mod L, modulo the image of H^1(M).  So the bar solver works only
over Z/N.

`_d1` and `_d2` are the one definition of the differential: the
inhomogeneous coboundary of the normalized bar complex (Brown, Cohomology
of Groups, III.1),
    (dc)(g, h)    = g.c(h) - c(gh) + c(g),
    (dc)(g, h, k) = g.c(h, k) - c(gh, k) + c(g, hk) - c(g, h).
`_d2_at` is `_d2` read from the rows c[firsts] and the columns c[:, ks]
alone.  The solvers' constraint rows and coboundary generators, every
cocycle check, the Bockstein and the lattice d1 system are built from them.
`small_complex_h` deliberately does not use them: it is the independent
oracle the bar computations are checked against.

Restriction to any subgroup goes through `CohomologyGroup.restrict`: it
reduces the restricted cocycle table in the subgroup's H^2 with the same
coefficients (`subgroup_h2_qz` for an `h2_qz` result, the restricted module
otherwise), solved once per subgroup and kept on the parent.  That solve
takes the parent's order as its limit: a subgroup is never larger than its
group, whose own solve already passed the caller's limit, so a raised limit
reaches every restriction.  A Q/Z class restricted to a bicyclic subgroup
given with its generating pair can instead be read from the commutator
pairing (`CohomologyGroup.restrict_bicyclic`), with no subgroup solve; the
bar restriction is the oracle it is checked against.
"""

from __future__ import annotations

import numbers
import os
from functools import cache
from math import lcm, prod

import numpy as np

from . import linalg
from .errors import DomainError, SizeLimitError, ValidationError
from .groups import Subgroup, coset_representatives
from .linalg import (
    HowellAccumulator,
    augmented_echelon,
    howell_solve,
    kernel,
    pivot_columns,
    quotient_of_structure,
    subquotient_structure,
)

DEFAULT_ORDER_LIMIT = 96


# ---------------------------------------------------------------------------
# coefficient modules


class GModule:
    """Coefficient module: finite abelian or free lattice with a G-action.

    Finite modules are direct sums of cyclic factors; action matrices act
    with component i read mod factors[i].  The action homomorphism is
    verified on the whole group.
    """

    __slots__ = ("group", "kind", "factors", "rank", "mats")

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
        self._verify()

    def _verify(self):
        n = self.group.order
        r = self.rank
        if not np.array_equal(self.mats[0], np.eye(r, dtype=np.int64)):
            raise ValidationError("identity must act as the identity matrix")
        t = self.group.table
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


def bfs_tree(group, left=False):
    """Deterministic spanning tree of the Cayley graph: (g, parent, gen)
    triples with g = parent * gen (g = gen * parent when `left`), in
    breadth-first discovery order."""
    t = group.table
    steps = [(s, (t[s] if left else t[:, s]).tolist()) for s in group.generators]
    out = []
    discovered = {0}
    level = [0]
    while level:
        nxt = []
        for p in level:
            for s, step in steps:
                q = step[p]
                if q not in discovered:
                    discovered.add(q)
                    out.append((q, p, s))
                    nxt.append(q)
        level = nxt
    return out


# ---------------------------------------------------------------------------
# the bar differential


def _d1(mats, t, c, firsts):
    """(dc)(g, h) = g.c(h) - c(gh) + c(g) for g in `firsts` and every h.

    `c` has shape (n, r, ...): an element, a component, then any trailing
    axes, such as a solver's unknowns.  The result has shape
    (len(firsts), n, r, ...) and is not reduced by any modulus.
    """
    firsts = np.asarray(firsts, dtype=np.int64)
    out = np.einsum("fij,hj...->fhi...", mats[firsts], c)
    out -= c[t[firsts]]
    out += c[firsts][:, None]
    return out


def _d2(mats, t, c, firsts):
    """(dc)(g, h, k) = g.c(h, k) - c(gh, k) + c(g, hk) - c(g, h) for g in
    `firsts` and every h and k.

    `c` has shape (n, n, r, ...); the result has shape
    (len(firsts), n, n, r, ...) and is not reduced by any modulus.
    """
    firsts = np.asarray(firsts, dtype=np.int64)
    return _d2_at(mats, t, c[firsts], c, firsts, slice(None))


def _d2_at(mats, t, c_first, c_k, firsts, ks):
    """`_d2` at the thirds k in `ks` only, from the rows c[firsts] and the
    columns c[:, ks] of c: shape (len(firsts), n, len(ks), r, ...)."""
    out = np.einsum("fij,hkj...->fhki...", mats[firsts], c_k)
    out -= c_k[t[firsts]]
    out += c_first[:, t[:, ks]]
    out -= c_first[:, :, None]
    return out


def _unit_1cochains(n, r):
    """(n, r, (n-1) r) tensor: the normalized 1-cochain whose value at g != 1
    is the j-th unit vector, for each (g, j) in C-order."""
    units = np.zeros((n, r, (n - 1) * r), dtype=np.int64)
    units[1:] = np.eye((n - 1) * r, dtype=np.int64).reshape(n - 1, r, -1)
    return units


def _generator_rows(mats, t, gens, degree):
    """The differential of the unit (degree - 1)-cochains at the generator
    rows, unreduced: one row per (s, [h != 1,] component), s in `gens`, and
    one column per value of a normalized (degree - 1)-cochain."""
    r = mats.shape[1]
    if degree == 1:
        return (mats[gens] - np.eye(r, dtype=np.int64)).reshape(-1, r)
    n = len(mats)
    return _d1(mats, t, _unit_1cochains(n, r), gens)[:, 1:].reshape(-1, (n - 1) * r)


def _require_cocycle(d, mats, t, table, gens, message, reduce=None):
    """Raise a ValidationError unless d(table) vanishes (after `reduce`,
    when given).  It is checked where the first argument is 1 or one of the
    generators `gens`, which implies it everywhere (proof at `_BarSolver`);
    only when that fails is d(table) computed at every first argument, for
    the witness: the first failing index, in row-major order, of all axes
    but the last.
    """
    def diff(firsts):
        out = d(mats, t, table, firsts)
        return out if reduce is None else reduce(out)

    if diff([0, *gens]).any():
        bad = np.argwhere(diff(range(len(mats))).any(axis=-1))[0]
        raise ValidationError(message, witness=tuple(int(x) for x in bad))


def _cochain_array(table, degree, n, r):
    """A cochain table as an int64 array of shape (n,) * degree + (r,); for
    r = 1 the component axis may be left out."""
    arr = np.asarray(table, dtype=np.int64)
    shape = (n,) * degree + (r,)
    if r == 1 and arr.shape == shape[:-1]:
        arr = arr[..., None]
    if arr.shape != shape:
        raise ValidationError(f"{degree}-cochain table must have shape {shape}")
    return arr


# ---------------------------------------------------------------------------
# bar solvers


class _BarSolver:
    """Cocycles of one degree, solved for the generator rows of a cochain.

    The generator-row values are c(s, h) for generators s and h != 1
    (degree 2) or c(s) (degree 1), one per component, in the C-order of
    (generator, [h,] component).  The unknowns ("slots") are the kept ones
    among them (`kept`, their flat indices): all of them in degree one, and
    in degree two those off the gauge tree (below).  `expand` extends slot
    vectors, as the kept generator-row values with zero at the others, to
    whole cochains down the right BFS tree by `_tree_step`: the cocycle
    identity on the tree edge (p, x), solved for c(px, ...).  So z = dc
    vanishes at every tree edge (p, x, ...).  The walk is depth first and
    holds only the rows on its path; the degree-two identities read only the
    generator rows c(s, ...) and columns c(:, y) of the unit cochains,
    (2|S| + depth) n r U values, not the n^2 r U of all.  The modulus L is
    the lcm of the module's factors.

    In degree one the kernel of the identities z(s, h) = 0, generators s,
    is the group of cocycles.  In degree two the identities z(s, h, y) = 0
    for generators s and y and h != 1 suffice: |S|^2 (n-1) r rows instead
    of |S| (n-1)^2 r.  z is a 3-cocycle, and dz = 0 gives
      - at (p, x, q, y), (p, x) a tree edge: z(px, q, y) = p.z(x, q, y)
        + z(p, xq, y); by induction on the depth of px, z(g, q, y) = 0 for
        every g and q and every generator y;
      - then at (g, h, q, y): z(g, h, qy) = z(g, h, q); by induction on the
        depth of k = qy, z(g, h, k) = 0 for every k.
    The kernel is the same, so its canonical Howell rows are the same.

    The degree-two gauge.  Take the left BFS tree from 1 over the edges
    h -> s.h, generators s in `group.generators` order; every generator is
    a child of 1, and the n - 1 - |S| other edges (s, h) have h != 1.  For
    a normalised 2-cochain c let b(1) = b(s) = 0 and b(sh) = c(s, h) + s.b(h)
    down the tree; then (c + db)(s, h) = c(s, h) + s.b(h) - b(sh) + b(s)
    vanishes on every tree edge, and c + db is cohomologous to c (`_gauge`).
    So each class has a cocycle that vanishes on the tree, and the unknowns
    are the r ((|S| - 1)(n - 1) + |S|) values off it.  With Z_T the cochains
    that vanish on the tree, the map Z ∩ Z_T -> H^2 is onto, and its kernel
    is the gauged image: writing the image as B + G + E (coboundaries mod L,
    the values that are zero in the module, the extra tables), the gauge N
    is linear, fixes Z_T and moves each element within its coset of B, so
    (B + G + E) ∩ Z_T = N(B) + N(G) + N(E).  N(B) = B ∩ Z_T is {d(b_v)},
    b_v the 1-cochain with values v on the generators propagated by
    b(sh) = s.b(h) + b(s): db vanishes on the tree exactly when b satisfies
    that recursion, so b is fixed by its values on S, and |S| r coboundary
    generators span it.  N(G) = G ∩ Z_T, the values off the tree that are
    zero in the module: those values form a submodule that the action keeps
    (it is well defined on the factors), so for c in G the propagated b and
    db take their values in it too.

    A given table c of either degree is a cocycle once z = dc vanishes where
    its first argument is 1 or a generator (`_require_cocycle`): z is a
    cocycle, and dz = 0 at (p, x, ...), x a generator, gives z(px, ...) as
    a combination of p.z(x, ...) and values of z(p, ...), so by induction on
    the depth of px in the BFS tree, from the base case p = 1, z vanishes
    everywhere.  This needs no normalisation of c, and holds in any module
    on which the action is a homomorphism.
    """

    degree = None
    _d = None  # the differential from degree to degree + 1

    def __init__(self, group, mats, factors):
        self.group = group
        self.t = group.table
        self.n = n = group.order
        self.r = r = mats.shape[1]
        self.factors = tuple(int(f) for f in factors)
        self.L = lcm(*self.factors)
        self.scale = np.array([self.L // f for f in self.factors], dtype=np.int64)
        self.mats = np.asarray(mats, dtype=np.int64) % self.L
        self.gens = list(group.generators)
        # index of the generator rows: (generators, [h != 1])
        self.at_gens = (np.array(self.gens, dtype=np.int64),) + \
            (slice(1, None),) * (self.degree - 1)
        self.row_shape = (len(self.gens),) + (n - 1,) * (self.degree - 1) + (r,)
        self.kept = self._kept_slots()
        self.slots = len(self.kept)
        # the right BFS tree in depth-first order: (g, parent, generator
        # index, depth, whether g is the parent's last child to be visited,
        # that is its first child, which the stack pops last)
        children, depth = {}, {0: 0}
        for g, p, x in bfs_tree(group):
            depth[g], last = depth[p] + 1, p not in children
            children.setdefault(p, []).append((g, p, self.gens.index(x), depth[g], last))
        self._dfs, stack = [], children[0]
        while stack:
            self._dfs.append(stack.pop())
            stack += children.get(self._dfs[-1][0], [])
        self.kernel_gens = self._cocycle_kernel()

    def _kept_slots(self):
        return np.arange(prod(self.row_shape))

    def _gauge(self, values):
        """Generator-row values, shape `row_shape` + (m,), as slot columns
        (slots, m) mod L."""
        return values.reshape(-1, values.shape[-1])[self.kept] % self.L

    def _generator_values(self, u):
        """The generator rows c(s, ...), h = 1 included in degree two, whose
        kept values are the columns of u, shape (slots, m), mod L."""
        m = np.shape(u)[1]
        flat = np.zeros((prod(self.row_shape), m), dtype=np.int64)
        flat[self.kept] = np.asarray(u) % self.L
        rows = np.zeros((len(self.gens),) + (self.n,) * (self.degree - 1) + (self.r, m),
                        dtype=np.int64)
        rows[(slice(None),) + self.at_gens[1:]] = flat.reshape(self.row_shape + (m,))
        return rows

    def expand(self, u, _seconds=slice(None)):
        """The cochain tables, along a last axis, whose kept generator-row
        values are the columns of u, shape (slots, m).  The walk runs depth
        first and holds only the rows on its path that a child still needs;
        in degree two, `_seconds` keeps only the columns c(:, y), y in it."""
        rows = self._generator_values(u)
        path = [np.zeros_like(rows[0])]
        out = np.zeros((self.n,) + path[0][_seconds].shape, dtype=np.int64)
        for g, p, i, depth, last in self._dfs:
            # the children of 1 are the generators, whose rows are given
            step = self._tree_step(path[depth - 1], p, rows[i], self.gens[i]) if p else rows[i]
            path[depth:] = [step % self.L]
            if last:  # no other child needs the parent's row
                path[depth - 1] = None
            out[g] = path[depth][_seconds]
        return out

    def _cocycle_kernel(self):
        """Kernel of the cocycle identities at (s, h) or (s, h, y), h != 1,
        streamed into the Howell form one generator s at a time."""
        U = self.slots
        acc = HowellAccumulator(self.L)
        for f in self._edge_rows(np.eye(U, dtype=np.int64)):
            # component i of the module is Z/f_i, so it vanishes when
            # (L / f_i) times it vanishes mod L
            acc.ingest((f[1:] % self.L * self.scale[:, None] % self.L).reshape(-1, U))
        return kernel(acc.rows, self.L, U)

    def image_gens(self, tables=()):
        """Generators of the image over the slots: the coboundaries and the
        classes of the cocycle `tables` (validated), in the gauge, then f_i
        at each slot of a component i whose factor f_i is below L (the
        values that are zero in the module)."""
        cols = [self._coboundaries()] + \
            [self._checked_rows(tab).reshape(-1, 1) for tab in tables]
        image = self._gauge(np.concatenate(cols, axis=1).reshape(self.row_shape + (-1,))).T.tolist()
        comps = self.kept % self.r
        for comp, f in enumerate(self.factors):
            if f == self.L:
                continue
            for slot in np.flatnonzero(comps == comp):
                vec = [0] * self.slots
                vec[slot] = f
                image.append(vec)
        return image

    def _checked_rows(self, values):
        """The generator-row values of a cocycle table (reduced and
        validated)."""
        values = values % self.L
        _require_cocycle(self._d, self.mats, self.t, values, self.gens,
                         f"table is not a {self.degree}-cocycle",
                         lambda diff: diff % self.L * self.scale % self.L)
        return values[self.at_gens]

    def cocycle_slots(self, values):
        """Slot vector of a cocycle table (reduced, validated, gauged)."""
        return self._gauge(self._checked_rows(values)[..., None])[:, 0]


class _BarH1Solver(_BarSolver):
    degree = 1
    _d = staticmethod(_d1)

    def _edge_rows(self, units):
        # the identities with s first, for each generator s, over the slots;
        # degree one keeps the whole unit tensor w, which is small
        self.w = super().expand(units)
        for s in self.gens:
            yield _d1(self.mats, self.t, self.w, [s])[0]

    def expand(self, u):
        return self.w @ (np.asarray(u, dtype=np.int64) % self.L) % self.L

    def _tree_step(self, row_p, p, row_x, x):
        # c(px) = c(p) + p.c(x)
        return row_p + self.mats[p] @ row_x

    def _coboundaries(self):
        # d of the unit 0-cochains, at the generator rows
        return _generator_rows(self.mats, self.t, self.gens, 1)


class _BarH2Solver(_BarSolver):
    degree = 2
    _d = staticmethod(_d2)

    def _edge_rows(self, units):
        # the identities with s first and y third, for each generator s,
        # read from the generator rows and columns of the unit cochains
        cols = self.expand(units, self.gens)
        rows = self._generator_values(units)
        for i, s in enumerate(self.gens):
            yield _d2_at(self.mats, self.t, rows[i:i + 1], cols, [s], self.gens)[0]

    def _tree_step(self, row_p, p, row_x, x):
        # c(px, h) = p.c(x, h) + c(p, xh) - c(p, x)
        return self.mats[p] @ row_x + row_p[self.t[x]] - row_p[x]

    def _kept_slots(self):
        """The generator-row values off the left gauge tree; also keeps the
        tree's edges (s, h), h != 1, grouped by depth for `_gauge`."""
        depth = [0] * self.n
        levels = {}
        on_tree = np.zeros(self.row_shape[:2], dtype=bool)
        for g, h, s in bfs_tree(self.group, left=True):
            depth[g] = depth[h] + 1
            if h:
                i = self.gens.index(s)
                levels.setdefault(depth[g], []).append((i, h, g))
                on_tree[i, h - 1] = True
        self._levels = [np.array(lv, dtype=np.int64).T for lv in levels.values()]
        return np.flatnonzero(np.repeat(~on_tree.reshape(-1), self.r))

    def _gauge(self, values):
        # c + db with b(1) = b(s) = 0 and b(sh) = c(s, h) + s.b(h) down the
        # tree, one depth at a time for all m columns at once
        m = values.shape[-1]
        c = np.zeros((len(self.gens), self.n, self.r, m), dtype=np.int64)
        c[:, 1:] = values % self.L
        b = np.zeros((self.n, self.r, m), dtype=np.int64)
        for i, h, g in self._levels:
            step = np.einsum("kij,kjm->kim", self.mats[self.at_gens[0][i]], b[h])
            b[g] = (c[i, h] + step) % self.L
        c += _d1(self.mats, self.t, b, self.gens)
        return super()._gauge(c[:, 1:])

    def _coboundaries(self):
        # d(b_v) for the unit vectors v on the generators; `_gauge`
        # propagates each b_v down the tree
        k = len(self.gens) * self.r
        units = np.zeros((self.n, self.r, k), dtype=np.int64)
        units[self.gens] = np.eye(k, dtype=np.int64).reshape(len(self.gens), self.r, k)
        return _d1(self.mats, self.t, units, self.gens)[:, 1:].reshape(-1, k)


# ---------------------------------------------------------------------------
# public cohomology objects


class CohomologyGroup:
    """Computed H^i with structure, representatives, and a reduce map."""

    def __init__(self, group, module, degree, structure, modulus, rep_tables, reducer):
        self.group = group
        self.module = module
        self.degree = degree
        self.structure = structure
        self.modulus = modulus
        self._reducer = reducer
        self.rep_tables = rep_tables  # list of np arrays
        self.qz = False  # set by h2_qz: Q/Z coefficients, realized mod the modulus
        self._subgroups = {}  # subgroup elements -> the subgroup's H^2

    @property
    def invariant_factors(self):
        return list(self.structure.invariant_factors)

    def reduce(self, table):
        """Class coordinates of a cocycle table (validated).

        A 2-cocycle c has c(1, h) = c(1, 1) and c(g, 1) = g.c(1, 1); the
        reducers read only the slot values, so c is first normalised by
        subtracting the coboundary (g, h) -> g.m of the constant 1-cochain
        m = c(1, 1), which leaves its class unchanged.
        """
        arr = _cochain_array(table, self.degree, self.group.order, self.module.rank)
        if self.degree == 2:
            arr = arr - (self.module.mats @ arr[0, 0])[:, None]
        return self._reducer(arr)

    def expand(self, coords):
        """A representative table for the class with the given coordinates."""
        shape = (self.group.order,) * self.degree + (self.module.rank,)
        out = np.zeros(shape, dtype=np.int64)
        for c, tab in zip(coords, self.rep_tables):
            if c:
                out += int(c) * tab
        if self.modulus:
            out %= self.modulus
        return out

    def subgroup_cohomology(self, sub):
        """H^2 of a subgroup (relabelled) with the same coefficients, solved
        once per subgroup under this group's order as the limit."""
        if self.degree != 2:
            raise DomainError("restriction is implemented in degree two")
        if sub.elements not in self._subgroups:
            if self.qz:
                coh = subgroup_h2_qz(sub, self.modulus, self.group.order)[0]
            else:
                coh = h2(self.module.restricted(sub.elements), max_order=self.group.order)
            self._subgroups[sub.elements] = coh
        return self._subgroups[sub.elements]

    def restrict(self, coords, sub):
        """Restrict the class with the given coordinates to a subgroup:
        (the subgroup's H^2, the coordinates of the restricted class)."""
        coh_a = self.subgroup_cohomology(sub)
        idx = np.array(sub.elements, dtype=np.int64)
        return coh_a, coh_a.reduce(self.expand(coords)[np.ix_(idx, idx)])

    def restrict_bicyclic(self, coords, sub):
        """Restrict a Q/Z class to a subgroup A = <a, b> given with its
        commuting pair `sub.pair`, through the commutator pairing, with no
        subgroup solve: (the factor list of H^2(A, Q/Z), the coordinates).

        H^2(A, Q/Z) = Hom(A ^ A, Q/Z) is cyclic of order e = |A| / exp(A),
        generated by the class whose pairing sends a ^ b to 1/e (Bogomolov
        1987; Moravec 2012).  With c the Z/N representative of the class,
        N the modulus, the coordinate is (c(a, b) - c(b, a)) / (N/e) mod e;
        a cyclic A (e = 1) gives the empty factor list.  This does not depend
        on the cocycle chosen: a coboundary d(b)(g, h) = b(g) + b(h) - b(gh),
        the Bockstein of a homomorphism G -> Q/Z (the coboundary of a lift
        divided by N) and d of a constant 1-cochain are all symmetric on a
        commuting pair, so their pairing vanishes.  The basis can differ from
        that of `restrict` by a unit mod e, which keeps every subgroup of
        Z/e, so zero tests and spans agree with it.
        """
        if not self.qz:
            raise DomainError("the commutator pairing needs Q/Z coefficients")
        if sub.pair is None:
            raise DomainError("the subgroup carries no generating pair",
                              witness={"subgroup": list(sub.elements)})
        a, b = sub.pair
        e = sub.order // lcm(self.group.element_order(a), self.group.element_order(b))
        if e == 1:
            return [], []
        value = sum(int(x) * int(tab[a, b, 0] - tab[b, a, 0])
                    for x, tab in zip(coords, self.rep_tables))
        step = self.modulus // e
        if value % step:
            raise DomainError("internal: commutator pairing is not divisible by N/e",
                              witness={"pair": [a, b], "value": value % self.modulus,
                                       "step": step})
        return [e], [value // step % e]


def _env_order_limit():
    """BRQ_MAX_ORDER as an int >= 1, or the default when it is unset."""
    raw = os.environ.get("BRQ_MAX_ORDER")
    if raw is None:
        return DEFAULT_ORDER_LIMIT
    try:
        raw = int(raw)
    except ValueError:
        pass
    return _positive_int("BRQ_MAX_ORDER", raw)


def _order_limit_check(group, max_order, unknowns):
    """Reject a cohomology computation over the order limit; the witness
    gives the unknowns of the system that it would have solved."""
    limit = _env_order_limit() if max_order is None else _positive_int("max_order", max_order)
    if group.order > limit:
        raise SizeLimitError(
            f"group order {group.order} exceeds the order limit {limit}",
            witness={"order": group.order, "unknowns": unknowns})


def _h2_unknowns(group, rank):
    """The bar solver's unknowns: the generator-row values off the gauge
    tree (`_BarSolver`)."""
    s = len(group.generators)
    return ((s - 1) * (group.order - 1) + s) * rank


def _trivial_cohomology(group, module, degree, modulus):
    structure = linalg.subquotient_structure(0, modulus or 2, [], [])
    return CohomologyGroup(group, module, degree, structure, modulus, [], lambda arr: ())


def _bar_cohomology(module, degree, extra_image_tables=None):
    """H^degree(G, M) of a finite M from the bar solver.  `extra_image_tables`
    are cocycle tables whose classes are adjoined to the coboundaries."""
    solver_class = _BarH1Solver if degree == 1 else _BarH2Solver
    solver = solver_class(module.group, module.mats, module.factors)
    tables = [_cochain_array(tab, degree, module.group.order, module.rank)
              for tab in extra_image_tables or ()]
    structure = subquotient_structure(solver.slots, solver.L, solver.kernel_gens,
                                      solver.image_gens(tables))
    witnesses = structure.witness_generators  # expanded in one walk
    rep_tables = list(np.moveaxis(solver.expand(np.transpose(witnesses)), -1, 0)) \
        if witnesses else []
    solver._dfs = None  # the reducer reads the generator rows only, and walks no tree

    def reducer(arr):
        return structure.coords(solver.cocycle_slots(arr))

    return CohomologyGroup(module.group, module, degree, structure, solver.L,
                           rep_tables, reducer)


def h2(module, max_order=None, extra_image_tables=None):
    """H^2(G, M) for finite or lattice coefficients.

    For finite coefficients the computation runs over Z/lcm(factors) via
    Howell forms; for lattices it runs through the multiplication-by-|G|
    exact sequence (`_h2_lattice`).  `extra_image_tables` adjoins the
    classes of additional cocycle tables to the coboundary side (used for
    the Q/Z realization).
    """
    group = module.group
    lattice = module.kind == "lattice"
    _order_limit_check(group, max_order, (group.order - 1) * module.rank if lattice
                       else _h2_unknowns(group, module.rank))
    if group.order == 1:
        return _trivial_cohomology(group, module, 2, None if lattice else 2)
    if lattice:
        return _h2_lattice(module, max_order)
    return _bar_cohomology(module, 2, extra_image_tables)


def h1(module, max_order=None):
    """H^1(G, M): crossed homomorphisms modulo principal ones."""
    group = module.group
    lattice = module.kind == "lattice"
    _order_limit_check(group, max_order, module.rank if lattice
                       else len(group.generators) * module.rank)
    if group.order == 1:
        return _trivial_cohomology(group, module, 1, None if lattice else 2)
    return _h1_lattice(module) if lattice else _bar_cohomology(module, 1)


def connecting_bockstein(group, chi, modulus):
    """Bockstein 2-cocycle of a homomorphism chi: G -> Z/N.

    Realizes the connecting map for Z/N inside Z/N^2: lift chi to the
    integers in [0, N), take the coboundary, divide by N.
    """
    n = group.order
    lift = np.array([[int(c) % modulus] for c in chi], dtype=np.int64)
    trivial = np.ones((n, 1, 1), dtype=np.int64)
    _require_cocycle(_d1, trivial, group.table, lift, group.generators,
                     "chi is not a homomorphism to Z/N", lambda diff: diff % modulus)
    return _d1(trivial, group.table, lift, range(n)) // modulus % modulus


def h2_qz(group, modulus=None, max_order=None):
    """H^2(G, Q/Z) realized at a modulus divisible by |G|.

    A class is stored as a Z/N-valued cocycle whose value a stands for a/N;
    the invariant factors do not depend on the admissible modulus chosen.
    The mod-N classes are taken modulo the Bockstein images of Hom(G, Z/N):
    the 1-cocycles of the trivial module Z/N, the degree-one solver's kernel.
    """
    n = group.order
    N = int(modulus) if modulus else n
    _order_limit_check(group, max_order, _h2_unknowns(group, 1))
    if N % n:
        raise DomainError(f"modulus {N} must be divisible by the group order {n}")
    if n == 1:
        coh = _trivial_cohomology(group, GModule.trivial_qz(group), 2, N)
    else:
        module = GModule(group, "trivial_qz", factors=[N], rank=1)
        solver = _BarH1Solver(group, module.mats, module.factors)
        bocksteins = [connecting_bockstein(group, solver.expand(v)[:, 0], N)
                      for v in solver.kernel_gens]
        coh = h2(module, max_order=max_order, extra_image_tables=bocksteins)
    coh.qz = True
    return coh


# ---------------------------------------------------------------------------
# lattices through the multiplication-by-L sequence, L = |G|


def _connecting_lift(module, degree):
    """Preimages under the connecting map of 0 -> M --L--> M -> M/L -> 0.

    L kills H^k(G, M), so an integer k-cocycle z (k = 1, 2) has L z = d(c)
    for an integer (k-1)-cochain c, and the class of z is the connecting
    image of the class of c mod L in H^(k-1)(M/L).  The returned function
    validates z and gives c mod L, solved from d(c) = L z mod L^2 at the
    generator rows.  Those rows suffice: D = d(c) - L z is then a normalized
    k-cocycle mod L^2 that vanishes at the generator rows.  In degree one
    D(px) = D(p) + p.D(x); in degree two dD = 0 at (p, x, h), x a
    generator, gives D(px, h) = p.D(x, h) + D(p, xh) - D(p, x).  By
    induction on the depth of px in the BFS tree, D vanishes everywhere.
    """
    group = module.group
    L, L2 = group.order, group.order ** 2
    d = _d1 if degree == 1 else _d2
    at_gens = (np.array(group.generators),) + (slice(1, None),) * (degree - 1)

    @cache
    def span():  # Howell factorization of the generator rows mod L^2
        rows = _generator_rows(module.mats, group.table, list(group.generators), degree)
        pairs = [p for p in augmented_echelon(rows.tolist(), L2, rows.shape[1]) if any(p[0])]
        images = [image for image, _ in pairs]
        return images, pivot_columns(images), [carry for _, carry in pairs]

    def lift(table):
        _require_cocycle(d, module.mats, group.table, table, group.generators,
                         f"table is not an integer {degree}-cocycle")
        target = [L * int(x) % L2 for x in table[at_gens].reshape(-1)]
        images, pivots, carries = span()
        coeffs = howell_solve(images, target, L2, pivots)
        if coeffs is None:
            raise DomainError(f"{degree}-cocycle is not in the image of the connecting map")
        out = np.zeros((L,) * (degree - 1) + (module.rank,), dtype=np.int64)
        unknowns = out.reshape(-1)[(degree - 1) * module.rank:]  # all but c(1) in degree two
        c = [0] * len(unknowns)
        for k, carry in zip(coeffs, carries):
            if k:
                c = [x + k * y for x, y in zip(c, carry)]
        unknowns[:] = [x % L for x in c]
        return out

    return lift


def _h1_lattice(module):
    """H^1(G, M) of a lattice as (M/L)^G / (M^G mod L): x in (M/L)^G goes
    to the cocycle g -> (A_g x - x)/L, and M^G mod L is the kernel."""
    group, L, r = module.group, module.group.order, module.rank
    rows = _generator_rows(module.mats, group.table, list(group.generators), 1).tolist()
    invariants = [[x % L for x in v] for v in kernel(rows, None, r)]
    structure = subquotient_structure(r, L, kernel(rows, L, r), invariants)
    rep_tables = [(module.mats @ x - x) // L
                  for x in np.array(structure.witness_generators, dtype=np.int64)]
    lift = _connecting_lift(module, 1)
    return CohomologyGroup(group, module, 1, structure, None, rep_tables,
                           lambda z: structure.coords(lift(z)))


def _h2_lattice(module, max_order):
    """H^2(G, M) of a lattice as H^1(M/L) modulo the image of H^1(M): a
    class of M/L with cocycle c in [0, L) goes to the 2-cocycle d(c)/L."""
    group, L = module.group, module.group.order
    finite = GModule(group, "finite", factors=[L] * module.rank, element_mats=module.mats % L)
    h1_mod = h1(finite, max_order=max_order)
    image = [h1_mod.reduce(tab % L) for tab in _h1_lattice(module).rep_tables]
    structure = quotient_of_structure(h1_mod.structure, image)
    rep_tables = [_d1(module.mats, group.table, h1_mod.expand(w), range(L)) // L
                  for w in structure.witness_generators]
    lift = _connecting_lift(module, 2)
    return CohomologyGroup(group, module, 2, structure, None, rep_tables,
                           lambda z: structure.coords(h1_mod.reduce(lift(z))))


# ---------------------------------------------------------------------------
# restriction / corestriction


_COHOMOLOGY_CACHE = {}


def _cached_h2_qz(group, modulus, max_order):
    # The order limit is checked before the lookup, so a class computed
    # under a higher limit is not handed to a caller with a lower one.
    _order_limit_check(group, max_order, _h2_unknowns(group, 1))
    key = ("h2qz", (group.order, group.table.tobytes()), modulus)
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


def restrict_qz_class(parent_coh, coords, sub):
    """Restrict a Q/Z degree-two class to a subgroup; returns (coh_A, coords)."""
    return parent_coh.restrict(coords, sub)


def corestrict_qz_table(group, sub, table, modulus):
    """Transfer of a Q/Z-valued 2-cocycle from a subgroup to the group.

    Uses the right transversal with the smallest element of each coset; the
    class of the output is independent of that choice.
    """
    arr = np.asarray(table, dtype=np.int64)
    t, inv = group.table, group.inverse
    els = np.array(sub.elements, dtype=np.int64)
    pos = np.full(group.order, -1, dtype=np.int64)
    pos[els] = np.arange(len(els))
    reps = np.array(coset_representatives(group, els), dtype=np.int64)
    rep_of = np.empty(group.order, dtype=np.int64)
    rep_of[t[np.ix_(els, reps)]] = reps
    # for each representative r and g1, g2: r g1 = h1 t1 and t1 g2 = h2 t2
    rg1 = t[reps]                                   # [r, g1]
    t1 = rep_of[rg1]
    h1 = pos[t[rg1, inv[t1]]]
    t1g2 = t[t1]                                    # [r, g1, g2]
    h2 = pos[t[t1g2, inv[rep_of[t1g2]]]]
    if (h1 < 0).any() or (h2 < 0).any():
        raise DomainError("transfer decomposition left the subgroup")
    return (arr[h1[:, :, None], h2, 0].sum(axis=0) % modulus)[:, :, None]


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
