"""Brauer-group computations for quotient constructions.

Implements the Bogomolov multiplier, the scalar-defect class of a
projective matrix action, the stack Brauer quotient, and closed-form
unramified Brauer groups for linear, projective, Grassmannian, flag, and
toric actions.  Every kernel over the bicyclic family is computed by one
engine: stack the restriction-then-quotient conditions into a single
integer matrix on class coordinates and present the solution set through
`subquotient_structure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .cohomology import (
    GModule,
    bfs_tree,
    corestrict_qz_class,
    h1,
    h2,
    h2_qz_cached,
    restrict_table,
    subgroup_h2_qz,
)
from .cyclotomic import CycloMatrix, as_unit_fraction, exterior_power, hodge_star
from .errors import (
    DomainError,
    SizeLimitError,
    UnsupportedCaseError,
    ValidationError,
)
from .groups import Subgroup, bicyclic_subgroups
from .linalg import _scaled_unit_structure, direct_sum_structure, kernel, subquotient_structure
from .reports import BrauerReport


# ---------------------------------------------------------------------------
# projective actions and scalar-defect classes


@dataclass
class ProjectiveAction:
    """Exact matrix action of G on a projective space, with its scalar
    2-cocycle and the class it generates."""

    group: object
    dimension: int
    gen_matrices: dict
    element_matrices: list
    frac_table: tuple  # (n, n) table of Fractions in [0, 1)
    conductor: int

    def cocycle_denominator(self):
        d = 1
        for row in self.frac_table:
            for v in row:
                d = lcm(d, v.denominator)
        return d

    def int_table(self, modulus):
        n = self.group.order
        out = np.zeros((n, n, 1), dtype=np.int64)
        for a in range(n):
            for b in range(n):
                v = self.frac_table[a][b]
                out[a, b, 0] = (v.numerator * (modulus // v.denominator)) % modulus
        return out

    def gamma_coords(self, modulus, max_order=None):
        coh = h2_qz_cached(self.group, modulus, max_order)
        return coh.reduce(self.int_table(modulus))


def _tree_matrices(group, gen_matrices):
    """Deterministic matrix lifts for every element along the BFS tree."""
    mats = [None] * group.order
    dim = next(iter(gen_matrices.values())).nrows
    conductor = 1
    for m in gen_matrices.values():
        conductor = lcm(conductor, m.m)
    conductor = lcm(conductor, group.exponent())
    ident = CycloMatrix.identity(dim, conductor)
    mats[0] = ident
    given = {g: m.promote(conductor) for g, m in gen_matrices.items()}
    for g, p, x in bfs_tree(group):
        mats[g] = mats[p] * given[x]
    return mats, conductor


def gamma_from_projective_action(group, matrices, max_order=None):
    """Extract the scalar 2-cocycle of a projective matrix action.

    `matrices` maps each group generator to an invertible CycloMatrix.  The
    defect c(g, h) with M_g M_h = c(g, h) M_{gh} must be a scalar and a root
    of unity at the working conductor (the lcm of the input conductors and
    the group exponent); anything else is rejected with the witness pair.
    `max_order` is the finite-coefficient order limit of the H^2 used to
    check the class.
    """
    gen_matrices = {int(g): m for g, m in dict(matrices).items()}
    if set(gen_matrices) != set(group.generators):
        raise ValidationError(
            "need exactly one matrix per group generator",
            witness=sorted(set(group.generators) ^ set(gen_matrices)))
    dims = {m.nrows for m in gen_matrices.values()} | {m.ncols for m in gen_matrices.values()}
    if len(dims) != 1:
        raise ValidationError("matrices must be square of a common dimension")
    for g, m in gen_matrices.items():
        if m.determinant().is_zero():
            raise ValidationError("matrix for a generator is singular", witness=g)
    mats, conductor = _tree_matrices(group, gen_matrices)
    n = group.order
    table = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            prod = mats[a] * mats[b]
            ratio = prod.scalar_ratio(mats[group.table[a][b]])
            if ratio is None:
                raise ValidationError(
                    "matrix defect is not scalar: input is not a projective action",
                    witness=(a, b))
            frac = as_unit_fraction(ratio)
            if frac is None:
                raise ValidationError(
                    "scalar defect is not a root of unity at the working conductor",
                    witness=(a, b))
            table[a][b] = frac
    action = ProjectiveAction(group, next(iter(dims)),
                              {g: m.promote(conductor) for g, m in gen_matrices.items()},
                              mats, tuple(tuple(r) for r in table), conductor)
    # torsion bound: the class is killed by the matrix dimension
    N = lcm(group.order, action.cocycle_denominator())
    coh = h2_qz_cached(group, N, max_order)
    coords = action.gamma_coords(N, max_order)
    killed = tuple((action.dimension * c) % f
                   for c, f in zip(coords, coh.invariant_factors))
    if any(killed):
        raise DomainError("extracted class is not killed by the dimension")
    return action


def tensor_product_matrices(a, b):
    """Kronecker products of the generator matrices of two actions."""
    out = {}
    for g in a.gen_matrices:
        ma = a.gen_matrices[g]
        mb = b.gen_matrices[g]
        rows = []
        for i in range(ma.nrows):
            for k in range(mb.nrows):
                row = []
                for j in range(ma.ncols):
                    for l in range(mb.ncols):
                        row.append(ma.entries[i][j] * mb.entries[k][l])
                rows.append(row)
        out[g] = CycloMatrix(rows)
    return out


@dataclass
class CorrelationAction:
    """Grassmannian action with correlations: an index-2 collineation
    subgroup plus a dual isomorphism for a chosen coset witness."""

    group: object
    dimension: int
    collineation_matrices: dict
    phi: object
    coset_witness: int
    parity: tuple
    pairs: list  # per element: (eps, CycloMatrix)

    def collineation_subgroup(self):
        els = [g for g in range(self.group.order) if self.parity[g] == 0]
        return Subgroup(self.group, tuple(sorted(els)))


def correlation_action(group, collineation_matrices, phi, coset_witness):
    """Build and validate a correlation action on Gr(r, 2r) style data.

    Generators of the group must be the collineation generators together
    with the coset witness.  Commuting collineation generators are checked
    against the duality compatibility condition up to a recognized root of
    unity.
    """
    w = int(coset_witness)
    coll = {int(g): m for g, m in dict(collineation_matrices).items()}
    expected = set(coll) | {w}
    if set(group.generators) != expected:
        raise ValidationError(
            "group generators must be the collineation generators plus the witness",
            witness=sorted(set(group.generators) ^ expected))
    if w in coll:
        raise ValidationError("coset witness cannot carry a collineation matrix")
    dim = phi.nrows
    if phi.ncols != dim:
        raise ValidationError("phi must be square")
    if phi.determinant().is_zero():
        raise ValidationError("phi is singular")
    # parity character: odd exactly on the witness coset
    parity = [None] * group.order
    parity[0] = 0
    for g, p, x in bfs_tree(group):
        parity[g] = (parity[p] + (1 if x == w else 0)) % 2
    for a in range(group.order):
        for b in range(group.order):
            if (parity[a] + parity[b]) % 2 != parity[group.table[a][b]]:
                raise ValidationError(
                    "collineation subgroup is not well defined", witness=(a, b))
    if parity[w] != 1:
        raise ValidationError("coset witness lies in the collineation subgroup")
    # compatibility where the group says the witness and a collineation commute
    for s, m in coll.items():
        if group.table[w][s] == group.table[s][w]:
            twisted = m.transpose() * phi * m
            ratio = twisted.scalar_ratio(phi)
            if ratio is None or as_unit_fraction(ratio) is None:
                raise ValidationError(
                    "duality compatibility fails for a commuting collineation",
                    witness=s)
    conductor = phi.m
    for m in coll.values():
        conductor = lcm(conductor, m.m)
    conductor = lcm(conductor, group.exponent())
    gen_pairs = {g: (0, m.promote(conductor)) for g, m in coll.items()}
    gen_pairs[w] = (1, phi.promote(conductor))
    pairs = [None] * group.order
    pairs[0] = (0, CycloMatrix.identity(dim, conductor))
    for g, p, x in bfs_tree(group):
        pairs[g] = _compose_pair(pairs[p], gen_pairs[x])
    return CorrelationAction(group, dim, coll, phi, w, tuple(parity), pairs)


def _compose_pair(t1, t2):
    e1, m1 = t1
    e2, m2 = t2
    if e1 == 0 and e2 == 0:
        return (0, m1 * m2)
    if e1 == 0 and e2 == 1:
        return (1, m1.transpose().inverse() * m2)
    if e1 == 1 and e2 == 0:
        return (1, m1 * m2)
    return (0, m1.transpose().inverse() * m2)


def _plucker_generator_matrices(action, r):
    """Generator matrices of the induced projective action on Plucker
    coordinates."""
    if isinstance(action, ProjectiveAction):
        return {g: exterior_power(m, r) for g, m in action.gen_matrices.items()}
    n = action.dimension
    if n != 2 * r:
        raise DomainError(f"correlations need dimension {2 * r}, got {n}")
    star = CycloMatrix(hodge_star(n, r))
    out = {}
    for g, m in action.collineation_matrices.items():
        out[g] = exterior_power(m, r)
    out[action.coset_witness] = star * exterior_power(action.phi, r)
    return out


def plucker_beta(action, r, max_order=None):
    """The class of the induced projective-linear action on Plucker
    coordinates, as a ProjectiveAction on the wedge space."""
    n = action.dimension
    if not 1 <= r <= n - 1:
        raise DomainError(f"wedge degree {r} out of range 1..{n - 1}")
    mats = _plucker_generator_matrices(action, r)
    beta_action = gamma_from_projective_action(action.group, mats, max_order)
    if isinstance(action, CorrelationAction):
        N = lcm(action.group.order, beta_action.cocycle_denominator())
        coh = h2_qz_cached(action.group, N, max_order)
        coords = beta_action.gamma_coords(N, max_order)
        doubled = tuple((2 * c) % f for c, f in zip(coords, coh.invariant_factors))
        if any(doubled):
            raise DomainError("correlation class is not 2-torsion")
    return beta_action


@dataclass
class ToricAction:
    """Faithful action on a torus character lattice."""

    group: object
    lattice: GModule

    def __post_init__(self):
        if self.lattice.kind != "lattice":
            raise ValidationError("toric data needs a lattice module")
        if not self.lattice.is_faithful():
            raise ValidationError("toric action must be faithful")


# ---------------------------------------------------------------------------
# the kernel engine


class _Block:
    """One coefficient block of the kernel engine.

    `coh` is the parent H^2 and `sub_side(sub)` returns the subgroup's H^2
    with the embedding of its elements into the parent; it is called once
    per subgroup.
    """

    def __init__(self, coh, sub_side):
        self.coh = coh
        self.factors = list(coh.invariant_factors)
        self._sub_side = sub_side
        self._sides = {}

    def _side(self, sub):
        if sub.elements not in self._sides:
            self._sides[sub.elements] = self._sub_side(sub)
        return self._sides[sub.elements]

    def restrict_class(self, sub, coords):
        """Cocycle-level restriction of one class to the subgroup."""
        coh_a, embed = self._side(sub)
        return list(coh_a.reduce(restrict_table(self.coh.expand(coords), embed)))

    def restrict(self, sub):
        """(subgroup factors, restrictions of the unit classes)."""
        k = len(self.factors)
        cols = [self.restrict_class(sub, [int(i == j) for i in range(k)]) for j in range(k)]
        return list(self._side(sub)[0].invariant_factors), cols


def _qz_block(group, modulus, max_order):
    def sub_side(sub):
        coh_a, _grp, embed = subgroup_h2_qz(sub, modulus, max_order)
        return coh_a, embed

    return _Block(h2_qz_cached(group, modulus, max_order), sub_side)


def _lattice_block(module, max_order):
    def sub_side(sub):
        return h2(module.restricted(sub.elements), max_order=max_order), list(sub.elements)

    return _Block(h2(module, max_order=max_order), sub_side)


def _restrict_direct(blocks, sub, vec):
    """Restriction of a class, in concatenated coordinates, block by block."""
    out, off = [], 0
    for b in blocks:
        out += b.restrict_class(sub, [int(x) for x in vec[off:off + len(b.factors)]])
        off += len(b.factors)
    return out


def _restrictions(blocks, sub, am_coords):
    """The subgroup's factors, the restriction of each unit class and the
    restricted relations, all in the concatenated subgroup coordinates."""
    parts = [b.restrict(sub) for b in blocks]
    factors = [d for a_factors, _ in parts for d in a_factors]
    cols, off = [], 0
    for a_factors, b_cols in parts:
        pad = len(factors) - off - len(a_factors)
        cols += [[0] * off + c + [0] * pad for c in b_cols]
        off += len(a_factors)
    return factors, cols, [_restrict_direct(blocks, sub, rel) for rel in am_coords]


def _kernel_gens(restricted, k, n_rel, modulus):
    """Coordinates of the classes whose restriction to every subgroup lies
    in the span of the restricted relations.

    The unknowns are the k class coordinates and n_rel relation slacks per
    subgroup; one row per subgroup invariant factor d, scaled by modulus/d.
    """
    total_cols = k + n_rel * len(restricted)
    rows = []
    for si, (factors, cols, rels) in enumerate(restricted):
        for i, d in enumerate(factors):
            scale = modulus // d
            row = [(scale * cols[j][i]) % modulus for j in range(k)] + [0] * (total_cols - k)
            for t in range(n_rel):
                row[k + si * n_rel + t] = (-scale * rels[t][i]) % modulus
            rows.append(row)
    return [v[:k] for v in kernel(rows, modulus, total_cols)]


def _gauge(factors):
    """The relations d * e_i that present each factor Z/d."""
    return [[d if i == j else 0 for j in range(len(factors))] for i, d in enumerate(factors)]


def _kernel_report(kind, group, blocks, am_coords, modulus, subgroup_mode="conj",
                   flags=None, notes=None):
    subs = bicyclic_subgroups(group, up_to_conjugacy=(subgroup_mode == "conj"))
    factors = [d for b in blocks for d in b.factors]
    k = len(factors)
    gauge = _gauge(factors)
    relations = gauge + [list(a) for a in am_coords]
    stack = subquotient_structure(k, modulus, _gauge([1] * k), relations)
    restricted = [_restrictions(blocks, sub, am_coords) for sub in subs]
    kernel_gens = _kernel_gens(restricted, k, len(am_coords), modulus)
    unram = subquotient_structure(k, modulus, kernel_gens + gauge, relations)
    # Diagnostics: which stack generators survive in each subgroup quotient.
    # Soundness: every unramified witness, restricted directly and not
    # through the columns or the kernel solver, vanishes there.
    diagnostics = []
    killer = {}
    for sub, (a_factors, cols, rels) in zip(subs, restricted):
        survivors = []
        if stack.witness_generators:  # else the unramified group is zero too
            quotient = _scaled_unit_structure(a_factors, rels)
            for wi, w in enumerate(stack.witness_generators):
                res = [sum(int(w[j]) * cols[j][i] for j in range(k)) % d
                       for i, d in enumerate(a_factors)]
                survives = any(quotient.coords(res))
                survivors.append(survives)
                if survives and wi not in killer:
                    killer[wi] = sub.elements
            for w in unram.witness_generators:
                if any(quotient.coords(_restrict_direct(blocks, sub, w))):
                    raise DomainError(
                        "internal soundness failure: witness does not vanish on a subgroup",
                        witness={"subgroup": list(sub.elements)})
        diagnostics.append({
            "elements": list(sub.elements),
            "order": sub.order,
            "survivors": survivors,
        })
    gen_desc = []
    for i, w in enumerate(unram.witness_generators):
        gen_desc.append(
            f"order-{unram.invariant_factors[i]} class with coordinates {list(map(int, w))}"
            " in the stack basis")
    notes = list(notes or [])
    for wi, els in sorted(killer.items()):
        notes.append(f"stack generator {wi} first obstructed on subgroup {list(els)}")
    notes.append("witness restrictions re-verified directly on every enumerated subgroup")
    return BrauerReport(
        kind=kind,
        group_order=group.order,
        modulus=modulus,
        stack_group=stack,
        unramified_group=unram,
        generator_descriptions=gen_desc,
        subgroup_diagnostics=diagnostics,
        flags=dict(flags or {}),
        notes=notes,
        witnesses={"unramified": [list(map(int, w)) for w in unram.witness_generators],
                   "stack": [list(map(int, w)) for w in stack.witness_generators]},
    )


# ---------------------------------------------------------------------------
# the published formulas


def bogomolov_multiplier(group, subgroup_mode="conj", max_order=None):
    """Kernel of H^2(G, Q/Z) -> product of H^2 over bicyclic subgroups."""
    n = group.order
    modulus = n if n > 1 else 2
    block = _qz_block(group, modulus, max_order)
    return _kernel_report("bogomolov_multiplier", group, [block], [], modulus,
                          subgroup_mode=subgroup_mode)


def br_nr_linear(group, subgroup_mode="conj", max_order=None):
    """Unramified Brauer group of a faithful linear action: equals the
    Bogomolov multiplier, relabelled for the report."""
    report = bogomolov_multiplier(group, subgroup_mode=subgroup_mode, max_order=max_order)
    report.kind = "br_nr_linear"
    return report


def br_stack_quotient(group, coh, am_coords):
    """H^2(G)/<relations> with induced witnesses."""
    k = len(coh.invariant_factors)
    return subquotient_structure(k, coh.modulus, _gauge([1] * k),
                                 _gauge(coh.invariant_factors) + [list(a) for a in am_coords])


def br_nr_projective(action, subgroup_mode="conj", max_order=None):
    """Unramified Brauer group of a faithful action on projective space."""
    group = action.group
    modulus = lcm(max(group.order, 2), action.cocycle_denominator())
    block = _qz_block(group, modulus, max_order)
    gamma = list(action.gamma_coords(modulus, max_order))
    return _kernel_report("br_nr_projective", group, [block], [gamma], modulus,
                          subgroup_mode=subgroup_mode,
                          notes=[f"projective class coordinates {gamma}"])


def br_nr_grassmannian(action, r, subgroup_mode="conj", max_order=None):
    """Unramified Brauer group of the induced Grassmannian action."""
    group = action.group
    n = action.dimension
    if not 1 <= r <= n - 1:
        raise DomainError(f"wedge degree {r} out of range 1..{n - 1}")
    if isinstance(action, CorrelationAction):
        beta_action = plucker_beta(action, r, max_order)
        modulus = lcm(max(group.order, 2), beta_action.cocycle_denominator())
        beta = list(beta_action.gamma_coords(modulus, max_order))
        note = f"correlation Plucker class coordinates {beta}"
    else:
        modulus = lcm(max(group.order, 2), action.cocycle_denominator())
        coh = h2_qz_cached(group, modulus, max_order)
        gamma = action.gamma_coords(modulus, max_order)
        beta = [(r * c) % f for c, f in zip(gamma, coh.invariant_factors)]
        note = f"collineation class: {r} times gamma = {beta}"
    block = _qz_block(group, modulus, max_order)
    return _kernel_report("br_nr_grassmannian", group, [block], [beta], modulus,
                          subgroup_mode=subgroup_mode, notes=[note])


def br_nr_flag(action, r_list, subgroup_mode="conj", max_order=None):
    """Unramified Brauer group of the induced flag-variety action."""
    r_list = [int(r) for r in r_list]
    if any(b <= a for a, b in zip(r_list, r_list[1:])):
        raise DomainError("flag dimensions must be strictly increasing")
    n = action.dimension
    if not all(1 <= r <= n - 1 for r in r_list):
        raise DomainError("flag dimensions out of range")
    m = len(r_list)
    if m == 1:
        report = br_nr_grassmannian(action, r_list[0], subgroup_mode=subgroup_mode,
                                    max_order=max_order)
        report.kind = "br_nr_flag"
        return report
    group = action.group
    if isinstance(action, ProjectiveAction):
        q = 0
        for r in r_list:
            q = gcd(q, r)
        modulus = lcm(max(group.order, 2), action.cocycle_denominator())
        coh = h2_qz_cached(group, modulus, max_order)
        gamma = action.gamma_coords(modulus, max_order)
        am = [[(q * c) % f for c, f in zip(gamma, coh.invariant_factors)]]
        notes = [f"collineation flag relation: q={q} times gamma"]
        block = _qz_block(group, modulus, max_order)
        return _kernel_report("br_nr_flag", group, [block], am, modulus,
                              subgroup_mode=subgroup_mode, notes=notes)
    # correlations: symmetry condition and the corestriction relation
    for i in range(m):
        if r_list[i] + r_list[m - 1 - i] != n:
            raise DomainError(
                "correlation flag actions need the symmetry condition r_i + r_(m+1-i) = n",
                witness=(r_list[i], r_list[m - 1 - i]))
    q = 0
    for r in r_list[: m // 2]:
        q = gcd(q, r)
    sub = action.collineation_subgroup()
    grp_prime, embed = sub.as_group()
    prime_gen_mats = {}
    for gidx in grp_prime.generators:
        eps, mat = action.pairs[embed[gidx]]
        if eps != 0:
            raise DomainError("collineation subgroup carries a correlation matrix")
        prime_gen_mats[gidx] = mat
    base_action = gamma_from_projective_action(grp_prime, prime_gen_mats, max_order)
    denom = base_action.cocycle_denominator()
    if m % 2 == 1:
        beta_action = plucker_beta(action, r_list[m // 2], max_order)
        denom = lcm(denom, beta_action.cocycle_denominator())
    modulus = lcm(max(group.order, 2), denom)
    coh = h2_qz_cached(group, modulus, max_order)
    coh_prime = h2_qz_cached(grp_prime, modulus, max_order)
    gamma_prime = base_action.gamma_coords(modulus, max_order)
    q_gamma = tuple((q * c) % f for c, f in
                    zip(gamma_prime, coh_prime.invariant_factors))
    cores = corestrict_qz_class(coh_prime, q_gamma, sub, coh)
    am = [list(cores)]
    notes = [f"corestriction relation from the collineation subgroup, q={q}"]
    if m % 2 == 1:
        beta = list(beta_action.gamma_coords(modulus, max_order))
        am.append(beta)
        notes.append(f"middle Plucker class coordinates {beta}")
    block = _qz_block(group, modulus, max_order)
    return _kernel_report("br_nr_flag", group, [block], am, modulus,
                          subgroup_mode=subgroup_mode, notes=notes)


def br_nr_toric(action, subgroup_mode="conj", max_order=None):
    """Unramified Brauer group of a faithful torus action via the character
    lattice: kernel over bicyclic subgroups with Q/Z + lattice coefficients."""
    group = action.group
    limit = max_order or 24
    if group.order > limit:
        raise SizeLimitError(f"toric computations are limited to group order {limit}")
    modulus = max(group.order, 2)
    qz_block = _qz_block(group, modulus, max_order)
    lat_block = _lattice_block(action.lattice, max_order)
    report = _kernel_report("br_nr_toric", group, [qz_block, lat_block], [],
                            modulus, subgroup_mode=subgroup_mode)
    report.flags["lattice_rank"] = action.lattice.rank
    return report


def br_stack_fixed_point(group, pic_module, has_fixed_point, max_order=None):
    """Brauer group of the quotient stack when the action has a fixed point:
    the direct sum of H^2(G, Q/Z) and H^1(G, Pic) in canonical form.

    The geometric hypothesis is caller-supplied; the non-split case without
    a fixed point is rejected rather than guessed.
    """
    return direct_sum_structure(
        *_fixed_point_parts(group, pic_module, has_fixed_point, max_order))


def _fixed_point_parts(group, pic_module, has_fixed_point, max_order=None):
    """The summands H^2(G, Q/Z) and H^1(G, Pic) of the fixed-point case."""
    if not has_fixed_point:
        raise UnsupportedCaseError(
            "only the fixed-point case is computable; supply has_fixed_point=True "
            "when the geometric hypothesis holds")
    qz = h2_qz_cached(group, max(group.order, 2), max_order)
    return qz.structure, h1(pic_module, max_order).structure


def stack_fixed_point_report(group, pic_module, has_fixed_point, max_order=None):
    """Report wrapper around `br_stack_fixed_point` for the CLI."""
    h2_part, pic_part = _fixed_point_parts(group, pic_module, has_fixed_point, max_order)
    total = direct_sum_structure(h2_part, pic_part)
    return BrauerReport(
        kind="br_stack_fixed_point",
        group_order=group.order,
        modulus=max(group.order, 2),
        stack_group=total,
        unramified_group=total,
        generator_descriptions=[
            f"H2 part {list(h2_part.invariant_factors)}, "
            f"H1(Pic) part {list(pic_part.invariant_factors)}"],
        subgroup_diagnostics=[],
        flags={"fixed_point": True, "pic_rank": pic_module.rank},
        notes=["stack Brauer group splits as H2(G) + H1(G, Pic) at a fixed point",
               "the unramified subgroup is not computed by this operation"],
    )
