"""Brauer-group computations for quotient constructions.

Implements the Bogomolov multiplier, the scalar-defect class of a
projective matrix action, the stack Brauer quotient, and closed-form
unramified Brauer groups for linear, projective, Grassmannian, flag, and
toric actions.  Every kernel over the bicyclic family is computed by one
engine, `_kernel_report`, which reads each bicyclic subgroup A once: it
restricts the unit classes, builds Q_A = H^2(A)/<restricted relations>,
and lets the images of the unit classes in Q_A give both the kernel rows
on class coordinates and the per-subgroup diagnostics; the solution set is
presented through `subquotient_structure`.

The engine restricts a Q/Z class to a bicyclic subgroup A = <a, b> through
the commutator pairing (`CohomologyGroup.restrict_bicyclic`), with no
subgroup solve: H^2(A, Q/Z) = Hom(A ^ A, Q/Z) is cyclic of order
e = |A| / exp(A), and a class with Z/N representative c restricts to
(c(a, b) - c(b, a)) / (N/e) mod e.  Coboundaries, Bocksteins of
homomorphisms G -> Q/Z and d of constant 1-cochains are symmetric on a
commuting pair, so the value does not depend on the cocycle.  The bar
restriction `CohomologyGroup.restrict` stays where a subgroup's own classes
are needed or no pairing applies: lattice blocks (`br_nr_toric`), the
soundness pass of `_kernel_report`, and `corestrict_qz_class`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .cohomology import (
    GModule,
    _d1,
    _require_cocycle,
    bfs_tree,
    corestrict_qz_class,
    h1,
    h2,
    h2_qz_cached,
)
from .cyclotomic import (
    CycloMatrix,
    _lowest,
    _matmul,
    _proportional,
    _unit_exponents,
    as_unit_fraction,
    exterior_power,
    hodge_star,
)
from .errors import (
    DomainError,
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
    frac_table: tuple  # (n, n) table of Fractions in [0, 1)
    conductor: int

    def cocycle_denominator(self):
        return lcm(*(v.denominator for row in self.frac_table for v in row))

    @property
    def modulus(self):
        """lcm(max(|G|, 2), the cocycle denominator): the modulus of this
        action's class and of its Br_nr reports."""
        return lcm(max(self.group.order, 2), self.cocycle_denominator())

    def gamma_coords(self, modulus=None, max_order=None):
        """Coordinates of the class in H^2(G, Q/Z) at `modulus` (default
        `self.modulus`), which the cocycle denominator must divide."""
        modulus = self.modulus if modulus is None else modulus
        denominator = self.cocycle_denominator()
        if modulus % denominator:
            raise DomainError("the cocycle denominator does not divide the modulus",
                              witness={"modulus": modulus, "denominator": denominator})
        table = np.array([[[v.numerator * (modulus // v.denominator) % modulus] for v in row]
                          for row in self.frac_table], dtype=np.int64)
        return h2_qz_cached(self.group, modulus, max_order).reduce(table)


def _tree_lifts(group, given, m):
    """Numerators (n, d, d, phi) and denominators (n,) of the matrix lifts
    along the BFS tree: M_1 = I and M_g = M_p M_x for each tree edge
    (g, p, x), one batched product per (depth, generator).  The numerators
    turn to dtype=object when a product needs it; the denominators are
    Python ints throughout, so their products are exact."""
    first = given[group.generators[0]]
    dim, phi = first.nrows, first.num.shape[-1]
    num = np.zeros((group.order, dim, dim, phi), dtype=np.int64)
    num[0] = CycloMatrix.identity(dim, m).num
    den = np.ones(group.order, dtype=object)
    depth, levels = {0: 0}, {}
    for g, p, x in bfs_tree(group):
        depth[g] = depth[p] + 1
        levels.setdefault((depth[g], x), []).append((g, p))
    for (_, x), edges in levels.items():
        children, parents = (list(t) for t in zip(*edges))
        prod, d = _lowest(_matmul(m, num[parents], given[x].num), den[parents] * given[x].den)
        if prod.dtype == object:
            num = num.astype(object)
        num[children], den[children] = prod, d
    return num, den


def gamma_from_projective_action(group, matrices, max_order=None):
    """Extract the scalar 2-cocycle of a projective matrix action.

    `matrices` maps each group generator to an invertible CycloMatrix.  The
    defect c(g, h) with M_g M_h = c(g, h) M_{gh} must be a scalar and a root
    of unity at the working conductor m (the lcm of the input conductors and
    the group exponent); anything else is rejected with the witness pair.
    `max_order` is the order limit of the H^2 used to check the class.

    Only the generator edges go through the matrix check: M_a M_x against
    M_{ax} for each element a and generator x.  `_tree_lifts` builds
    M_b = M_p M_x exactly along the BFS tree (M_x is the given matrix: each
    generator is a child of the root), so

        M_a M_b = M_a M_p M_x = c(a, p) M_{ap} M_x = c(a, p) c(ap, x) M_{ab},

    c(a, b) = c(a, p) + c(ap, x) in Q/Z, c(a, 1) = 0, and row a fills in tree
    order.  By induction on the tree depth of b, if every edge defect is a
    scalar, so is every defect; if every edge defect is a root of unity at
    the working conductor, so is every defect, as sums in Q/Z of such
    fractions are again such fractions.  The edges are among the pairs, so
    this accepts exactly what a check of all n^2 pairs accepts, with the
    same table.

    Batch order.  The lifts are built level by level, one batched product
    per (depth, generator), and each generator's n edges are checked at
    once: one batched product M_a M_x over all a, one proportionality test
    against M_{ax} (`cyclotomic._proportional`), and one comparison of the
    pivot entries with the t = lcm(2, m) unit multiples
    (`cyclotomic._unit_exponents`).  The first failing pair in the order
    a ascending, then x in `group.generators` order, is the witness, as if
    the pairs were checked one at a time in that order.

    Singular input.  The generators' determinants are computed only when
    some edge fails, before that edge is reported.  This is safe: when
    every edge passes, every defect is a root of unity, and M_1 = I, so
    M_a M_{a^-1} = c(a, a^-1) I with c(a, a^-1) != 0, and every M_a is
    invertible.  So a singular generator always makes some edge fail, and
    is reported as singular, as when the determinants come first.
    """
    gen_matrices = {int(g): m for g, m in dict(matrices).items()}
    if set(gen_matrices) != set(group.generators):
        raise ValidationError(
            "need exactly one matrix per group generator",
            witness=sorted(set(group.generators) ^ set(gen_matrices)))
    dim = gen_matrices[group.generators[0]].nrows if group.generators else None
    for g in group.generators or [None]:  # the trivial group gives no matrix at all
        shape = [gen_matrices[g].nrows, gen_matrices[g].ncols] if g is not None else None
        if shape != [dim, dim]:
            raise ValidationError("matrices must be square of a common dimension",
                                  witness={"generator": g, "shape": shape})
    conductor = lcm(group.exponent(), *(m.m for m in gen_matrices.values()))
    given = {g: m.promote(conductor) for g, m in gen_matrices.items()}
    num, den = _tree_lifts(group, given, conductor)
    # edges[a, i]: exponent of the defect of (a, generator i), -1 when it is
    # not a root of unity, -2 when it is not a scalar
    edges = np.empty((group.order, len(group.generators)), dtype=np.int64)
    for i, x in enumerate(group.generators):
        target = group.table[:, x]
        ok, a_p, b_p = _proportional(conductor, _matmul(conductor, num, given[x].num),
                                     num[target])
        # a_p is over den_a den_x (the product M_a M_x), b_p over den_ax
        exps = _unit_exponents(conductor, a_p, den * given[x].den, b_p, den[target])
        edges[:, i] = np.where(ok, exps, -2)
    failed = np.flatnonzero(edges.ravel() < 0)
    if failed.size:
        for g, m in gen_matrices.items():
            if m.determinant().is_zero():
                raise ValidationError("matrix for a generator is singular", witness=g)
        a, i = divmod(int(failed[0]), len(group.generators))
        raise ValidationError(
            "matrix defect is not scalar: input is not a projective action"
            if edges[a, i] == -2 else
            "scalar defect is not a root of unity at the working conductor",
            witness=(a, group.generators[i]))
    t = lcm(2, conductor)
    position = {x: i for i, x in enumerate(group.generators)}
    table = np.zeros((group.order, group.order), dtype=np.int64)
    for b, p, x in bfs_tree(group):
        table[:, b] = (table[:, p] + edges[group.table[:, p], position[x]]) % t
    fracs = [Fraction(e, t) for e in range(t)]
    action = ProjectiveAction(group, dim, given,
                              tuple(tuple(fracs[e] for e in row) for row in table.tolist()),
                              conductor)
    # torsion bound: the class is killed by the matrix dimension
    coh = h2_qz_cached(group, action.modulus, max_order)
    coords = action.gamma_coords(max_order=max_order)
    killed = tuple((action.dimension * c) % f
                   for c, f in zip(coords, coh.invariant_factors))
    if any(killed):
        raise DomainError("extracted class is not killed by the dimension")
    return action


def tensor_product_matrices(a, b):
    """Kronecker products of the generator matrices of two actions."""
    return {g: CycloMatrix([[x * y for x in row_a for y in row_b] for row_a in ma.entries
                            for row_b in b.gen_matrices[g].entries])
            for g, ma in a.gen_matrices.items()}


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
        raise ValidationError("coset witness cannot carry a collineation matrix", witness=w)
    dim = phi.nrows
    if phi.ncols != dim:
        raise ValidationError("phi must be square", witness={"shape": [dim, phi.ncols]})
    if phi.determinant().is_zero():
        raise ValidationError("phi is singular", witness={"shape": [dim, dim]})
    # parity character: odd exactly on the witness coset
    parity = [None] * group.order
    parity[0] = 0
    for g, p, x in bfs_tree(group):
        parity[g] = (parity[p] + (1 if x == w else 0)) % 2
    _require_cocycle(_d1, np.ones((group.order, 1, 1), dtype=np.int64), group.table,
                     np.array(parity, dtype=np.int64)[:, None], group.generators,
                     "collineation subgroup is not well defined", lambda diff: diff % 2)
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
    conductor = lcm(phi.m, group.exponent(), *(m.m for m in coll.values()))
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
    out = {g: exterior_power(m, r) for g, m in action.collineation_matrices.items()}
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
        coh = h2_qz_cached(action.group, beta_action.modulus, max_order)
        coords = beta_action.gamma_coords(max_order=max_order)
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


def _restrict_direct(cohs, sub, vec, bar=False):
    """Restriction of a class, in concatenated coordinates, block by block:
    (the subgroup's factors, the restricted coordinates).  A Q/Z block is
    read from the commutator pairing unless `bar` asks for the bar
    restriction, which every other block takes; a zero block restricts to
    zero."""
    factors, out, off = [], [], 0
    for coh in cohs:
        part = [int(x) for x in vec[off:off + len(coh.invariant_factors)]]
        off += len(part)
        if coh.qz and not bar:
            f, res = coh.restrict_bicyclic(part, sub)
        else:
            f = coh.subgroup_cohomology(sub).invariant_factors
            res = coh.restrict(part, sub)[1] if any(part) else [0] * len(f)
        factors += f
        out += res
    return factors, out


def _subgroup_quotient(cohs, sub, k, am_coords):
    """One read of the subgroup A: the quotient Q_A = H^2(A)/<res_A(relations)>
    and the images in it of the k unit classes.  Only the unit classes are
    restricted; restriction is a homomorphism, so each restricted relation
    is the combination of their columns that the relation's coordinates
    give."""
    factors = _restrict_direct(cohs, sub, [0] * k)[0]
    cols = [_restrict_direct(cohs, sub, [int(i == j) for i in range(k)])[1] for j in range(k)]
    rels = [[sum(int(r[j]) * cols[j][i] for j in range(k)) % d for i, d in enumerate(factors)]
            for r in am_coords]
    quotient = _scaled_unit_structure(factors, rels)
    return quotient, [[int(c) for c in quotient.coords(col)] for col in cols]


def _gauge(factors):
    """The relations d * e_i that present each factor Z/d."""
    return [[d if i == j else 0 for j in range(len(factors))] for i, d in enumerate(factors)]


def _kernel_report(kind, group, cohs, am_coords, modulus, subgroup_mode="conj",
                   flags=None, notes=None):
    """Br_nr as the classes of the parent H^2 groups `cohs` (concatenated)
    whose restriction to every bicyclic subgroup lies in the span of the
    restricted relations `am_coords`, modulo those relations.

    Each subgroup A is read once (`_subgroup_quotient`): a class x is
    unramified on A when sum_j x_j images[j] is zero in Q_A, one row per
    invariant factor q of Q_A, scaled by modulus/q; the kernel of the rows
    of all subgroups, over Z/modulus, has one column per class coordinate.
    A stack generator w survives on A when sum_j w_j images[j] is nonzero
    there.  Br_nr lies in the stack group, so when that is zero no subgroup
    is read.

    The kernel reads Q/Z blocks from the commutator pairing.  The soundness
    pass, which runs only when the unramified group is nonzero, restricts
    each witness through the bar restriction instead and tests it against
    the quotient built in the pairing basis.  That is sound because the two
    bases of the cyclic H^2(A, Q/Z) differ by a unit, which preserves every
    subgroup of it, the span of the restricted relations included: the
    relations live in the one Q/Z block whenever there are any (the toric
    report, with a lattice block, has none), and with none the test is that
    the witness restricts to zero.  A subgroup whose Q_A is zero is not
    restricted to: every class vanishes there, so the test cannot fail.
    """
    if subgroup_mode not in ("conj", "all"):
        raise ValidationError("subgroup_mode must be 'conj' or 'all'",
                              witness={"field": "subgroup_mode", "value": subgroup_mode})
    subs = bicyclic_subgroups(group, up_to_conjugacy=(subgroup_mode == "conj"))
    factors = [d for coh in cohs for d in coh.invariant_factors]
    k = len(factors)
    gauge = _gauge(factors)
    relations = gauge + [list(a) for a in am_coords]
    stack = subquotient_structure(k, modulus, _gauge([1] * k), relations)
    # Diagnostics: which stack generators survive in each subgroup quotient.
    # Soundness: every unramified witness, restricted through the bar
    # complex and not through the unit images or the kernel solver,
    # vanishes there.
    diagnostics = [{"elements": list(sub.elements), "order": sub.order, "survivors": []}
                   for sub in subs]
    killer = {}
    unram = stack  # Br_nr lies in the stack group: a zero one reads no subgroup
    if stack.witness_generators:
        reads = [_subgroup_quotient(cohs, sub, k, am_coords) for sub in subs]
        rows = [[(modulus // q) * im[i] % modulus for im in images]
                for quotient, images in reads
                for i, q in enumerate(quotient.invariant_factors)]
        unram = subquotient_structure(k, modulus, kernel(rows, modulus, k) + gauge, relations)
        for sub, row, (quotient, images) in zip(subs, diagnostics, reads):
            for wi, w in enumerate(stack.witness_generators):
                survives = any(sum(int(x) * im[i] for x, im in zip(w, images)) % q
                               for i, q in enumerate(quotient.invariant_factors))
                row["survivors"].append(survives)
                if survives and wi not in killer:
                    killer[wi] = sub.elements
            if not quotient.invariant_factors:
                continue  # every class vanishes in a zero Q_A
            for w in unram.witness_generators:
                if any(quotient.coords(_restrict_direct(cohs, sub, w, bar=True)[1])):
                    raise DomainError(
                        "internal soundness failure: witness does not vanish on a subgroup",
                        witness={"subgroup": list(sub.elements)})
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
    coh = h2_qz_cached(group, modulus, max_order)
    return _kernel_report("bogomolov_multiplier", group, [coh], [], modulus,
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
    group, modulus = action.group, action.modulus
    coh = h2_qz_cached(group, modulus, max_order)
    gamma = list(action.gamma_coords(modulus, max_order))
    return _kernel_report("br_nr_projective", group, [coh], [gamma], modulus,
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
        modulus = beta_action.modulus
        beta = list(beta_action.gamma_coords(modulus, max_order))
        note = f"correlation Plucker class coordinates {beta}"
    else:
        modulus = action.modulus
        coh = h2_qz_cached(group, modulus, max_order)
        gamma = action.gamma_coords(modulus, max_order)
        beta = [(r * c) % f for c, f in zip(gamma, coh.invariant_factors)]
        note = f"collineation class: {r} times gamma = {beta}"
    coh = h2_qz_cached(group, modulus, max_order)
    return _kernel_report("br_nr_grassmannian", group, [coh], [beta], modulus,
                          subgroup_mode=subgroup_mode, notes=[note])


def br_nr_flag(action, r_list, subgroup_mode="conj", max_order=None):
    """Unramified Brauer group of the induced flag-variety action."""
    r_list = [int(r) for r in r_list]
    if not r_list:
        raise DomainError("a flag needs at least one dimension", witness={"r_list": []})
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
        q, modulus = gcd(*r_list), action.modulus
        coh = h2_qz_cached(group, modulus, max_order)
        gamma = action.gamma_coords(modulus, max_order)
        am = [[(q * c) % f for c, f in zip(gamma, coh.invariant_factors)]]
        notes = [f"collineation flag relation: q={q} times gamma"]
        return _kernel_report("br_nr_flag", group, [coh], am, modulus,
                              subgroup_mode=subgroup_mode, notes=notes)
    # correlations: symmetry condition and the corestriction relation
    for i in range(m):
        if r_list[i] + r_list[m - 1 - i] != n:
            raise DomainError(
                "correlation flag actions need the symmetry condition r_i + r_(m+1-i) = n",
                witness=(r_list[i], r_list[m - 1 - i]))
    q = gcd(*r_list[: m // 2])
    sub = action.collineation_subgroup()
    grp_prime, embed = sub.as_group()
    prime_gen_mats = {}
    for gidx in grp_prime.generators:
        eps, mat = action.pairs[embed[gidx]]
        if eps != 0:
            raise DomainError("collineation subgroup carries a correlation matrix")
        prime_gen_mats[gidx] = mat
    base_action = gamma_from_projective_action(grp_prime, prime_gen_mats, max_order)
    actions = [base_action]
    if m % 2 == 1:
        beta_action = plucker_beta(action, r_list[m // 2], max_order)
        actions.append(beta_action)
    # lcm(|G|, every denominator): |G'| divides |G|, which is even
    modulus = lcm(group.order, *(a.modulus for a in actions))
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
    return _kernel_report("br_nr_flag", group, [coh], am, modulus,
                          subgroup_mode=subgroup_mode, notes=notes)


def br_nr_toric(action, subgroup_mode="conj", max_order=None):
    """Unramified Brauer group of a faithful torus action via the character
    lattice: kernel over bicyclic subgroups with Q/Z + lattice coefficients."""
    group = action.group
    modulus = max(group.order, 2)
    cohs = [h2_qz_cached(group, modulus, max_order), h2(action.lattice, max_order=max_order)]
    report = _kernel_report("br_nr_toric", group, cohs, [], modulus,
                            subgroup_mode=subgroup_mode)
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
