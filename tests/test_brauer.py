from __future__ import annotations

import random
from fractions import Fraction

import pytest

from brq import corpus
from brq.brauer import (
    CorrelationAction,
    ToricAction,
    bogomolov_multiplier,
    br_nr_flag,
    br_nr_grassmannian,
    br_nr_linear,
    br_nr_projective,
    br_nr_toric,
    br_stack_fixed_point,
    br_stack_quotient,
    correlation_action,
    gamma_from_projective_action,
    plucker_beta,
    tensor_product_matrices,
)
from brq.cohomology import GModule, h2, h2_qz_cached
from brq.cyclotomic import CycloMatrix, CycloNumber, plucker_vector
from brq.errors import DomainError, SizeLimitError, UnsupportedCaseError, ValidationError
from brq.groups import cyclic_group, from_permutation_generators


def pauli_action():
    g = corpus.klein_four()
    x = CycloMatrix([[0, 1], [1, 0]])
    z = CycloMatrix([[1, 0], [0, -1]])
    # generators of klein_four() are [2, 1]: index 2 = (1,0) -> X, 1 = (0,1) -> Z
    return gamma_from_projective_action(g, {2: x, 1: z})


def test_b0_bicyclic_trivial():
    for factors in ([2, 2], [4], [2, 6]):
        g = corpus.abelian_group(factors)
        rep = bogomolov_multiplier(g)
        assert rep.unramified_group.invariant_factors == ()
        assert rep.stack_group.invariant_factors == tuple(
            h2_qz_cached(g, max(g.order, 2)).invariant_factors)


def test_b0_vanishing_small_families():
    for name, g in [("d4", corpus.dihedral(4)), ("q8", corpus.quaternion8()),
                    ("s4", corpus.symmetric(4)), ("a4", corpus.alternating4()),
                    ("z4xz4", corpus.z4_semidirect_z4()),
                    ("heis27", corpus.heisenberg(3))]:
        rep = bogomolov_multiplier(g)
        assert rep.unramified_group.invariant_factors == (), name


def test_b0_full_vs_conjugacy_subgroup_lists():
    for g in (corpus.symmetric(4), corpus.quaternion8(), corpus.dihedral(6)):
        a = bogomolov_multiplier(g, subgroup_mode="conj")
        b = bogomolov_multiplier(g, subgroup_mode="all")
        assert a.unramified_group.invariant_factors == b.unramified_group.invariant_factors


def test_gamma_linear_representation_is_zero():
    g = corpus.klein_four()
    # genuine linear representation: diag signs
    m1 = CycloMatrix([[-1, 0], [0, 1]])
    m2 = CycloMatrix([[1, 0], [0, -1]])
    act = gamma_from_projective_action(g, {2: m1, 1: m2})
    n = max(g.order, 2)
    assert all(c == 0 for c in act.gamma_coords(n))


def test_gamma_pauli_generates():
    act = pauli_action()
    coh = h2_qz_cached(act.group, 4)
    coords = act.gamma_coords(4)
    assert coh.invariant_factors == [2]
    assert coords == (1,)


def test_gamma_tensor_product_adds():
    act = pauli_action()
    tensored = tensor_product_matrices(act, act)
    act2 = gamma_from_projective_action(act.group, tensored)
    n = 4
    g1 = act.gamma_coords(n)
    g2 = act2.gamma_coords(n)
    coh = h2_qz_cached(act.group, n)
    expected = tuple((2 * c) % f for c, f in zip(g1, coh.invariant_factors))
    assert g2 == expected


def test_gamma_rejects_non_projective_input():
    g = corpus.klein_four()
    bad = CycloMatrix([[1, 1], [0, 1]])
    with pytest.raises(ValidationError):
        gamma_from_projective_action(g, {2: bad, 1: CycloMatrix([[1, 0], [0, -1]])})


def test_gamma_torsion_bound():
    act = pauli_action()
    n = 4
    coh = h2_qz_cached(act.group, n)
    coords = act.gamma_coords(n)
    assert all((act.dimension * c) % f == 0
               for c, f in zip(coords, coh.invariant_factors))


def test_br_stack_quotient_examples():
    g = corpus.klein_four()
    coh = h2_qz_cached(g, 4)
    full = br_stack_quotient(g, coh, [])
    assert full.invariant_factors == (2,)
    act = pauli_action()
    killed = br_stack_quotient(g, coh, [list(act.gamma_coords(4))])
    assert killed.invariant_factors == ()


def test_br_nr_projective_pauli():
    act = pauli_action()
    rep = br_nr_projective(act)
    assert rep.stack_group.invariant_factors == ()
    assert rep.unramified_group.invariant_factors == ()


def test_br_nr_projective_gamma_zero_matches_linear():
    g = corpus.klein_four()
    m1 = CycloMatrix([[-1, 0], [0, 1]])
    m2 = CycloMatrix([[1, 0], [0, -1]])
    act = gamma_from_projective_action(g, {2: m1, 1: m2})
    a = br_nr_projective(act)
    b = br_nr_linear(g)
    assert a.stack_group.invariant_factors == b.stack_group.invariant_factors
    assert a.unramified_group.invariant_factors == b.unramified_group.invariant_factors


def test_br_nr_grassmannian_r1_matches_projective():
    act = pauli_action()
    a = br_nr_grassmannian(act, 1)
    b = br_nr_projective(act)
    assert a.stack_group.invariant_factors == b.stack_group.invariant_factors
    assert a.unramified_group.invariant_factors == b.unramified_group.invariant_factors


def test_plucker_beta_collineation_identity():
    # 4-dimensional lift of the Pauli action: X (x) I2, Z (x) I2
    g = corpus.klein_four()
    x4 = CycloMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    z4 = CycloMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    act = gamma_from_projective_action(g, {2: x4, 1: z4})
    for r in (1, 2, 3):
        beta_act = plucker_beta(act, r)
        n = 4
        coh = h2_qz_cached(g, n)
        gamma = act.gamma_coords(n)
        beta = beta_act.gamma_coords(n)
        assert beta == tuple((r * c) % f for c, f in zip(gamma, coh.invariant_factors))


def test_br_nr_grassmannian_klein_lift_r2():
    g = corpus.klein_four()
    x4 = CycloMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    z4 = CycloMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    act = gamma_from_projective_action(g, {2: x4, 1: z4})
    gamma = act.gamma_coords(4)
    assert gamma == (1,)
    rep = br_nr_grassmannian(act, 2)
    # beta = 2 gamma = 0, so the stack group is all of H2 = Z/2 and the
    # kernel over bicyclic subgroups (which include the group itself) is 0
    assert rep.stack_group.invariant_factors == (2,)
    assert rep.unramified_group.invariant_factors == ()


def correlation_klein_on_gr24():
    """K4 = <correlation, collineation> acting on Gr(2, 4)."""
    g = corpus.klein_four()
    # witness element 2 acts by the correlation phi = identity (a quadric),
    # element 1 by a collineation psi with psi^T phi psi = phi
    phi = CycloMatrix.identity(4)
    psi = CycloMatrix([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    return correlation_action(g, {1: psi}, phi, 2)


def test_correlation_action_validation():
    act = correlation_klein_on_gr24()
    assert act.parity[2] == 1 and act.parity[1] == 0
    assert act.collineation_subgroup().order == 2


def test_correlation_beta_two_torsion_and_annihilator_oracle():
    act = correlation_klein_on_gr24()
    beta_act = plucker_beta(act, 2)
    n_mod = max(act.group.order, 2)
    coh = h2_qz_cached(act.group, _lcm(n_mod, beta_act.cocycle_denominator()))
    beta = beta_act.gamma_coords(coh.modulus)
    assert all((2 * c) % f == 0 for c, f in zip(beta, coh.invariant_factors))
    # annihilator oracle on random 2-planes
    from brq.cyclotomic import exterior_power, hodge_star

    k_mat = beta_act.gen_matrices[2]
    rng = random.Random(20240501)
    checked = 0
    while checked < 25:
        basis = [[rng.randrange(-3, 4) for _ in range(4)] for _ in range(2)]
        mat = CycloMatrix(basis)
        pv = plucker_vector(basis, 4)
        if all(x.is_zero() for x in pv):
            continue
        image = k_mat.apply(pv)
        # independent annihilator: solve phi(sigma) . u = 0 by elimination
        phi_rows = [act.phi.apply([CycloNumber.from_rational(v) for v in row])
                    for row in basis]
        ann_basis = _null_space([[x for x in row] for row in phi_rows])
        assert len(ann_basis) == 2
        target = plucker_vector(ann_basis, 4)
        assert _proportional(image, target)
        checked += 1


def _null_space(rows):
    """Exact null space of a small cyclotomic matrix, row reduction."""
    from brq.cyclotomic import CycloNumber

    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    pivots = {}
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        vec = [CycloNumber.from_rational(0)] * ncols
        vec[fc] = CycloNumber.from_rational(1)
        for c, ri in pivots.items():
            vec[c] = -rows[ri][fc]
        out.append(vec)
    return out


def _proportional(a, b):
    pivot = next((i for i, x in enumerate(b) if not x.is_zero()), None)
    if pivot is None:
        return all(x.is_zero() for x in a)
    ratio = a[pivot] * b[pivot].inverse()
    return all((x - ratio * y).is_zero() for x, y in zip(a, b))


def _lcm(a, b):
    from math import gcd

    return a * b // gcd(a, b)


def test_br_nr_grassmannian_correlation_case():
    act = correlation_klein_on_gr24()
    rep = br_nr_grassmannian(act, 2)
    # the group is bicyclic, so the unramified group must vanish
    assert rep.unramified_group.invariant_factors == ()


def test_br_nr_flag_m1_delegates():
    act = pauli_action()
    a = br_nr_flag(act, [1])
    b = br_nr_grassmannian(act, 1)
    assert a.stack_group.invariant_factors == b.stack_group.invariant_factors
    assert a.unramified_group.invariant_factors == b.unramified_group.invariant_factors
    assert a.kind == "br_nr_flag"


def test_br_nr_flag_collineation_gcd():
    g = corpus.klein_four()
    x4 = CycloMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    z4 = CycloMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    act = gamma_from_projective_action(g, {2: x4, 1: z4})
    rep = br_nr_flag(act, [2, 3])
    # q = gcd(2, 3) = 1, so the relation is gamma itself: stack group trivial
    assert rep.stack_group.invariant_factors == ()
    rep2 = br_nr_flag(act, [2])
    assert rep2.stack_group.invariant_factors == (2,)


def test_br_nr_flag_correlation_even_and_odd():
    act = correlation_klein_on_gr24()
    even = br_nr_flag(act, [1, 3])
    assert even.unramified_group.invariant_factors == ()
    odd = br_nr_flag(act, [1, 2, 3])
    assert odd.unramified_group.invariant_factors == ()
    with pytest.raises(DomainError):
        br_nr_flag(act, [1, 2])  # symmetry condition violated


def test_br_nr_toric_bicyclic_gl2z():
    for name, gens in corpus.gl2z_bicyclic_cases():
        g = from_permutation_generators if False else None
        del g
        grp, module = _toric_from_matrices(gens)
        rep = br_nr_toric(ToricAction(grp, module))
        assert rep.unramified_group.invariant_factors == (), name


def _toric_from_matrices(int_mats):
    """Group generated by integer matrices + its lattice module."""
    import numpy as np

    mats = [np.array(m, dtype=np.int64) for m in int_mats]
    seen = {tuple(np.eye(len(mats[0]), dtype=np.int64).flatten())}
    elems = [np.eye(len(mats[0]), dtype=np.int64)]
    frontier = [elems[0]]
    while frontier:
        cur = frontier.pop()
        for m in mats:
            nxt = cur @ m
            key = tuple(nxt.flatten())
            if key not in seen:
                seen.add(key)
                elems.append(nxt)
                frontier.append(nxt)
    # identity-first deterministic ordering
    elems = [elems[0]] + sorted(elems[1:], key=lambda m: tuple(m.flatten()))
    index = {tuple(m.flatten()): i for i, m in enumerate(elems)}
    table = [[index[tuple((a @ b).flatten())] for b in elems] for a in elems]
    from brq.groups import FiniteGroup

    grp = FiniteGroup(table)
    module = GModule.lattice(grp, len(mats[0]),
                             {s: elems[s].tolist() for s in grp.generators})
    return grp, module


def test_br_nr_toric_passes_max_order_to_the_subgroups():
    # C6 x C6 on Z^4: an order-6 rotation on each plane; order 36 is above
    # the default lattice limit, so every subgroup solve needs the raised one
    rot = [[0, -1], [1, 1]]
    a = [rot[0] + [0, 0], rot[1] + [0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    b = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0] + rot[0], [0, 0] + rot[1]]
    grp, module = _toric_from_matrices([a, b])
    assert grp.order == 36
    rep = br_nr_toric(ToricAction(grp, module), max_order=36)
    assert rep.unramified_group.invariant_factors == ()


def test_lattice_h2_passes_max_order_to_its_inner_h1():
    # C6 x C6 x C3 on Z^6 by one rotation per plane: order 108 is above the
    # default finite-coefficient limit 96 of the H^1 inside the lattice solve
    r6, r3 = [[0, -1], [1, 1]], [[0, -1], [1, -1]]
    gens = []
    for i, rot in enumerate([r6, r6, r3]):
        m = [[int(a == b) for b in range(6)] for a in range(6)]
        for a in range(2):
            m[2 * i + a][2 * i:2 * i + 2] = rot[a]
        gens.append(m)
    grp, module = _toric_from_matrices(gens)
    assert grp.order == 108
    h2(module, max_order=128)  # computes; its value has no independent check here
    with pytest.raises(SizeLimitError):
        h2(module, max_order=100)


def test_br_nr_toric_s3_standard_lattice():
    s3 = corpus.symmetric(3)
    # standard 2-dimensional lattice: permutation action on x+y+z = 0
    # generators of symmetric(3) are a transposition and a 3-cycle
    gen_mats = {}
    for s in s3.generators:
        if s3.element_order(s) == 2:
            gen_mats[s] = [[0, 1], [1, 0]]
        else:
            gen_mats[s] = [[0, -1], [1, -1]]
    module = GModule.lattice(s3, 2, gen_mats)
    rep = br_nr_toric(ToricAction(s3, module))
    # regression fixture: value derived by independent brute force in
    # tests/test_acceptance.py; the kernel here is trivial
    assert rep.unramified_group.invariant_factors == ()
    assert rep.stack_group.invariant_factors == tuple(
        _direct_sum_factors(s3, module))


def _direct_sum_factors(group, module):
    from brq.cohomology import h2
    from brq.linalg import direct_sum_structure

    qz = h2_qz_cached(group, max(group.order, 2))
    lat = h2(module)
    return direct_sum_structure(qz.structure, lat.structure).invariant_factors


def test_br_nr_toric_rejects_unfaithful():
    g = corpus.klein_four()
    module = GModule.lattice(g, 2)  # trivial action
    with pytest.raises(ValidationError):
        ToricAction(g, module)


def test_br_stack_fixed_point_examples():
    g = corpus.klein_four()
    pic = GModule.lattice(g, 1)  # Z with trivial action
    total = br_stack_fixed_point(g, pic, True)
    assert total.invariant_factors == (2,)
    with pytest.raises(UnsupportedCaseError):
        br_stack_fixed_point(g, pic, False)
    trivial = cyclic_group(1)
    assert br_stack_fixed_point(trivial, GModule.lattice(trivial, 1), True).invariant_factors == ()


def test_report_rendering_deterministic():
    rep1 = bogomolov_multiplier(corpus.quaternion8())
    rep2 = bogomolov_multiplier(corpus.quaternion8())
    assert rep1.to_json() == rep2.to_json()
    assert rep1.to_text() == rep2.to_text()
    assert "unramified" in rep1.to_text()


def test_max_order_is_checked_before_a_cache_hit():
    g = from_permutation_generators(4, [[1, 0, 3, 2], [1, 2, 0, 3]])
    h2_qz_cached(g, 12)
    with pytest.raises(SizeLimitError) as info:
        bogomolov_multiplier(g, max_order=8)
    assert info.value.witness["order"] == 12
    assert bogomolov_multiplier(g, max_order=12).unramified_group.invariant_factors == ()
