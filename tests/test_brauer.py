from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from brq import cohomology, corpus, verify
from brq.brauer import (
    _kernel_report,
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
from brq.cohomology import CohomologyGroup, GModule, bfs_tree, h2, h2_qz_cached
from brq.cyclotomic import CycloMatrix, CycloNumber, as_unit_fraction, plucker_vector
from brq.errors import DomainError, SizeLimitError, UnsupportedCaseError, ValidationError
from brq.groups import (
    bicyclic_subgroups,
    cyclic_group,
    from_cayley_table,
    from_permutation_generators,
)
from brq.verify import (
    catalog_actions,
    clock_shift_action,
    correlation_klein_gr24,
    load_fixture_json,
    toric_group_from_matrices,
)
from test_groups import CORPUS_AND_WITNESS


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


def tree_matrices(group, matrices):
    """The lifts M_1 = I and M_g = M_p M_x along the BFS tree, one product
    at a time, at the working conductor."""
    given = {int(g): m for g, m in matrices.items()}
    conductor = lcm(group.exponent(), *(m.m for m in given.values()))
    mats = [CycloMatrix.identity(next(iter(given.values())).nrows, conductor)] * group.order
    for g, p, x in bfs_tree(group):
        mats[g] = mats[p] * given[x].promote(conductor)
    return mats


def all_pairs_table(group, matrices):
    """The scalar-defect table by its definition: every product M_a M_b of
    the tree lifts compared with M_ab.  An entry is None where the defect is
    not a scalar or not a root of unity at the working conductor."""
    mats = tree_matrices(group, matrices)

    def defect(a, b):
        ratio = (mats[a] * mats[b]).scalar_ratio(mats[group.table[a][b]])
        return None if ratio is None else as_unit_fraction(ratio)

    return tuple(tuple(defect(a, b) for b in range(group.order)) for a in range(group.order))


def assert_table_is_the_oracle(act):
    assert act.frac_table == all_pairs_table(act.group, act.gen_matrices)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_clock_shift_table_equals_the_all_pairs_oracle(n):
    assert_table_is_the_oracle(clock_shift_action(n))


def test_catalog_tables_equal_the_all_pairs_oracle():
    actions = catalog_actions()
    assert len(actions) == 10
    for _, act in actions:
        assert_table_is_the_oracle(act)


def test_correlation_plucker_table_equals_the_all_pairs_oracle():
    assert_table_is_the_oracle(plucker_beta(correlation_klein_gr24(), 2))


def _shear(n, s):
    """[[1, s], [0, 1]] + I_(n-2)."""
    return CycloMatrix([[1 if i == j else (s if (i, j) == (0, 1) else 0) for j in range(n)]
                        for i in range(n)])


@pytest.mark.parametrize("name", ["pauli_klein", "c3xc3_clock_shift", "clock_shift_5"])
def test_conjugation_by_a_matrix_with_large_entries_keeps_the_table(name):
    """P M_x P^-1 for P = [[1, 2^40], [0, 1]] + I has entries near 2^80, so
    the lifts and edge checks run on dtype=object numerators; the defects
    of P M_g P^-1 are those of M_g."""
    act = clock_shift_action(5) if name == "clock_shift_5" else dict(catalog_actions())[name]
    p, p_inv = _shear(act.dimension, 2 ** 40), _shear(act.dimension, -(2 ** 40))
    conj = {g: p * m * p_inv for g, m in act.gen_matrices.items()}
    assert any(m.num.dtype == object for m in conj.values())
    assert gamma_from_projective_action(act.group, conj).frac_table == act.frac_table



def _diagonal(n, s):
    """diag(1, s) + I_(n-2)."""
    return CycloMatrix([[(s if i == 1 else 1) if i == j else 0 for j in range(n)]
                        for i in range(n)])


def _hadamard():
    """[[1, 1], [1, -1]] / sqrt 2 over Q(zeta_8): 1/sqrt 2 = (zeta_8 - zeta_8^3) / 2."""
    c = (CycloNumber.zeta(8) - CycloNumber.zeta(8, 3)) * CycloNumber.from_rational(Fraction(1, 2))
    return CycloMatrix([[c, c], [c, -c]])


@pytest.mark.parametrize("name, conjugator", [
    ("pauli_klein", "diagonal"), ("pauli_klein", "hadamard"),
    ("c3xc3_clock_shift", "diagonal"), ("clock_shift_5", "diagonal"),
])
def test_conjugation_by_a_matrix_with_fractional_entries_keeps_the_table(name, conjugator):
    """P M_x P^-1 for P = diag(1, 2) + I, or diag(1, 2) H with H the
    Hadamard matrix over Q(zeta_8), has entries with denominator 2 (Pauli X
    becomes [[0, 2], [1/2, 0]]), so the product M_a M_x and the lift M_ax of
    an edge have different denominators; the defects of P M_g P^-1 are
    those of M_g."""
    act = clock_shift_action(5) if name == "clock_shift_5" else dict(catalog_actions())[name]
    p = _diagonal(act.dimension, 2)
    p_inv = _diagonal(act.dimension, Fraction(1, 2))
    if conjugator == "hadamard":
        p, p_inv = p * _hadamard(), _hadamard() * p_inv
    assert p * p_inv == CycloMatrix.identity(act.dimension)
    conj = {g: p * m * p_inv for g, m in act.gen_matrices.items()}
    assert any(m.den != 1 for m in conj.values())
    assert gamma_from_projective_action(act.group, conj).frac_table == act.frac_table

KLEIN_PERM = from_permutation_generators(4, [[1, 0, 3, 2], [2, 3, 0, 1]])


@pytest.mark.parametrize("first, message, witness", [
    ([[1, 1], [0, 1]], "matrix defect is not scalar", (1, 1)),
    ([[0, 2], [2, 0]], "scalar defect is not a root of unity", (1, 1)),
])
def test_gamma_witness_is_an_element_and_a_generator(first, message, witness):
    g = KLEIN_PERM
    mats = {g.generators[0]: CycloMatrix(first), g.generators[1]: CycloMatrix([[1, 0], [0, -1]])}
    with pytest.raises(ValidationError) as info:
        gamma_from_projective_action(g, mats)
    assert info.value.message.startswith(message)
    assert info.value.witness == witness
    a, x = info.value.witness
    assert x in g.generators
    assert all_pairs_table(g, mats)[a][x] is None


@pytest.mark.parametrize("matrices, witness", [
    ({1: [[1, 0], [0, 1]], 2: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
     {"generator": 2, "shape": [3, 3]}),
    ({1: [[1, 0, 0], [0, 1, 0]], 2: [[1, 0], [0, 1]]},
     {"generator": 1, "shape": [2, 3]}),
])
def test_gamma_names_the_first_matrix_of_a_wrong_shape(matrices, witness):
    with pytest.raises(ValidationError) as info:
        gamma_from_projective_action(KLEIN_PERM, {g: CycloMatrix(m) for g, m in matrices.items()})
    assert info.value.message == "matrices must be square of a common dimension"
    assert info.value.witness == witness


def test_gamma_of_the_trivial_group_has_no_matrix_to_read():
    with pytest.raises(ValidationError) as info:
        gamma_from_projective_action(cyclic_group(1), {})
    assert info.value.witness == {"generator": None, "shape": None}


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


def test_correlation_action_errors_carry_witnesses():
    g = corpus.klein_four()
    psi = CycloMatrix([[1, 0], [0, -1]])
    with pytest.raises(ValidationError) as info:
        correlation_action(g, {1: psi, 2: psi}, CycloMatrix.identity(2), 2)
    assert info.value.message == "coset witness cannot carry a collineation matrix"
    assert info.value.witness == 2
    with pytest.raises(ValidationError) as info:
        correlation_action(g, {1: psi}, CycloMatrix([[1, 0, 0], [0, 1, 0]]), 2)
    assert (info.value.message, info.value.witness) == ("phi must be square", {"shape": [2, 3]})
    with pytest.raises(ValidationError) as info:
        correlation_action(g, {1: psi}, CycloMatrix([[1, 1], [1, 1]]), 2)
    assert (info.value.message, info.value.witness) == ("phi is singular", {"shape": [2, 2]})


def test_correlation_action_rejects_a_parity_that_is_no_homomorphism():
    # on Z/3 the witness 1 gets parity 1 and 2 = 1 * 1 parity 0, so
    # parity(1) + parity(2) != parity(0): (1, 2) is the first failing pair
    with pytest.raises(ValidationError) as info:
        correlation_action(cyclic_group(3), {}, CycloMatrix.identity(2), 1)
    assert info.value.witness == (1, 2)


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
        grp, module = toric_group_from_matrices(gens)
        rep = br_nr_toric(ToricAction(grp, module))
        assert rep.unramified_group.invariant_factors == (), name


def test_br_nr_toric_passes_max_order_to_the_subgroups(monkeypatch):
    # C6 x C6 on Z^4: an order-6 rotation on each plane; order 36 is above
    # the order limit 8 set here, so every subgroup solve needs the raised one
    monkeypatch.setenv("BRQ_MAX_ORDER", "8")
    rot = [[0, -1], [1, 1]]
    a = [rot[0] + [0, 0], rot[1] + [0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    b = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0] + rot[0], [0, 0] + rot[1]]
    grp, module = toric_group_from_matrices([a, b])
    assert grp.order == 36
    with pytest.raises(SizeLimitError):
        br_nr_toric(ToricAction(grp, module))
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
    grp, module = toric_group_from_matrices(gens)
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


def test_soundness_pass_catches_a_pairing_that_reads_zero(monkeypatch):
    # with every pairing read as zero the kernel keeps all of H^2 of the
    # order-64 witness; the bar restriction of the soundness pass must see
    # a witness that does not vanish
    pairing = CohomologyGroup.restrict_bicyclic

    def zero(self, coords, sub):
        factors, values = pairing(self, coords, sub)
        return factors, [0] * len(values)

    monkeypatch.setattr(CohomologyGroup, "restrict_bicyclic", zero)
    witness = from_cayley_table(load_fixture_json("b0_order64.json")["group"]["table"])
    with pytest.raises(DomainError, match="internal soundness failure: witness does not "
                                          "vanish on a subgroup"):
        bogomolov_multiplier(witness)


def test_soundness_pass_reads_only_subgroups_with_a_nonzero_quotient(monkeypatch):
    # the witness's B0 = Z/2 is restricted through the bar complex only to
    # the subgroups A whose Q_A = H^2(A, Q/Z) is nonzero: 7 subgroup solves,
    # where reading every subgroup solved 13
    solved = []
    h2_qz = cohomology.h2_qz

    def counting(group, *args, **kwargs):
        solved.append(group.order)
        return h2_qz(group, *args, **kwargs)

    monkeypatch.setattr(cohomology, "_COHOMOLOGY_CACHE", {})
    monkeypatch.setattr(cohomology, "h2_qz", counting)
    witness = from_cayley_table(load_fixture_json("b0_order64.json")["group"]["table"])
    assert bogomolov_multiplier(witness).unramified_group.invariant_factors == (2,)
    assert solved[0] == 64 and len(solved[1:]) == 7 and max(solved[1:]) < 64


@pytest.mark.parametrize("k1, k2", [(0, 1), (0, 2), (1, 1)])
def test_gamma_coords_needs_a_modulus_the_denominator_divides(k1, k2):
    # X = zeta_3^k1 [[0, 1], [1, 0]] and Z = zeta_3^k2 diag(1, -1) on the
    # Klein four group: the cocycle's denominator is 6, not a divisor of 4
    g = corpus.klein_four()
    z3 = CycloNumber.zeta(3)
    x = CycloMatrix([[0, z3 ** k1], [z3 ** k1, 0]])
    z = CycloMatrix([[z3 ** k2, 0], [0, -(z3 ** k2)]])
    act = gamma_from_projective_action(g, {2: x, 1: z})
    assert act.cocycle_denominator() == 6
    assert act.modulus == 12
    with pytest.raises(DomainError) as info:
        act.gamma_coords(4)
    assert info.value.witness == {"modulus": 4, "denominator": 6}
    assert act.gamma_coords() == act.gamma_coords(12)


@pytest.mark.parametrize("action", [pauli_action, correlation_klein_gr24])
def test_br_nr_flag_needs_a_flag_dimension(action):
    with pytest.raises(DomainError) as info:
        br_nr_flag(action(), [])
    assert info.value.witness == {"r_list": []}


@pytest.mark.parametrize("run", [
    lambda mode: bogomolov_multiplier(corpus.dihedral(4), subgroup_mode=mode),
    lambda mode: br_nr_linear(corpus.dihedral(4), subgroup_mode=mode),
    lambda mode: br_nr_projective(pauli_action(), subgroup_mode=mode),
    lambda mode: br_nr_flag(pauli_action(), [1], subgroup_mode=mode),
    lambda mode: br_nr_toric(ToricAction(*toric_group_from_matrices(
        corpus.gl2z_bicyclic_cases()[0][1])), subgroup_mode=mode),
], ids=["b0", "linear", "projective", "flag", "toric"])
@pytest.mark.parametrize("mode", ["conjugacy", "ALL", None])
def test_unknown_subgroup_mode_is_rejected(run, mode):
    with pytest.raises(ValidationError) as info:
        run(mode)
    assert info.value.witness == {"field": "subgroup_mode", "value": mode}


def test_zero_stack_group_reads_no_subgroup(monkeypatch):
    # the Pauli class generates H^2 of the Klein four group, so the stack
    # group and Br_nr are zero, with no restriction computed
    action = verify.pauli_action()

    def refuse(*args):
        raise AssertionError("a subgroup was read")

    monkeypatch.setattr(CohomologyGroup, "restrict_bicyclic", refuse)
    monkeypatch.setattr(CohomologyGroup, "restrict", refuse)
    rep = br_nr_projective(action)
    assert rep.stack_group.invariant_factors == ()
    assert rep.unramified_group.invariant_factors == ()
    assert len(rep.subgroup_diagnostics) == 5
    assert all(row["survivors"] == [] for row in rep.subgroup_diagnostics)


BRUTE_FORCE_GROUPS = dict(corpus.b0_vanishing_corpus())
# (group, seed) draws; the last three give a nonzero Br_nr
BRUTE_FORCE_DRAWS = ([(name, seed) for name in ("extraspecial32_plus", "extraspecial32_minus",
                                                "abelian_2_2_2", "abelian_2_2_2_2",
                                                "heisenberg27")
                      for seed in range(3)]
                     + [("extraspecial32_plus", 16), ("extraspecial32_minus", 20),
                        ("abelian_2_2_2_2", 37)])


def _span(vectors, factors):
    """All elements of the subgroup of Z/f_1 + ... + Z/f_n that `vectors` span."""
    span = {tuple(0 for _ in factors)}
    for v in vectors:
        for _ in range(lcm(1, *factors)):
            span |= {tuple((s + x) % f for s, x, f in zip(t, v, factors)) for t in span}
    return span


@functools.cache
def _bar_restrictions(name):
    """The H^2(G, Q/Z) of a corpus group, all of its bicyclic subgroups and
    the bar restriction of every class to each of them."""
    group = BRUTE_FORCE_GROUPS[name]
    coh = h2_qz_cached(group, group.order)
    subs = bicyclic_subgroups(group, up_to_conjugacy=False)
    classes = itertools.product(*(range(f) for f in coh.invariant_factors))
    res = {x: [tuple(int(c) for c in coh.restrict(list(x), sub)[1]) for sub in subs]
           for x in classes}
    return group, coh, subs, res


@pytest.mark.parametrize("name, seed", BRUTE_FORCE_DRAWS)
def test_kernel_with_relations_matches_brute_force(name, seed):
    group, coh, subs, res = _bar_restrictions(name)
    factors = coh.invariant_factors
    rng = random.Random(seed)
    rels = [[rng.randrange(f) for f in factors] for _ in range(rng.randint(1, 3))]
    # oracle: every class whose bar restriction to every bicyclic subgroup
    # lies in the span of the bar-restricted relations
    spans = [_span([res[tuple(r)][i] for r in rels],
                   coh.subgroup_cohomology(sub).invariant_factors)
             for i, sub in enumerate(subs)]
    unramified = {x for x, rows in res.items() if all(t in s for t, s in zip(rows, spans))}
    rel_span = _span(rels, factors)
    assert len(unramified) % len(rel_span) == 0
    if (name, seed) in BRUTE_FORCE_DRAWS[-3:]:
        assert len(unramified) > len(rel_span)
    index = {sub.elements: i for i, sub in enumerate(subs)}
    for mode in ("conj", "all"):
        rep = _kernel_report("test", group, [coh], rels, coh.modulus, subgroup_mode=mode)
        assert rep.stack_group.order * len(rel_span) == len(res)
        assert rep.unramified_group.order * len(rel_span) == len(unramified)
        for w in rep.witnesses["unramified"]:
            assert tuple(x % f for x, f in zip(w, factors)) in unramified
        stack = [tuple(x % f for x, f in zip(w, factors)) for w in rep.witnesses["stack"]]
        for row in rep.subgroup_diagnostics:
            i = index[tuple(row["elements"])]
            assert row["survivors"] == [res[w][i] not in spans[i] for w in stack]


def assert_b0_is_the_commuting_pair_kernel(group):
    """B0(G) from all commuting pairs agrees with `bogomolov_multiplier`;
    returns B0 as a set of coordinate tuples.

    For abelian A, H^2(A, Q/Z) = Hom(A ^ A, Q/Z) by c -> c(a, b) - c(b, a),
    so a class lies in B0 exactly when rep(a, b) = rep(b, a) mod N for
    every commuting pair (a, b): no subgroup enumeration, no kernel engine.
    """
    coh = h2_qz_cached(group, group.order)
    t, N, factors = group.table, coh.modulus, coh.invariant_factors
    commuting = t == t.T
    pairing = np.array([(tab[..., 0] - tab[..., 0].T)[commuting] for tab in coh.rep_tables],
                       dtype=np.int64).reshape(len(factors), commuting.sum())
    classes = np.array(list(itertools.product(*map(range, factors))), dtype=np.int64)
    vanishing = ~(classes.reshape(len(classes), -1) @ pairing % N).any(axis=1)
    b0 = {tuple(int(x) for x in c) for c in classes[vanishing]}
    rep = bogomolov_multiplier(group)
    assert b0 == _span(rep.witnesses["unramified"], factors)
    assert len(b0) == rep.unramified_group.order
    return b0


@pytest.mark.parametrize("name", list(CORPUS_AND_WITNESS))
def test_b0_is_the_kernel_of_the_pairing_on_all_commuting_pairs(name):
    b0 = assert_b0_is_the_commuting_pair_kernel(CORPUS_AND_WITNESS[name])
    assert (len(b0) == 2) == (name == "witness_order64")
