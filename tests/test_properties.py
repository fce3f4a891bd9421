"""Property tests: invariants that must not depend on presentation choices."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brq import corpus, verify
from brq.brauer import bogomolov_multiplier, br_nr_projective, gamma_from_projective_action
from brq.cohomology import GModule, h1, h2, h2_qz
from brq.cyclotomic import CycloMatrix, CycloNumber
from brq.errors import ValidationError
from brq.groups import direct_product, from_cayley_table
from brq.iodoc import parse_action_document

from test_brauer import KLEIN_PERM, all_pairs_table, tree_matrices

# group and its Schur multiplier H^2(G, Q/Z); B0 is zero for all of them
GROUPS = {
    "S3": (corpus.symmetric(3), []),
    "D4": (corpus.dihedral(4), [2]),
    "Q8": (corpus.quaternion8(), []),
    "C2xC4": (corpus.abelian_group([2, 4]), [2]),
    "A4": (corpus.alternating4(), [2]),
}


def relabel(group, perm):
    """The Cayley table of `group` with element a renamed to sigma(a); the
    identity keeps label 0 and `perm` renames 1..n-1."""
    sigma = [0] + list(perm)
    n = group.order
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[sigma[a]][sigma[b]] = sigma[group.table[a][b]]
    return from_cayley_table(table)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_relabelling_keeps_h2_and_b0(name):
    group, schur = GROUPS[name]

    def invariants(g):
        report = bogomolov_multiplier(g)
        return (h2_qz(g).invariant_factors, report.stack_group.invariant_factors,
                report.unramified_group.invariant_factors)

    expected = invariants(group)
    assert expected == (schur, tuple(schur), ())

    @settings(max_examples=8, deadline=None, database=None)
    @given(st.permutations(range(1, group.order)))
    def check(perm):
        assert invariants(relabel(group, perm)) == expected

    check()


def mixed_d4_module():
    """D4 on Z/4 + Z/2 by matrices that mix the factors."""
    g = corpus.dihedral(4)
    return GModule.finite(g, [4, 2], {g.generators[0]: [[1, 2], [1, 1]],
                                      g.generators[1]: [[3, 0], [1, 1]]})


def _relabelled_module(module, perm):
    mats = np.empty_like(module.mats)
    mats[[0, *perm]] = module.mats
    return GModule(relabel(module.group, perm), module.kind, factors=module.factors,
                   rank=module.rank, element_mats=mats)


def _relabelled_action(action, perm):
    """The action on the relabelled group, through the matrices of the
    elements that its own generators relabel."""
    group = relabel(action.group, perm)
    mats = tree_matrices(action.group, action.gen_matrices)
    old = {x: a for a, x in enumerate([0, *perm])}
    return gamma_from_projective_action(group, {s: mats[old[s]] for s in group.generators})


def _br_nr(action):
    report = br_nr_projective(action)
    return report.stack_group.invariant_factors, report.unramified_group.invariant_factors


def _h1(module):
    return h1(module).invariant_factors


_D4, _S3 = corpus.dihedral(4), corpus.symmetric(3)
_TORIC_S3 = parse_action_document(
    verify.load_fixture_json("inputs/toric_s3.json")["document"])["toric"].lattice

RELABELLED = {
    "mixed_d4": (mixed_d4_module(), _relabelled_module,
                 lambda module: h2(module).invariant_factors),
    # H^1 of the trivial Z/8, which is Hom(D4, Z/8), is where h2_qz takes
    # its Bockstein sources
    "h1_trivial_z8_d4": (GModule(_D4, "trivial_qz", factors=[8], rank=1), _relabelled_module,
                         _h1),
    "h1_mixed_d4": (mixed_d4_module(), _relabelled_module, _h1),
    "h1_toric_s3": (_TORIC_S3, _relabelled_module, _h1),
    # S3 on Z through the sign: H^1 = Z/2, where the toric lattice has none
    "h1_sign_s3": (GModule.lattice(_S3, 1, {_S3.generators[0]: [[-1]], _S3.generators[1]: [[1]]}),
                   _relabelled_module, _h1),
    **{name: (act, _relabelled_action, _br_nr) for name, act in verify.catalog_actions()
       if name in ("threefold_signs", "c3xc3_clock_shift")},
}


@pytest.mark.parametrize("name", sorted(RELABELLED))
def test_relabelling_keeps_h2_of_a_module_and_br_nr(name):
    # each relabelling picks its own generators, so the gauge tree of the
    # bar solver differs from one draw to the next
    subject, relabelled, invariants = RELABELLED[name]
    expected = invariants(subject)

    @settings(max_examples=12, deadline=None, database=None)
    @given(st.permutations(range(1, subject.group.order)))
    def check(perm):
        assert invariants(relabelled(subject, perm)) == expected

    check()


def invariant_form(orders):
    """Invariant factors (ascending, units dropped) of the direct sum of the
    cyclic groups Z/m, m in `orders`, from their primary parts."""
    powers = {}
    for m in orders:
        p = 2
        while m > 1:
            q = 1
            while m % p == 0:
                m, q = m // p, q * p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    length = max((len(qs) for qs in powers.values()), default=0)
    out = [1] * length
    for qs in powers.values():
        for i, q in enumerate(sorted(qs)):
            out[length - len(qs) + i] *= q
    return tuple(out)


# group and its abelianization, for the Kunneth formula
ABELIANIZATION = {
    "S3": [2], "D4": [2, 2], "Q8": [2, 2], "C2xC4": [2, 4], "A4": [3],
    "C2": [2], "C3": [3], "C4": [4],
}
CYCLIC = {"C2": corpus.abelian_group([2]), "C3": corpus.abelian_group([3]),
          "C4": corpus.abelian_group([4])}


def group_and_schur(name):
    return GROUPS[name] if name in GROUPS else (CYCLIC[name], [])


@pytest.mark.parametrize("left, right", [
    ("S3", "C2"), ("D4", "C2"), ("Q8", "C2"), ("S3", "C3"), ("A4", "C2"),
    ("C2xC4", "C4"), ("D4", "S3"),
])
def test_kunneth_for_h2_of_a_direct_product(left, right):
    """H^2(G x H, Q/Z) = H^2(G) + H^2(H) + G^ab (x) H^ab."""
    (g, schur_g), (h, schur_h) = group_and_schur(left), group_and_schur(right)
    tensor = [gcd(a, b) for a in ABELIANIZATION[left] for b in ABELIANIZATION[right]]
    expected = invariant_form(schur_g + schur_h + tensor)
    assert tuple(h2_qz(direct_product(g, h)).invariant_factors) == expected


def test_invariant_form_merges_primary_parts():
    assert invariant_form([2, 3, 4, 1, 6]) == (2, 6, 12)
    assert invariant_form([]) == ()


@settings(max_examples=6, deadline=None, database=None)
@given(st.sampled_from(sorted(GROUPS)), st.sampled_from(sorted(CYCLIC)))
def test_b0_of_a_product_with_a_cyclic_group_is_unchanged(name, cyclic):
    """B0(G x A) = B0(G) for abelian A (B0 is an isoclinism invariant)."""
    g, _ = GROUPS[name]
    product = direct_product(g, CYCLIC[cyclic])
    assert (bogomolov_multiplier(product).unramified_group.invariant_factors
            == bogomolov_multiplier(g).unramified_group.invariant_factors)


def test_b0_of_the_order64_witness_times_c2_is_z2():
    doc = verify.load_fixture_json("b0_order64.json")
    witness = from_cayley_table(doc["group"]["table"])
    product = direct_product(witness, CYCLIC["C2"])
    assert bogomolov_multiplier(witness).unramified_group.invariant_factors == (2,)
    report = bogomolov_multiplier(product, max_order=product.order)
    assert report.unramified_group.invariant_factors == (2,)


# entries of the random Klein-four matrices: -2..2, i = zeta_4 and +-1/2,
# so that products and lifts carry different denominators.  A draw keeps
# all four entries, or only the diagonal or the anti-diagonal ones, so that
# projective (monomial) pairs are common.
ENTRIES = ([CycloNumber.from_rational(v) for v in range(-2, 3)] + [CycloNumber.zeta(4)]
           + [CycloNumber.from_rational(Fraction(v, 2)) for v in (1, -1)])
SHAPES = {"full": (1, 1, 1, 1), "diagonal": (1, 0, 0, 1), "anti-diagonal": (0, 1, 1, 0)}
klein_matrix = st.tuples(st.sampled_from(sorted(SHAPES)),
                         st.lists(st.integers(0, len(ENTRIES) - 1), min_size=4, max_size=4))
PAULI_X, PAULI_Z = ("full", [2, 3, 3, 2]), ("diagonal", [3, 0, 0, 1])


@settings(max_examples=150, deadline=None, database=None)
@given(klein_matrix, klein_matrix)
@example(PAULI_X, PAULI_Z)
@example(("full", [3, 3, 2, 3]), PAULI_Z)
@example(("anti-diagonal", [0, 4, 4, 0]), PAULI_Z)
@example(PAULI_X, ("diagonal", [3, 0, 0, 2]))
@example(("full", [1, 2, 2, 1]), ("full", [3, 3, 3, 3]))
@example(("anti-diagonal", [0, 4, 6, 0]), PAULI_Z)
def test_gamma_accepts_exactly_what_the_all_pairs_oracle_accepts(first, second):
    """Random 2 x 2 matrices on the Klein four: the generator-edge check
    accepts exactly when every pair's defect is a root of unity, with the
    oracle's table, and a rejection names the first pair (element,
    generator) that fails in the oracle.  A draw with a singular matrix is
    refused as singular, with the first singular generator as witness."""
    g = KLEIN_PERM
    mats = {}
    for x, (shape, picks) in zip(g.generators, (first, second)):
        entries = [ENTRIES[i] if keep else ENTRIES[2] for i, keep in zip(picks, SHAPES[shape])]
        mats[x] = CycloMatrix([entries[:2], entries[2:]])
    singular = [x for x in g.generators if mats[x].determinant().is_zero()]
    if singular:
        with pytest.raises(ValidationError) as info:
            gamma_from_projective_action(g, mats)
        assert info.value.message == "matrix for a generator is singular"
        assert info.value.witness == singular[0]
        return
    oracle = all_pairs_table(g, mats)
    accepted = all(v is not None for row in oracle for v in row)
    try:
        act = gamma_from_projective_action(g, mats)
    except ValidationError as err:
        assert not accepted
        assert err.witness == next((a, x) for a in range(g.order) for x in g.generators
                                   if oracle[a][x] is None)
    else:
        assert accepted and act.frac_table == oracle
