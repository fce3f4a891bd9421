from __future__ import annotations

import numpy as np
import pytest

from brq import corpus, verify
from brq.errors import DomainError, SizeLimitError, ValidationError
from brq.groups import (
    Subgroup,
    abelian_invariants,
    abelian_structure,
    all_subgroups,
    bicyclic_subgroups,
    central_extension_from_cocycle,
    coset_representatives,
    cyclic_group,
    direct_product,
    from_cayley_table,
    from_permutation_generators,
    quotient_group,
    semidirect_product,
    subgroups_of_index_at_most,
)


def test_perm_closure_s3():
    g = from_permutation_generators(3, [[1, 0, 2], [1, 2, 0]])
    assert g.order == 6
    assert not g.is_abelian()


def test_perm_closure_klein():
    g = from_permutation_generators(4, [[1, 0, 3, 2], [2, 3, 0, 1]])
    assert g.order == 4
    assert abelian_invariants(g.subgroup(range(4))) == [2, 2]


def test_perm_closure_a4_in_s6():
    g = corpus.alternating4(nonstandard_in_s6=True)
    assert g.order == 12


def test_perm_closure_size_limit():
    # S_8 (order 40320) from an 8-cycle and a transposition: the closure
    # stops at the constant construction cap
    with pytest.raises(SizeLimitError) as info:
        from_permutation_generators(8, [[1, 2, 3, 4, 5, 6, 7, 0], [1, 0, 2, 3, 4, 5, 6, 7]])
    assert info.value.witness == {"max_order": 4096}


@pytest.mark.parametrize("build", [
    lambda: cyclic_group(4097),
    lambda: direct_product(cyclic_group(64), cyclic_group(65)),
    lambda: semidirect_product(cyclic_group(64), cyclic_group(65), lambda y: range(64)),
    lambda: central_extension_from_cocycle(cyclic_group(1), 5000, [[0]]),
    lambda: central_extension_from_cocycle(cyclic_group(2), 2049, [[0, 0], [0, 0]]),
])
def test_every_constructor_refuses_an_order_above_the_limit_before_building(build):
    # each of these would allocate a table of more than 16 million entries
    with pytest.raises(SizeLimitError) as info:
        build()
    assert info.value.witness == {"max_order": 4096}


def test_cayley_trivial_and_cyclic():
    g = from_cayley_table([[0]])
    assert g.order == 1
    z3 = from_cayley_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert z3.order == 3
    assert z3.element_order(1) == 3


def test_cayley_identity_relabelled():
    # identity is element 1 in this table for Z/2
    g = from_cayley_table([[1, 0], [0, 1]])
    assert g.order == 2
    assert g.table[0][0] == 0


def test_cayley_associativity_witness():
    bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(ValidationError):
        from_cayley_table(bad)


def test_cayley_nonassociative_loop_names_triple():
    # a Latin square with identity that is not associative
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ValidationError) as err:
        from_cayley_table(loop)
    g, a, b = err.value.witness
    t = loop
    assert t[t[g][a]][b] != t[g][t[a][b]]


def test_bicyclic_z4():
    subs = bicyclic_subgroups(cyclic_group(4))
    assert [s.order for s in subs] == [1, 2, 4]


def test_bicyclic_klein():
    subs = bicyclic_subgroups(corpus.klein_four())
    assert [s.order for s in subs] == [1, 2, 2, 2, 4]


def test_bicyclic_q8():
    g = corpus.quaternion8()
    subs = bicyclic_subgroups(g)
    # exhaustive oracle over commuting pairs
    assert len(subs) == 5
    assert sorted(s.order for s in subs) == [1, 2, 4, 4, 4]
    assert all(len(abelian_invariants(s)) <= 2 for s in subs)


def test_bicyclic_conjugacy_vs_full():
    g = corpus.symmetric(4)
    full = bicyclic_subgroups(g, up_to_conjugacy=False)
    reps = bicyclic_subgroups(g, up_to_conjugacy=True)
    assert len(reps) < len(full)
    rep_keys = {s.elements for s in reps}
    for s in full:
        orbit = {tuple(sorted(g.conj(x, a) for a in s.elements)) for x in range(g.order)}
        assert rep_keys & orbit


def _bicyclic_by_closure(g, up_to_conjugacy):
    """The element tuples of the bicyclic subgroups, in order, by closing
    every commuting pair: the reference `bicyclic_subgroups` must match."""
    seen = set()
    for a in range(g.order):
        for b in range(a, g.order):
            if g.table[a][b] == g.table[b][a]:
                seen.add(tuple(g.closure([a, b])))
    subs = sorted(seen, key=lambda s: (len(s), s))
    if not up_to_conjugacy:
        return subs
    reps, claimed = [], set()
    for s in subs:
        if s in claimed:
            continue
        orbit = {s} | {tuple(sorted(g.conj(x, a) for a in s)) for x in range(g.order)}
        claimed |= orbit
        reps.append(min(orbit))
    return sorted(reps, key=lambda s: (len(s), s))


def _corpus_and_witness():
    groups = dict(corpus.b0_vanishing_corpus())
    doc = verify.load_fixture_json("b0_order64.json")
    groups["witness_order64"] = from_cayley_table(doc["group"]["table"])
    return groups


CORPUS_AND_WITNESS = _corpus_and_witness()


@pytest.mark.parametrize("name", list(CORPUS_AND_WITNESS))
def test_bicyclic_subgroups_match_the_closure_of_every_commuting_pair(name):
    g = CORPUS_AND_WITNESS[name]
    for mode in (True, False):
        subs = bicyclic_subgroups(g, up_to_conjugacy=mode)
        assert [s.elements for s in subs] == _bicyclic_by_closure(g, mode)
        for s in subs:
            a, b = s.pair
            assert g.table[a][b] == g.table[b][a]
            assert a in s.elements and b in s.elements
            assert tuple(g.closure([a, b])) == s.elements
            plain = Subgroup(g, s.elements)
            assert plain == s and hash(plain) == hash(s)


def test_subgroup_rejects_a_pair_that_does_not_generate_it():
    klein = corpus.klein_four()
    with pytest.raises(ValidationError, match="does not generate"):
        Subgroup(klein, (0, 1, 2, 3), (1, 1))
    s3 = corpus.symmetric(3)
    a, b = next((a, b) for a in range(6) for b in range(6) if s3.table[a][b] != s3.table[b][a])
    with pytest.raises(ValidationError, match="does not commute"):
        Subgroup(s3, tuple(range(6)), (a, b))
    with pytest.raises(ValidationError, match="does not commute"):
        Subgroup(klein, (0, 1), (1, 2))


def test_abelian_structure_examples():
    assert abelian_invariants(cyclic_group(6).subgroup(range(6))) == [6]
    g = direct_product(cyclic_group(2), cyclic_group(4))
    assert abelian_invariants(g.subgroup(range(8))) == [2, 4]
    trivial = cyclic_group(1)
    assert abelian_invariants(trivial.subgroup([0])) == []


def test_abelian_structure_witnesses():
    g = direct_product(cyclic_group(2), cyclic_group(4))
    factors, witnesses = abelian_structure(g.subgroup(range(8)))
    assert factors == [2, 4]
    assert [g.element_order(w) for w in witnesses] == [2, 4]
    span = g.closure(witnesses)
    assert len(span) == 8


def test_abelian_structure_rejects_nonabelian():
    g = corpus.symmetric(3)
    with pytest.raises(DomainError) as err:
        abelian_structure(g.subgroup(range(6)))
    a, b = err.value.witness
    assert g.table[a][b] != g.table[b][a]


def test_semidirect_trivial_action_is_direct():
    a = cyclic_group(3)
    b = cyclic_group(4)
    sd = semidirect_product(a, b, lambda y: list(range(3)))
    dp = direct_product(a, b)
    assert np.array_equal(sd.table, dp.table)


def test_semidirect_inversion_s3():
    a = cyclic_group(3)
    sd = semidirect_product(a, cyclic_group(2), lambda y: [0, 2, 1] if y else [0, 1, 2])
    assert sd.order == 6
    involutions = [x for x in range(6) if x and sd.table[x][x] == 0]
    assert len(involutions) == 3


def test_semidirect_faithful_z5_z4():
    g = corpus.metacyclic(5, 4, 2)
    assert g.order == 20
    assert g.center() == [0]


def test_semidirect_rejects_bad_action():
    a = cyclic_group(4)
    with pytest.raises(ValidationError):
        semidirect_product(a, cyclic_group(2), lambda y: [0, 2, 1, 3] if y else [0, 1, 2, 3])


def test_central_extension_trivial_cocycle():
    base = corpus.klein_four()
    zero = [[0] * 4 for _ in range(4)]
    g = central_extension_from_cocycle(base, 2, zero)
    assert g.order == 8
    assert g.is_abelian()
    assert abelian_invariants(g.subgroup(range(8))) == [2, 2, 2]


def test_central_extension_pauli_types():
    d4 = central_extension_from_cocycle(corpus.klein_four(), 2, corpus.pauli_cocycle_klein())
    assert d4.order == 8 and not d4.is_abelian()
    q8 = corpus.quaternion_via_cocycle()
    # quaternion group: unique involution
    assert sum(1 for x in range(8) if q8.element_order(x) == 2) == 1
    assert sum(1 for x in range(8) if d4.element_order(x) == 2) == 5


def test_central_extension_n1_returns_same_table():
    base = corpus.symmetric(3)
    g = central_extension_from_cocycle(base, 1, [[0] * 6 for _ in range(6)])
    assert np.array_equal(g.table, base.table)


def test_central_extension_bad_cocycle_witness():
    base = cyclic_group(2)
    bad = [[0, 0], [0, 1]]
    # normalized but fails the cocycle identity? c(1,1)=1 is a valid cocycle
    # for Z/2 (it builds Z/4), so corrupt normalization instead
    with pytest.raises(ValidationError):
        central_extension_from_cocycle(base, 2, [[1, 0], [0, 0]])


def test_central_extension_rejects_a_non_cocycle():
    # on Z/3, c(1, 1) = 1 alone is normalized; (dc)(1, 1, 2) = c(1, 2) -
    # c(2, 2) + c(1, 0) - c(1, 1) = -1 is the first failure in row-major order
    bad = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    with pytest.raises(ValidationError) as info:
        central_extension_from_cocycle(cyclic_group(3), 3, bad)
    assert info.value.witness == (1, 1, 2)


def test_central_extension_quotient_recovers_base():
    base = corpus.klein_four()
    g = central_extension_from_cocycle(base, 2, corpus.pauli_cocycle_klein())
    centre_factor = g.subgroup(g.closure([4]))  # (1, identity) sits at index 1*4+0
    q, _ = quotient_group(g, centre_factor)
    assert np.array_equal(q.table, base.table)


def test_quotient_and_abelianization():
    g = corpus.symmetric(3)
    q, proj = quotient_group(g, g.commutator_subgroup())
    assert q.order == 2
    assert proj[0] == 0


def test_coset_representatives():
    g = corpus.symmetric(3)
    sub = g.generated_subgroup([g.generators[1]])  # the 3-cycle
    reps = coset_representatives(g, sub.elements)
    assert len(reps) == 2
    assert reps[0] == 0


def test_all_subgroups_s3():
    subs = all_subgroups(corpus.symmetric(3))
    assert len(subs) == 6  # 1, three C2, C3, S3
    idx2 = subgroups_of_index_at_most(corpus.symmetric(3), 2)
    assert sorted(s.order for s in idx2) == [3, 6]


def test_dicyclic_and_extraspecial_orders():
    assert corpus.quaternion8().order == 8
    assert corpus.dicyclic(4).order == 16
    assert corpus.heisenberg(3).order == 27
    assert corpus.heisenberg(3).exponent() == 3
    assert corpus.extraspecial27_exponent9().exponent() == 9
    plus = corpus.extraspecial32(0)
    minus = corpus.extraspecial32(1)
    assert plus.order == minus.order == 32
    assert sum(1 for x in range(32) if plus.element_order(x) == 2) == 19
    assert sum(1 for x in range(32) if minus.element_order(x) == 2) == 11


def test_corpus_has_thirty_groups():
    entries = corpus.b0_vanishing_corpus()
    assert len(entries) >= 30
    assert all(g.order <= 64 for _, g in entries)


def test_scalar_accessors_return_python_ints():
    # the table is an int64 array; what reaches reports and keys stays int
    from brq.cohomology import bfs_tree

    g = corpus.symmetric(4)
    values = [*g.generators, *g.closure([1, 2]), g.element_order(3), g.conj(1, 2),
              g.power(3, 5), g.exponent(), *g.center(), *coset_representatives(g, [0, 1])]
    for s in bicyclic_subgroups(g):
        values += [*s.elements, *s.pair]
    for triple in bfs_tree(g) + bfs_tree(g, left=True):
        values += triple
    q, proj = quotient_group(g, g.commutator_subgroup())
    values += [*proj, *q.generators, *abelian_structure(corpus.abelian_group([2, 4]))[1]]
    assert {type(v) for v in values} == {int}
