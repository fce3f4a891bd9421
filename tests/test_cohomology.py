from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brq import corpus
from brq.cohomology import (
    GModule,
    _BarH2Solver,
    _d1,
    _d2,
    connecting_bockstein,
    corestrict_qz_class,
    h1,
    h2,
    h2_qz,
    h2_qz_cached,
    restrict_qz_class,
    small_complex_h,
    subgroup_h2_qz,
)
from brq.errors import DomainError, SizeLimitError, ValidationError
from brq.groups import (
    Subgroup,
    bicyclic_subgroups,
    cyclic_group,
    direct_product,
    homs_to_cyclic,
)
from brq.iodoc import parse_action_document
from brq.linalg import HowellAccumulator, kernel, subquotient_structure
from test_properties import relabel

TORIC_S3 = (Path(__file__).resolve().parent.parent / "src" / "brq" / "fixtures" / "inputs"
            / "toric_s3.json")


def test_h1_negation_action():
    g = cyclic_group(2)
    m = GModule.lattice(g, 1, {1: [[-1]]})
    assert h1(m).invariant_factors == [2]


def test_h1_trivial_qz_s3():
    g = corpus.symmetric(3)
    m = GModule(g, "trivial_qz", factors=[6])
    assert h1(m).invariant_factors == [2]


def test_h1_integer_trivial_klein():
    g = corpus.klein_four()
    m = GModule.lattice(g, 1)
    assert h1(m).invariant_factors == []


def test_h2_negation_vanishes():
    g = cyclic_group(2)
    m = GModule.lattice(g, 1, {1: [[-1]]})
    assert h2(m).invariant_factors == []


def test_h2_integer_trivial_cyclic():
    for n in (2, 3, 4, 6):
        g = cyclic_group(n)
        m = GModule.lattice(g, 1)
        assert h2(m).invariant_factors == [n]


def test_h2_klein_mod4_matches_small_complex():
    g = corpus.klein_four()
    m = GModule.finite(g, [4])
    bar = h2(m).invariant_factors
    small = small_complex_h(g, (2, 1), GModule.finite(g, [4]), 2).invariant_factors
    assert bar == list(small)
    assert bar == [2, 2, 2]


def test_h2_qz_cyclic_vanishes():
    for n in (1, 2, 3, 5, 8, 12):
        assert h2_qz(cyclic_group(n)).invariant_factors == []


def test_h2_qz_bicyclic_gcd():
    g = direct_product(cyclic_group(6), cyclic_group(4))
    assert h2_qz(g).invariant_factors == [2]
    g2 = direct_product(cyclic_group(3), cyclic_group(9))
    assert h2_qz(g2).invariant_factors == [3]


def test_h2_qz_rank3_abelian():
    # H2 of Z/2 x Z/4 x Z/8 over Q/Z is the sum of pairwise gcds:
    # Z/2 + Z/2 + Z/4, i.e. invariant factors [2, 2, 4]
    g = corpus.abelian_group([2, 4, 8])
    assert h2_qz(g).invariant_factors == [2, 2, 4]


def test_h2_qz_klein_and_a4():
    assert h2_qz(corpus.klein_four()).invariant_factors == [2]
    a4 = corpus.alternating4()
    assert h2_qz(a4).invariant_factors == [2]


def test_h2_qz_s3_and_q8():
    assert h2_qz(corpus.symmetric(3)).invariant_factors == []
    assert h2_qz(corpus.quaternion8()).invariant_factors == []
    assert h2_qz(corpus.symmetric(4)).invariant_factors == [2]


def test_h2_qz_modulus_independence():
    g = corpus.klein_four()
    assert h2_qz(g, 4).invariant_factors == h2_qz(g, 8).invariant_factors == [2]
    a4 = corpus.alternating4()
    assert h2_qz(a4, 12).invariant_factors == h2_qz(a4, 24).invariant_factors


def test_h2_qz_size_limit():
    with pytest.raises(SizeLimitError):
        h2_qz(cyclic_group(97), max_order=96)


def test_h2_qz_refuses_an_over_limit_group_before_the_bockstein_work(monkeypatch):
    def unreachable(*args):
        raise AssertionError("Hom(G, Z/N) was built for a group over the limit")

    monkeypatch.setattr("brq.cohomology.homs_to_cyclic", unreachable)
    with pytest.raises(SizeLimitError) as info:
        h2_qz(corpus.abelian_group([2] * 7))
    assert info.value.witness == {"order": 128, "unknowns": 7 * 127}


def test_bockstein_zero_and_generator():
    g = cyclic_group(2)
    zero = connecting_bockstein(g, [0, 0], 2)
    assert not zero.any()
    boc = connecting_bockstein(g, [0, 1], 2)
    assert boc[1, 1, 0] == 1
    # its class generates H^2(Z/2, Z/2)
    m = GModule.finite(g, [2])
    coh = h2(m)
    assert coh.invariant_factors == [2]
    assert coh.reduce(boc) == (1,)
    # and it dies in the Q/Z realization
    qz = h2_qz(g)
    assert qz.invariant_factors == []


def test_bockstein_rejects_non_homomorphism():
    g = cyclic_group(4)
    with pytest.raises(ValidationError) as info:
        connecting_bockstein(g, [0, 1, 0, 0], 4)
    # chi(1) + chi(1) - chi(1 * 1) = 2 is the first nonzero value mod 4
    assert info.value.witness == (1, 1)


def test_bockstein_classes_span_qz_kernel():
    # exactness: the connecting images are exactly the kernel of
    # H^2(G, Z/N) -> H^2(G, Q/Z); compare orders
    g = corpus.klein_four()
    n = 4
    m = GModule.finite(g, [n])
    plain = h2(m)
    qz = h2_qz(g, n)
    from brq.groups import homs_to_cyclic

    img_coords = [plain.reduce(connecting_bockstein(g, chi, n))
                  for chi in homs_to_cyclic(g, n)]
    # subgroup generated by the images inside plain
    from brq.linalg import quotient_of_structure

    quot = quotient_of_structure(plain.structure, img_coords)
    kernel_order = plain.structure.order // quot.order
    expected_kernel = plain.structure.order // qz.structure.order
    assert kernel_order == expected_kernel


def test_reduce_roundtrip_witnesses():
    g = corpus.abelian_group([2, 4])
    coh = h2_qz(g)
    k = len(coh.invariant_factors)
    for i in range(k):
        coords = tuple(1 if j == i else 0 for j in range(k))
        tab = coh.expand(coords)
        assert coh.reduce(tab) == coords


def test_restrict_to_self_is_identity():
    g = corpus.klein_four()
    coh = h2_qz(g)
    sub = Subgroup(g, tuple(range(4)))
    coh_a, coords = restrict_qz_class(coh, (1,), sub)
    assert coh_a.invariant_factors == [2]
    assert coords == (1,)


def test_restrict_klein_generator_to_cyclic_vanishes():
    g = corpus.klein_four()
    coh = h2_qz(g)
    for a in range(1, 4):
        sub = g.generated_subgroup([a])
        coh_a, coords = restrict_qz_class(coh, (1,), sub)
        assert coh_a.invariant_factors == []
        assert coords == ()


def test_restrict_a4_generator_to_klein_nonzero():
    a4 = corpus.alternating4()
    coh = h2_qz(a4)
    assert coh.invariant_factors == [2]
    klein = [x for x in range(12) if a4.element_order(x) in (1, 2)]
    sub = a4.subgroup(klein)
    assert sub.order == 4
    coh_a, coords = restrict_qz_class(coh, (1,), sub)
    assert coords != tuple([0] * len(coords))


def test_restriction_functoriality():
    g = corpus.abelian_group([4, 4])
    coh = h2_qz(g)
    subs = bicyclic_subgroups(g)
    mid = next(s for s in subs if s.order == 8)
    inner = next(s for s in subs if s.order == 4 and set(s.elements) <= set(mid.elements))
    k = len(coh.invariant_factors)
    for i in range(k):
        coords = tuple(1 if j == i else 0 for j in range(k))
        # restrict directly to inner
        coh_inner, direct = restrict_qz_class(coh, coords, inner)
        # restrict via mid
        coh_mid, via = restrict_qz_class(coh, coords, mid)
        mid_grp, mid_embed = mid.as_group()
        inner_in_mid = mid_grp.subgroup([mid_embed.index(x) for x in inner.elements])
        coh_inner2, two_step = restrict_qz_class(coh_mid, via, inner_in_mid)
        assert coh_inner.invariant_factors == coh_inner2.invariant_factors
        assert direct == two_step


def test_restriction_under_a_raised_limit(monkeypatch):
    # the parent solve passes a raised limit; the subgroup solve behind the
    # restriction inherits it and ignores the lowered BRQ_MAX_ORDER
    g = corpus.abelian_group([2, 4])
    sub = g.subgroup([x for x in range(g.order) if g.element_order(x) <= 2])
    assert sub.order == 4
    want_coh, want = restrict_qz_class(h2_qz(g, 8), (1,), sub)
    monkeypatch.setenv("BRQ_MAX_ORDER", "2")
    coh = h2_qz_cached(g, 8, max_order=8)
    coh_a, coords = restrict_qz_class(coh, (1,), sub)
    assert coh_a.invariant_factors == want_coh.invariant_factors == [2]
    assert coords == want


def test_restriction_keeps_finite_coefficients():
    # h2 of a trivial_qz module is H^2(G, Z/N), not the Q/Z quotient that
    # h2_qz takes: H^2(V4, Z/4) = (Z/2)^3 restricts into H^2(C2, Z/4) = Z/2
    g = corpus.klein_four()
    coh = h2(GModule.trivial_qz(g))
    assert coh.invariant_factors == [2, 2, 2]
    sub = g.subgroup([0, 1])
    coh_a, _ = coh.restrict((1, 0, 0), sub)
    assert coh_a.invariant_factors == h2(GModule.trivial_qz(sub.as_group()[0])).invariant_factors
    assert coh_a.invariant_factors == [2]


def test_corestriction_of_trivial_subgroup():
    g = corpus.klein_four()
    coh = h2_qz(g)
    sub = g.subgroup([0])
    sub_coh, _, _ = subgroup_h2_qz(sub, coh.modulus)
    assert sub_coh.invariant_factors == []
    coords = corestrict_qz_class(sub_coh, (), sub, coh)
    assert coords == (0,)


def test_cores_res_is_index_times_identity():
    cases = [
        (corpus.quaternion8, 2),
        (corpus.symmetric(4), None),
        (corpus.abelian_group([2, 4]), None),
    ]
    for item, _ in cases:
        g = item() if callable(item) else item
        coh = h2_qz(g)
        k = len(coh.invariant_factors)
        if k == 0:
            continue
        from brq.groups import subgroups_of_index_at_most

        for sub in subgroups_of_index_at_most(g, 4):
            if sub.order == g.order:
                continue
            idx = sub.index()
            for i in range(k):
                coords = tuple(1 if j == i else 0 for j in range(k))
                coh_a, res_coords = restrict_qz_class(coh, coords, sub)
                back = corestrict_qz_class(coh_a, res_coords, sub, coh)
                expected = tuple((idx * c) % f for c, f in
                                 zip(coords, coh.invariant_factors))
                assert back == expected


def test_small_complex_cyclic_examples():
    g = cyclic_group(4)
    m = GModule.finite(g, [6])
    s = small_complex_h(g, (1,), m, 2)
    assert list(s.invariant_factors) == [2]  # gcd(4, 6)
    s0 = small_complex_h(g, (1,), GModule.finite(g, [5]), 2)
    assert list(s0.invariant_factors) == []  # gcd(4, 5) = 1
    neg = GModule.lattice(cyclic_group(2), 1, {1: [[-1]]})
    s1 = small_complex_h(cyclic_group(2), (1,), neg, 1)
    assert list(s1.invariant_factors) == [2]


def test_small_complex_bicyclic_qz():
    g = direct_product(cyclic_group(6), cyclic_group(4))
    m = GModule(g, "trivial_qz")
    s = small_complex_h(g, (g.generators[0], g.generators[1]), m, 2, qz_modulus=24)
    assert list(s.invariant_factors) == [2]


def test_small_complex_rejects_bad_pair():
    g = corpus.symmetric(3)
    with pytest.raises(DomainError):
        small_complex_h(g, tuple(g.generators), GModule(g, "trivial_qz"), 2)


def test_oracle_equivalence_mini_sweep():
    shapes = [(2,), (3,), (4,), (2, 2), (2, 4), (3, 6), (6, 6)]
    for shape in shapes:
        g = corpus.abelian_group(list(shape))
        gens = []
        for f in shape:
            # find the canonical generator of each factor
            pass
        factors, witnesses = __import__("brq.groups", fromlist=["abelian_structure"]).abelian_structure(
            g.subgroup(range(g.order)))
        pair = tuple(witnesses)
        m_qz = GModule(g, "trivial_qz")
        bar = h2_qz(g).invariant_factors
        small = small_complex_h(g, pair, m_qz, 2, qz_modulus=g.order)
        assert bar == list(small.invariant_factors)
        m_fin = GModule.finite(g, [4])
        assert h2(m_fin).invariant_factors == list(
            small_complex_h(g, pair, m_fin, 2).invariant_factors)


def test_lattice_h2_with_action_oracle():
    # Z/2 x Z/2 acting by sign flips on a rank-2 lattice
    g = corpus.klein_four()
    m = GModule.lattice(g, 2, {g.generators[0]: [[-1, 0], [0, 1]],
                               g.generators[1]: [[1, 0], [0, -1]]})
    bar = h2(m).invariant_factors
    factors, witnesses = __import__("brq.groups", fromlist=["abelian_structure"]).abelian_structure(
        g.subgroup(range(4)))
    small = small_complex_h(g, tuple(witnesses), m, 2)
    assert bar == list(small.invariant_factors)


def test_lattice_h2_reduce_roundtrip():
    g = corpus.klein_four()
    m = GModule.lattice(g, 2, {g.generators[0]: [[0, 1], [1, 0]],
                               g.generators[1]: [[-1, 0], [0, -1]]})
    coh = h2(m)
    k = len(coh.invariant_factors)
    for i in range(k):
        coords = tuple(1 if j == i else 0 for j in range(k))
        tab = coh.expand(coords)
        assert coh.reduce(tab) == coords


def test_determinism_two_runs():
    g = corpus.abelian_group([2, 4])
    a = h2_qz(g)
    b = h2_qz(g)
    assert a.invariant_factors == b.invariant_factors
    assert [t.tolist() for t in a.rep_tables] == [t.tolist() for t in b.rep_tables]


def test_brq_max_order_sets_only_the_finite_coefficient_limit(monkeypatch):
    monkeypatch.setenv("BRQ_MAX_ORDER", "8")
    a4 = corpus.alternating4()
    assert a4.order == 12
    with pytest.raises(SizeLimitError) as info:
        h2_qz(a4)
    assert info.value.witness == {"order": 12, "unknowns": 2 * 11}


def _s3_lattice():
    doc = json.loads(TORIC_S3.read_text(encoding="utf-8"))["document"]
    return parse_action_document(doc)["toric"].lattice


def _first_cocycle_failure(module, table, degree):
    """First (g, h) or (g, h, k), in row-major order, where the cocycle
    identity fails: a plain loop over the group, independent of the
    package's differential."""
    group, t, r = module.group, module.group.table, module.rank
    mats = module.mats.tolist()
    c = np.asarray(table).tolist()
    factors = module.factors or [None] * r

    def act(g, v):
        return [sum(mats[g][i][j] * v[j] for j in range(r)) for i in range(r)]

    for idx in itertools.product(range(group.order), repeat=degree + 1):
        if degree == 1:
            g, h = idx
            terms = [act(g, c[h]), c[t[g][h]], c[g]]
            signs = [1, -1, 1]
        else:
            g, h, k = idx
            terms = [act(g, c[h][k]), c[t[g][h]][k], c[g][t[h][k]], c[g][h]]
            signs = [1, -1, 1, -1]
        for i, f in enumerate(factors):
            value = sum(s * term[i] for s, term in zip(signs, terms))
            if (value % f if f else value) != 0:
                return idx
    return None


@pytest.mark.parametrize("kind, degree", [("finite", 1), ("lattice", 1),
                                          ("finite", 2), ("lattice", 2)])
def test_reduce_rejects_a_non_cocycle_at_its_first_failure(kind, degree):
    lattice = _s3_lattice()
    module = lattice if kind == "lattice" else GModule(
        lattice.group, "finite", factors=[4, 4], element_mats=lattice.mats)
    coh = h1(module) if degree == 1 else h2(module)
    n = module.group.order
    table = coh.rep_tables[0].copy() if coh.rep_tables else \
        np.zeros((n,) * degree + (module.rank,), dtype=np.int64)
    coh.reduce(table)
    entry = (3, 1) if degree == 1 else (2, 3, 1)  # (element[s], component)
    table[entry] += 1
    want = _first_cocycle_failure(module, table, degree)
    assert want is not None
    with pytest.raises(ValidationError) as info:
        coh.reduce(table)
    assert info.value.witness == want


_KLEIN = corpus.klein_four()
LATTICES = {
    "s3_toric": _s3_lattice(),
    "klein_diagonal": GModule.lattice(_KLEIN, 2, {_KLEIN.generators[0]: [[-1, 0], [0, 1]],
                                                  _KLEIN.generators[1]: [[1, 0], [0, -1]]}),
    "klein_trivial": GModule.lattice(_KLEIN, 1),
    "d4_trivial": GModule.lattice(corpus.dihedral(4), 1),
    "c2xc4_trivial": GModule.lattice(corpus.abelian_group([2, 4]), 1),
    "a4_trivial": GModule.lattice(corpus.alternating4(), 1),
}


@pytest.mark.parametrize("name", list(LATTICES))
def test_lattice_reduce_is_constant_on_classes(name):
    # reduce solves d1(c) = L z mod L^2 on the generator rows only; shifting
    # z by an integer coboundary must not move its coordinates
    module = LATTICES[name]
    coh = h2(module)
    n, t = module.group.order, module.group._np_table
    rng = np.random.default_rng(20240117)
    for _ in range(4):
        coords = tuple(int(rng.integers(0, f)) for f in coh.invariant_factors)
        b = rng.integers(-5, 6, size=(n, module.rank))
        b[0] = 0
        table = coh.expand(coords) + _d1(module.mats, t, b, range(n))
        assert tuple(coh.reduce(table)) == coords


def test_d2_after_d1_vanishes():
    rng = np.random.default_rng(20240116)
    klein = corpus.klein_four()
    cases = [
        _s3_lattice(),
        GModule.lattice(klein, 2, {klein.generators[0]: [[0, 1], [1, 0]],
                                   klein.generators[1]: [[-1, 0], [0, -1]]}),
        GModule.lattice(cyclic_group(4), 2, {1: [[0, -1], [1, 0]]}),
        GModule.lattice(corpus.alternating4(), 1),
    ]
    for module in cases:
        n, t = module.group.order, module.group._np_table
        for _ in range(3):
            c = rng.integers(-9, 10, size=(n, module.rank, 2))
            dc = _d1(module.mats, t, c, range(n))
            assert dc.shape == (n, n, module.rank, 2)
            ddc = _d2(module.mats, t, dc, range(n))
            assert ddc.shape == (n, n, n, module.rank, 2)
            assert not ddc.any()


# ---------------------------------------------------------------------------
# the generator-edge rows of the degree-two solver against the full build


def _full_build_h2(module, extra_tables=()):
    """Kernel and H^2 structure from the cocycle identity at every
    (s, h, k), s a generator and h, k != 1: the |S| (n-1)^2 r rows the
    degree-two solver ingested before it kept only the generator edges."""
    solver = _BarH2Solver(module.group, module.mats, module.factors)
    L, U = solver.L, solver.slots
    acc = HowellAccumulator(L)
    for s in solver.gens:
        rows = _d2(solver.mats, solver.t, solver.w, [s])[0, 1:, 1:]
        acc.ingest((rows % L * solver.scale[:, None] % L).reshape(-1, U))
    full = kernel(acc.canonical_rows(), L, U)
    image = solver.coboundary_gens() + solver.gauge_gens()
    image += [solver.cocycle_slots(tab).tolist() for tab in extra_tables]
    return solver, full, subquotient_structure(U, L, full, image)


def _assert_qz_matches_full_build(group):
    n = group.order
    module = GModule(group, "trivial_qz", factors=[n], rank=1)
    bocksteins = [connecting_bockstein(group, chi, n) for chi in homs_to_cyclic(group, n)]
    solver, full, structure = _full_build_h2(module, bocksteins)
    assert solver.kernel_gens == full
    assert h2_qz(group).invariant_factors == list(structure.invariant_factors)


EDGE_GROUPS = dict(corpus.b0_vanishing_corpus())
EDGE_GROUPS["abelian_2_2_2_4"] = corpus.abelian_group([2, 2, 2, 4])  # four generators


@pytest.mark.parametrize("name", list(EDGE_GROUPS))
def test_generator_edge_rows_give_the_full_build_kernel(name):
    _assert_qz_matches_full_build(EDGE_GROUPS[name])


def test_generator_edge_rows_mixed_factors_with_action():
    # D4 on Z/4 + Z/2 by matrices that mix the factors, so the rows go
    # through the scale L / f_i of the Z/2 component
    g = corpus.dihedral(4)
    module = GModule.finite(g, [4, 2], {g.generators[0]: [[1, 2], [1, 1]],
                                        g.generators[1]: [[3, 0], [1, 1]]})
    solver, full, structure = _full_build_h2(module)
    assert solver.kernel_gens == full
    assert h2(module).invariant_factors == list(structure.invariant_factors) == [2, 2, 2]


SMALL_GROUPS = [g for g in EDGE_GROUPS.values() if g.order <= 32]


@settings(max_examples=12, deadline=None, database=None)
@given(st.sampled_from(SMALL_GROUPS).flatmap(
    lambda g: st.tuples(st.just(g), st.permutations(range(1, g.order)))))
def test_generator_edge_rows_under_relabelling(case):
    group, perm = case
    _assert_qz_matches_full_build(relabel(group, perm))


def test_reduce_rejects_a_perturbation_off_the_generator_rows():
    g = corpus.dihedral(4)
    coh = h2_qz(g)
    table = coh.rep_tables[0].copy()
    coh.reduce(table)
    outside = next(x for x in range(1, g.order) if x not in g.generators)
    table[outside, 1, 0] += 1
    want = _first_cocycle_failure(GModule(g, "trivial_qz", factors=[g.order]), table, 2)
    assert want is not None
    with pytest.raises(ValidationError) as info:
        coh.reduce(table)
    assert info.value.witness == want
