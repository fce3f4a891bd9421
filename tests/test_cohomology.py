from __future__ import annotations

import gc
import itertools
import json
import tracemalloc
import types
from functools import cache
from math import gcd, lcm, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brq import cohomology, corpus, linalg, verify
from brq.brauer import ToricAction, bogomolov_multiplier, br_nr_toric
from brq.cohomology import (
    GModule,
    _BarH1Solver,
    _BarH2Solver,
    _d1,
    _d2,
    _generator_rows,
    bfs_tree,
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
    abelian_invariants,
    abelian_structure,
    abelianization,
    bicyclic_subgroups,
    central_extension_from_cocycle,
    cyclic_group,
    direct_product,
    from_permutation_generators,
)
from brq.iodoc import parse_action_document
from brq.linalg import HowellAccumulator, kernel, subquotient_structure
from test_groups import CORPUS_AND_WITNESS
from test_properties import mixed_d4_module, relabel

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

    monkeypatch.setattr("brq.cohomology._BarH1Solver", unreachable)
    with pytest.raises(SizeLimitError) as info:
        h2_qz(corpus.abelian_group([2] * 7))
    # seven generators, (7 - 1) * 127 + 7 = 769 unknowns off the gauge tree
    assert info.value.witness == {"order": 128, "unknowns": 769}


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


def _bar_homs(group, n):
    """Hom(G, Z/n) as `h2_qz` reads it: the degree-one solver's cocycles
    of the trivial module Z/n."""
    solver = _BarH1Solver(group, np.ones((group.order, 1, 1), dtype=np.int64), [n])
    return [solver.expand(v)[:, 0] for v in solver.kernel_gens]


def _abelianization_homs(group, n):
    """Hom(G, Z/n) with no bar solver: the coordinate maps of
    G^ab = sum of the Z/d_i on the witnesses of `abelian_structure`, each
    scaled into Z/n by n / gcd(d_i, n)."""
    q, proj = abelianization(group)
    factors, witnesses = abelian_structure(q)
    coord = {0: (0,) * len(factors)}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for j, w in enumerate(witnesses):
            y = q.table[x][w]
            if y not in coord:
                coord[y] = tuple((c + (i == j)) % factors[i] for i, c in enumerate(coord[x]))
                frontier.append(y)
    return [[coord[proj[x]][j] * (n // gcd(f, n)) % n for x in range(group.order)]
            for j, f in enumerate(factors)]


def _span(vectors, n, length):
    """The subgroup of (Z/n)^length that the vectors generate, by closure."""
    span = {(0,) * length}
    for v in vectors:
        span = {tuple((x + k * int(y)) % n for x, y in zip(s, v)) for s in span for k in range(n)}
    return span


def test_bockstein_classes_span_qz_kernel():
    # exactness: the connecting images are exactly the kernel of
    # H^2(G, Z/N) -> H^2(G, Q/Z); compare orders, with the homomorphisms
    # taken from the abelianization rather than from the bar solver
    g = corpus.klein_four()
    n = 4
    m = GModule.finite(g, [n])
    plain = h2(m)
    qz = h2_qz(g, n)

    img_coords = [plain.reduce(connecting_bockstein(g, chi, n))
                  for chi in _abelianization_homs(g, n)]
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


# ---------------------------------------------------------------------------
# restriction to bicyclic subgroups through the commutator pairing


def _pairing_agrees_with_bar(coh, sub):
    """The pairing's factor list is the bar one, and one unit u mod e has
    pairing(c) = u bar(c) for every unit class c of the parent."""
    k = len(coh.invariant_factors)
    factors, _ = coh.restrict_bicyclic([0] * k, sub)
    assert factors == coh.subgroup_cohomology(sub).invariant_factors
    if not factors:
        return
    e = factors[0]
    values = []
    for j in range(k):
        unit = [int(i == j) for i in range(k)]
        values.append((coh.restrict_bicyclic(unit, sub)[1][0], coh.restrict(unit, sub)[1][0]))
    assert any(all((p - u * q) % e == 0 for p, q in values)
               for u in range(1, e) if gcd(u, e) == 1), values


@pytest.mark.parametrize("name", list(CORPUS_AND_WITNESS))
def test_pairing_restriction_matches_the_bar_restriction(name):
    g = CORPUS_AND_WITNESS[name]
    coh = h2_qz_cached(g, max(g.order, 2))
    for mode in (True, False):
        for sub in bicyclic_subgroups(g, up_to_conjugacy=mode):
            _pairing_agrees_with_bar(coh, sub)


@pytest.mark.parametrize("orders, modulus, pair", [
    ((2, 4), 16, (4, 1)), ((2, 4), 16, (1, 4)), ((3, 3), 27, (3, 1)), ((3, 3), 27, (1, 3)),
])
def test_pairing_of_a_hand_cocycle_above_the_group_order(orders, modulus, pair):
    # element (x, y) of Z/m x Z/n sits at x n + y; c(g, h) = (N/e) t x(g) y(h)
    # pairs a = (1, 0) with b = (0, 1) to t (N/e), coordinate t mod e
    m, n = orders
    g = direct_product(cyclic_group(m), cyclic_group(n))
    e = gcd(m, n)
    coh = h2_qz(g, modulus)
    assert coh.invariant_factors == [e]
    sub = Subgroup(g, tuple(range(g.order)), pair)
    sign = 1 if pair == (n, 1) else -1
    for t in range(e):
        table = [[(modulus // e) * t * (a // n) * (b % n) % modulus for b in range(g.order)]
                 for a in range(g.order)]
        assert coh.restrict_bicyclic(coh.reduce(table), sub) == ([e], [sign * t % e])
    _pairing_agrees_with_bar(coh, sub)
    # the cyclic subgroups generated by a and by b carry H^2 = 0
    for x in pair:
        cyc = Subgroup(g, tuple(g.closure([x])), (x, x))
        assert coh.restrict_bicyclic([1], cyc) == ([], [])


def test_pairing_refuses_finite_coefficients_a_missing_pair_and_an_indivisible_value():
    g = direct_product(cyclic_group(2), cyclic_group(4))
    sub = Subgroup(g, tuple(range(8)), (4, 1))
    with pytest.raises(DomainError, match="Q/Z coefficients"):
        h2(GModule.trivial_qz(g)).restrict_bicyclic((1, 0, 0), sub)
    coh = h2_qz(g, 16)
    with pytest.raises(DomainError, match="no generating pair"):
        coh.restrict_bicyclic([1], Subgroup(g, sub.elements))
    table = np.zeros((8, 8, 1), dtype=np.int64)
    table[4, 1, 0] = 1  # c(a, b) - c(b, a) = 1 is not a multiple of N/e = 8
    coh.rep_tables = [table]
    with pytest.raises(DomainError, match="not divisible by N/e") as info:
        coh.restrict_bicyclic([1], sub)
    assert info.value.witness == {"pair": [4, 1], "value": 1, "step": 8}


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
    # two generators, (2 - 1) * 11 + 2 = 13 unknowns off the gauge tree
    assert info.value.witness == {"order": 12, "unknowns": 13}


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
    # reduce solves d(c) = L z mod L^2 on the generator rows only; shifting
    # z by an integer coboundary must not move its coordinates: by
    # g -> A_g b - b in degree one, by d1(b) in degree two
    module = LATTICES[name]
    n, t = module.group.order, module.group.table
    rng = np.random.default_rng(20240117)
    for coh in (h1(module), h2(module)):
        for _ in range(4):
            coords = tuple(int(rng.integers(0, f)) for f in coh.invariant_factors)
            if coh.degree == 1:
                b = rng.integers(-5, 6, size=module.rank)
                shift = module.mats @ b - b
            else:
                b = rng.integers(-5, 6, size=(n, module.rank))
                b[0] = 0
                shift = _d1(module.mats, t, b, range(n))
            assert tuple(coh.reduce(coh.expand(coords) + shift)) == coords


ROUND_TRIP_LATTICES = dict(LATTICES)
ROUND_TRIP_LATTICES.update((f"gl2z_{name}", verify.toric_group_from_matrices(gens)[1])
                           for name, gens in corpus.gl2z_bicyclic_cases())


@pytest.mark.parametrize("name", list(ROUND_TRIP_LATTICES))
def test_lattice_reduce_inverts_expand_on_unit_classes(name):
    module = ROUND_TRIP_LATTICES[name]
    for coh in (h1(module), h2(module)):
        k = len(coh.invariant_factors)
        for i in range(k):
            unit = tuple(int(i == j) for j in range(k))
            assert tuple(coh.reduce(coh.expand(unit))) == unit


IDENTITY_GROUPS = dict(corpus.b0_vanishing_corpus())
IDENTITY_GROUPS.update(dihedral_64=corpus.dihedral(32), dicyclic_64=corpus.dicyclic(16),
                       cyclic_96=cyclic_group(96))


def test_cohomology_of_the_trivial_lattice_is_the_dual_of_the_abelianization():
    # H^1(G, Z) = Hom(G, Z) = 0 and H^2(G, Z) = Hom(G, Q/Z), whose invariant
    # factors are those of G^ab
    assert len(IDENTITY_GROUPS) == 35
    for name, group in IDENTITY_GROUPS.items():
        trivial = GModule.lattice(group, 1)
        assert h1(trivial).invariant_factors == [], name
        want = abelian_structure(abelianization(group)[0])[0]
        assert h2(trivial).invariant_factors == want, name


def _permutation_lattice(group, perms, copies):
    """Z[G/H]^copies for G acting on points through `perms`, one
    permutation per generator of `group`."""
    d = len(perms[0])
    mats = {}
    for s, p in zip(group.generators, perms):
        block = np.zeros((d, d), dtype=np.int64)
        block[p, range(d)] = 1  # e_i -> e_p(i)
        mats[s] = np.kron(np.eye(copies, dtype=np.int64), block).tolist()
    return GModule.lattice(group, d * copies, mats)


@pytest.mark.parametrize("degree, copies, want, max_order", [
    (4, 3, [2, 2, 2], None), (5, 2, [2, 2], 120)])
def test_shapiro_on_permutation_lattices(degree, copies, want, max_order):
    # H^2(S_d, Z[S_d/S_(d-1)]) = H^2(S_(d-1), Z), which is Z/2 for d - 1 >= 2
    perms = [[1, 0] + list(range(2, degree)), list(range(1, degree)) + [0]]
    group = from_permutation_generators(degree, perms)
    assert [group.element_order(s) for s in group.generators] == [2, degree]
    module = _permutation_lattice(group, perms, copies)
    assert h2(module, max_order=max_order).invariant_factors == want


def _lattice_answers(module):
    """What the lattice path gives for a faithful lattice: the invariant
    factors of H^1 and H^2, the coordinates of every representative and of
    an integer coboundary in each degree, and the br_nr_toric report."""
    n, t = module.group.order, module.group.table
    b = np.random.default_rng(20240118).integers(-5, 6, size=(n, module.rank))
    b[0] = 0
    cohs = [h1(module), h2(module)]
    shifts = [module.mats @ b[1] - b[1], _d1(module.mats, t, b, range(n))]
    return ([coh.invariant_factors for coh in cohs],
            [[tuple(coh.reduce(tab)) for tab in coh.rep_tables] for coh in cohs],
            [tuple(coh.reduce(shift)) for coh, shift in zip(cohs, shifts)],
            br_nr_toric(ToricAction(module.group, module)).to_json(include_witnesses=True))


_S4_PERMS = [[1, 0, 2, 3], [1, 2, 3, 0]]
# (lattice, whether its solve mod L^2 takes the numpy path at the real
# bound): the lift of the S4 permutation lattice has (24 - 1) * 4 = 92
# columns, that of the toric S3 lattice (6 - 1) * 2 = 10
PURE_LIFT_LATTICES = {
    "s3_toric": (_s3_lattice(), False),
    "s4_permutation": (_permutation_lattice(from_permutation_generators(4, _S4_PERMS),
                                            _S4_PERMS, 1), True),
}


@pytest.mark.parametrize("name", list(PURE_LIFT_LATTICES))
def test_lattice_lift_on_the_pure_howell_path_matches_the_int64_bound(name, monkeypatch):
    # with INT64_BOUND = L^2 - 1, `_connecting_lift` reduces its system
    # mod L^2 with the pure `howell_rows`, as it would above order 1024
    module, numpy_at_bound = PURE_LIFT_LATTICES[name]
    L2 = module.group.order ** 2
    paths = []
    howell_rows = linalg.howell_rows

    class RecordedAccumulator(linalg.HowellAccumulator):
        def __init__(self, modulus):
            paths.append(("numpy", modulus))
            super().__init__(modulus)

    monkeypatch.setattr(linalg, "howell_rows",
                        lambda rows, n: paths.append(("pure", n)) or howell_rows(rows, n))
    monkeypatch.setattr(linalg, "HowellAccumulator", RecordedAccumulator)
    monkeypatch.setattr(cohomology, "_COHOMOLOGY_CACHE", {})
    want = _lattice_answers(module)
    assert (("numpy", L2) in paths) == numpy_at_bound
    paths.clear()
    monkeypatch.setattr(linalg, "INT64_BOUND", L2 - 1)
    monkeypatch.setattr(cohomology, "_COHOMOLOGY_CACHE", {})
    assert _lattice_answers(module) == want
    assert ("pure", L2) in paths and ("numpy", L2) not in paths


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
        n, t = module.group.order, module.group.table
        for _ in range(3):
            c = rng.integers(-9, 10, size=(n, module.rank, 2))
            dc = _d1(module.mats, t, c, range(n))
            assert dc.shape == (n, n, module.rank, 2)
            ddc = _d2(module.mats, t, dc, range(n))
            assert ddc.shape == (n, n, n, module.rank, 2)
            assert not ddc.any()


# ---------------------------------------------------------------------------
# the generator-edge rows of the degree-two solver against the full build


def _dense_unit_tensor(solver):
    """The whole (n, n, r, U) unit tensor w of a degree-two solver, built
    breadth first with no walk: the units at the kept generator-row values,
    zero at the others, and c(px, h) = p.c(x, h) + c(p, xh) - c(p, x) down
    the right BFS tree.  w @ u is the cochain whose slots are u."""
    n, r, U, t, mats = solver.n, solver.r, solver.slots, solver.t, solver.mats
    w = np.zeros((n, n, r, U), dtype=np.int64)
    s, h, comp = np.unravel_index(solver.kept, solver.row_shape)
    w[np.array(solver.gens)[s], h + 1, comp, np.arange(U)] = 1
    for g, p, x in bfs_tree(solver.group):
        if p:  # the children of 1 are the generators, whose rows are the units
            w[g] = (np.einsum("ij,kju->kiu", mats[p], w[x]) + w[p][t[x]] - w[p, x]) % solver.L
    return w


def _full_build_h2(module, extra_tables=()):
    """Kernel and H^2 structure from the cocycle identity at every
    (s, h, k), s a generator and h, k != 1: the |S| (n-1)^2 r rows the
    degree-two solver ingested before it kept only the generator edges."""
    solver = _BarH2Solver(module.group, module.mats, module.factors)
    L, U = solver.L, solver.slots
    w = _dense_unit_tensor(solver)
    acc = HowellAccumulator(L)
    for s in solver.gens:
        rows = _d2(solver.mats, solver.t, w, [s])[0, 1:, 1:]
        acc.ingest((rows % L * solver.scale[:, None] % L).reshape(-1, U))
    full = kernel(acc.canonical_rows(), L, U)
    return solver, full, subquotient_structure(U, L, full, solver.image_gens(extra_tables))


def _assert_qz_matches_full_build(group):
    n = group.order
    module = GModule(group, "trivial_qz", factors=[n], rank=1)
    bocksteins = [connecting_bockstein(group, chi, n) for chi in _bar_homs(group, n)]
    solver, full, structure = _full_build_h2(module, bocksteins)
    assert solver.kernel_gens == full
    assert h2_qz(group).invariant_factors == list(structure.invariant_factors)


EDGE_GROUPS = dict(corpus.b0_vanishing_corpus())
EDGE_GROUPS["abelian_2_2_2_4"] = corpus.abelian_group([2, 2, 2, 4])  # four generators
HOM_GROUPS = {**CORPUS_AND_WITNESS, **EDGE_GROUPS, "symmetric3": corpus.symmetric(3)}


@pytest.mark.parametrize("name", list(HOM_GROUPS))
def test_bockstein_sources_are_all_of_hom_to_cyclic(name):
    # |Hom(G, Z/N)| = prod gcd(d_i, N) over the invariants d_i of G^ab
    group = HOM_GROUPS[name]
    n = group.order
    homs = _bar_homs(group, n)
    for chi in homs:
        assert not ((chi[:, None] + chi[None, :] - chi[group.table]) % n).any()
    span = _span(homs, n, n)
    assert len(span) == prod(gcd(d, n) for d in abelian_invariants(abelianization(group)[0]))
    assert _span(_abelianization_homs(group, n), n, n) == span


@pytest.mark.parametrize("name", list(EDGE_GROUPS))
def test_generator_edge_rows_give_the_full_build_kernel(name):
    _assert_qz_matches_full_build(EDGE_GROUPS[name])


def test_generator_edge_rows_mixed_factors_with_action():
    # the D4 module on Z/4 + Z/2 mixes the factors, so the rows go through
    # the scale L / f_i of the Z/2 component
    module = mixed_d4_module()
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


# ---------------------------------------------------------------------------
# the degree-two gauge against the ungauged system


class _UngaugedH2Solver(_BarH2Solver):
    """The degree-two solver with no gauge: every generator-row value is an
    unknown, and the image holds the coboundaries of all the unit
    1-cochains, the values that are zero in the module and the extra
    tables read at the generator rows, unchanged."""

    def _kept_slots(self):
        return np.arange(prod(self.row_shape))

    def _gauge(self, values):
        return values.reshape(-1, values.shape[-1]) % self.L

    def _coboundaries(self):
        return _generator_rows(self.mats, self.t, self.gens, 2)


def _gauge_case(name):
    """(the cohomology under test, its module, the extra image tables)."""
    if name == "mixed_d4":
        module = mixed_d4_module()
        return h2(module), module, []
    group = EDGE_GROUPS[name]
    n = group.order
    bocksteins = [connecting_bockstein(group, chi, n) for chi in _bar_homs(group, n)]
    return h2_qz(group), GModule(group, "trivial_qz", factors=[n], rank=1), bocksteins


@pytest.mark.parametrize("name", [*EDGE_GROUPS, "mixed_d4"])
def test_gauge_agrees_with_the_ungauged_system(name):
    coh, module, bocksteins = _gauge_case(name)
    group, r = module.group, module.rank
    solver = _UngaugedH2Solver(group, module.mats, module.factors)
    assert solver.slots == len(group.generators) * (group.order - 1) * r
    oracle = subquotient_structure(solver.slots, solver.L, solver.kernel_gens,
                                   solver.image_gens(bocksteins))
    assert coh.invariant_factors == list(oracle.invariant_factors)
    rng = np.random.default_rng(17)
    classes = list(itertools.product(*map(range, coh.invariant_factors)))
    if len(classes) > 64:
        classes = [classes[0]] + [tuple(int(rng.integers(0, f)) for f in coh.invariant_factors)
                                  for _ in range(40)]
    for coords in classes:
        table = coh.expand(coords)
        assert coh.reduce(table) == coords
        # the gauged representative is zero in the ungauged H^2 only for
        # the zero class, so the two groups match class for class
        assert any(oracle.coords(solver.cocycle_slots(table))) == any(coords)
        # a full 1-cochain, b(1) and the tree values included
        b = rng.integers(-9, 10, size=(group.order, r))
        shifted = table + _d1(module.mats, group.table, b, range(group.order))
        assert coh.reduce(shifted) == coords


@pytest.mark.parametrize("group, unknowns", [(cyclic_group(96), 1),
                                             (corpus.alternating4(), 13)])
def test_bar_unknowns_are_the_values_off_the_gauge_tree(group, unknowns):
    module = GModule(group, "trivial_qz", factors=[group.order], rank=1)
    solver = _BarH2Solver(group, module.mats, module.factors)
    s, n = len(group.generators), group.order
    assert solver.slots == (s - 1) * (n - 1) + s == unknowns
    assert _dense_unit_tensor(solver).shape == (n, n, 1, unknowns)


def _dense_h1_units(solver):
    """The (n, r, U) unit tensor of a degree-one solver, breadth first:
    c(px) = c(p) + p.c(x) down the right BFS tree."""
    w = np.zeros((solver.n, solver.r, solver.slots), dtype=np.int64)
    s, comp = np.unravel_index(solver.kept, solver.row_shape)
    w[np.array(solver.gens)[s], comp, np.arange(solver.slots)] = 1
    for g, p, x in bfs_tree(solver.group):
        if p:
            w[g] = (w[p] + np.einsum("ij,ju->iu", solver.mats[p], w[x])) % solver.L
    return w


@pytest.mark.parametrize("name", [*CORPUS_AND_WITNESS, "mixed_d4"])
def test_expand_walk_matches_the_dense_unit_tensor(name):
    # the depth-first walk against w @ u mod L, for one slot vector and for
    # a batch of them, in both degrees (degree one expands with the w it
    # keeps, built by the walk)
    if name == "mixed_d4":
        module = mixed_d4_module()
    else:
        group = CORPUS_AND_WITNESS[name]
        module = GModule(group, "trivial_qz", factors=[group.order], rank=1)
    rng = np.random.default_rng(26)
    for solver_class, dense in ((_BarH2Solver, _dense_unit_tensor),
                                (_BarH1Solver, _dense_h1_units)):
        solver = solver_class(module.group, module.mats, module.factors)
        w = dense(solver)
        u = rng.integers(-solver.L, 2 * solver.L, size=(solver.slots, 3))
        assert np.array_equal(solver.expand(u), w @ u % solver.L)
        assert np.array_equal(solver.expand(u[:, 1:2]), w @ u[:, 1:2] % solver.L)
        assert np.array_equal(solver.expand(np.eye(solver.slots, dtype=np.int64)), w)


def test_h2_qz_of_the_hyperoctahedral_group_b4_in_little_memory():
    # B4 = (Z/2)^4 : S4, order 384, as signed permutations of 4 points (i + 4
    # stands for -i) on 2 generators; its Schur multiplier is (Z/2)^3 for
    # n >= 4 (Ihara-Yokonuma 1965).  The whole unit tensor would take
    # 384^2 * 385 * 8 bytes, about 0.45 GB.
    group = from_permutation_generators(8, [[1, 2, 3, 4, 5, 6, 7, 0],
                                            [1, 0, 2, 3, 5, 4, 6, 7]])
    assert group.order == 384 and len(group.generators) == 2
    tracemalloc.start()
    try:
        coh = h2_qz(group, max_order=384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coh.invariant_factors == [2, 2, 2]
    assert peak < 64 * 2**20, peak


def test_h2_qz_of_the_largest_schur_large_group_in_little_memory():
    # (Z/2)^4 x Z/4: 257 unknowns and 252 kept rows, 242 of them unit
    # pivots; reducing [M^T | I] of all of them (257 x 509) peaked at 7.8 MB,
    # the kernel read off the unit pivots at about 5.1 MB
    group = corpus.abelian_group([2, 2, 2, 2, 4])
    tracemalloc.start()
    try:
        coh = h2_qz(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coh.invariant_factors == [2] * 10
    assert peak < 6_500_000, peak


def test_h2_qz_of_a_perfect_group_has_no_bocksteins():
    # A5 is perfect, so Hom(A5, Z/N) = 0 and the degree-one walk expands no
    # vectors; its Schur multiplier is Z/2
    a5 = from_permutation_generators(5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]])
    assert a5.order == 60
    assert h1(GModule(a5, "trivial_qz", factors=[60])).invariant_factors == []
    assert h2_qz(a5).invariant_factors == [2]


def _reachable_arrays(root):
    """Every numpy array reachable from `root` through object references,
    not through module globals or classes."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, types.FunctionType):  # its closure, not its globals
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return arrays


def test_no_cached_cohomology_holds_a_dense_unit_tensor(monkeypatch):
    monkeypatch.setattr(cohomology, "_COHOMOLOGY_CACHE", {})
    witness = CORPUS_AND_WITNESS["witness_order64"]
    bogomolov_multiplier(witness)
    # the report solves only the subgroups whose quotient is nonzero; cache
    # the H^2 of every bicyclic subgroup
    coh = h2_qz_cached(witness, 64)
    for sub in bicyclic_subgroups(witness):
        coh.subgroup_cohomology(sub)
    h2_qz_cached(corpus.abelian_group([2, 2, 2, 2, 4]), 64)
    checked = 0
    for coh in cohomology._COHOMOLOGY_CACHE.values():
        group = coh.group
        if len(group.generators) < 2:
            continue  # one generator: U = 1, and the Cayley table has n^2 U entries
        n, unknowns = group.order, cohomology._h2_unknowns(group, 1)
        sizes = [a.size for a in _reachable_arrays(coh)]
        assert max(sizes) < n * n * unknowns, (n, unknowns, max(sizes))
        checked += 1
    assert checked >= 10


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


# ---------------------------------------------------------------------------
# the cocycle check on the rows whose first argument is 1 or a generator


def _check_modules():
    s3 = _s3_lattice()
    d4, q8, a4 = corpus.dihedral(4), corpus.quaternion8(), corpus.alternating4()
    return [
        s3,
        GModule(s3.group, "finite", factors=[4, 4], element_mats=s3.mats),
        GModule.finite(d4, [4, 2], {d4.generators[0]: [[1, 2], [1, 1]],
                                    d4.generators[1]: [[3, 0], [1, 1]]}),
        GModule.finite(q8, [4], {q8.generators[0]: [[3]]}),
        GModule(a4, "trivial_qz", factors=[12], rank=1),
    ]


CHECK_MODULES = _check_modules()


@cache
def _check_cohomology(index, degree):
    return (h1 if degree == 1 else h2)(CHECK_MODULES[index])


def _random_cocycle(coh, rng):
    """A normalized cocycle: a class representative plus the coboundary of
    a random normalized integer cochain."""
    module = coh.module
    n, r = module.group.order, module.rank
    table = coh.expand([int(rng.integers(0, f)) for f in coh.invariant_factors])
    b = rng.integers(-5, 6, size=(n,) * (coh.degree - 1) + (r,))
    if coh.degree == 1:
        return table + np.einsum("gij,j->gi", module.mats, b) - b
    b[0] = 0
    return table + _d1(module.mats, module.group.table, b, range(n))


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, len(CHECK_MODULES) - 1), st.sampled_from([1, 2]),
       st.integers(-2, 2), st.integers(0, 2**32 - 1))
def test_cocycle_check_accepts_exactly_the_cocycles(index, degree, delta, seed):
    # a cocycle perturbed at one entry, anywhere (the row g = 1 included),
    # against the plain loop over every argument
    coh = _check_cohomology(index, degree)
    rng = np.random.default_rng(seed)
    table = _random_cocycle(coh, rng)
    table[tuple(int(rng.integers(0, m)) for m in table.shape)] += delta
    want = _first_cocycle_failure(coh.module, table, degree)
    if want is None:
        coh.reduce(table)
        return
    with pytest.raises(ValidationError) as info:
        coh.reduce(table)
    assert info.value.witness == want


@settings(max_examples=30, deadline=None, database=None)
@given(st.sampled_from(["s3", "d4", "q8", "a4"]), st.integers(0, 2**32 - 1))
def test_bockstein_and_extension_checks_match_the_full_check(name, seed):
    group = {"s3": corpus.symmetric(3), "d4": corpus.dihedral(4),
             "q8": corpus.quaternion8(), "a4": corpus.alternating4()}[name]
    n = group.order
    rng = np.random.default_rng(seed)
    trivial = GModule(group, "trivial_qz", factors=[n], rank=1)
    # a homomorphism to Z/n, perturbed at one element
    homs = _bar_homs(group, n)
    chi = np.array(homs[int(rng.integers(0, len(homs)))], dtype=np.int64)
    chi[int(rng.integers(0, n))] += int(rng.integers(0, 3))
    want = _first_cocycle_failure(trivial, chi[:, None], 1)
    if want is None:
        connecting_bockstein(group, chi.tolist(), n)
    else:
        with pytest.raises(ValidationError) as info:
            connecting_bockstein(group, chi.tolist(), n)
        assert info.value.witness == want
    # a normalized 2-cocycle mod n, perturbed off the rows and columns of 1
    table = _random_cocycle(_check_cohomology(4, 2) if name == "a4" else h2(trivial), rng) % n
    table[int(rng.integers(1, n)), int(rng.integers(1, n))] += int(rng.integers(0, 3))
    table %= n
    want = _first_cocycle_failure(trivial, table, 2)
    if want is None:
        central_extension_from_cocycle(group, n, table[:, :, 0].tolist())
    else:
        with pytest.raises(ValidationError) as info:
            central_extension_from_cocycle(group, n, table[:, :, 0].tolist())
        assert info.value.witness == want


def test_reduce_reads_the_coboundary_of_a_non_normalised_cochain_as_zero():
    # d(b) for b = 1 everywhere is the constant table 1: a 2-cocycle of class
    # zero with c(1, h) = 1, on a non-abelian group
    g = corpus.dihedral(4)
    coh = h2_qz(g)
    ones = np.ones((g.order, g.order), dtype=np.int64)
    assert tuple(coh.reduce(ones)) == (0,)
    assert tuple(coh.reduce(coh.rep_tables[0] + ones[:, :, None])) == (1,)


SHIFT_CASES = {
    "d4_qz": lambda: h2_qz_cached(corpus.dihedral(4), 8),
    "d4_finite_action": lambda: _check_cohomology(2, 2),
    "s3_lattice": lambda: _check_cohomology(0, 2),
    "klein_diagonal_lattice": lambda: h2(LATTICES["klein_diagonal"]),
}


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(sorted(SHIFT_CASES)), st.integers(0, 2**32 - 1))
@example("d4_qz", 0)
def test_reduce_is_constant_on_classes_of_non_normalised_cocycles(name, seed):
    # reduce(c + d(b)) == reduce(c) for a 1-cochain b with b(1) != 0
    coh = SHIFT_CASES[name]()
    module = coh.module
    n, r = module.group.order, module.rank
    rng = np.random.default_rng(seed)
    table = coh.expand([int(rng.integers(0, f)) for f in coh.invariant_factors])
    b = rng.integers(-5, 6, size=(n, r))
    b[0, 0] = 1 + 2 * int(rng.integers(0, 3))  # odd, so nonzero in every factor
    shifted = table + _d1(module.mats, module.group.table, b, range(n))
    assert tuple(coh.reduce(shifted)) == tuple(coh.reduce(table))


def test_cocycle_check_on_the_trivial_group_reads_the_row_of_1():
    # with no generators the row g = 1 is the whole check: chi(1) = 1 gives
    # chi(1) - chi(1) + chi(1) = 1 at (1, 1)
    with pytest.raises(ValidationError) as info:
        connecting_bockstein(cyclic_group(1), [1], 4)
    assert info.value.witness == (0, 0)


def _prime_factors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def _p_power(n, p):
    """Whether n is a power of p."""
    while n % p == 0:
        n //= p
    return n == 1


def _sylow(group, p):
    """A maximal p-subgroup, grown greedily: each element is joined when the
    join is still a p-group.  An element refused once stays refused, since
    the subgroup only grows, so no element extends the result and it is a
    Sylow p-subgroup."""
    members = [0]
    for x in range(group.order):
        joined = group.closure(members + [x])
        if _p_power(len(joined), p):
            members = joined
    return group.subgroup(members)


SYLOW_GROUPS = {name: g for name, g in corpus.b0_vanishing_corpus()
                if len(_prime_factors(g.order)) > 1}
SYLOW_GROUPS["cyclic_96"] = corpus.cyclic_group(96)
SYLOW_GROUPS["metacyclic_13_4_5"] = corpus.metacyclic(13, 4, 5)


@pytest.mark.parametrize("name", sorted(SYLOW_GROUPS))
def test_restriction_to_a_sylow_subgroup_is_injective_on_the_p_part(name):
    # Brown, Cohomology of Groups III.10: res to a Sylow p-subgroup P is
    # injective on the p-primary part of H^2(G, Q/Z)
    group = SYLOW_GROUPS[name]
    coh = h2_qz_cached(group, group.order)
    factors = coh.invariant_factors
    classes = list(itertools.product(*map(range, factors)))
    for p in _prime_factors(group.order):
        sylow = _sylow(group, p)
        assert _p_power(sylow.order, p) and (group.order // sylow.order) % p
        primary = [x for x in classes
                   if _p_power(lcm(*(f // gcd(c, f) for c, f in zip(x, factors))), p)]
        coh_p = coh.subgroup_cohomology(sylow)
        assert prod(coh_p.invariant_factors) % len(primary) == 0
        for x in primary:
            if any(x):
                _, restricted = coh.restrict(list(x), sylow)
                assert any(int(r) % f for r, f in zip(restricted, coh_p.invariant_factors))
