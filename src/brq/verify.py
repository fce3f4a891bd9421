"""Bundled verification suites.

Each suite is a deterministic list of named cases; the runner executes
them one after another in list order and reports one line per case.
"""

from __future__ import annotations

import itertools
import json
import random
from importlib import resources
from math import gcd

import numpy as np

from . import corpus
from .brauer import (
    ToricAction,
    bogomolov_multiplier,
    br_nr_flag,
    br_nr_grassmannian,
    br_nr_linear,
    br_nr_projective,
    br_nr_toric,
    br_stack_fixed_point,
    correlation_action,
    gamma_from_projective_action,
    plucker_beta,
)
from .cohomology import (
    GModule,
    corestrict_qz_class,
    h1,
    h2,
    h2_qz,
    h2_qz_cached,
    restrict_qz_class,
    small_complex_h,
)
from .cyclotomic import CycloMatrix, CycloNumber, plucker_vector
from .errors import BrqError
from .groups import (
    abelian_structure,
    cyclic_group,
    from_cayley_table,
    from_permutation_generators,
    subgroups_of_index_at_most,
)
from .linalg import invariant_presentation

SUITES = ("abelian-sweep", "b0-corpus", "oracle-equivalence", "transfer",
          "plucker-oracle", "fixtures")


# ---------------------------------------------------------------------------
# helpers


def abelian_shapes(n):
    """All invariant-factor shapes d1 | d2 | ... of abelian groups of order n."""
    factorization = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            factorization[p] = factorization.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factorization[m] = factorization.get(m, 0) + 1

    def partitions(k):
        if k == 0:
            yield []
            return
        def rec(k, maxpart):
            if k == 0:
                yield []
                return
            for first in range(min(k, maxpart), 0, -1):
                for rest in rec(k - first, first):
                    yield [first] + rest
        yield from rec(k, k)

    per_prime = {p: list(partitions(e)) for p, e in factorization.items()}
    shapes = []
    for combo in itertools.product(*per_prime.values()):
        length = max((len(c) for c in combo), default=0)
        factors = []
        for i in range(length):
            f = 1
            for (p, _), part in zip(per_prime.items(), combo):
                if i < len(part):
                    f *= p ** part[i]
            factors.append(f)
        factors.sort()
        shapes.append(tuple(factors))
    return sorted(set(shapes))


def predicted_h2_abelian(shape):
    """Canonical invariant factors of the pairwise-gcd sum for an abelian
    group with the given cyclic orders."""
    gcds = [gcd(a, b) for a, b in itertools.combinations(shape, 2)]
    gcds = [g for g in gcds if g > 1]
    if not gcds:
        return []
    diag = [[gcds[i] if i == j else 0 for j in range(len(gcds))]
            for i in range(len(gcds))]
    factors, _, _ = invariant_presentation(diag)
    return [f for f in factors if f > 1]


def _fixture_text(name):
    ref = resources.files("brq") / "fixtures" / name
    if not ref.is_file():
        return None
    return ref.read_text(encoding="utf-8")


def load_fixture_json(name):
    text = _fixture_text(name)
    return json.loads(text) if text is not None else None


# ---------------------------------------------------------------------------
# projective action catalogs


def clock_shift_action(n, conductor=None):
    """Z/n x Z/n acting projectively by the clock and shift matrices."""
    g = corpus.abelian_group([n, n])
    zeta = CycloNumber.zeta(n) if n > 2 else CycloNumber.from_rational(-1)
    zero = CycloNumber.from_rational(0)
    one = CycloNumber.from_rational(1)
    clock = CycloMatrix([[zeta ** i if i == j else zero for j in range(n)]
                         for i in range(n)])
    shift = CycloMatrix([[one if (i - j) % n == 1 else zero for j in range(n)]
                         for i in range(n)])
    gens = list(g.generators)
    return gamma_from_projective_action(g, {gens[0]: clock, gens[1]: shift})


def pauli_action():
    g = corpus.klein_four()
    gens = list(g.generators)
    return gamma_from_projective_action(
        g, {gens[0]: CycloMatrix([[0, 1], [1, 0]]),
            gens[1]: CycloMatrix([[1, 0], [0, -1]])})


def pauli_lift4_action():
    g = corpus.klein_four()
    gens = list(g.generators)
    x4 = CycloMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    z4 = CycloMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    return gamma_from_projective_action(g, {gens[0]: x4, gens[1]: z4})


def shifted_sign_action():
    """C4 x C2 with anticommuting shift and sign matrices (nonzero class)."""
    g = corpus.abelian_group([4, 2])
    gens = list(g.generators)
    shift = CycloMatrix([[1 if (i - j) % 4 == 1 else 0 for j in range(4)]
                         for i in range(4)])
    signs = CycloMatrix([[(1 if i % 2 == 0 else -1) if i == j else 0
                          for j in range(4)] for i in range(4)])
    by_order = {g.element_order(s): s for s in gens}
    return gamma_from_projective_action(g, {by_order[4]: shift, by_order[2]: signs})


def sign_diag_action(factors):
    """Elementary abelian group acting linearly by diagonal signs."""
    g = corpus.abelian_group(factors)
    gens = list(g.generators)
    dim = len(gens) + 1
    mats = {}
    for i, s in enumerate(gens):
        mats[s] = CycloMatrix([[(-1 if (j == i + 1) else 1) if j == k else 0
                                for k in range(dim)] for j in range(dim)])
    return gamma_from_projective_action(g, mats)


def s3_linear_action():
    g = corpus.symmetric(3)
    z3 = CycloNumber.zeta(3)
    zero = CycloNumber.from_rational(0)
    mats = {}
    for s in g.generators:
        if g.element_order(s) == 2:
            mats[s] = CycloMatrix([[zero, CycloNumber.from_rational(1)],
                                   [CycloNumber.from_rational(1), zero]])
        else:
            mats[s] = CycloMatrix([[z3, zero], [zero, z3 ** 2]])
    return gamma_from_projective_action(g, mats)


def a4_rotation_action():
    g = corpus.alternating4()
    mats = {}
    for s in g.generators:
        if g.element_order(s) == 2:
            mats[s] = CycloMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
        else:
            mats[s] = CycloMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    return gamma_from_projective_action(g, mats)


def d4_rotation_action():
    g = corpus.dihedral(4)
    z4 = CycloNumber.zeta(4)
    zero = CycloNumber.from_rational(0)
    mats = {}
    for s in g.generators:
        if g.element_order(s) == 4:
            mats[s] = CycloMatrix([[z4, zero], [zero, z4 ** 3]])
        else:
            mats[s] = CycloMatrix([[0, 1], [1, 0]])
    return gamma_from_projective_action(g, mats)


def q8_action():
    g = corpus.quaternion8()
    z4 = CycloNumber.zeta(4)
    zero = CycloNumber.from_rational(0)
    one = CycloNumber.from_rational(1)
    mats = {}
    seen_order4 = 0
    for s in g.generators:
        if seen_order4 == 0:
            mats[s] = CycloMatrix([[z4, zero], [zero, -z4]])
            seen_order4 += 1
        else:
            mats[s] = CycloMatrix([[zero, one], [-one, zero]])
    return gamma_from_projective_action(g, mats)


def correlation_klein_gr24():
    g = corpus.klein_four()
    gens = list(g.generators)
    phi = CycloMatrix.identity(4)
    psi = CycloMatrix([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    return correlation_action(g, {gens[1]: psi}, phi, gens[0])


def catalog_actions():
    """Ten projective actions exercised by the degeneracy checks."""
    return [
        ("pauli_klein", pauli_action()),
        ("klein_linear", sign_diag_action([2, 2])),
        ("pauli_lift4", pauli_lift4_action()),
        ("q8_standard", q8_action()),
        ("c4xc2_shift_sign", shifted_sign_action()),
        ("s3_linear", s3_linear_action()),
        ("a4_rotations", a4_rotation_action()),
        ("threefold_signs", sign_diag_action([2, 2, 2])),
        ("c3xc3_clock_shift", clock_shift_action(3)),
        ("d4_rotation", d4_rotation_action()),
    ]


# ---------------------------------------------------------------------------
# suites


def _case(name, fn):
    return (name, fn)


def suite_abelian_sweep():
    cases = []
    for n in range(1, 49):
        for shape in abelian_shapes(n):
            name = f"abelian_{n}_" + "x".join(map(str, shape))

            def fn(shape=shape):
                g = corpus.abelian_group(list(shape))
                got = h2_qz(g).invariant_factors
                want = predicted_h2_abelian(shape)
                return got == want, f"got {got} want {want}"

            cases.append(_case(name, fn))
    for n in range(49, 97):
        def fn(n=n):
            got = h2_qz(cyclic_group(n)).invariant_factors
            return got == [], f"got {got} want []"

        cases.append(_case(f"cyclic_{n}", fn))
    return cases


def suite_b0_corpus():
    cases = []
    for name, group in corpus.b0_vanishing_corpus():
        def fn(group=group):
            rep = bogomolov_multiplier(group)
            got = list(rep.unramified_group.invariant_factors)
            return got == [], f"B0 = {got}, want []"

        cases.append(_case(f"b0_zero_{name}", fn))

    def fixture_case():
        doc = load_fixture_json("b0_order64.json")
        if doc is None:
            return False, "fixture b0_order64.json missing"
        g = from_cayley_table(doc["group"]["table"])
        rep = bogomolov_multiplier(g)
        got = list(rep.unramified_group.invariant_factors)
        want = list(doc["expected_b0"])
        return got == want, f"B0 = {got}, want {want}"

    cases.append(_case("b0_nonzero_order64", fixture_case))
    return cases


def _random_lattice_pair(rng, rank, order1, order2):
    """Commuting integer matrices of orders dividing the generator orders."""
    blocks2 = {
        1: [[[1, 0], [0, 1]]],
        2: [[[-1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]]],
        3: [[[0, -1], [1, -1]]],
        4: [[[0, -1], [1, 0]]],
        6: [[[1, -1], [1, 0]]],
    }
    for _ in range(200):
        # block structure: list of 1s and 2s summing to rank
        layout = []
        left = rank
        while left:
            b = rng.choice([1, 2]) if left >= 2 else 1
            layout.append(b)
            left -= b
        m1 = np.zeros((rank, rank), dtype=np.int64)
        m2 = np.zeros((rank, rank), dtype=np.int64)
        pos = 0
        for b in layout:
            if b == 1:
                c1 = rng.choice([1, -1]) if order1 % 2 == 0 else 1
                c2 = rng.choice([1, -1]) if order2 % 2 == 0 else 1
                m1[pos, pos] = c1
                m2[pos, pos] = c2
            else:
                opts1 = [o for o in blocks2 if order1 % o == 0]
                opts2 = [o for o in blocks2 if order2 % o == 0]
                b1 = np.array(rng.choice(blocks2[rng.choice(opts1)]), dtype=np.int64)
                b2 = np.array(rng.choice(blocks2[rng.choice(opts2)]), dtype=np.int64)
                m1[pos:pos + 2, pos:pos + 2] = b1
                m2[pos:pos + 2, pos:pos + 2] = b2
            pos += b
        if np.array_equal(m1 @ m2, m2 @ m1):
            return m1, m2
    return np.eye(rank, dtype=np.int64), np.eye(rank, dtype=np.int64)


def oracle_equivalence_cases(count=50, seed=20240202):
    """Randomized (bicyclic group, module) pairs for the two-complex check."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n1 = rng.choice([1, 2, 2, 3, 4, 5, 6])
        n2 = rng.choice([2, 3, 4, 6, 8, 9, 12])
        if n1 * n2 > 36:
            continue
        kind = rng.choice(["trivial_qz", "finite", "lattice"])
        out.append((n1, n2, kind, rng.randrange(1 << 30)))
    return out


def suite_oracle_equivalence():
    cases = []
    for i, (n1, n2, kind, sub_seed) in enumerate(oracle_equivalence_cases()):
        name = f"oracle_{i:02d}_{n1}x{n2}_{kind}"

        def fn(n1=n1, n2=n2, kind=kind, sub_seed=sub_seed):
            rng = random.Random(sub_seed)
            g = corpus.abelian_group([n1, n2]) if n1 > 1 else corpus.abelian_group([n2])
            factors, witnesses = abelian_structure(g.subgroup(range(g.order)))
            pair = tuple(witnesses) if witnesses else (0,)
            if kind == "trivial_qz":
                module = GModule(g, "trivial_qz")
                bar2 = h2_qz(g).invariant_factors
                small2 = list(small_complex_h(g, pair, module, 2,
                                              qz_modulus=g.order).invariant_factors)
                bar1 = h1(module).invariant_factors
                small1 = list(small_complex_h(g, pair, module, 1,
                                              qz_modulus=g.order).invariant_factors)
            elif kind == "finite":
                m = rng.choice([2, 3, 4, 6, 8, 9, 12])
                module = GModule.finite(g, [m])
                bar2 = h2(module).invariant_factors
                small2 = list(small_complex_h(g, pair, module, 2).invariant_factors)
                bar1 = h1(module).invariant_factors
                small1 = list(small_complex_h(g, pair, module, 1).invariant_factors)
            else:
                rank = rng.choice([1, 2, 3])
                gens = list(g.generators)
                o1 = g.element_order(gens[0])
                o2 = g.element_order(gens[1]) if len(gens) > 1 else 1
                m1, m2 = _random_lattice_pair(rng, rank, o1, o2)
                gen_mats = {gens[0]: m1.tolist()}
                if len(gens) > 1:
                    gen_mats[gens[1]] = m2.tolist()
                try:
                    module = GModule.lattice(g, rank, gen_mats)
                except BrqError:
                    module = GModule.lattice(g, rank)
                bar2 = h2(module, max_order=36).invariant_factors
                small2 = list(small_complex_h(g, pair, module, 2).invariant_factors)
                bar1 = h1(module, max_order=36).invariant_factors
                small1 = list(small_complex_h(g, pair, module, 1).invariant_factors)
            ok = bar2 == small2 and bar1 == small1
            return ok, f"H2 bar {bar2} small {small2}; H1 bar {bar1} small {small1}"

        cases.append(_case(name, fn))
    return cases


def suite_transfer():
    cases = []
    for name, group in corpus.b0_vanishing_corpus():
        def fn(group=group):
            coh = h2_qz_cached(group, max(group.order, 2))
            k = len(coh.invariant_factors)
            if k == 0:
                return True, "H2 trivial, nothing to transfer"
            checked = 0
            for sub in subgroups_of_index_at_most(group, 4):
                if sub.order == group.order:
                    continue
                idx = sub.index()
                for i in range(k):
                    coords = tuple(1 if j == i else 0 for j in range(k))
                    coh_a, res = restrict_qz_class(coh, coords, sub)
                    back = corestrict_qz_class(coh_a, res, sub, coh)
                    want = tuple((idx * c) % f for c, f in
                                 zip(coords, coh.invariant_factors))
                    if back != want:
                        return False, (f"subgroup {list(sub.elements)}: "
                                       f"cores(res) = {back}, want {want}")
                    checked += 1
            return True, f"{checked} transfer identities verified"

        cases.append(_case(f"transfer_{name}", fn))
    return cases


def _null_space_cyclo(rows):
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    pivots = {}
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
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


def suite_plucker_oracle():
    cases = []

    def annihilator_case():
        act = correlation_klein_gr24()
        beta_act = plucker_beta(act, 2)
        coh = h2_qz_cached(act.group, beta_act.modulus)
        beta = beta_act.gamma_coords()
        if any((2 * c) % f for c, f in zip(beta, coh.invariant_factors)):
            return False, "correlation class is not 2-torsion"
        k_mat = beta_act.gen_matrices[act.coset_witness]
        rng = random.Random(20240501)
        checked = 0
        while checked < 25:
            basis = [[rng.randrange(-3, 4) for _ in range(4)] for _ in range(2)]
            pv = plucker_vector(basis, 4)
            if all(x.is_zero() for x in pv):
                continue
            image = k_mat.apply(pv)
            phi_rows = [act.phi.apply([CycloNumber.from_rational(v) for v in row])
                        for row in basis]
            ann = _null_space_cyclo(phi_rows)
            if len(ann) != 2:
                continue
            target = plucker_vector(ann, 4)
            if not _proportional(image, target):
                return False, f"plane {basis} fails the annihilator check"
            checked += 1
        return True, "25/25 proportionality checks pass; class is 2-torsion"

    cases.append(_case("gr24_annihilator_oracle", annihilator_case))

    for name, act in catalog_actions():
        def gr1(act=act):
            a = br_nr_grassmannian(act, 1)
            b = br_nr_projective(act)
            ok = (a.stack_group.invariant_factors == b.stack_group.invariant_factors
                  and a.unramified_group.invariant_factors
                  == b.unramified_group.invariant_factors)
            return ok, (f"gr(1) {list(a.unramified_group.invariant_factors)} vs "
                        f"proj {list(b.unramified_group.invariant_factors)}")

        cases.append(_case(f"degeneracy_gr1_{name}", gr1))

        def flag1(act=act):
            a = br_nr_flag(act, [1])
            b = br_nr_grassmannian(act, 1)
            ok = (a.stack_group.invariant_factors == b.stack_group.invariant_factors
                  and a.unramified_group.invariant_factors
                  == b.unramified_group.invariant_factors)
            return ok, "flag([1]) matches gr(1)"

        cases.append(_case(f"degeneracy_flag1_{name}", flag1))

        def proj_vs_linear(act=act, name=name):
            gamma = act.gamma_coords()
            if any(gamma):
                return True, "gamma nonzero; degeneracy not applicable"
            a = br_nr_projective(act)
            b = br_nr_linear(act.group)
            ok = (a.stack_group.invariant_factors == b.stack_group.invariant_factors
                  and a.unramified_group.invariant_factors
                  == b.unramified_group.invariant_factors)
            return ok, "projective with zero class matches linear"

        cases.append(_case(f"degeneracy_projlin_{name}", proj_vs_linear))
    return cases


def suite_fixtures():
    cases = []

    def klein_stack():
        g = corpus.klein_four()
        pic = GModule.lattice(g, 1)
        total = br_stack_fixed_point(g, pic, True)
        got = list(total.invariant_factors)
        return got == [2], f"stack group {got}, want [2]"

    cases.append(_case("stack_p3_klein", klein_stack))

    def a4_h2_and_restriction():
        a4 = corpus.alternating4(nonstandard_in_s6=True)
        coh = h2_qz_cached(a4, 12)
        if coh.invariant_factors != [2]:
            return False, f"H2(A4) = {coh.invariant_factors}"
        klein = [x for x in range(12) if a4.element_order(x) in (1, 2)]
        sub = a4.subgroup(klein)
        _, coords = restrict_qz_class(coh, (1,), sub)
        return any(coords), f"restriction coordinates {coords}"

    cases.append(_case("a4_h2_klein_restriction", a4_h2_and_restriction))

    def m06_stack():
        doc = load_fixture_json("m06_picard_lattice.json")
        if doc is None:
            return True, "optional lattice fixture not present; skipped"
        g = from_permutation_generators(doc["group"]["degree"],
                                        doc["group"]["generators"])
        action = {g.generators[int(k)]: v
                  for k, v in doc["module"]["action"].items()}
        pic = GModule.lattice(g, doc["module"]["rank"], action)
        total = br_stack_fixed_point(g, pic, True)
        got = list(total.invariant_factors)
        return got == [2, 2], f"stack group {got}, want [2, 2]"

    cases.append(_case("stack_m06_a4", m06_stack))

    for name, gens in corpus.gl2z_bicyclic_cases():
        def toric_case(gens=gens):
            grp, module = toric_group_from_matrices(gens)
            rep = br_nr_toric(ToricAction(grp, module))
            got = list(rep.unramified_group.invariant_factors)
            return got == [], f"unramified {got}, want []"

        cases.append(_case(f"toric_{name}", toric_case))

    def determinism():
        rep1 = bogomolov_multiplier(corpus.symmetric(4))
        rep2 = bogomolov_multiplier(corpus.symmetric(4))
        if rep1.to_json() != rep2.to_json():
            return False, "JSON outputs differ between runs"
        if rep1.to_text() != rep2.to_text():
            return False, "text outputs differ between runs"
        return True, "byte-identical reports across repeated runs"

    cases.append(_case("report_determinism", determinism))

    for name in ("klein4_b0.json", "a4_h2.json", "pauli_brnr.json",
                 "toric_s3.json", "p3_klein_stack.json", "gr24_correlation.json"):
        def expected_case(name=name):
            from .cli import run_document_for_fixture

            doc_text = _fixture_text("inputs/" + name)
            want = _fixture_text("expected/" + name.replace(".json", ".out"))
            if doc_text is None or want is None:
                return False, f"fixture {name} missing"
            got = run_document_for_fixture(name)
            return got == want, ("stored report matches byte-for-byte"
                                 if got == want else "stored report differs")

        cases.append(_case(f"stored_{name}", expected_case))
    return cases


def toric_group_from_matrices(int_mats):
    """Matrix group in GL_d(Z) with its lattice module (deterministic order)."""
    mats = [np.array(m, dtype=np.int64) for m in int_mats]
    d = len(mats[0])
    elems = [np.eye(d, dtype=np.int64)]
    seen = {tuple(elems[0].flatten())}
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
    elems = [elems[0]] + sorted(elems[1:], key=lambda m: tuple(m.flatten()))
    index = {tuple(m.flatten()): i for i, m in enumerate(elems)}
    table = [[index[tuple((a @ b).flatten())] for b in elems] for a in elems]
    from .groups import FiniteGroup

    grp = FiniteGroup(table)
    module = GModule.lattice(grp, d, {s: elems[s].tolist() for s in grp.generators})
    return grp, module


# ---------------------------------------------------------------------------
# runner


def get_suite(name):
    builders = {
        "abelian-sweep": suite_abelian_sweep,
        "b0-corpus": suite_b0_corpus,
        "oracle-equivalence": suite_oracle_equivalence,
        "transfer": suite_transfer,
        "plucker-oracle": suite_plucker_oracle,
        "fixtures": suite_fixtures,
    }
    if name not in builders:
        raise BrqError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    return builders[name]()


def run_suite(name, out=None):
    """Run one suite in case order; returns (passed, failed)."""
    import sys

    out = out or sys.stdout
    passed = failed = 0
    for cname, fn in get_suite(name):
        try:
            ok, detail = fn()
        except BrqError as err:
            ok, detail = False, f"error: {err}"
        if ok:
            passed += 1
        else:
            failed += 1
        out.write(f"{'PASS' if ok else 'FAIL'} {name}/{cname}: {detail}\n")
    out.write(f"suite {name}: {passed} passed, {failed} failed\n")
    return passed, failed
