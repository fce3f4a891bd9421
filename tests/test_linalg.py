from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brq.cohomology import GModule, _BarH1Solver, _BarH2Solver
from brq.errors import ContainmentError, DomainError, SizeLimitError
from brq.groups import abelian_structure, cyclic_group, direct_product, from_cayley_table
from brq.linalg import (
    INT64_BOUND,
    NUMPY_MIN_ROWS,
    AbelianStructure,
    HowellAccumulator,
    IntMatrix,
    ModMatrix,
    _annihilator_relations,
    _scaled_unit_structure,
    canonical_howell,
    direct_sum_structure,
    howell_form,
    howell_rows,
    howell_solve,
    howell_solve_rows,
    invariant_presentation,
    kernel,
    pivot_columns,
    quotient_of_structure,
    smith_normal_form,
    smith_transforms,
    solve,
    subquotient_structure,
)
from test_group_oracle import SCHUR_LARGE, _relabelled
from test_groups import CORPUS_AND_WITNESS


def mat_mul(a, b):
    return [[sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for ra in a]


def check_snf(rows):
    m = IntMatrix.from_rows(rows)
    u, d, v = smith_normal_form(m)
    left = mat_mul(mat_mul(u.to_lists(), m.to_lists()), v.to_lists())
    assert left == d.to_lists()
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        # off-diagonal zero
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    return diag


def test_snf_identity():
    diag = check_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert diag == [1, 1, 1]


def test_snf_small_example():
    diag = check_snf([[2, 4], [6, 8]])
    assert diag == [2, 4]


def test_snf_zero_matrix():
    diag = check_snf([[0, 0], [0, 0]])
    assert diag == [0, 0]


def test_snf_minor_gcd_oracle():
    rng = random.Random(20240113)
    for _ in range(40):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        diag = check_snf(rows)
        # oracle: product of first k diagonal entries = gcd of all k x k minors
        for k in range(1, min(m, n) + 1):
            minors = []
            for ris in itertools.combinations(range(m), k):
                for cis in itertools.combinations(range(n), k):
                    sub = [[rows[i][j] for j in cis] for i in ris]
                    minors.append(det(sub))
            g = 0
            for x in minors:
                g = gcd(g, x)
            dk = prod(diag[:k])
            assert abs(dk) == g


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(sub)
    return total


def span_set_mod(rows, n, width):
    """Exhaustive span of given rows over Z/n (tiny cases only)."""
    vecs = {tuple([0] * width)}
    frontier = [tuple([0] * width)]
    while frontier:
        cur = frontier.pop()
        for r in rows:
            nxt = tuple((a + b) % n for a, b in zip(cur, r))
            if nxt not in vecs:
                vecs.add(nxt)
                frontier.append(nxt)
    return vecs


def test_howell_identity_fixed():
    m = ModMatrix.from_rows([[1, 0], [0, 1]], 6)
    assert howell_form(m).to_lists() == [[1, 0], [0, 1]]


def test_howell_two_mod_four():
    m = ModMatrix.from_rows([[2]], 4)
    h = howell_form(m)
    assert h.to_lists() == [[2]]
    assert span_set_mod(h.to_lists(), 4, 1) == {(0,), (2,)}


def test_howell_span_preserved_and_idempotent():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.choice([2, 4, 6, 12])
        rows = [[rng.randrange(n) for _ in range(3)] for _ in range(rng.randrange(1, 5))]
        h = howell_rows(rows, n)
        assert span_set_mod(rows, n, 3) == span_set_mod(h, n, 3)
        assert howell_rows(h, n) == h
        # membership of original rows in the span of the form
        for r in rows:
            assert howell_solve(h, r, n) is not None
        # pivots handed in give the same answers, inside the span or not
        pivots = pivot_columns(h)
        for r in rows + [[rng.randrange(n) for _ in range(3)] for _ in range(4)]:
            assert howell_solve(h, r, n, pivots) == howell_solve(h, r, n)


def test_howell_canonical_for_equal_spans():
    # different generating sets of the same span give identical forms
    rng = random.Random(123)
    for _ in range(20):
        n = 8
        rows = [[rng.randrange(n) for _ in range(3)] for _ in range(2)]
        h1 = howell_rows(rows, n)
        shuffled = [
            [(3 * a) % n for a in rows[1]],
            rows[0],
            [(a + b) % n for a, b in zip(rows[0], rows[1])],
        ]
        h2 = howell_rows(shuffled, n)
        if span_set_mod(rows, n, 3) == span_set_mod(shuffled, n, 3):
            assert h1 == h2


def test_kernel_mod_matches_bruteforce():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.choice([4, 6, 12])
        rows = [[rng.randrange(n) for _ in range(2)] for _ in range(3)]
        gens = kernel([list(c) for c in zip(*rows)], n, 3)
        # brute force left kernel
        brute = set()
        for y in itertools.product(range(n), repeat=3):
            if all(sum(y[i] * rows[i][j] for i in range(3)) % n == 0 for j in range(2)):
                brute.add(y)
        assert span_set_mod(gens, n, 3) == brute


def test_kernel_int_simple():
    rows = [[2, 4], [1, 2]]
    gens = kernel([list(c) for c in zip(*rows)], None, 2)
    # left kernel of [[2,4],[1,2]]: y0*2 + y1*1 = 0 and y0*4 + y1*2 = 0 -> y1 = -2 y0
    assert gens
    for g in gens:
        assert all(sum(g[i] * rows[i][j] for i in range(2)) == 0 for j in range(2))
    assert gens in ([[1, -2]], [[-1, 2]])


def rational_rank(rows):
    """Rank over Q, by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for j in range(len(m[0]) if m else 0):
        p = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][j] / m[rank][j]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


int_matrices = st.integers(1, 12).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                          min_size=1, max_size=8))


@settings(max_examples=80, deadline=None, database=None)
@given(int_matrices, st.lists(st.tuples(st.integers(0, 7), st.sampled_from([1, -1])),
                              max_size=4))
def test_kernel_over_z_is_annihilated_full_and_saturated(rows, copies):
    # rank-deficient draws: rows repeated, some of them negated
    rows = rows + [[s * x for x in rows[i % len(rows)]] for i, s in copies[:8 - len(rows)]]
    cols = len(rows[0])
    gens = kernel(rows, None, cols)
    for g in gens:
        assert matvec(rows, g) == [0] * len(rows)
    assert len(gens) == cols - rational_rank(rows)
    # saturated: a full-rank sublattice of the kernel with all invariant
    # factors 1 is the whole kernel lattice
    if gens:
        assert check_snf(gens) == [1] * len(gens)


def test_solve_identity_and_congruences():
    m = ModMatrix.from_rows([[1, 0], [0, 1]], 7)
    assert solve(m, [3, 4]) == [3, 4]
    assert solve(ModMatrix.from_rows([[2]], 4), [1]) is None
    assert solve(ModMatrix.from_rows([[2]], 4), [2]) == [1]


def test_solve_int():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve(m, [4, 9]) == [2, 3]
    assert solve(m, [1, 0]) is None


def test_solve_mod_bruteforce():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.choice([4, 6, 12])
        rows = [[rng.randrange(n) for _ in range(2)] for _ in range(2)]
        m = ModMatrix.from_rows(rows, n)
        b = [rng.randrange(n) for _ in range(2)]
        got = solve(m, b)
        solutions = [
            list(x)
            for x in itertools.product(range(n), repeat=2)
            if all(sum(rows[i][j] * x[j] for j in range(2)) % n == b[i] % n for i in range(2))
        ]
        if solutions:
            assert got in solutions
        else:
            assert got is None


def test_subquotient_trivial_when_kernel_equals_image():
    s = subquotient_structure(2, 6, [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert s.invariant_factors == ()


def test_subquotient_z2_squared():
    s = subquotient_structure(2, None, [[1, 0], [0, 1]], [[2, 0], [0, 2]])
    assert s.invariant_factors == (2, 2)
    for i, w in enumerate(s.witness_generators):
        coords = s.coords(list(w))
        expected = tuple(1 if j == i else 0 for j in range(2))
        assert coords == expected


def test_subquotient_mixed_mod():
    # subgroup of (Z/12)^2 generated by (2,0) and (0,3), image generated by (4,0)
    s = subquotient_structure(2, 12, [[2, 0], [0, 3]], [[4, 0]])
    # <2> mod 12 is Z/6, quotient by <4> leaves Z/2; <3> is Z/4 untouched
    assert sorted(s.invariant_factors) == [2, 4]
    assert s.order == 8


def test_subquotient_containment_error():
    with pytest.raises(ContainmentError):
        subquotient_structure(2, 12, [[2, 0]], [[1, 0]])


def test_subquotient_int_infinite_rejected():
    with pytest.raises(DomainError):
        subquotient_structure(1, None, [[1]], [])


def test_subquotient_order_counts():
    # |result| * |image| == |kernel| on enumerable cases
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice([4, 6, 8])
        kgens = [[rng.randrange(n) for _ in range(2)] for _ in range(2)]
        kspan = span_set_mod(kgens, n, 2)
        igens = [[(2 * a) % n for a in kgens[0]]]
        ispan = span_set_mod(igens, n, 2)
        s = subquotient_structure(2, n, kgens, igens)
        assert s.order * len(ispan) == len(kspan)
    # larger cases against the SNF of the stacked relation matrix
    for dim, n, kgens, igens in random_subquotients(random.Random(12)):
        s = subquotient_structure(dim, n, kgens, igens)
        assert s.invariant_factors == stacked_invariant_factors(kgens, igens, n)


# 3 * 2^20 is above INT64_BOUND, so its relations take the pure path.
SUBQUOTIENT_MODULI = [2, 12, 32, 96, 3 * 2**20]


def random_kernel_gens(rng, count, dim, n):
    """Rows mod n, some scaled by a small divisor of n so that pivots are not
    units."""
    divisors = [d for d in range(1, 13) if n % d == 0]
    return [[rng.choice(divisors) * rng.randrange(n) % n for _ in range(dim)]
            for _ in range(count)]


def random_subquotients(rng):
    """(dim, n, kernel gens, image gens) with the image inside the kernel
    span; the last case has NUMPY_MIN_ROWS relations and image coordinates,
    so its relations take the numpy path."""
    cases = []
    for n in SUBQUOTIENT_MODULI:
        for _ in range(8):
            dim = rng.randrange(1, 8)
            kgens = random_kernel_gens(rng, rng.randrange(1, 8), dim, n)
            mix = [[rng.randrange(n) for _ in kgens] for _ in range(rng.randrange(0, 4))]
            cases.append((dim, n, kgens, [[x % n for x in row] for row in mul(mix, kgens, dim)]))
    kgens = [[2 * rng.randrange(48) for _ in range(50)] for _ in range(50)]
    mix = [[rng.randrange(2) for _ in kgens] for _ in range(10)]
    cases.append((50, 96, kgens, [[x % 96 for x in row] for row in mul(mix, kgens, 50)]))
    return cases


def stacked_invariant_factors(kgens, igens, n):
    """Invariant factors of span(kgens)/span(igens) over Z/n from the integer
    SNF of the stacked matrix [relations among the Howell basis | n I |
    image coordinates], relations from the right kernel of the basis."""
    basis = howell_rows(kgens, n)
    k = len(basis)
    rel = kernel([list(c) for c in zip(*basis)], n, k)
    rel += [[n * (i == j) for j in range(k)] for i in range(k)]
    rel += [howell_solve(basis, v, n) for v in igens]
    factors, _, _ = invariant_presentation([list(c) for c in zip(*rel)])
    return tuple(f for f in factors if f > 1)


@pytest.mark.parametrize("n", [2, 12, 32, 63, 96])
def test_annihilator_relations_are_all_the_relations(n):
    rng = random.Random(n)
    for _ in range(30):
        dim = rng.randrange(1, 8)
        basis = howell_rows(random_kernel_gens(rng, rng.randrange(1, 8), dim, n), n)
        relations = _annihilator_relations(basis, pivot_columns(basis), n)
        assert all(not any(x % n for x in matvec(list(zip(*basis)), rel)) for rel in relations)
        assert howell_rows(relations, n) == kernel([list(c) for c in zip(*basis)], n, len(basis))


def test_canonical_howell_is_the_same_on_both_paths():
    rng = random.Random(5)
    for n in (12, 96):
        rows = random_rows(rng, NUMPY_MIN_ROWS, 30, n)
        assert len(rows) >= NUMPY_MIN_ROWS
        assert canonical_howell(rows, n) == howell_rows(rows, n)


def test_class_map_retraction():
    s = subquotient_structure(2, 8, [[1, 0], [0, 1]], [[4, 0], [0, 2]])
    # factors: Z/4 x Z/2 in some order
    assert sorted(s.invariant_factors) == [2, 4]
    for i, w in enumerate(s.witness_generators):
        coords = s.coords(list(w))
        assert coords == tuple(1 if j == i else 0 for j in range(len(s.invariant_factors)))


def test_quotient_of_structure():
    base = subquotient_structure(2, 4, [[1, 0], [0, 1]], [])
    assert base.invariant_factors == (4, 4)
    q = quotient_of_structure(base, [(2, 0)])
    assert sorted(q.invariant_factors) == [2, 4]
    q2 = quotient_of_structure(base, [(1, 0)])
    assert sorted(q2.invariant_factors) == [4]


def test_direct_sum_structure():
    a = subquotient_structure(1, 2, [[1]], [])
    b = subquotient_structure(1, 3, [[1]], [])
    s = direct_sum_structure(a, b)
    assert s.invariant_factors == (6,)
    t = direct_sum_structure(a, a)
    assert t.invariant_factors == (2, 2)


def test_determinism_identical_runs():
    rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    a1 = smith_normal_form(IntMatrix.from_rows(rows))
    a2 = smith_normal_form(IntMatrix.from_rows(rows))
    assert a1 == a2
    h1 = howell_rows(rows, 10)
    h2 = howell_rows(rows, 10)
    assert h1 == h2


def test_kernel_mod_cols_right_kernel():
    rows = [[2, 0], [0, 2]]
    gens = kernel(rows, 4, 2)
    got = span_set_mod(gens, 4, 2)
    assert got == {(0, 0), (2, 0), (0, 2), (2, 2)}


def mul(a, b, cols):
    """Product of an r x k and a k x cols matrix; empty shapes allowed."""
    return [[sum(ra[t] * b[t][j] for t in range(len(b))) for j in range(cols)] for ra in a]


def identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def snf_cases(rng):
    cases = [[], [[]], [[], [], []], [[0, 0, 0]], [[0], [0]], [[5]], [[0, 0], [0, 0]]]
    for _ in range(60):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        cases.append([[rng.randrange(-30, 31) for _ in range(n)] for _ in range(m)])
    for m, n in [(1, 5), (5, 1), (1, 1)]:
        cases.append([[rng.randrange(-30, 31) for _ in range(n)] for _ in range(m)])
    for _ in range(20):  # rank-deficient products of thin factors
        m, n = rng.randrange(2, 7), rng.randrange(2, 7)
        r = rng.randrange(1, min(m, n))
        left = [[rng.randrange(-5, 6) for _ in range(r)] for _ in range(m)]
        right = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(r)]
        cases.append(mul(left, right, n))
    return cases


def test_snf_carries_inverse_transform():
    rng = random.Random(20261018)
    for rows in snf_cases(rng):
        u, d, v, w = smith_transforms(rows)
        m = len(rows)
        n = len(rows[0]) if rows else 0
        assert mul(u, w, m) == identity(m)
        assert mul(w, u, m) == identity(m)
        assert mul(mul(u, rows, n), v, n) == d
        if n:
            assert det(v) in (1, -1)
        wrapped = [x.to_lists() for x in smith_normal_form(IntMatrix.from_rows(rows))]
        assert wrapped == [u, d, v]
        factors, pu, pw = invariant_presentation(rows)
        assert (pu, pw) == (u, w)
        assert factors == [d[i][i] if i < n else 0 for i in range(m)]


# (M, U, D, V, W) pinned from a reduction that updates V in place, as
# `smith_transforms` does.
FROZEN_SNF = [
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
     [[1, 0, 0], [3, 1, 0], [1, 2, 1]], [[2, 0, 0], [0, 6, 0], [0, 0, 12]],
     [[1, 0, -2], [0, -1, 4], [0, 1, -3]], [[1, 0, 0], [-3, 1, 0], [5, -2, 1]]),
    ([[0, 6, 4], [9, 0, 3]],
     [[1, -1], [3, -4]], [[1, 0, 0], [0, 18, 0]],
     [[0, 0, 1], [0, 1, 2], [1, -6, -3]], [[4, -1], [3, -1]]),
]


@pytest.mark.parametrize("rows, u, d, v, w", FROZEN_SNF)
def test_snf_transforms_are_unchanged(rows, u, d, v, w):
    wrapped = smith_normal_form(IntMatrix.from_rows(rows))
    assert [x.to_lists() for x in wrapped] == [u, d, v]
    factors, pu, pw = invariant_presentation(rows)
    assert (factors, pu, pw) == ([d[i][i] for i in range(len(rows))], u, w)


def assert_witnesses_are_unit_classes(s):
    k = len(s.invariant_factors)
    for i, w in enumerate(s.witness_generators):
        assert s.coords(list(w)) == tuple(int(j == i) for j in range(k))


def test_subquotient_witnesses_map_to_unit_vectors_mod_n():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.choice([4, 6, 8, 12, 36, 96])
        dim = rng.randrange(1, 5)
        kgens = [[rng.randrange(n) for _ in range(dim)] for _ in range(rng.randrange(1, 5))]
        mix = [[rng.randrange(n) for _ in kgens] for _ in range(rng.randrange(0, 3))]
        igens = [[x % n for x in row] for row in mul(mix, kgens, dim)]
        s = subquotient_structure(dim, n, kgens, igens)
        assert_witnesses_are_unit_classes(s)
        for v in igens:
            assert not any(s.coords(v))
    for dim, n, kgens, igens in random_subquotients(random.Random(43)):
        s = subquotient_structure(dim, n, kgens, igens)
        assert_witnesses_are_unit_classes(s)
        for v in igens:
            assert not any(s.coords(v))
        # additive on the kernel span
        for _ in range(3):
            a, b = ([x % n for x in mul([[rng.randrange(n) for _ in kgens]], kgens, dim)[0]]
                    for _ in range(2))
            total = [(x + y) % n for x, y in zip(a, b)]
            assert s.coords(total) == tuple((x + y) % f for x, y, f in
                                            zip(s.coords(a), s.coords(b), s.invariant_factors))


def test_subquotient_witnesses_map_to_unit_vectors_over_z():
    rng = random.Random(42)
    for _ in range(40):
        dim = rng.randrange(1, 4)
        kgens = [[rng.randrange(-6, 7) for _ in range(dim)] for _ in range(dim)]
        mix = [[rng.randrange(-4, 5) for _ in range(dim)] for _ in range(dim)]
        if det(mix) == 0:
            continue
        igens = mul(mix, kgens, dim)  # same rank as kgens, so the quotient is finite
        s = subquotient_structure(dim, None, kgens, igens)
        assert_witnesses_are_unit_classes(s)
        for v in igens:
            assert not any(s.coords(v))


def test_abelian_structure_witness_orders_on_relabelled_group():
    g = direct_product(direct_product(cyclic_group(2), cyclic_group(4)), cyclic_group(8))
    rng = random.Random(7)
    perm = [0] + rng.sample(range(1, g.order), g.order - 1)
    inv = {p: i for i, p in enumerate(perm)}
    table = [[perm[g.table[inv[a]][inv[b]]] for b in range(g.order)] for a in range(g.order)]
    h = from_cayley_table(table, [perm[x] for x in g.generators])
    factors, witnesses = abelian_structure(h.subgroup(range(h.order)))
    assert factors == [2, 4, 8]
    assert [h.element_order(x) for x in witnesses] == factors
    assert len(h.closure(witnesses)) == h.order


@pytest.mark.parametrize("factors, vec", [([4, 2], (2, 0)), ([2, 3], (0, 1))])
def test_scaled_unit_structure_reads_factor_coordinates(factors, vec):
    # factor lists that are not in invariant-factor form
    assert any(_scaled_unit_structure(factors, []).coords(vec))


def test_scaled_unit_structure_quotient_by_a_relation():
    quotient = _scaled_unit_structure([4, 2], [(2, 0)])
    assert quotient.invariant_factors == (2, 2)
    assert not any(quotient.coords((2, 0)))
    assert any(quotient.coords((1, 0)))


# The Howell engine picks the numpy sweep from NUMPY_MIN_ROWS rows of
# [M^T | I] (M's column count) when N <= INT64_BOUND and the pure loop
# otherwise, so these cases run both paths and the pure fallback above the
# bound.
ENGINE_MODULI = [1, 7, 2**5, 12, INT64_BOUND, INT64_BOUND + 2]
ENGINE_COLS = [5, NUMPY_MIN_ROWS + 3]


def random_rows(rng, count, cols, n):
    """Rows mod n with a repeated row, a multiple of another and a zero row."""
    rows = [[rng.randrange(n) for _ in range(cols)] for _ in range(count)]
    rows.append(list(rows[0]))
    rows.append([(6 * x) % n for x in rows[-2]])
    rows.append([0] * cols)
    rng.shuffle(rows)
    return rows


def matvec(rows, x):
    return [sum(a * b for a, b in zip(r, x)) for r in rows]


def has_annihilator_rows(rows, n):
    """Whether some row times n / (its pivot) is nonzero, so that the Howell
    form needs further rows (annihilator rows) to span that multiple."""
    return any(any((n // row[p]) * x % n for x in row)
               for row, p in zip(rows, pivot_columns(rows)))


# The widest case gives the numpy finish at least NUMPY_MIN_ROWS pivots.
@pytest.mark.parametrize("n", ENGINE_MODULI[:-1] + [2, 64, 96])
@pytest.mark.parametrize("cols", ENGINE_COLS + [2 * NUMPY_MIN_ROWS + 4])
def test_sweep_then_canonical_equals_howell_rows(n, cols):
    rng = random.Random(cols * 1000 + n % 997)
    rows = random_rows(rng, cols // 2 + 2, cols, n)
    acc = HowellAccumulator(n)
    acc.ingest(rows[:3])
    acc.ingest(rows[3:])
    want = howell_rows(rows, n)
    assert acc.canonical_rows() == want
    # the kept rows have the same span, so they have the same right kernel
    kept = acc.rows.tolist()
    assert kernel(kept, n, cols) == kernel(want, n, cols)
    if n in (64, 96) and cols > 2 * NUMPY_MIN_ROWS:
        assert len(want) >= NUMPY_MIN_ROWS and has_annihilator_rows(want, n)


def test_sweep_refuses_a_modulus_above_the_int64_bound():
    with pytest.raises(SizeLimitError) as err:
        HowellAccumulator(INT64_BOUND + 2)
    assert err.value.witness == {"modulus": INT64_BOUND + 2, "limit": INT64_BOUND}


@pytest.mark.parametrize("n", ENGINE_MODULI)
@pytest.mark.parametrize("cols", ENGINE_COLS)
def test_kernel_annihilates_and_is_the_canonical_form(n, cols):
    rng = random.Random(cols * 7 + n % 991)
    rows = random_rows(rng, cols // 3 + 1, cols, n)
    gens = kernel(rows, n, cols)
    for x in gens:
        assert all(v % n == 0 for v in matvec(rows, x))
    # the pure loop on [M^T | I], whichever path the engine took
    aug = [list(c) + [int(i == j) for j in range(cols)] for i, c in enumerate(zip(*rows))]
    want = [r[len(rows):] for r in howell_rows(aug, n) if not any(r[:len(rows)])]
    assert gens == want
    if n > 1:
        # fewer equations than unknowns leave a nonzero kernel
        assert gens


# The 51-column Z case catches entry growth in the integer solve and kernel:
# a Hermite loop that leaves its rows unreduced runs for minutes on it.
@pytest.mark.parametrize("n, cols", [(n, c) for n in ENGINE_MODULI for c in ENGINE_COLS]
                         + [(None, 5), (None, 9), (None, 51)])
def test_solve_solution_satisfies_the_system(n, cols):
    rng = random.Random(cols * 13 + (n or 0) % 983)
    count = cols // 3 + 1
    if n is None:
        rows = [[rng.randrange(-2, 3) for _ in range(cols)] for _ in range(count)]
        matrix = IntMatrix.from_rows(rows)
    else:
        rows = random_rows(rng, count, cols, n)
        matrix = ModMatrix.from_rows(rows, n)
    x0 = [rng.randrange(n or 5) for _ in range(cols)]
    b = matvec(rows, x0)
    x = solve(matrix, b)
    if n is None:
        assert matvec(rows, x) == b
        gens = kernel(rows, None, cols)
        assert len(gens) == cols - rational_rank(rows)
        for k in gens:
            assert matvec(rows, k) == [0] * count
    else:
        assert [v % n for v in matvec(rows, x)] == [v % n for v in b]


@pytest.mark.parametrize("n", ENGINE_MODULI + [None])
@pytest.mark.parametrize("cols", ENGINE_COLS)
def test_empty_system_kernel_is_the_identity(n, cols):
    # over Z/1 every vector is zero, so the kernel has no generators
    assert kernel([], n, cols) == ([] if n == 1 else identity(cols))


# ---------------------------------------------------------------------------
# the unit-reduced sweep and the batched solve against the pure loop

SWEEP_MODULI = [12, 64, 96, INT64_BOUND]


def divisor_rows(rng, count, cols, n):
    """Rows mod n with random leading zeros whose entries are multiples of a
    random divisor of n, so that many pivots of their Howell form are not
    units."""
    divisors = [d for d in range(1, 97) if n % d == 0]
    rows = []
    for _ in range(count):
        d, lead = rng.choice(divisors), rng.randrange(cols)
        rows.append([0] * lead + [d * rng.randrange(n) % n for _ in range(cols - lead)])
    return rows


def non_unit_pivots(rows):
    return sum(row[p] != 1 for row, p in zip(rows, pivot_columns(rows)))


def assert_unit_reduced(acc):
    """Each kept row is zero at the unit pivots of the other kept rows."""
    rows = acc.rows
    for i, p in enumerate(pivot_columns(rows.tolist())):
        if rows[i, p] == 1:
            assert not np.delete(rows[:, p], i).any()


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(SWEEP_MODULI), st.integers(1, 40), st.integers(1, 90),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_accumulator_fed_in_parts_gives_howell_rows(n, cols, count, parts, seed):
    rng = random.Random(seed)
    rows = divisor_rows(rng, count, cols, n)
    cuts = sorted(rng.randrange(count + 1) for _ in range(parts - 1))
    acc = HowellAccumulator(n)
    for lo, hi in zip([0] + cuts, cuts + [count]):
        acc.ingest(np.array(rows[lo:hi], dtype=np.int64).reshape(hi - lo, cols))
        assert_unit_reduced(acc)
    assert acc.canonical_rows() == howell_rows(rows, n)


@pytest.mark.parametrize("n", SWEEP_MODULI)
def test_accumulator_with_many_non_unit_pivots(n):
    # several batches of 32 rows per ingest, so the later sweeps meet pivots
    # that earlier batches found and refined
    rng = random.Random(n)
    rows = divisor_rows(rng, 150, 60, n)
    acc = HowellAccumulator(n)
    for lo in range(0, 150, 50):
        acc.ingest(rows[lo:lo + 50])
    assert_unit_reduced(acc)
    want = howell_rows(rows, n)
    assert non_unit_pivots(want) >= 5
    assert acc.canonical_rows() == want


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(SWEEP_MODULI + [INT64_BOUND + 2]), st.integers(1, 30),
       st.integers(0, 40), st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_batched_solve_equals_howell_solve(n, cols, count, targets, seed):
    rng = random.Random(seed)
    basis = howell_rows(divisor_rows(rng, count, cols, n), n)
    inside = [[sum(rng.randrange(n) * row[j] for row in basis) % n for j in range(cols)]
              for _ in range(targets)]
    anywhere = [[rng.randrange(n) for _ in range(cols)] for _ in range(targets)]
    mixed = inside + anywhere
    rng.shuffle(mixed)
    assert howell_solve_rows(basis, mixed, n) == [howell_solve(basis, v, n) for v in mixed]


@pytest.mark.parametrize("n", SWEEP_MODULI + [INT64_BOUND + 2])
def test_subquotient_reports_the_first_image_generator_outside_the_span(n):
    # NUMPY_MIN_ROWS kernel generators, so they are canonicalised by the
    # numpy sweep where the modulus allows it
    rng = random.Random(n + 1)
    cols = 60
    gens = divisor_rows(rng, NUMPY_MIN_ROWS, cols, n)
    basis = howell_rows(gens, n)
    image = [[sum(rng.randrange(n) * row[j] for row in basis) % n for j in range(cols)]
             for _ in range(20)]
    outside = []
    while len(outside) < 3:
        v = [rng.randrange(n) for _ in range(cols)]
        if howell_solve(basis, v, n) is None:
            outside.append(v)
    for v in outside:
        image.insert(rng.randrange(len(image) + 1), v)
    first = next(v for v in image if howell_solve(basis, v, n) is None)
    with pytest.raises(ContainmentError) as info:
        subquotient_structure(cols, n, gens, image)
    assert info.value.witness == first


# ---------------------------------------------------------------------------
# the kernel read off the accumulator's unit pivots, against [M^T | I]

KERNEL_MODULI = [2, 8, 12, 49, 52, 64, 96]


def uniform_rows(rng, count, cols, n):
    """Rows mod n with uniform entries, so nearly all their pivots are units."""
    return [[rng.randrange(n) for _ in range(cols)] for _ in range(count)]


def assert_kernel_is_the_augmented_kernel(acc, cols):
    # the augmented reduction that the accumulator's kernel replaces
    want = kernel(acc.rows.tolist(), acc.n, cols)
    assert acc.kernel(cols) == want
    return want


# Up to 2 * NUMPY_MIN_ROWS + 8 rows and columns, so the augmented reduction
# of the oracle, the one over the non-unit rows and the canonical form of the
# extended generators each run on both sides of NUMPY_MIN_ROWS.
@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(KERNEL_MODULI), st.integers(1, 2 * NUMPY_MIN_ROWS + 8),
       st.integers(0, 2 * NUMPY_MIN_ROWS + 8), st.booleans(), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_accumulator_kernel_equals_the_augmented_kernel(n, cols, count, divisors, parts, seed):
    rng = random.Random(seed)
    rows = (divisor_rows if divisors else uniform_rows)(rng, count, cols, n)
    acc = HowellAccumulator(n)
    cuts = sorted(rng.randrange(count + 1) for _ in range(parts - 1))
    for lo, hi in zip([0] + cuts, cuts + [count]):
        acc.ingest(np.array(rows[lo:hi], dtype=np.int64).reshape(hi - lo, cols))
    gens = assert_kernel_is_the_augmented_kernel(acc, cols)
    for x in gens:
        assert all(v % n == 0 for v in matvec(rows, x))


@pytest.mark.parametrize("n", KERNEL_MODULI[1:])
@pytest.mark.parametrize("count, cols", [(20, 12), (150, 60), (120, 2 * NUMPY_MIN_ROWS + 8)])
def test_accumulator_kernel_with_non_unit_pivots(n, count, cols):
    rng = random.Random(n * 1000 + cols)
    acc = HowellAccumulator(n)
    acc.ingest(divisor_rows(rng, count, cols, n))
    assert non_unit_pivots(acc.rows.tolist()) >= 2
    assert_kernel_is_the_augmented_kernel(acc, cols)


@pytest.mark.parametrize("n", KERNEL_MODULI)
@pytest.mark.parametrize("cols", [5, NUMPY_MIN_ROWS + 3])
def test_accumulator_kernel_of_nothing_and_of_zero_rows_is_the_identity(n, cols):
    acc = HowellAccumulator(n)
    assert assert_kernel_is_the_augmented_kernel(acc, cols) == identity(cols)
    acc.ingest(np.zeros((NUMPY_MIN_ROWS + 1, cols), dtype=np.int64))
    assert assert_kernel_is_the_augmented_kernel(acc, cols) == identity(cols)


def _bar_groups():
    groups = dict(CORPUS_AND_WITNESS)
    for name, build in SCHUR_LARGE.items():
        groups[name] = build()
        table, gens = _relabelled(groups[name], 1)
        groups[name + "_relabelled"] = from_cayley_table(table, generators=gens)
    return groups


BAR_GROUPS = _bar_groups()


@pytest.mark.parametrize("name", list(BAR_GROUPS))
def test_bar_solver_kernel_is_the_augmented_kernel_of_its_rows(name, monkeypatch):
    # the rows each H^1 and H^2 solver of H^2(G, Q/Z) ingests, kept as the
    # accumulator holds them when the solver reads its kernel
    seen = []
    read = HowellAccumulator.kernel

    def recording(acc, cols):
        seen.append((acc.rows.tolist(), acc.n, cols))
        return read(acc, cols)

    monkeypatch.setattr(HowellAccumulator, "kernel", recording)
    group = BAR_GROUPS[name]
    module = GModule(group, "trivial_qz", factors=[group.order], rank=1)
    for solver_class in (_BarH1Solver, _BarH2Solver):
        solver = solver_class(group, module.mats, module.factors)
        (rows, n, cols), = seen
        seen.clear()
        assert solver.kernel_gens == kernel(rows, n, cols)
