from __future__ import annotations

import itertools
import random
from math import gcd, prod

import pytest

from brq.errors import ContainmentError, DomainError, SizeLimitError
from brq.groups import abelian_structure, cyclic_group, direct_product, from_cayley_table
from brq.linalg import (
    INT64_BOUND,
    NUMPY_MIN_ROWS,
    AbelianStructure,
    HowellAccumulator,
    IntMatrix,
    ModMatrix,
    _scaled_unit_structure,
    direct_sum_structure,
    hnf_rows,
    howell_form,
    howell_rows,
    howell_solve,
    kernel,
    quotient_of_structure,
    smith_normal_form,
    smith_transforms,
    solve,
    subquotient_structure,
)


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
    assert hnf_rows(gens) == hnf_rows([[1, -2]])


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
        assert mul(mul(u, rows, n), v, n) == d
        assert mul(u, w, m) == identity(m)
        assert mul(w, u, m) == identity(m)
        wrapped = smith_normal_form(IntMatrix.from_rows(rows))
        assert [x.to_lists() for x in wrapped] == [u, d, v]


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


@pytest.mark.parametrize("n", ENGINE_MODULI[:-1])
@pytest.mark.parametrize("cols", ENGINE_COLS)
def test_sweep_then_canonical_equals_howell_rows(n, cols):
    rng = random.Random(cols * 1000 + n % 997)
    rows = random_rows(rng, cols // 2 + 2, cols, n)
    acc = HowellAccumulator(n)
    acc.ingest(rows[:3])
    acc.ingest(rows[3:])
    assert acc.canonical_rows() == howell_rows(rows, n)


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


# Over Z the engine always runs the pure Hermite loop, whose entries grow
# fast with the width, so the Z case stays narrow.
@pytest.mark.parametrize("n, cols", [(n, c) for n in ENGINE_MODULI for c in ENGINE_COLS]
                         + [(None, 5), (None, 9)])
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
    else:
        assert [v % n for v in matvec(rows, x)] == [v % n for v in b]


@pytest.mark.parametrize("n", ENGINE_MODULI + [None])
@pytest.mark.parametrize("cols", ENGINE_COLS)
def test_empty_system_kernel_is_the_identity(n, cols):
    # over Z/1 every vector is zero, so the kernel has no generators
    assert kernel([], n, cols) == ([] if n == 1 else identity(cols))
