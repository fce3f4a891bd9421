"""The array constructors of `brq.groups` against the Python-loop
constructors they replaced.

The oracle below is the tuple-table implementation as it stood before the
group table became one int64 array.  Every table, generator list, inverse
and validation witness of the array code must match it exactly: element
labels decide every stored output and the frozen order-64 witness.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from brq import cohomology, corpus, groups, verify
from brq.cohomology import _d2, _require_cocycle
from brq.errors import BrqError, DomainError, ValidationError
from brq.groups import FiniteGroup, Subgroup, from_cayley_table

# ---------------------------------------------------------------------------
# the oracle


class OldGroup:
    """The tuple-table FiniteGroup: table, inverse and generators as tuples."""

    def __init__(self, table, generators=None, _validated=False):
        rows = [tuple(int(x) for x in r) for r in table]
        self.order = len(rows)
        self.table = tuple(rows)
        if not _validated:
            self._validate()
        self.inverse = tuple(self._find_inverses())
        if generators is None:
            generators = self._greedy_generators()
        self.generators = tuple(dict.fromkeys(int(g) for g in generators if int(g) != 0))
        if not self.generators and self.order > 1:
            raise ValidationError("empty generating set for nontrivial group")
        gen_span = self.closure(self.generators) if self.order > 1 else [0]
        if len(gen_span) != self.order:
            raise ValidationError("generators do not generate the group")

    def _validate(self):
        n = self.order
        t = np.array(self.table, dtype=np.int64)
        if n == 0:
            raise ValidationError("empty table")
        outside = np.argwhere((t < 0) | (t >= n))
        if t.shape != (n, n) or len(outside):
            raise ValidationError("table is not a square over 0..n-1",
                                  witness=tuple(int(x) for x in outside[0]) if len(outside) else None)
        if list(t[0]) != list(range(n)) or list(t[:, 0]) != list(range(n)):
            raise ValidationError("element 0 is not an identity")
        for a in range(n):
            if sorted(t[a]) != list(range(n)) or sorted(t[:, a]) != list(range(n)):
                raise ValidationError(f"row or column {a} is not a permutation", witness=a)
        for g in self._greedy_generators():
            left = t[t[g]]
            right = t[g][t]
            if not np.array_equal(left, right):
                bad = np.argwhere(left != right)[0]
                raise ValidationError("multiplication is not associative",
                                      witness=(g, int(bad[0]), int(bad[1])))

    def _find_inverses(self):
        inv = []
        for a in range(self.order):
            hits = [b for b in range(self.order) if self.table[a][b] == 0]
            if len(hits) != 1 or self.table[hits[0]][a] != 0:
                raise ValidationError(f"element {a} has no two-sided inverse", witness=a)
            inv.append(hits[0])
        return inv

    def _greedy_generators(self):
        gens = []
        seen = {0}
        for a in range(1, self.order):
            if a not in seen:
                gens.append(a)
                seen = set(self.closure(gens))
                if len(seen) == self.order:
                    break
        return gens

    def closure(self, seed):
        members = {0}
        frontier = [0]
        seed = [int(s) for s in seed]
        while frontier:
            x = frontier.pop()
            for s in seed:
                for y in (self.table[x][s], self.table[s][x]):
                    if y not in members:
                        members.add(y)
                        frontier.append(y)
        return sorted(members)

    def is_abelian(self):
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.order) for b in range(self.order))


def old_from_permutation_generators(degree, perms):
    gens = [tuple(int(x) for x in p) for p in perms]
    ident = tuple(range(degree))
    gens = [g for g in dict.fromkeys(gens) if g != ident]

    def compose(p, q):
        return tuple(p[q[i]] for i in range(degree))

    elems, index, level = [ident], {ident: 0}, [ident]
    while level:
        found = {compose(x, g) for x in level for g in gens} - set(index)
        level = sorted(found)
        for y in level:
            index[y] = len(elems)
            elems.append(y)
    n = len(elems)
    table = [[index[compose(elems[a], elems[b])] for b in range(n)] for a in range(n)]
    return OldGroup(table, generators=[index[g] for g in gens])


def old_from_cayley_table(table, generators=None):
    rows = [list(map(int, r)) for r in table]
    n = len(rows)
    ident = next((e for e in range(n)
                  if all(rows[e][x] == x and rows[x][e] == x for x in range(n))), None)
    if ident is None:
        raise ValidationError("table has no identity element", witness={"order": n})
    if ident != 0:
        swap = list(range(n))
        swap[0], swap[ident] = ident, 0
        rows = [[swap[rows[swap[a]][swap[b]]] for b in range(n)] for a in range(n)]
        if generators is not None:
            generators = [swap[g] for g in generators]
    return OldGroup(rows, generators=generators)


def old_cyclic_group(n):
    return OldGroup([[(a + b) % n for b in range(n)] for a in range(n)],
                    generators=[1] if n > 1 else [], _validated=True)


def _old_product(a, b, perms, validated):
    nb = b.order
    table = [[a.table[x1][perms[y1][x2]] * nb + b.table[y1][y2]
              for x2 in range(a.order) for y2 in range(nb)]
             for x1 in range(a.order) for y1 in range(nb)]
    gens = [g * nb for g in a.generators] + list(b.generators)
    return OldGroup(table, generators=gens, _validated=validated)


def old_direct_product(a, b):
    return _old_product(a, b, [range(a.order)] * b.order, True)


def _old_is_automorphism(a, perm):
    if perm[0] != 0 or sorted(perm) != list(range(a.order)):
        return False
    return all(perm[a.table[x][y]] == a.table[perm[x]][perm[y]]
               for x in range(a.order) for y in range(a.order))


def old_semidirect_product(a, b, action):
    if not a.is_abelian():
        raise DomainError("normal factor must be abelian", witness=next(
            (x, y) for x in range(a.order) for y in range(x) if a.table[x][y] != a.table[y][x]))
    perms = [tuple(int(v) for v in action(y)) if callable(action) else tuple(action[y])
             for y in range(b.order)]
    for y, p in enumerate(perms):
        if not _old_is_automorphism(a, p):
            raise ValidationError("action image is not an automorphism", witness=y)
    for y1 in range(b.order):
        for y2 in range(b.order):
            if tuple(perms[y1][perms[y2][x]] for x in range(a.order)) != perms[b.table[y1][y2]]:
                raise ValidationError("action is not a homomorphism", witness=(y1, y2))
    return _old_product(a, b, perms, False)


def old_central_extension_from_cocycle(g, n, cocycle):
    m = g.order
    c = [[int(cocycle[x][y]) % n for y in range(m)] for x in range(m)]
    for x in range(m):
        if c[0][x] or c[x][0]:
            raise ValidationError("cocycle is not normalized", witness=x)
    _require_cocycle(_d2, np.ones((m, 1, 1), dtype=np.int64), np.array(g.table),
                     np.array(c, dtype=np.int64)[:, :, None], g.generators,
                     "cocycle identity fails", lambda diff: diff % n)
    table = [[((z1 + z2 + c[x1][x2]) % n) * m + g.table[x1][x2]
              for z2 in range(n) for x2 in range(m)]
             for z1 in range(n) for x1 in range(m)]
    gens = ([m] if n > 1 else []) + list(g.generators)
    return OldGroup(table, generators=gens)


def old_quotient_group(g, normal):
    els = set(normal.elements)
    for x in range(g.order):
        for a in normal.elements:
            if g.table[g.table[x][a]][g.inverse[x]] not in els:
                raise DomainError("subgroup is not normal", witness=(x, a))
    coset_of = [None] * g.order
    reps = []
    for x in range(g.order):
        if coset_of[x] is None:
            members = sorted(g.table[x][a] for a in normal.elements)
            reps.append(members[0])
            for y in members:
                coset_of[y] = len(reps) - 1
    k = len(reps)
    table = [[coset_of[g.table[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    return OldGroup(table, _validated=True), coset_of


def old_coset_representatives(g, els):
    seen, reps = set(), []
    for x in range(g.order):
        if x not in seen:
            coset = sorted(g.table[h][x] for h in els)
            reps.append(coset[0])
            seen.update(coset)
    return reps


def old_subgroup_error(g, elements):
    """The message and witness the old Subgroup check raised, or None."""
    els = set(elements)
    if 0 not in els:
        return "subgroup must contain the identity", None
    for a in elements:
        if g.inverse[a] not in els:
            return "subgroup not closed under inverse", a
        for b in elements:
            if g.table[a][b] not in els:
                return "subgroup not closed under product", (a, b)
    return None


ORACLE = {
    "FiniteGroup": OldGroup,
    "cyclic_group": old_cyclic_group,
    "direct_product": old_direct_product,
    "semidirect_product": old_semidirect_product,
    "central_extension_from_cocycle": old_central_extension_from_cocycle,
    "from_permutation_generators": old_from_permutation_generators,
}


def _with_oracle(build):
    """`build()` with the corpus constructors replaced by the oracle's."""
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in ORACLE.items():
            mp.setattr(corpus, name, fn)
        return build()


def assert_same_group(new, old):
    assert new.table.dtype == np.int64 and new.inverse.dtype == np.int64
    assert new.table.tolist() == [list(r) for r in old.table]
    assert new.inverse.tolist() == list(old.inverse)
    assert new.generators == old.generators
    assert all(type(g) is int for g in new.generators)


def _error(build):
    try:
        build()
    except BrqError as err:
        return type(err), err.message, err.witness
    return None


# ---------------------------------------------------------------------------
# identical groups


CORPUS = dict(corpus.b0_vanishing_corpus())
OLD_CORPUS = dict(_with_oracle(corpus.b0_vanishing_corpus))


@pytest.mark.parametrize("name", list(CORPUS))
def test_corpus_groups_match_the_oracle(name):
    assert_same_group(CORPUS[name], OLD_CORPUS[name])


SCHUR_LARGE = {
    "cyclic_96": lambda: corpus.cyclic_group(96),
    "abelian_7_7": lambda: corpus.abelian_group([7, 7]),
    "abelian_2_4_8": lambda: corpus.abelian_group([2, 4, 8]),
    "abelian_2_2_2_8": lambda: corpus.abelian_group([2, 2, 2, 8]),
    "abelian_2_2_2_2_4": lambda: corpus.abelian_group([2, 2, 2, 2, 4]),
    "dihedral_64": lambda: corpus.dihedral(32),
    "dicyclic_64": lambda: corpus.dicyclic(16),
    "metacyclic_13_4_5": lambda: corpus.metacyclic(13, 4, 5),
    "metacyclic_16_4_3": lambda: corpus.metacyclic(16, 4, 3),
}


def _relabelled(group, seed):
    """The table with every element, the identity too, renamed at random,
    and the images of the generators."""
    perm = list(range(group.order))
    random.Random(seed).shuffle(perm)
    table = [[0] * group.order for _ in range(group.order)]
    for a in range(group.order):
        for b in range(group.order):
            table[perm[a]][perm[b]] = perm[group.table[a][b]]
    return table, [perm[g] for g in group.generators]


@pytest.mark.parametrize("name", list(SCHUR_LARGE))
def test_schur_large_groups_built_and_relabelled_match_the_oracle(name):
    new, old = SCHUR_LARGE[name](), _with_oracle(SCHUR_LARGE[name])
    assert_same_group(new, old)
    for seed in range(2):
        table, gens = _relabelled(old, seed)
        assert_same_group(from_cayley_table(table, generators=gens),
                          old_from_cayley_table(table, generators=gens))
        assert_same_group(from_cayley_table(table), old_from_cayley_table(table))


def test_the_order64_witness_matches_the_oracle():
    table = verify.load_fixture_json("b0_order64.json")["group"]["table"]
    assert_same_group(from_cayley_table(table), old_from_cayley_table(table))


def _find_b0_group_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "find_b0_group.py"
    spec = importlib.util.spec_from_file_location("find_b0_group_oracle", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_extension_behind_the_order32_groups_matches_the_oracle(monkeypatch):
    tool = _find_b0_group_tool()
    built = []

    def checked(q, n, cocycle):
        g = groups.central_extension_from_cocycle(q, n, cocycle)
        assert_same_group(g, old_central_extension_from_cocycle(
            OldGroup(q.table, generators=q.generators), n, cocycle))
        built.append(g.order)
        return g

    monkeypatch.setattr(tool, "central_extension_from_cocycle", checked)
    monkeypatch.setattr(tool, "log", lambda msg: None)
    level = tool.groups_of_order_32()
    assert len(level) == 51
    assert built.count(32) >= 51


def test_quotients_and_cosets_match_the_oracle():
    for g in (corpus.symmetric(4), corpus.dihedral(4), corpus.abelian_group([2, 4])):
        old = OldGroup(g.table, generators=g.generators)
        for sub in groups.all_subgroups(g):
            assert groups.coset_representatives(g, sub.elements) == \
                old_coset_representatives(old, sub.elements)
            new_q = _error(lambda: groups.quotient_group(g, sub))
            old_q = _error(lambda: old_quotient_group(old, sub))
            assert new_q == old_q
            if new_q is None:
                q, proj = groups.quotient_group(g, sub)
                old_grp, old_proj = old_quotient_group(old, sub)
                assert_same_group(q, old_grp)
                assert proj == old_proj and all(type(x) is int for x in proj)


# ---------------------------------------------------------------------------
# identical witnesses


def _mutations(group, count, seed):
    """Tables of `group` with one entry changed, the identity moved by a
    random relabelling in half of them."""
    rng = random.Random(seed)
    n = group.order
    for k in range(count):
        table = group.table.tolist()
        a, b = rng.randrange(n), rng.randrange(n)
        table[a][b] = rng.randrange(n)
        if k % 2:
            perm = list(range(n))
            rng.shuffle(perm)
            renamed = [[0] * n for _ in range(n)]
            for x in range(n):
                for y in range(n):
                    renamed[perm[x]][perm[y]] = perm[table[x][y]]
            table = renamed
        yield table


def _intercalate_loops(n, count, seed):
    """Latin squares with identity 0 from Z/n (n even) by flipping a 2 x 2
    intercalate away from the identity row and column: mostly not
    associative."""
    rng = random.Random(seed)
    h = n // 2
    for _ in range(count):
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        a, b = rng.randrange(1, h), rng.randrange(1, h)
        for x, y in ((a, b), (a, b + h), (a + h, b), (a + h, b + h)):
            table[x][y] = (table[x][y] + h) % n
        yield table


MALFORMED = {
    "bad_row": [[0, 1, 2], [1, 2, 0], [2, 2, 1]],
    "bad_column": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 3, 1, 0]],
    "out_of_range": [[0, 1], [1, 2]],
    "not_associative": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                        [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
    "no_identity": [[1, 0], [1, 0]],
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_tables_give_the_oracle_witness(name):
    table = MALFORMED[name]
    got = _error(lambda: from_cayley_table(table))
    assert got is not None and got == _error(lambda: old_from_cayley_table(table))


def test_a_missing_inverse_gives_the_oracle_witness():
    # rows 1 and 2 hold no identity and two; the table skips validation
    table = [[0, 1, 2], [1, 1, 2], [2, 2, 1]]
    got = _error(lambda: FiniteGroup(table, _validated=True))
    assert got == (ValidationError, "element 1 has no two-sided inverse", 1)
    assert got == _error(lambda: OldGroup(table, _validated=True))


def test_mutated_tables_and_loops_give_the_oracle_witness():
    seen = set()
    tables = [t for g in (corpus.dihedral(4), corpus.symmetric(3), corpus.quaternion8(),
                          corpus.abelian_group([2, 2, 2]))
              for t in _mutations(g, 40, g.order)]
    tables += list(_intercalate_loops(8, 20, 1)) + list(_intercalate_loops(12, 20, 2))
    for table in tables:
        got = _error(lambda: from_cayley_table(table))
        assert got == _error(lambda: old_from_cayley_table(table))
        if got is None:
            assert_same_group(from_cayley_table(table), old_from_cayley_table(table))
        else:
            seen.add(got[1].split(" ")[0] if "row or column" not in got[1] else "row")
    # the draws reach the identity search and the permutation and
    # associativity checks
    assert {"table", "row", "multiplication"} <= seen


def test_subgroup_checks_give_the_oracle_witness():
    rng = random.Random(5)
    for g in (corpus.symmetric(4), corpus.dihedral(8)):
        old = OldGroup(g.table, generators=g.generators)
        for _ in range(200):
            els = tuple(sorted(rng.sample(range(g.order), rng.randrange(1, g.order))))
            try:
                Subgroup(g, els)
                got = None
            except ValidationError as err:
                got = err.message, err.witness
            assert got == old_subgroup_error(old, els)


def test_semidirect_actions_give_the_oracle_witness():
    a, b = corpus.abelian_group([2, 4]), corpus.cyclic_group(4)
    old_a, old_b = OldGroup(a.table, a.generators), OldGroup(b.table, b.generators)
    rng = random.Random(3)
    perms = [[0, *p] for p in itertools.permutations(range(1, 8))]
    autos = [p for p in perms
             if all(p[a.table[x, y]] == a.table[p[x], p[y]] for x in range(8) for y in range(8))]
    assert len(autos) == 8
    actions = [[list(range(8))] + [rng.choice(autos) for _ in range(3)] for _ in range(30)]
    actions += [[list(range(8)), [1, 0, 2, 3, 4, 5, 6, 7], list(range(8)), list(range(8))]]
    kinds = set()
    for action in actions:
        got = _error(lambda: groups.semidirect_product(a, b, action))
        assert got == _error(lambda: old_semidirect_product(old_a, old_b, action))
        if got is None:
            assert_same_group(groups.semidirect_product(a, b, action),
                              old_semidirect_product(old_a, old_b, action))
        kinds.add(got and got[1])
    assert {None, "action is not a homomorphism", "action image is not an automorphism"} <= kinds
    s3 = corpus.symmetric(3)
    assert _error(lambda: groups.semidirect_product(s3, b, lambda y: range(6))) == \
        _error(lambda: old_semidirect_product(OldGroup(s3.table, s3.generators), old_b,
                                              lambda y: range(6)))


def old_corestrict_qz_table(group, sub, table, modulus):
    els = list(sub.elements)
    pos = {g: i for i, g in enumerate(els)}
    rep_of = {}
    for t in old_coset_representatives(group, els):
        for h in els:
            rep_of[group.table[h][t]] = t
    n = group.order
    out = np.zeros((n, n, 1), dtype=np.int64)
    for g1 in range(n):
        for g2 in range(n):
            acc = 0
            for t in old_coset_representatives(group, els):
                tg1 = group.table[t][g1]
                t1 = rep_of[tg1]
                tg2 = group.table[t1][g2]
                t2 = rep_of[tg2]
                acc += int(table[pos[group.table[tg1][group.inverse[t1]]],
                                 pos[group.table[tg2][group.inverse[t2]]], 0])
            out[g1, g2, 0] = acc % modulus
    return out


def test_corestriction_tables_match_the_oracle():
    rng = np.random.default_rng(7)
    for g in (corpus.symmetric(4), corpus.dihedral(6), corpus.quaternion8()):
        old = OldGroup(g.table, generators=g.generators)
        for sub in groups.all_subgroups(g):
            table = rng.integers(0, 24, size=(sub.order, sub.order, 1))
            assert np.array_equal(cohomology.corestrict_qz_table(g, sub, table, 24),
                                  old_corestrict_qz_table(old, sub, table, 24))
