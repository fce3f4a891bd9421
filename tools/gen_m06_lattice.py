#!/usr/bin/env python3
"""Generate the rank-16 Picard lattice fixture for the moduli space of
stable 6-pointed genus-zero curves, with the action of the nonstandard
alternating group inside S6.

The lattice is presented by the 25 boundary classes delta_S (subsets S of
{0..5} with 2 <= |S| <= 3 up to complement) modulo the linear equivalences

    sum_{S separates {i,j} | {k,l}} delta_S = sum_{S separates {i,k} | {j,l}} delta_S

for distinct i, j, k, l.  The quotient is verified to be free of rank 16,
the permutation action is verified to descend to a group action, and the
first cohomology of the alternating group and of its Klein subgroup are
computed as a cross-check before the fixture is written.

    python3 tools/gen_m06_lattice.py           # rewrite the fixture
    python3 tools/gen_m06_lattice.py --check   # write nothing; exit 1 on a difference

The relations span a saturated lattice whose Hermite form has unit pivots,
so its rows are the reduced row echelon rows over Q, asserted integral.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from brq.cohomology import GModule, h1  # noqa: E402
from brq.corpus import alternating4  # noqa: E402
from brq.linalg import invariant_presentation  # noqa: E402

POINTS = list(range(6))
DEST = Path(__file__).resolve().parent.parent / "src" / "brq" / "fixtures" / "m06_picard_lattice.json"


def canonical(s):
    s = frozenset(s)
    if len(s) == 2:
        return s
    if len(s) == 4:
        return frozenset(POINTS) - s
    # size 3: pick the side containing 0
    return s if 0 in s else frozenset(POINTS) - s


def boundary_classes():
    out = []
    for size in (2, 3):
        for s in itertools.combinations(POINTS, size):
            c = canonical(s)
            if c not in out:
                out.append(c)
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def separates(s, pair_a, pair_b):
    comp = frozenset(POINTS) - s
    return (pair_a <= s and pair_b <= comp) or (pair_a <= comp and pair_b <= s)


def keel_relations(classes):
    idx = {s: i for i, s in enumerate(classes)}
    rels = []
    for quad in itertools.combinations(POINTS, 4):
        i, j, k, l = quad
        pairings = [((i, j), (k, l)), ((i, k), (j, l)), ((i, l), (j, k))]
        sums = []
        for a, b in pairings:
            vec = [0] * len(classes)
            for s in classes:
                if separates(s, frozenset(a), frozenset(b)):
                    vec[idx[s]] += 1
            sums.append(vec)
        rels.append([x - y for x, y in zip(sums[0], sums[1])])
        rels.append([x - y for x, y in zip(sums[0], sums[2])])
    return rels


def reduced_echelon(rows):
    """The nonzero rows of the reduced row echelon form over Q."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for j in range(len(m[0])):
        p = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if p is None:
            continue
        pivot = m[p][j]
        m[rank], m[p] = [x / pivot for x in m[p]], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][j]:
                f = m[i][j]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return m[:rank]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the stored fixture instead of writing it")
    args = parser.parse_args(argv)
    classes = boundary_classes()
    assert len(classes) == 25, len(classes)
    rels = keel_relations(classes)
    snf, _, _ = invariant_presentation(rels)
    assert all(f == 1 for f in snf if f), f"relations are not saturated: {snf}"
    echelon = reduced_echelon(rels)
    assert all(x.denominator == 1 for row in echelon for x in row), "non-integral echelon row"
    # saturated with unit pivots: these are the Hermite rows of the lattice
    basis = [[int(x) for x in row] for row in echelon]
    rank = len(basis)
    assert rank == 9, f"relation rank {rank} != 9"
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in basis]
    free_cols = [j for j in range(25) if j not in pivots]
    assert len(free_cols) == 16

    def reduce_vec(vec):
        v = list(vec)
        for row, p in zip(basis, pivots):
            if v[p]:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        assert all(v[p] == 0 for p in pivots)
        return [v[j] for j in free_cols]

    group = alternating4(nonstandard_in_s6=True)
    assert group.order == 12

    gens_in = [
        [2, 3, 4, 5, 0, 1],  # (024)(135)
        [1, 0, 3, 2, 4, 5],  # (01)(23)
        [1, 0, 2, 3, 5, 4],  # (01)(45)
    ]
    # rebuild the element <-> permutation correspondence with the same
    # breadth-first lexicographic ordering the group constructor uses
    def compose(p, q):
        return tuple(p[q[i]] for i in range(6))

    elems = [tuple(range(6))]
    index = {tuple(range(6)): 0}
    level = [tuple(range(6))]
    gperms = [tuple(p) for p in gens_in]
    while level:
        found = set()
        for x in level:
            for gperm in gperms:
                y = compose(x, gperm)
                if y not in index and y not in found:
                    found.add(y)
        new_level = sorted(found)
        for y in new_level:
            index[y] = len(elems)
            elems.append(y)
        level = new_level
    assert len(elems) == 12
    for a in range(12):
        for b in range(12):
            assert index[compose(elems[a], elems[b])] == group.table[a][b]
    gen_perms = {gi: elems[gi] for gi in group.generators}

    cls_index = {s: i for i, s in enumerate(classes)}

    def perm_matrix(perm):
        mat = [[0] * 16 for _ in range(16)]
        for bj, j in enumerate(free_cols):
            image = canonical(frozenset(perm[x] for x in classes[j]))
            vec = [0] * 25
            vec[cls_index[image]] = 1
            col = reduce_vec(vec)
            for i in range(16):
                mat[i][bj] = col[i]
        return mat

    gen_mats = {gi: perm_matrix(gen_perms[gi]) for gi in group.generators}
    module = GModule.lattice(group, 16, gen_mats)

    coh = h1(module)
    print("H1(A4, Pic) =", coh.invariant_factors)
    assert coh.invariant_factors == [2], coh.invariant_factors

    klein = [x for x in range(12) if group.element_order(x) in (1, 2)]
    sub_module = module.restricted(klein)
    coh_k = h1(sub_module)
    print("H1(K4, Pic) =", coh_k.invariant_factors)
    assert coh_k.invariant_factors == [2], coh_k.invariant_factors

    out = {
        "description": "Picard lattice of the moduli space of stable 6-pointed "
                       "genus-zero curves with the nonstandard alternating-group "
                       "action inside S6",
        "rank": 16,
        "group": {"kind": "permutation", "degree": 6,
                  "generators": [list(p) for p in gens_in]},
        "module": {
            "kind": "lattice",
            "rank": 16,
            "action": {str(pos): gen_mats[gi]
                       for pos, gi in enumerate(group.generators)},
        },
        "checks": {
            "boundary_classes": 25,
            "relation_rank": 9,
            "h1_group": coh.invariant_factors,
            "h1_klein": coh_k.invariant_factors,
        },
    }
    text = json.dumps(out, sort_keys=True, indent=1) + "\n"
    if args.check:
        same = DEST.exists() and DEST.read_text() == text
        print("stored fixture matches" if same else f"differs {DEST.name}")
        return 0 if same else 1
    DEST.parent.mkdir(parents=True, exist_ok=True)
    DEST.write_text(text)
    print("wrote", DEST)
    return 0


if __name__ == "__main__":
    sys.exit(main())
