#!/usr/bin/env python3
"""Search the groups of order 64 for one with Bogomolov multiplier Z/2 and
freeze it as the fixture ``src/brq/fixtures/b0_order64.json``.

Why this family.  B0 vanishes for every group of order at most 32, and it
is an isoclinism invariant.  A group of order 64 that is not a stem group
(Z(G) <= G') is isoclinic to a stem group of smaller order, so its B0 is 0
as well: every witness of order 64 is a stem group.

How the groups are made.  Every 2-group is an iterated central extension
by Z/2.  Starting from the trivial group, each level takes every class of
H^2(Q, Z/2) (``h2(GModule.finite(Q, [2]))``), builds the extension with
``central_extension_from_cocycle`` and keeps the first group met with each
key of cheap invariants (see ``invariants``).  Five levels give the
groups of order 32; their extensions of order 64 are filtered to stem
groups and deduplicated the same way.

How they are scanned.  Candidates with d(G) = 3 and nilpotency class at
least 3 come first, the profile shared by the known witnesses; the rest
follow.  The scan stops at the first B0 = [2], re-verifies it over every
bicyclic subgroup (``subgroup_mode="all"``) and writes the fixture.  The
construction field records the order-32 quotient Q (its table and the
generators the bar complex uses) and the coordinates of the cocycle's class
in H^2(Q, Z/2); the group is the extension with element (z, x) at index
32 z + x.

Cheap invariants can merge non-isomorphic groups, so a scan without a hit
would not prove that none exists.  Run from the repository root:

    python tools/find_b0_group.py

Progress goes to stdout as the scan runs.  The search is deterministic for
a fixed H^2 basis, but its scan order follows that basis: each extension is
built from ``h2(...).expand(coords)``, so the representative tables the
solver returns decide which table of each invariant key is kept and in
which order the candidates come.  A change of the solver's class basis
therefore makes the tool write another table (the gauge-fixed solver stops
at candidate 30, with the same ``checks`` as the frozen fixture, where the
fixture was written at candidate 26).  The frozen fixture is checked on its
own terms (``tests/test_b0_fixture.py``), not against a rerun of this tool.
So the tool refuses (exit 1) to replace a fixture that holds another group;
delete the file first to re-freeze the witness on purpose.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from brq.brauer import bogomolov_multiplier  # noqa: E402
from brq.cohomology import GModule, h2  # noqa: E402
from brq.groups import (FiniteGroup, abelian_invariants, abelianization,  # noqa: E402
                        central_extension_from_cocycle, from_cayley_table)

DEST = Path(__file__).resolve().parent.parent / "src" / "brq" / "fixtures" / "b0_order64.json"


def log(msg):
    print(msg, flush=True)


def census(g):
    """Sorted (element order, count) pairs."""
    counts = {}
    for x in range(g.order):
        o = g.element_order(x)
        counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(counts.items()))


def nilpotency_class(g):
    """Length of the lower central series; every group here is a 2-group."""
    t = g.table
    gamma = list(range(g.order))
    c = 0
    while len(gamma) > 1:
        # the commutators xy (yx)^-1 of x in gamma with every y
        gamma = g.closure(np.unique(t[t[gamma], g.inverse[t[:, gamma].T]]))
        c += 1
    return c


Invariants = namedtuple("Invariants", "elements abelianization nilpotency_class")


def invariants(g):
    """Cheap isomorphism invariants used to deduplicate candidates.

    ``elements`` is the sorted multiset of (order, centralizer order, number
    of square roots, lies in G') over the elements; it fixes the order
    census of G, Z(G) and G' and the number of conjugacy classes.  These
    keys separate the 51 groups of order 32.
    """
    t = g.table
    n = g.order
    centralizer = (t == t.T).sum(axis=1)
    roots = np.bincount(t[np.arange(n), np.arange(n)], minlength=n)
    derived = set(g.commutator_subgroup().elements)
    profile = tuple(sorted((g.element_order(x), int(centralizer[x]), int(roots[x]),
                            x in derived) for x in range(n)))
    q, _ = abelianization(g)
    return Invariants(profile, tuple(abelian_invariants(q)), nilpotency_class(g))


def describe(inv):
    derived = sum(1 for e in inv.elements if e[3])
    return f"d={len(inv.abelianization)} class={inv.nilpotency_class} |G'|={derived}"


def extensions(q):
    """(coordinates, group) for every class of H^2(Q, Z/2), zero class first."""
    coh = h2(GModule.finite(q, [2]))
    for coords in itertools.product(*[range(f) for f in coh.invariant_factors]):
        yield coords, central_extension_from_cocycle(q, 2, coh.expand(coords)[:, :, 0])


def is_stem(g):
    return set(g.center()) <= set(g.commutator_subgroup().elements)


def groups_of_order_32():
    """One group per invariant key, by five levels of central extension."""
    level = [FiniteGroup([[0]])]
    for _ in range(5):
        seen = {}
        for q in level:
            for _, g in extensions(q):
                seen.setdefault(invariants(g), g)
        level = list(seen.values())
        log(f"order {level[0].order}: {len(level)} invariant classes")
    return level


def stem_candidates(quotients):
    """(quotient, coordinates, group, invariants) for the stem groups of
    order 64, one per invariant key, over quotients with d(Q) = 3 first."""
    seen = set()
    for q in sorted(quotients, key=lambda q: len(invariants(q).abelianization) != 3):
        for coords, g in extensions(q):
            if not any(coords) or not is_stem(g):
                continue
            inv = invariants(g)
            if inv in seen:
                continue
            seen.add(inv)
            yield q, coords, g, inv


def is_priority(inv):
    """The profile of the known witnesses: d(G) = 3 and class at least 3."""
    return len(inv.abelianization) == 3 and inv.nilpotency_class >= 3


def b0(g, subgroup_mode="conj"):
    """Invariant factors of B0 of the group on g's table, loaded as the
    fixture's readers load it.  An extension keeps one generator per level,
    and the bar complex grows with the generator count: on the witness B0
    takes about 0.3 s with those six generators and 0.07 s with the three
    that ``from_cayley_table`` picks, on a 2-CPU host."""
    rep = bogomolov_multiplier(from_cayley_table(g.table), subgroup_mode=subgroup_mode)
    return list(rep.unramified_group.invariant_factors)


def ordered_candidates(quotients):
    """Stem candidates with the priority profile first, the rest after."""
    deferred = []
    for item in stem_candidates(quotients):
        if is_priority(item[3]):
            yield item
        else:
            deferred.append(item)
    log(f"priority profile exhausted; {len(deferred)} further stem candidates")
    yield from deferred


def scan(quotients, t0):
    """(quotient, coordinates, group) of the first candidate with B0 = [2],
    or None."""
    for count, (q, coords, g, inv) in enumerate(ordered_candidates(quotients), 1):
        factors = b0(g)
        log(f"candidate {count}: {describe(inv)} B0={factors}  "
            f"({time.monotonic() - t0:.1f}s)")
        if factors == [2]:
            return q, coords, g
    return None


def checks(g):
    q, _ = abelianization(g)
    return {
        "order": g.order,
        "derived_subgroup": abelian_invariants(g.commutator_subgroup()),
        "abelianization": abelian_invariants(q),
        "center_order": len(g.center()),
        "nilpotency_class": nilpotency_class(g),
        "order_census": {str(k): v for k, v in census(g)},
    }


def freeze(out, dest=DEST):
    """Write the fixture document to `dest`; exit 1, writing nothing, when
    `dest` already holds a different group."""
    if dest.exists() and json.loads(dest.read_text()).get("group") != out["group"]:
        log(f"{dest} holds another group; delete it to re-freeze the witness on purpose")
        sys.exit(1)
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n")
    log(f"wrote {dest}")


def main():
    t0 = time.monotonic()
    hit = scan(groups_of_order_32(), t0)
    if hit is None:
        log("no stem group of order 64 with B0 = Z/2 among the scanned candidates")
        sys.exit(1)
    q, coords, g = hit
    full = b0(g, subgroup_mode="all")
    log(f"re-verified over all bicyclic subgroups: B0={full}")
    if full != [2]:
        log("the full subgroup list disagrees with the conjugacy-reduced scan")
        sys.exit(1)
    out = {
        "description": "stem group of order 64 with Bogomolov multiplier Z/2: a "
                       "central extension by Z/2 of an order-32 group, found by "
                       "scanning iterated central extensions by Z/2",
        "construction": {
            "quotient": {"kind": "cayley", "table": q.table.tolist(),
                         "generators": list(q.generators)},
            "kernel_order": 2,
            "h2_coordinates": list(coords),
        },
        "group": {"kind": "cayley", "table": g.table.tolist()},
        "expected_b0": [2],
        "checks": checks(g),
    }
    freeze(out)


if __name__ == "__main__":
    main()
