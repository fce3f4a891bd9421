#!/usr/bin/env python3
"""Dump the reports and class representatives of a fixed set of inputs as
one deterministic JSON document, to compare two versions of the code.

    python3 tools/dump_reports.py OUT.json [--diff OLD.json]

Prints the number of results and the sha256 of OUT.json.  A change that
must keep every report byte-identical keeps this hash.  With --diff, it
then prints how many results moved and how many are present in only the
new or only the old dump, then each result whose value differs from the
one of the same name in OLD.json (a dump of another version), with the
fields that moved, and the names present in only one of the two.  The
results, in order:

- for each of the 32 groups of `corpus.b0_vanishing_corpus()`: the B0
  report with witnesses, then H^2(G, Q/Z) and H^1(G, Z/4) (trivial action)
  with their representative tables and the coordinates `reduce` gives each
  table;
- the Br_nr report of each of the 10 projective actions of
  `verify.catalog_actions()`;
- for those 10 actions and the clock-and-shift actions of n = 2..5: the
  scalar-defect table `frac_table` (as numerator/denominator pairs) and the
  class coordinates `gamma_coords` at the modulus `br_nr_projective` uses;
- the Br_nr report at r = 2 of each catalog action of dimension >= 3
  (Grassmannian), then, for the correlation `verify.correlation_klein_gr24()`:
  the Plucker class at r = 2 (table and coordinates) and the flag reports
  for [1, 3] and [1, 2, 3];
- for each of the 9 cases of `corpus.gl2z_bicyclic_cases()`: the toric
  Br_nr report over all bicyclic subgroups, then H^1 and H^2 of its
  lattice with tables;
- H^2(D_48, Q/Z) (order 96) with tables;
- the JSON output of each bundled CLI fixture;
- H^2(G, Q/Z) with tables for each of the nine groups of order 49-96 in
  `SCHUR_LARGE` (3 to 5 generators for the abelian ones), first as its
  constructor builds it, then on the Cayley table relabelled by one fixed
  seeded permutation, with the images of the constructor's generators;
- the Br_nr report, projective and Grassmannian at r = 1, of the Pauli
  action of (Z/2)^3 by X, Z and I, whose class is nonzero and leaves a
  stack group (Z/2)^2;
- for each group of `RELATION_GROUPS`, `RELATION_DRAWS` seeded draws of 1
  to 3 random relation vectors in H^2(G, Q/Z): the kernel-engine report
  (`brauer._kernel_report`) with witnesses over the conjugacy
  representatives and over all bicyclic subgroups.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from brq import corpus, verify  # noqa: E402
from brq.brauer import (  # noqa: E402
    ToricAction,
    _kernel_report,
    bogomolov_multiplier,
    br_nr_flag,
    br_nr_grassmannian,
    br_nr_projective,
    br_nr_toric,
    gamma_from_projective_action,
    plucker_beta,
)
from brq.cli import run_document_for_fixture  # noqa: E402
from brq.cohomology import GModule, h1, h2, h2_qz, h2_qz_cached  # noqa: E402
from brq.cyclotomic import CycloMatrix  # noqa: E402
from brq.groups import from_cayley_table  # noqa: E402

SCHUR_LARGE = [
    ("cyclic_96", lambda: corpus.cyclic_group(96)),
    ("abelian_7_7", lambda: corpus.abelian_group([7, 7])),
    ("abelian_2_4_8", lambda: corpus.abelian_group([2, 4, 8])),
    ("abelian_2_2_2_8", lambda: corpus.abelian_group([2, 2, 2, 8])),
    ("abelian_2_2_2_2_4", lambda: corpus.abelian_group([2, 2, 2, 2, 4])),
    ("dihedral_64", lambda: corpus.dihedral(32)),
    ("dicyclic_64", lambda: corpus.dicyclic(16)),
    ("metacyclic_13_4_5", lambda: corpus.metacyclic(13, 4, 5)),
    ("metacyclic_16_4_3", lambda: corpus.metacyclic(16, 4, 3)),
]
RELABEL_SEED = 9
RELATION_GROUPS = ["extraspecial32_plus", "extraspecial32_minus", "abelian_2_2_2_2",
                   "abelian_2_4_4"]
RELATION_SEED = 24
RELATION_DRAWS = 4


def _relabelled(group, rng):
    """`group` on its Cayley table with the elements renamed by a random
    permutation, generated by the images of its generators."""
    perm = list(range(group.order))
    rng.shuffle(perm)
    perm = np.array(perm)
    table = np.empty_like(group.table)
    table[np.ix_(perm, perm)] = perm[group.table]
    return from_cayley_table(table, generators=perm[list(group.generators)])


def _plain(value):
    """`value` with numpy scalars and arrays turned into Python ints and lists."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _classes(coh):
    return {
        "invariant_factors": coh.invariant_factors,
        "modulus": coh.modulus,
        "rep_tables": [_plain(t) for t in coh.rep_tables],
        "reduced": [_plain(list(coh.reduce(t))) for t in coh.rep_tables],
    }


def _projective_class(action):
    return {
        "frac_table": [[[v.numerator, v.denominator] for v in row] for row in action.frac_table],
        "gamma_coords": _plain(action.gamma_coords()),
    }


def _pauli_cube():
    """(Z/2)^3 acting on P^1 by the Pauli matrices X and Z and the identity."""
    group = corpus.abelian_group([2, 2, 2])
    mats = [CycloMatrix([[0, 1], [1, 0]]), CycloMatrix([[1, 0], [0, -1]]),
            CycloMatrix.identity(2)]
    return gamma_from_projective_action(group, dict(zip(group.generators, mats)))


def _relation_reports():
    groups = dict(corpus.b0_vanishing_corpus())
    rng = random.Random(RELATION_SEED)
    for name in RELATION_GROUPS:
        group = groups[name]
        coh = h2_qz_cached(group, max(group.order, 2))
        for draw in range(RELATION_DRAWS):
            rels = [[rng.randrange(f) for f in coh.invariant_factors]
                    for _ in range(rng.randint(1, 3))]
            for mode in ("conj", "all"):
                report = _kernel_report("relations", group, [coh], rels, coh.modulus,
                                        subgroup_mode=mode, notes=[f"relations {rels}"])
                yield (f"relations {name} draw {draw} {mode}",
                       report.to_json_dict(include_witnesses=True))


def results():
    """(label, JSON-ready value) pairs in a fixed order."""
    for name, group in corpus.b0_vanishing_corpus():
        yield f"b0 {name}", bogomolov_multiplier(group).to_json_dict(include_witnesses=True)
        yield f"h2_qz {name}", _classes(h2_qz(group))
        yield f"h1_z4 {name}", _classes(h1(GModule.finite(group, [4])))
    catalog = verify.catalog_actions()
    for name, action in catalog:
        yield f"projective {name}", br_nr_projective(action).to_json_dict(include_witnesses=True)
    for name, action in catalog:
        yield f"class {name}", _projective_class(action)
    for n in range(2, 6):
        yield f"class clock_shift{n}", _projective_class(verify.clock_shift_action(n))
    for name, action in catalog:
        if action.dimension >= 3:
            report = br_nr_grassmannian(action, 2)
            yield f"grassmannian r=2 {name}", report.to_json_dict(include_witnesses=True)
    correlation = verify.correlation_klein_gr24()
    yield "plucker r=2 correlation", _projective_class(plucker_beta(correlation, 2))
    for r_list in ([1, 3], [1, 2, 3]):
        report = br_nr_flag(correlation, r_list)
        yield f"flag {r_list} correlation", report.to_json_dict(include_witnesses=True)
    for name, gens in corpus.gl2z_bicyclic_cases():
        group, lattice = verify.toric_group_from_matrices(gens)
        report = br_nr_toric(ToricAction(group, lattice), subgroup_mode="all")
        yield f"toric {name}", report.to_json_dict(include_witnesses=True)
        yield f"lattice_h1 {name}", _classes(h1(lattice))
        yield f"lattice_h2 {name}", _classes(h2(lattice))
    yield "h2_qz dihedral96", _classes(h2_qz(corpus.dihedral(48)))
    for path in sorted((SRC / "brq" / "fixtures" / "inputs").glob("*.json")):
        yield f"cli {path.name}", run_document_for_fixture(path.name)
    rng = random.Random(RELABEL_SEED)
    for name, build in SCHUR_LARGE:
        group = build()
        yield f"h2_qz {name}", _classes(h2_qz(group))
        yield f"h2_qz relabelled {name}", _classes(h2_qz(_relabelled(group, rng)))
    pauli_cube = _pauli_cube()
    yield "projective pauli_2_2_2", br_nr_projective(pauli_cube).to_json_dict(
        include_witnesses=True)
    yield "grassmannian r=1 pauli_2_2_2", br_nr_grassmannian(pauli_cube, 1).to_json_dict(
        include_witnesses=True)
    yield from _relation_reports()


def moved_fields(old, new, path=""):
    """Paths of the fields where `new` differs from `old`: object keys
    joined by dots, and `[]` for the elements of equally long lists of
    objects."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) != new.get(key):
                out += moved_fields(old.get(key), new.get(key), f"{path}.{key}" if path else key)
        return out
    if (isinstance(old, list) and isinstance(new, list) and len(old) == len(new)
            and any(isinstance(x, dict) for x in old)):
        out = []
        for x, y in zip(old, new):
            out += [f for f in moved_fields(x, y, path + "[]") if f not in out]
        return out
    return [] if old == new else [path or "(value)"]


def diff_lines(old_doc, new_doc):
    """One line per result that moved, appeared or disappeared, as three
    lists: the moved results, those only in the new dump and those only in
    the old dump."""
    old, new = dict(map(tuple, old_doc)), dict(map(tuple, new_doc))
    moved = [f"{label}: {', '.join(moved_fields(old[label], value))}"
             for label, value in new.items() if label in old and old[label] != value]
    only_new = [f"{label}: only in the new dump" for label in new if label not in old]
    only_old = [f"{label}: only in the old dump" for label in old if label not in new]
    return moved, only_new, only_old


def diff_summary(moved, only_new, only_old):
    """The count of each kind of line of `diff_lines`."""
    return (f"{len(moved)} results moved, {len(only_new)} only in the new dump, "
            f"{len(only_old)} only in the old dump")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="path of the JSON document to write")
    parser.add_argument("--diff", metavar="OLD.json",
                        help="list the results that differ from this earlier dump")
    args = parser.parse_args(argv)
    doc = [[label, _plain(value)] for label, value in results()]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    print(f"{len(doc)} results, sha256 {digest}")
    if args.diff:
        kinds = diff_lines(json.loads(Path(args.diff).read_text(encoding="utf-8")), doc)
        print(diff_summary(*kinds))
        for line in itertools.chain(*kinds):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
