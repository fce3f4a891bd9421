#!/usr/bin/env python3
"""Dump the reports and class representatives of a fixed set of inputs as
one deterministic JSON document, to compare two versions of the code.

    python3 tools/dump_reports.py OUT.json

Prints the number of results and the sha256 of OUT.json.  A change that
must keep every report byte-identical keeps this hash.  The results, in
order:

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
- the JSON output of each bundled CLI fixture.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from brq import corpus, verify  # noqa: E402
from brq.brauer import (  # noqa: E402
    ToricAction,
    bogomolov_multiplier,
    br_nr_flag,
    br_nr_grassmannian,
    br_nr_projective,
    br_nr_toric,
    plucker_beta,
)
from brq.cli import run_document_for_fixture  # noqa: E402
from brq.cohomology import GModule, h1, h2, h2_qz  # noqa: E402


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
    modulus = math.lcm(max(action.group.order, 2), action.cocycle_denominator())
    return {
        "frac_table": [[[v.numerator, v.denominator] for v in row] for row in action.frac_table],
        "gamma_coords": _plain(action.gamma_coords(modulus)),
    }


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="path of the JSON document to write")
    args = parser.parse_args(argv)
    doc = [[label, _plain(value)] for label, value in results()]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    print(f"{len(doc)} results, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
