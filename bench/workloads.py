"""One pass of one workload, in a fresh interpreter.

    python3 bench/workloads.py --workload b0-corpus --seed 1 --pass-index 0 --trace 0

Run from the root of a checkout: ``brq`` is imported from ``src/`` there.
The pass builds its inputs, runs its operations one after another, checks
each output against a reference from ``reference.py`` or a property the
method must have, and prints one JSON record as the last line of stdout.
``run.py`` starts one such process per pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

import reference as ref

SRC = Path.cwd() / "src"
FIXTURE_INPUTS = Path("src") / "brq" / "fixtures" / "inputs"
WITNESS_FIXTURE = SRC / "brq" / "fixtures" / "b0_order64.json"


class Op:
    """One timed call into ``brq`` and the check of its output.

    ``check(result)`` returns a list of failure messages, empty when the
    output is right.
    """

    def __init__(self, name, call, check):
        self.name = name
        self.call = call
        self.check = check


def factors(structure):
    return [int(f) for f in structure.invariant_factors]


def expect(label, got, want):
    return [] if got == want else [f"{label}: got {got}, want {want}"]


def expect_divides(small_label, small, big_label, big):
    if ref.divides(small, big):
        return []
    return [f"|{small_label}| = {ref.group_order(small)} does not divide "
            f"|{big_label}| = {ref.group_order(big)}"]


# ---------------------------------------------------------------------------
# b0-corpus


def check_b0(name, order, want_b0):
    def check(report):
        b0, stack = factors(report.unramified_group), factors(report.stack_group)
        problems = expect("B0", b0, want_b0)
        if name in ref.B0_CORPUS_SCHUR:
            problems += expect("H2 (stack group)", stack, ref.B0_CORPUS_SCHUR[name])
        return problems + expect_divides("B0", b0, "H2", stack)
    return check


def build_b0_corpus(brq, seed, pass_index):
    from brq import corpus
    from brq.groups import from_cayley_table

    entries = corpus.b0_vanishing_corpus()
    table = json.loads(WITNESS_FIXTURE.read_text(encoding="utf-8"))["group"]["table"]
    witness = from_cayley_table(table)
    ops = []
    for name, group in entries:
        ops.append(Op(f"b0 {name}",
                      lambda g=group: brq.brauer.bogomolov_multiplier(g, subgroup_mode="conj"),
                      check_b0(name, group.order, ref.b0_below_64(group.order))))
    ops.append(Op("b0 witness_order64",
                  lambda: brq.brauer.bogomolov_multiplier(witness, subgroup_mode="conj"),
                  check_b0("witness_order64", witness.order, ref.B0_WITNESS_ORDER64)))
    return ops


# ---------------------------------------------------------------------------
# schur-large


def schur_large_groups():
    """(name, constructor, closed-form Schur multiplier), in pass order."""
    from brq import corpus

    return [
        ("cyclic_96", lambda: corpus.cyclic_group(96), ref.cyclic_schur(96)),
        ("abelian_7_7", lambda: corpus.abelian_group([7, 7]), ref.abelian_schur([7, 7])),
        ("abelian_2_4_8", lambda: corpus.abelian_group([2, 4, 8]),
         ref.abelian_schur([2, 4, 8])),
        ("abelian_2_2_2_8", lambda: corpus.abelian_group([2, 2, 2, 8]),
         ref.abelian_schur([2, 2, 2, 8])),
        ("abelian_2_2_2_2_4", lambda: corpus.abelian_group([2, 2, 2, 2, 4]),
         ref.abelian_schur([2, 2, 2, 2, 4])),
        ("dihedral_64", lambda: corpus.dihedral(32), ref.dihedral_schur(32)),
        ("dicyclic_64", lambda: corpus.dicyclic(16), ref.dicyclic_schur(16)),
        ("metacyclic_13_4_5", lambda: corpus.metacyclic(13, 4, 5),
         ref.metacyclic_schur(13, 4, 5)),
        ("metacyclic_16_4_3", lambda: corpus.metacyclic(16, 4, 3),
         ref.metacyclic_schur(16, 4, 3)),
    ]


def relabelled_table(group, rng):
    """The Cayley table under a random relabelling, and the images of the
    group's generators."""
    n = group.order
    perm = list(range(n))
    rng.shuffle(perm)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    table = [[perm[group.table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    return table, [perm[g] for g in group.generators]


def build_schur_large(brq, seed, pass_index):
    from brq.groups import from_cayley_table

    rng = random.Random(seed * 1_000_003 + pass_index)
    ops = []
    for name, build, want in schur_large_groups():
        table, gens = relabelled_table(build(), rng)
        group = from_cayley_table(table, generators=gens)
        ops.append(Op(f"h2 {name}",
                      lambda g=group: brq.cohomology.h2_qz(g),
                      lambda coh, want=want: expect("H2", factors(coh), want)))
    return ops


# ---------------------------------------------------------------------------
# brnr-actions

# Catalog actions: (group order, matrix dimension, Schur multiplier of the
# group, order of the projective class).  Linear actions have class order 1.
# The others lift to pairs of matrices commuting up to a primitive root of
# unity of the given order, whose class generates the cyclic multiplier.
CATALOG = {
    "pauli_klein": (4, 2, ref.abelian_schur([2, 2]), 2),
    "klein_linear": (4, 3, ref.abelian_schur([2, 2]), 1),
    "pauli_lift4": (4, 4, ref.abelian_schur([2, 2]), 2),
    "q8_standard": (8, 2, ref.dicyclic_schur(2), 1),
    "c4xc2_shift_sign": (8, 4, ref.abelian_schur([2, 4]), 2),
    "s3_linear": (6, 2, ref.dihedral_schur(3), 1),
    "a4_rotations": (12, 3, ref.ALTERNATING4_SCHUR, 1),
    "threefold_signs": (8, 4, ref.abelian_schur([2, 2, 2]), 1),
    "c3xc3_clock_shift": (9, 3, ref.abelian_schur([3, 3]), 3),
    "d4_rotation": (8, 2, ref.dihedral_schur(4), 1),
}


def projective_br_nr(order, class_order, r):
    """Br_nr of Gr(r) of a catalog action, where it is known apart from brq.

    When r * gamma = 0 the relation vanishes and Br_nr is B0(G).  When the
    stack group is 0, so is Br_nr.
    """
    if r % class_order == 0:
        return ref.b0_below_64(order)
    return None


CLOCK_SHIFT_ORDERS = (2, 3, 4, 5)

# Known invariants of the bundled CLI fixture documents.
CLI_FIXTURES = {
    "a4_h2.json": {"kind": "h2", "group_order": 12,
                   "invariant_factors": ref.ALTERNATING4_SCHUR},
    "gr24_correlation.json": {"kind": "br_nr_grassmannian", "group_order": 4,
                              "unramified": [], "stack_divides": ref.abelian_schur([2, 2])},
    "klein4_b0.json": {"kind": "bogomolov_multiplier", "group_order": 4,
                       "unramified": ref.b0_below_64(4), "stack": ref.abelian_schur([2, 2])},
    "p3_klein_stack.json": {"kind": "br_stack_fixed_point", "group_order": 4,
                            "stack": ref.abelian_schur([2, 2]),
                            "unramified": ref.abelian_schur([2, 2])},
    "pauli_brnr.json": {"kind": "br_nr_projective", "group_order": 4,
                        "unramified": [], "stack": []},
    "toric_s3.json": {"kind": "br_nr_toric", "group_order": 6,
                      "unramified": ref.TORUS_DIM2_BR_NR},
}


def check_report(want_stack=None, want_unram=None, stack_divides=None):
    def check(report):
        stack, unram = factors(report.stack_group), factors(report.unramified_group)
        problems = expect_divides("Br_nr", unram, "stack group", stack)
        if want_stack is not None:
            problems += expect("stack group", stack, want_stack)
        if want_unram is not None:
            problems += expect("Br_nr", unram, want_unram)
        if stack_divides is not None:
            problems += expect_divides("stack group", stack, "H2", stack_divides)
        return problems
    return check


def check_same_as(label, earlier):
    """Check that a report has the invariants of an earlier report."""
    def check(report):
        first = earlier.get(label)
        if first is None:
            return [f"{label} has no result to compare with"]
        return (expect(f"stack group vs {label}", factors(report.stack_group),
                       factors(first.stack_group))
                + expect(f"Br_nr vs {label}", factors(report.unramified_group),
                         factors(first.unramified_group)))
    return check


def keep(results, label, check):
    """Wrap a check so the checked report is kept under a label."""
    def run(report):
        results[label] = report
        return check(report)
    return run


def build_brnr_actions(brq, seed, pass_index):
    from brq import corpus, verify

    ops = []
    held = {}  # values passed between operations: actions and reports

    def catalog():
        held["catalog"] = dict(verify.catalog_actions())
        return held["catalog"]

    ops.append(Op("build catalog", catalog,
                  lambda got: expect("catalog actions", sorted(got), sorted(CATALOG))))
    for name, (order, dim, schur, class_order) in CATALOG.items():
        def action(name=name):
            return held["catalog"][name]

        def expected(r, order=order, schur=schur, class_order=class_order):
            stack = ref.projective_stack(schur, class_order, r)
            unram = projective_br_nr(order, class_order, r)
            return check_report(stack, [] if stack == [] else unram)

        ops.append(Op(f"projective {name}",
                      lambda a=action: brq.brauer.br_nr_projective(a()),
                      keep(held, f"proj {name}", expected(1))))
        ops.append(Op(f"grassmannian r=1 {name}",
                      lambda a=action: brq.brauer.br_nr_grassmannian(a(), 1),
                      keep(held, f"gr1 {name}", check_same_as(f"proj {name}", held))))
        if dim >= 3:
            ops.append(Op(f"grassmannian r=2 {name}",
                          lambda a=action: brq.brauer.br_nr_grassmannian(a(), 2),
                          expected(2)))
        ops.append(Op(f"flag [1] {name}",
                      lambda a=action: brq.brauer.br_nr_flag(a(), [1]),
                      check_same_as(f"gr1 {name}", held)))
    for n in CLOCK_SHIFT_ORDERS:
        def build(n=n):
            held[f"clock {n}"] = verify.clock_shift_action(n)
            return held[f"clock {n}"]

        ops.append(Op(f"build clock-shift n={n}", build,
                      lambda act, n=n: expect("group order", act.group.order, n * n)))
        ops.append(Op(f"projective clock-shift n={n}",
                      lambda n=n: brq.brauer.br_nr_projective(held[f"clock {n}"]),
                      check_report(want_stack=[], want_unram=[])))

    def correlation():
        held["correlation"] = verify.correlation_klein_gr24()
        return held["correlation"]

    klein_schur = ref.abelian_schur([2, 2])
    ops.append(Op("build correlation klein gr24", correlation,
                  lambda act: expect("group order", act.group.order, 4)))
    # The collineation subgroup is Z/2, with H2 = 0, so the corestriction
    # relation of flag [1,3] vanishes.  Klein four is itself bicyclic, so
    # every unramified class is 0.
    ops.append(Op("flag [1,3] correlation klein",
                  lambda: brq.brauer.br_nr_flag(held["correlation"], [1, 3]),
                  check_report(want_stack=klein_schur, want_unram=[])))
    ops.append(Op("flag [1,2,3] correlation klein",
                  lambda: brq.brauer.br_nr_flag(held["correlation"], [1, 2, 3]),
                  check_report(want_unram=[], stack_divides=klein_schur)))
    for name, gens in corpus.gl2z_bicyclic_cases():
        group, lattice = verify.toric_group_from_matrices(gens)
        ops.append(Op(f"toric {name}",
                      lambda g=group, m=lattice: brq.brauer.br_nr_toric(
                          brq.brauer.ToricAction(g, m)),
                      check_report(want_unram=ref.TORUS_DIM2_BR_NR)))
    for path in sorted(FIXTURE_INPUTS.glob("*.json")):
        verb = json.loads(path.read_text(encoding="utf-8"))["verb"]
        ops.append(Op(f"cli {path.name}",
                      lambda v=verb, p=path: run_cli_twice(brq, v, p),
                      lambda out, n=path.name: check_cli(n, out)))
    return ops


def run_cli_twice(brq, verb, path):
    """Exit codes and stdout bytes of two in-process CLI runs."""
    runs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = brq.cli.main([verb, str(path), "--json"])
        runs.append((code, buf.getvalue()))
    return runs


def check_cli(name, runs):
    (code1, out1), (code2, out2) = runs
    problems = expect("exit codes", [code1, code2], [0, 0])
    if out1 != out2:
        problems.append("two renderings of the same report differ")
    try:
        doc = json.loads(out1)
    except json.JSONDecodeError as err:
        return problems + [f"output is not JSON: {err}"]
    want = CLI_FIXTURES.get(name)
    if want is None:
        return problems + [f"no known invariants for fixture {name}"]
    problems += expect("kind", doc.get("kind"), want["kind"])
    problems += expect("group order", doc.get("group_order"), want["group_order"])
    if "invariant_factors" in want:
        problems += expect("H2", doc.get("invariant_factors"), want["invariant_factors"])
        return problems
    if "stack_group" not in doc or "unramified_group" not in doc:
        return problems + ["output is not a Brauer report"]
    stack = doc["stack_group"]["invariant_factors"]
    unram = doc["unramified_group"]["invariant_factors"]
    problems += expect_divides("Br_nr", unram, "stack group", stack)
    if "stack" in want:
        problems += expect("stack group", stack, want["stack"])
    if "stack_divides" in want:
        problems += expect_divides("stack group", stack, "H2", want["stack_divides"])
    if "unramified" in want:
        problems += expect("Br_nr", unram, want["unramified"])
    return problems


BUILDERS = {
    "b0-corpus": build_b0_corpus,
    "schur-large": build_schur_large,
    "brnr-actions": build_brnr_actions,
}


# ---------------------------------------------------------------------------
# the pass


def run_pass(workload, seed, pass_index, trace, setup_only=False):
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import brq
    import brq.brauer
    import brq.cohomology

    if Path(brq.__file__).resolve().parent != (SRC / "brq").resolve():
        raise SystemExit(f"brq was imported from {brq.__file__}, not from {SRC}")
    imported = time.perf_counter()
    import brq.cli

    cli_imported = time.perf_counter()
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    ops = BUILDERS[workload](brq, seed, pass_index)
    ready = time.monotonic()
    records = []
    for op in [] if setup_only else ops:
        t0 = time.perf_counter()
        try:
            result = op.call()
            error = None
        except brq.BrqError as err:
            error = f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - t0
        try:
            problems = [] if error else op.check(result)
        except Exception as err:  # a check that breaks marks the output wrong
            problems = [f"check raised {type(err).__name__}: {err}"]
        records.append({"name": op.name, "s": seconds, "error": error,
                        "problems": problems})
    record = {
        "ready_monotonic": ready,
        "import_s": imported - start,
        "cli_import_s": cli_imported - imported,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.metrics() if tracer else None,
    }
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and stop before the operations")
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.pass_index, args.trace, args.setup_only)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
