"""Command-line front end.

Verbs: group-info, h1, h2, b0, brnr, stack, verify.  Input is a single
JSON document (group plus optional action blocks).  Reports go to stdout;
domain and validation problems exit 2, size limits exit 3: a group order
above the limit (--max-order), module factors whose lcm exceeds the int64
modulus limit 2^20, or a cyclotomic conductor above 4096.  Output is
byte-deterministic unless --stamp is given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources

from .brauer import (
    bogomolov_multiplier,
    br_nr_flag,
    br_nr_grassmannian,
    br_nr_linear,
    br_nr_projective,
    br_nr_toric,
    br_stack_quotient,
    stack_fixed_point_report,
)
from .cohomology import GModule, h1 as h1_op, h2 as h2_op, h2_qz, h2_qz_cached
from .errors import BrqError, SizeLimitError, ValidationError
from .groups import abelian_structure, bicyclic_subgroups
from .iodoc import (_field, _object, load_document, parse_action_document, parse_group,
                    parse_module)
from .reports import BrauerReport, describe_factors


def _render(doc_or_report, options):
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()) if options.stamp else None
    is_report = isinstance(doc_or_report, BrauerReport)
    if options.json:
        if is_report:
            payload = doc_or_report.to_json_dict(include_witnesses=options.witness)
        else:
            payload = dict(doc_or_report)
        if stamp:
            payload["generated_at"] = stamp
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if is_report:
        text = doc_or_report.to_text()
    else:
        text = "".join(f"{k}: {v}\n" for k, v in doc_or_report.items())
    if stamp:
        text += f"generated at {stamp}\n"
    return text


def cmd_group_info(doc, options):
    group = parse_group(doc["group"] if "group" in doc else doc)
    info = {
        "kind": "group-info",
        "order": group.order,
        "generators": list(group.generators),
        "abelian": group.is_abelian(),
        "exponent": group.exponent(),
    }
    if group.is_abelian():
        factors, _ = abelian_structure(group.subgroup(range(group.order)))
        info["abelian_invariants"] = factors
    mode = "conj" if options.subgroups == "conj" else "all"
    subs = bicyclic_subgroups(group, up_to_conjugacy=(mode == "conj"))
    info["bicyclic_subgroups"] = [list(s.elements) for s in subs]
    return info


def cmd_h(doc, options, degree):
    group = parse_group(doc["group"] if "group" in doc else doc)
    module_doc = _field(doc, "module", _object, {"kind": "trivial_qz"})
    if module_doc.get("kind") == "trivial_qz":
        if degree == 2:
            coh = h2_qz(group, max_order=options.max_order)
        else:
            coh = h1_op(GModule.trivial_qz(group), max_order=options.max_order)
    else:
        module = parse_module(group, module_doc)
        coh = h2_op(module, max_order=options.max_order) if degree == 2 else \
            h1_op(module, max_order=options.max_order)
    out = {
        "kind": f"h{degree}",
        "invariant_factors": coh.invariant_factors,
        "description": describe_factors(coh.invariant_factors),
        "group_order": group.order,
    }
    if coh.modulus:
        out["modulus"] = coh.modulus
    if options.witness and degree == 2 and coh.rep_tables:
        out["witness_cocycles"] = [t.tolist() for t in coh.rep_tables]
    return out


def cmd_b0(doc, options):
    group = parse_group(doc["group"] if "group" in doc else doc)
    mode = "conj" if options.subgroups == "conj" else "all"
    return bogomolov_multiplier(group, subgroup_mode=mode, max_order=options.max_order)


def cmd_brnr(doc, options, variant=None):
    limit = options.max_order
    payload = parse_action_document(doc if "group" in doc else {"group": doc}, limit)
    mode = "conj" if options.subgroups == "conj" else "all"
    action = payload.get("correlation") or payload.get("projective")
    if variant == "toric" or (variant is None and "toric" in payload):
        if "toric" not in payload:
            raise ValidationError("no toric block in the input document")
        return br_nr_toric(payload["toric"], subgroup_mode=mode, max_order=limit)
    if variant == "flag" or (variant is None and "flag_r_list" in payload):
        if "flag_r_list" not in payload or action is None:
            raise ValidationError("flag computations need a flag block and an action")
        return br_nr_flag(action, payload["flag_r_list"], subgroup_mode=mode,
                          max_order=limit)
    if variant == "grassmannian" or (variant is None and "grassmannian_r" in payload):
        if "grassmannian_r" not in payload or action is None:
            raise ValidationError("grassmannian computations need the wedge degree")
        return br_nr_grassmannian(action, payload["grassmannian_r"], subgroup_mode=mode,
                                  max_order=limit)
    if variant == "projective" or (variant is None and action is not None):
        if action is None:
            raise ValidationError("no projective matrices in the input document")
        return br_nr_projective(action, subgroup_mode=mode, max_order=limit)
    if variant in (None, "linear"):
        return br_nr_linear(payload["group"], subgroup_mode=mode, max_order=limit)
    raise ValidationError(f"unknown brnr variant {variant!r}")


def cmd_stack(doc, options):
    limit = options.max_order
    payload = parse_action_document(doc if "group" in doc else {"group": doc}, limit)
    group = payload["group"]
    if payload["flags"].get("fixed_point"):
        if "pic" not in payload:
            raise ValidationError("fixed-point stack computations need a pic module")
        return stack_fixed_point_report(group, payload["pic"],
                                        payload["flags"]["fixed_point"], max_order=limit)
    act = payload.get("projective")
    coh = h2_qz_cached(group, act.modulus if act is not None else max(group.order, 2), limit)
    am = []
    note = "no relations: the stack group is all of H2(G)"
    if act is not None:
        am = [list(act.gamma_coords(max_order=limit))]
        note = f"relation: projective class {am[0]}"
    structure = br_stack_quotient(group, coh, am)
    return BrauerReport(
        kind="br_stack_quotient",
        group_order=group.order,
        modulus=coh.modulus,
        stack_group=structure,
        unramified_group=structure,
        generator_descriptions=[describe_factors(structure.invariant_factors)],
        subgroup_diagnostics=[],
        flags=payload["flags"],
        notes=[note, "the unramified subgroup is not computed by this operation"],
    )


def run_document_for_fixture(name):
    """Deterministic JSON rendering of a bundled fixture input (used by the
    byte-comparison suite and to regenerate stored outputs)."""
    ref = resources.files("brq") / "fixtures" / "inputs" / name
    doc = json.loads(ref.read_text(encoding="utf-8"))
    options = argparse.Namespace(json=True, witness=False, stamp=False,
                                 subgroups="conj", max_order=None)
    verb = doc["verb"]
    body = doc["document"]
    result = _dispatch(verb, doc.get("variant"), body, options)
    return _render(result, options)


def _dispatch(verb, variant, doc, options):
    if verb == "group-info":
        return cmd_group_info(doc, options)
    if verb == "h1":
        return cmd_h(doc, options, 1)
    if verb == "h2":
        return cmd_h(doc, options, 2)
    if verb == "b0":
        return cmd_b0(doc, options)
    if verb == "brnr":
        return cmd_brnr(doc, options, variant)
    if verb == "stack":
        return cmd_stack(doc, options)
    raise ValidationError(f"unknown verb {verb!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="brq",
        description="Exact Brauer-group obstructions for quotients by finite groups")
    parser.add_argument("verb", choices=["group-info", "h1", "h2", "b0", "brnr",
                                         "stack", "verify"])
    parser.add_argument("target", nargs="?",
                        help="input JSON document, or suite name for verify")
    parser.add_argument("extra", nargs="?",
                        help="input document when a brnr variant is given")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--witness", action="store_true",
                        help="include witness cocycles in JSON output")
    parser.add_argument("--subgroups", choices=["conj", "all"], default="conj",
                        help="bicyclic subgroup list mode")
    parser.add_argument("--stamp", action="store_true",
                        help="include a timestamp (off by default for reproducibility)")
    parser.add_argument("--max-order", type=int, default=None,
                        help="group-order limit of the cohomology computations: replaces "
                             "the default limit (96, or BRQ_MAX_ORDER); construction stays "
                             "capped at 4096")
    return parser


def main(argv=None):
    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        if options.verb == "verify":
            # the suites load the catalogs and their fixtures; no other verb needs them
            from .verify import SUITES, run_suite

            suite = options.target
            if suite is None or (suite not in SUITES and suite != "all"):
                raise ValidationError(
                    f"verify needs a suite name: {', '.join(SUITES)} or 'all'")
            names = list(SUITES) if suite == "all" else [suite]
            failed = 0
            for name in names:
                _, bad = run_suite(name, out=sys.stdout)
                failed += bad
            return 1 if failed else 0
        variant = None
        path = options.target
        if options.verb == "brnr" and options.extra is not None:
            variant = options.target
            path = options.extra
        if path is None:
            raise ValidationError("missing input document path")
        doc = load_document(path)
        if isinstance(doc, dict) and "verb" in doc and "document" in doc:
            # self-describing fixture document
            if variant is None:
                variant = doc.get("variant")
            doc = doc["document"]
        if not isinstance(doc, dict):
            raise ValidationError("the document must be a JSON object",
                                  witness={"field": "document"})
        result = _dispatch(options.verb, variant, doc, options)
        sys.stdout.write(_render(result, options))
        return 0
    except SizeLimitError as err:
        _emit_error(err, options)
        return 3
    except BrqError as err:
        _emit_error(err, options)
        return 2


def _emit_error(err, options):
    if options.json:
        sys.stdout.write(json.dumps({"error": err.to_json_dict()}, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        sys.stderr.write(f"error: {err.message}\n")
        if err.witness is not None:
            sys.stderr.write(f"witness: {err.witness}\n")


if __name__ == "__main__":
    sys.exit(main())
