"""JSON input documents: groups, modules, and actions.

One document describes a group plus optional action data; the CLI verbs
dispatch on which sections are present.  The action blocks mirror the
library objects: projective matrices per generator position, an optional
correlation with a dual matrix and coset witness, toric lattice data, a
Picard module, and geometric flags supplied by the caller.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .brauer import (
    ToricAction,
    correlation_action,
    gamma_from_projective_action,
)
from .cohomology import GModule
from .cyclotomic import CycloMatrix, CycloNumber
from .errors import ValidationError
from .groups import (
    FiniteGroup,
    from_cayley_table,
    from_permutation_generators,
    semidirect_product,
)


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ValidationError(f"malformed JSON in {path}: {err}") from err
    except OSError as err:
        raise ValidationError(f"cannot read {path}: {err}") from err


def parse_group(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValidationError("group document needs a 'kind' field")
    kind = doc["kind"]
    if kind == "permutation":
        return from_permutation_generators(doc["degree"], doc["generators"])
    if kind == "cayley":
        return from_cayley_table(doc["table"])
    if kind == "semidirect":
        normal = parse_group(doc["normal"])
        acting = parse_group(doc["acting"])
        action = doc["action"]
        if len(action) != acting.order:
            raise ValidationError("semidirect action needs one permutation per "
                                  "acting element")
        return semidirect_product(normal, acting, [list(map(int, p)) for p in action])
    if kind == "central_extension":
        from .groups import central_extension_from_cocycle

        base = parse_group(doc["base"])
        return central_extension_from_cocycle(base, doc["n"], doc["cocycle"])
    raise ValidationError(f"unknown group kind {kind!r}")


def _parse_rational(x):
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return Fraction(int(x[0]), int(x[1]))
    raise ValidationError(f"cannot parse rational {x!r}")


def parse_cyclo_number(x):
    """Accepts an int, a [num, den] pair, or {"m": conductor, "c": [...]}."""
    if isinstance(x, dict):
        m = int(x["m"])
        coeffs = [_parse_rational(c) for c in x["c"]]
        return CycloNumber(m, coeffs)
    return CycloNumber.from_rational(_parse_rational(x))


def parse_cyclo_matrix(rows):
    return CycloMatrix([[parse_cyclo_number(x) for x in row] for row in rows])


def _gen_by_position(group, action_doc, parse_entry):
    """Maps generator-position keys ('0', '1', ...) to parsed values."""
    if not isinstance(action_doc, dict):
        raise ValidationError("an action block maps generator positions to matrices",
                              witness={"value": action_doc})
    out = {}
    for key, value in action_doc.items():
        try:
            pos = int(key)
        except (TypeError, ValueError):
            pos = -1
        if not 0 <= pos < len(group.generators):
            raise ValidationError(f"generator position {key} out of range",
                                  witness={"position": key})
        out[group.generators[pos]] = parse_entry(value)
    return out


def parse_module(group, doc):
    """A module document; GModule checks the factors, rank and matrices."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "trivial_qz":
        return GModule.trivial_qz(group)
    field = {"finite": "factors", "lattice": "rank"}.get(kind)
    if field is None:
        raise ValidationError(f"unknown module kind {kind!r}")
    if field not in doc:
        raise ValidationError(f"a {kind} module needs a {field!r} field",
                              witness={"field": field})
    gen_mats = _gen_by_position(group, doc.get("action", {}), lambda m: m)
    if kind == "finite":
        return GModule.finite(group, doc["factors"], gen_mats)
    return GModule.lattice(group, doc["rank"], gen_mats)


def parse_action_document(doc, max_order=None):
    """Full action document -> (group, payload dict).

    The payload may contain: 'projective' (a ProjectiveAction), 'correlation'
    (a CorrelationAction), 'toric' (a ToricAction), 'pic' (a GModule),
    'grassmannian_r', 'flag_r_list', and 'flags'.  `max_order` is the
    finite-coefficient order limit of the H^2 that checks a projective class.
    """
    group = parse_group(doc["group"])
    payload = {"group": group, "flags": dict(doc.get("flags", {}))}
    proj = doc.get("projective")
    corr = doc.get("correlation")
    if corr is not None:
        if proj is None:
            raise ValidationError("correlation input needs the collineation block")
        coll = _gen_by_position(group, proj.get("matrices", {}), parse_cyclo_matrix)
        phi = parse_cyclo_matrix(corr["phi"])
        witness_pos = int(corr["coset_witness"])
        if not 0 <= witness_pos < len(group.generators):
            raise ValidationError("coset witness position out of range")
        witness = group.generators[witness_pos]
        coll.pop(witness, None)
        payload["correlation"] = correlation_action(group, coll, phi, witness)
    elif proj is not None:
        mats = _gen_by_position(group, proj.get("matrices", {}), parse_cyclo_matrix)
        payload["projective"] = gamma_from_projective_action(group, mats, max_order)
        if "dimension" in proj and payload["projective"].dimension != int(proj["dimension"]):
            raise ValidationError("declared dimension does not match the matrices")
    toric = doc.get("toric")
    if toric is not None:
        module = GModule.lattice(group, toric["rank"],
                                 _gen_by_position(group, toric.get("matrices", {}),
                                                  lambda m: m))
        payload["toric"] = ToricAction(group, module)
    if "pic" in doc:
        payload["pic"] = parse_module(group, doc["pic"])
    if "grassmannian" in doc:
        payload["grassmannian_r"] = int(doc["grassmannian"]["r"])
    if "flag" in doc:
        payload["flag_r_list"] = [int(r) for r in doc["flag"]["r_list"]]
    return payload
