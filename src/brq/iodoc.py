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
from .cyclotomic import MAX_CONDUCTOR, CycloMatrix, CycloNumber
from .errors import SizeLimitError, ValidationError
from .groups import (
    from_cayley_table,
    from_permutation_generators,
    semidirect_product,
)


def load_document(path):
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        return json.loads(text)
    except UnicodeDecodeError as err:
        raise ValidationError(f"{path} is not UTF-8 text", witness={"byte": err.start}) from err
    except json.JSONDecodeError as err:
        raise ValidationError(f"malformed JSON in {path}: {err}",
                              witness={"line": err.lineno, "column": err.colno}) from err
    except OSError as err:
        raise ValidationError(f"cannot read {path}: {err}", witness={"path": str(path)}) from err


def _field(doc, field, convert=None, default=None):
    """doc[field], or `default` when one is given and the field is absent,
    through `convert`: a ValidationError with witness {field} when the field
    is missing, or {field, value} when `convert` refuses the value."""
    if not isinstance(doc, dict) or (field not in doc and default is None):
        raise ValidationError(f"the document needs a {field!r} field", witness={"field": field})
    value = doc.get(field, default)
    try:
        return value if convert is None else convert(value)
    except (TypeError, ValueError):
        raise ValidationError(f"field {field!r} has a value of the wrong type",
                              witness={"field": field, "value": value}) from None


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _int(value):
    """An int, for `_field`: a float, a string or a bool is refused, never
    truncated or coerced."""
    if not _is_int(value):
        raise TypeError("not an integer")
    return value


def _int_list(value):
    """A list of ints, for `_field`."""
    if not isinstance(value, list):
        raise TypeError("not a list")
    return [_int(x) for x in value]


def _bool(value):
    """A JSON boolean, for `_field`: 0, 1 and strings such as "false" are
    refused."""
    if not isinstance(value, bool):
        raise TypeError("not a boolean")
    return value


def _object(value):
    """A JSON object, for `_field`."""
    if not isinstance(value, dict):
        raise TypeError("not an object")
    return value


def _block(doc, field):
    """The optional object-valued `field` of doc, or None when it is absent."""
    return _field(doc, field, _object) if field in doc else None


def _int_rows(value, shape=None):
    """A list of lists of ints, of the given (rows, columns) when one is
    given, for `_field`."""
    if not (isinstance(value, list) and all(isinstance(row, list) and all(map(_is_int, row))
                                            for row in value)):
        raise TypeError("not a list of integer lists")
    if shape is not None and (len(value) != shape[0]
                              or any(len(row) != shape[1] for row in value)):
        raise ValueError(f"not a {shape[0]} x {shape[1]} table")
    return value


def parse_group(doc):
    kind = _field(doc, "kind")
    if kind == "permutation":
        return from_permutation_generators(_field(doc, "degree", _int),
                                           _field(doc, "generators", _int_rows))
    if kind == "cayley":
        return from_cayley_table(_field(doc, "table", _int_rows))
    if kind == "semidirect":
        normal = parse_group(_field(doc, "normal"))
        acting = parse_group(_field(doc, "acting"))
        shape = (acting.order, normal.order)
        return semidirect_product(normal, acting,
                                  _field(doc, "action", lambda v: _int_rows(v, shape)))
    if kind == "central_extension":
        from .groups import central_extension_from_cocycle

        base = parse_group(_field(doc, "base"))
        shape = (base.order, base.order)
        return central_extension_from_cocycle(base, _field(doc, "n", _int),
                                              _field(doc, "cocycle", lambda v: _int_rows(v, shape)))
    raise ValidationError(f"unknown group kind {kind!r}", witness={"field": "kind", "value": kind})


def _parse_rational(x, field):
    if _is_int(x):
        return Fraction(x)
    if isinstance(x, list) and len(x) == 2 and all(map(_is_int, x)) and x[1]:
        return Fraction(x[0], x[1])
    raise ValidationError(f"cannot parse rational {x!r}", witness={"field": field, "value": x})


def parse_cyclo_number(x):
    """Accepts an int, a [num, den] pair, or {"m": conductor, "c": [...]}."""
    if not isinstance(x, dict):
        return CycloNumber.from_rational(_parse_rational(x, "entry"))
    m, coeffs = x.get("m"), x.get("c")
    if not _is_int(m) or m < 1:
        raise ValidationError("a cyclotomic number needs a conductor m >= 1",
                              witness={"field": "m", "value": m})
    if m > MAX_CONDUCTOR:
        raise SizeLimitError(f"conductor {m} exceeds the limit {MAX_CONDUCTOR}",
                             witness={"field": "m", "value": m, "limit": MAX_CONDUCTOR})
    if not isinstance(coeffs, list):
        raise ValidationError("a cyclotomic number needs a coefficient list c",
                              witness={"field": "c", "value": coeffs})
    return CycloNumber(m, [_parse_rational(c, "c") for c in coeffs])


def parse_cyclo_matrix(rows):
    if not (isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows)
            and rows[0] and all(len(r) == len(rows[0]) for r in rows)):
        raise ValidationError("a matrix is a nonempty list of equal-length rows",
                              witness={"field": "matrix", "value": rows})
    return CycloMatrix([[parse_cyclo_number(x) for x in row] for row in rows])


def _gen_by_position(group, action_doc, parse_entry):
    """Maps generator-position keys ('0', '1', ...) to parsed values.  A key
    is the canonical decimal of a position: '00', '+1', ' 1', '1_0' and '-0'
    are refused, as int() would read them as positions that another key may
    also name."""
    if not isinstance(action_doc, dict):
        raise ValidationError("an action block maps generator positions to matrices",
                              witness={"value": action_doc})
    out = {}
    for key, value in action_doc.items():
        try:
            pos = int(key)
        except (TypeError, ValueError):
            pos = -1
        if str(pos) != key or not 0 <= pos < len(group.generators):
            raise ValidationError(f"generator position {key!r} is not a canonical decimal "
                                  f"below {len(group.generators)}", witness={"position": key})
        out[group.generators[pos]] = parse_entry(value)
    return out


def parse_module(group, doc):
    """A module document; GModule checks the factors, rank and matrices."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind == "trivial_qz":
        return GModule.trivial_qz(group)
    field = {"finite": "factors", "lattice": "rank"}.get(kind)
    if field is None:
        raise ValidationError(f"unknown module kind {kind!r}",
                              witness={"field": "kind", "value": kind})
    value = _field(doc, field)
    gen_mats = _gen_by_position(group, _field(doc, "action", default={}), lambda m: m)
    if kind == "finite":
        return GModule.finite(group, value, gen_mats)
    return GModule.lattice(group, value, gen_mats)


def parse_action_document(doc, max_order=None):
    """Full action document -> (group, payload dict).

    The payload may contain: 'projective' (a ProjectiveAction), 'correlation'
    (a CorrelationAction), 'toric' (a ToricAction), 'pic' (a GModule),
    'grassmannian_r', 'flag_r_list', and 'flags', echoed as given except that
    a `fixed_point` flag must be a JSON boolean.  `max_order` is the order
    limit of the H^2 that checks a projective class.
    """
    group = parse_group(_field(doc, "group"))
    payload = {"group": group, "flags": _field(doc, "flags", _object, {})}
    if "fixed_point" in payload["flags"]:
        _field(payload["flags"], "fixed_point", _bool)
    proj = _block(doc, "projective")
    corr = _block(doc, "correlation")
    if corr is not None:
        if proj is None:
            raise ValidationError("correlation input needs the collineation block",
                                  witness={"field": "projective"})
        coll = _gen_by_position(group, _field(proj, "matrices", default={}),
                                parse_cyclo_matrix)
        phi = parse_cyclo_matrix(_field(corr, "phi"))
        witness_pos = _field(corr, "coset_witness", _int)
        if not 0 <= witness_pos < len(group.generators):
            raise ValidationError("coset witness position out of range",
                                  witness={"field": "coset_witness", "value": witness_pos})
        witness = group.generators[witness_pos]
        payload["correlation"] = correlation_action(group, coll, phi, witness)
    elif proj is not None:
        mats = _gen_by_position(group, _field(proj, "matrices", default={}),
                                parse_cyclo_matrix)
        payload["projective"] = gamma_from_projective_action(group, mats, max_order)
        dimension = payload["projective"].dimension
        declared = _field(proj, "dimension", _int, dimension)
        if declared != dimension:
            raise ValidationError("declared dimension does not match the matrices",
                                  witness={"declared": declared, "dimension": dimension})
    toric = _block(doc, "toric")
    if toric is not None:
        module = GModule.lattice(group, _field(toric, "rank"),
                                 _gen_by_position(group, _field(toric, "matrices", default={}),
                                                  lambda m: m))
        payload["toric"] = ToricAction(group, module)
    if "pic" in doc:
        payload["pic"] = parse_module(group, _field(doc, "pic", _object))
    if "grassmannian" in doc:
        payload["grassmannian_r"] = _field(_field(doc, "grassmannian", _object), "r", _int)
    if "flag" in doc:
        payload["flag_r_list"] = _field(_field(doc, "flag", _object), "r_list", _int_list)
    return payload
