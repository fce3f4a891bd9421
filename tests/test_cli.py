from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brq
from brq.cli import main, run_document_for_fixture


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


KLEIN = {"kind": "permutation", "degree": 4,
         "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]}


def test_b0_klein_text(tmp_path, capsys):
    path = write(tmp_path, "klein.json", {"group": KLEIN})
    assert main(["b0", path]) == 0
    out = capsys.readouterr().out
    assert "unramified Brauer group: 0  []" in out
    assert "stack Brauer group: Z/2  [2]" in out


def test_h2_json_output(tmp_path, capsys):
    a4 = {"kind": "permutation", "degree": 4,
          "generators": [[1, 0, 3, 2], [1, 2, 0, 3]]}
    path = write(tmp_path, "a4.json", {"group": a4})
    assert main(["h2", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["invariant_factors"] == [2]


def test_h1_trivial_qz(tmp_path, capsys):
    s3 = {"kind": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
    path = write(tmp_path, "s3.json", {"group": s3})
    assert main(["h1", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["invariant_factors"] == [2]


def test_group_info(tmp_path, capsys):
    path = write(tmp_path, "klein.json", {"group": KLEIN})
    assert main(["group-info", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == 4
    assert doc["abelian_invariants"] == [2, 2]
    assert len(doc["bicyclic_subgroups"]) == 5


def test_exit_code_2_on_bad_table(tmp_path, capsys):
    path = write(tmp_path, "bad.json",
                 {"group": {"kind": "cayley", "table": [[0, 1], [1, 1]]}})
    assert main(["b0", path]) == 2


def test_exit_code_2_on_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["h2", str(path)]) == 2


def test_exit_code_2_reports_structured_error(tmp_path, capsys):
    path = write(tmp_path, "bad.json",
                 {"group": {"kind": "cayley", "table": [[0, 1], [1, 1]]}})
    assert main(["b0", path, "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ValidationError"


def test_exit_code_3_on_size_limit(tmp_path, capsys):
    big = {"kind": "permutation", "degree": 7,
           "generators": [[1, 2, 3, 4, 5, 6, 0]]}
    path = write(tmp_path, "c7.json", {"group": big})
    assert main(["h2", path, "--max-order", "5"]) == 3


def test_exit_code_3_on_a_central_extension_above_the_construction_limit(tmp_path, capsys):
    trivial = {"kind": "cayley", "table": [[0]]}
    path = write(tmp_path, "big.json", {"group": {"kind": "central_extension", "base": trivial,
                                                  "n": 5000, "cocycle": [[0]]}})
    assert main(["h2", path, "--json"]) == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "SizeLimitError" and err["witness"] == {"max_order": 4096}


def test_brnr_toric_variant_mismatch(tmp_path):
    path = write(tmp_path, "k.json", {"group": KLEIN})
    assert main(["brnr", "toric", path]) == 2


def test_brnr_bad_toric_matrix(tmp_path, capsys):
    doc = {"group": {"kind": "permutation", "degree": 3,
                     "generators": [[1, 2, 0]]},
           "toric": {"rank": 2, "matrices": {"0": [[1, 0], [0, 2]]}}}
    path = write(tmp_path, "badtoric.json", doc)
    assert main(["brnr", "toric", path]) == 2


def test_unknown_suite(capsys):
    assert main(["verify", "nonexistent-suite"]) == 2


def test_byte_determinism_of_fixture_runs():
    a = run_document_for_fixture("pauli_brnr.json")
    b = run_document_for_fixture("pauli_brnr.json")
    assert a == b


def test_stamp_changes_output(tmp_path, capsys):
    path = write(tmp_path, "klein.json", {"group": KLEIN})
    assert main(["b0", path, "--stamp"]) == 0
    out = capsys.readouterr().out
    assert "generated at" in out


A4 = {"kind": "permutation", "degree": 4, "generators": [[1, 0, 3, 2], [1, 2, 0, 3]]}
PAULI = str(Path(__file__).resolve().parent.parent / "src" / "brq" / "fixtures" / "inputs"
            / "pauli_brnr.json")


@pytest.mark.parametrize("argv", [["b0"], ["brnr"], ["brnr", "linear"]])
def test_max_order_limits_b0_and_brnr(tmp_path, capsys, argv):
    path = write(tmp_path, "a4.json", {"group": A4})
    assert main(argv + [path, "--json"]) == 0
    capsys.readouterr()
    assert main(argv + [path, "--json", "--max-order", "8"]) == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "SizeLimitError"
    # the bar solver for H^2 has (|S| - 1)(|G| - 1) + |S| unknowns, the
    # generator-row values off the gauge tree: (2 - 1) * 11 + 2 = 13
    assert err["witness"] == {"order": 12, "unknowns": 13}


def test_max_order_limits_projective_brnr(capsys):
    assert main(["brnr", PAULI, "--json", "--max-order", "2"]) == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["witness"]["order"] == 4


def test_max_order_limits_stack(capsys):
    stack = str(Path(PAULI).parent / "p3_klein_stack.json")
    assert main(["stack", stack, "--json", "--max-order", "2"]) == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "SizeLimitError"
    assert err["witness"]["order"] == 4
    assert main(["stack", stack, "--json", "--max-order", "4"]) == 0


def test_max_order_limits_toric_brnr(capsys):
    toric = str(Path(PAULI).parent / "toric_s3.json")
    assert main(["brnr", "toric", toric, "--json", "--max-order", "4"]) == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "SizeLimitError"
    # the Q/Z solve is checked before the lattice one: S3 on two
    # generators, (2 - 1) * 5 + 2 = 7 unknowns
    assert err["witness"] == {"order": 6, "unknowns": 7}


@pytest.mark.parametrize("matrix", [[[2]], [[0, 1], [2, 0]], [[1, 1], [0, 2]]])
def test_non_unimodular_lattice_action_rejected(tmp_path, capsys, matrix):
    doc = {"group": {"kind": "permutation", "degree": 2, "generators": [[1, 0]]},
           "module": {"kind": "lattice", "rank": len(matrix), "action": {"0": matrix}}}
    path = write(tmp_path, "lattice.json", doc)
    assert main(["h1", path, "--json"]) in (2, 3)
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["witness"] is not None


@pytest.mark.parametrize("verb", ["h1", "h2"])
@pytest.mark.parametrize("module, code, witness", [
    ({"kind": "finite", "factors": [0]}, 2, {"field": "factors", "index": 0, "value": 0}),
    ({"kind": "finite", "factors": ["a"]}, 2, {"field": "factors", "index": 0, "value": "a"}),
    ({"kind": "finite", "factors": 4}, 2, {"field": "factors", "value": 4}),
    ({"kind": "finite"}, 2, {"field": "factors"}),
    ({"kind": "lattice"}, 2, {"field": "rank"}),
    ({"kind": "finite", "factors": [-3]}, 2, {"field": "factors", "index": 0, "value": -3}),
    ({"kind": "finite", "factors": [2.5]}, 2, {"field": "factors", "index": 0, "value": 2.5}),
    ({"kind": "finite", "factors": [2**64]}, 3, {"modulus": 2**64, "limit": 2**20}),
    ({"kind": "finite", "factors": [2**20 + 2]}, 3, {"modulus": 2**20 + 2, "limit": 2**20}),
])
def test_malformed_or_oversized_module_input(tmp_path, capsys, verb, module, code, witness):
    path = write(tmp_path, "module.json", {"group": KLEIN, "module": module})
    assert main([verb, path, "--json"]) == code
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == ("SizeLimitError" if code == 3 else "ValidationError")
    assert err["witness"] == witness


@pytest.mark.parametrize("action", [
    {"0": [[1.5]]},        # a float entry, which int64 conversion would truncate
    {"0": [[1], [1, 0]]},  # ragged rows
    {"0": [[1, 0], [0, 1]]},  # the wrong size for one factor
    {"x": [[1]]},          # not a generator position
    5,                     # not a mapping
])
def test_malformed_module_action_rejected(tmp_path, capsys, action):
    module = {"kind": "finite", "factors": [4], "action": action}
    path = write(tmp_path, "module.json", {"group": KLEIN, "module": module})
    assert main(["h1", path, "--json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"
    assert err["witness"] is not None


@pytest.mark.parametrize("entry, matrix, witness", [
    ({"m": "a", "c": [1]}, None, {"field": "m", "value": "a"}),
    ({"m": 4}, None, {"field": "c", "value": None}),
    ([1, 0], None, {"field": "entry", "value": [1, 0]}),
    ({"m": 4, "c": [[1, 0]]}, None, {"field": "c", "value": [1, 0]}),
    ({"m": 4, "c": 5}, None, {"field": "c", "value": 5}),
    (True, None, {"field": "entry", "value": True}),
    (None, 5, {"field": "matrix", "value": 5}),
    (None, [5], {"field": "matrix", "value": [5]}),
])
def test_malformed_cyclotomic_input_rejected(tmp_path, capsys, entry, matrix, witness):
    doc = json.loads(Path(PAULI).read_text())["document"]
    if matrix is None:
        matrix = [[entry, 1], [1, 0]]
    doc["projective"]["matrices"]["0"] = matrix
    path = write(tmp_path, "pauli.json", doc)
    assert main(["brnr", path, "--json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"
    assert err["witness"] == witness


def test_conductor_above_the_limit_exits_3_at_once(tmp_path, capsys):
    # diag(zeta_20000, -zeta_20000): a torsion table at m = 20000 took 35 s
    doc = json.loads(Path(PAULI).read_text())["document"]
    zeta = {"m": 20000, "c": [0, 1]}
    doc["projective"]["matrices"]["1"] = [[zeta, 0], [0, {"m": 20000, "c": [0, -1]}]]
    path = write(tmp_path, "pauli_m20000.json", doc)
    start = time.perf_counter()
    assert main(["brnr", path, "--json"]) == 3
    assert time.perf_counter() - start < 1.0
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "SizeLimitError"
    assert err["witness"] == {"field": "m", "value": 20000, "limit": 4096}


@pytest.mark.parametrize("doc, witness", [
    ({"group": {"kind": "permutation", "generators": [[1, 0]]}}, {"field": "degree"}),
    ({"group": {"kind": "cayley"}}, {"field": "table"}),
    ({"group": {"kind": "central_extension", "n": 2, "cocycle": []}}, {"field": "base"}),
    ({"group": KLEIN, "toric": {"matrices": {}}}, {"field": "rank"}),
    ({"group": KLEIN, "projective": {"matrices": {}}, "correlation": {"coset_witness": 0}},
     {"field": "phi"}),
    ({"group": KLEIN, "flag": {}}, {"field": "r_list"}),
    ({"group": KLEIN, "grassmannian": {"r": "x"}}, {"field": "r", "value": "x"}),
    ({"group": KLEIN, "flags": [1]}, {"field": "flags", "value": [1]}),
    # integer fields are neither truncated nor coerced
    ({"group": KLEIN, "grassmannian": {"r": 2.0}}, {"field": "r", "value": 2.0}),
    ({"group": KLEIN, "grassmannian": {"r": "2"}}, {"field": "r", "value": "2"}),
    ({"group": KLEIN, "grassmannian": {"r": True}}, {"field": "r", "value": True}),
    ({"group": KLEIN, "flag": {"r_list": [1.5, 3.2]}}, {"field": "r_list", "value": [1.5, 3.2]}),
    ({"group": KLEIN, "flag": {"r_list": "12"}}, {"field": "r_list", "value": "12"}),
    ({"group": KLEIN, "projective": {"matrices": {}},
      "correlation": {"phi": [[1]], "coset_witness": 0.9}},
     {"field": "coset_witness", "value": 0.9}),
    ({"group": KLEIN, "projective": {"matrices": {}},
      "correlation": {"phi": [[1]], "coset_witness": 2}},
     {"field": "coset_witness", "value": 2}),
    ({"group": KLEIN, "correlation": {"phi": [[1]], "coset_witness": 0}},
     {"field": "projective"}),
    ({"group": KLEIN, "projective": {"dimension": 2.5, "matrices": {
        "0": [[0, 1], [1, 0]], "1": [[1, 0], [0, -1]]}}},
     {"field": "dimension", "value": 2.5}),
    ({"group": KLEIN, "pic": {"kind": "torus"}}, {"field": "kind", "value": "torus"}),
])
def test_malformed_document_exits_2_with_the_field(tmp_path, capsys, doc, witness):
    path = write(tmp_path, "doc.json", doc)
    assert main(["brnr", path, "--json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"
    assert err["witness"] == witness


C2 = {"kind": "permutation", "degree": 2, "generators": [[1, 0]]}


@pytest.mark.parametrize("group, field, value", [
    ({"kind": "cayley", "table": 5}, "table", 5),
    ({"kind": "cayley", "table": [["a"]]}, "table", [["a"]]),
    ({"kind": "permutation", "degree": 2, "generators": 5}, "generators", 5),
    ({"kind": "central_extension", "base": KLEIN, "n": 2, "cocycle": 5}, "cocycle", 5),
    ({"kind": "central_extension", "base": KLEIN, "n": 2, "cocycle": [[0]]}, "cocycle", [[0]]),
    ({"kind": "semidirect", "normal": C2, "acting": C2, "action": 5}, "action", 5),
    ({"kind": "permutation", "degree": 4.7, "generators": [[1, 0]]}, "degree", 4.7),
    ({"kind": "permutation", "degree": "2", "generators": [[1, 0]]}, "degree", "2"),
    ({"kind": "permutation", "degree": True, "generators": [[0]]}, "degree", True),
    ({"kind": "central_extension", "base": KLEIN, "n": 2.0,
      "cocycle": [[0] * 4] * 4}, "n", 2.0),
])
def test_malformed_group_field_exits_2(tmp_path, capsys, group, field, value):
    path = write(tmp_path, "doc.json", {"group": group})
    assert main(["stack", path, "--json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"
    assert err["witness"] == {"field": field, "value": value}


@pytest.mark.parametrize("field, value", [
    ("flags", [[1, 2]]), ("pic", [1]), ("module", [1]), ("toric", [1]),
    ("projective", [1]), ("correlation", [1]), ("grassmannian", 3), ("flag", [1, 2])])
def test_action_document_blocks_must_be_objects(tmp_path, capsys, field, value):
    doc = {"group": KLEIN, "pic": {"kind": "lattice", "rank": 1},
           "flags": {"fixed_point": True}, field: value}
    path = write(tmp_path, "doc.json", doc)
    # `module` is read by h1 and h2, the other blocks by every action verb
    assert main(["h1" if field == "module" else "stack", path, "--json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"
    assert err["witness"] == {"field": field, "value": value}


@pytest.mark.parametrize("value", ["false", 1, 0, None])
def test_fixed_point_flag_must_be_a_boolean(tmp_path, capsys, value):
    doc = {"group": KLEIN, "pic": {"kind": "lattice", "rank": 1},
           "flags": {"fixed_point": value}}
    assert main(["stack", write(tmp_path, "doc.json", doc), "--json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"
    assert err["witness"] == {"field": "fixed_point", "value": value}


def test_module_action_not_well_defined_on_the_factors_exits_2(tmp_path, capsys):
    c4 = {"kind": "permutation", "degree": 4, "generators": [[1, 2, 3, 0]]}
    doc = {"group": c4, "module": {"kind": "finite", "factors": [4, 2],
                                   "action": {"0": [[1, 1], [0, 1]]}}}
    assert main(["h2", write(tmp_path, "doc.json", doc), "--json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"
    assert err["witness"] == [1, 0, 1]


@pytest.mark.parametrize("limit", [0, -1])
def test_max_order_below_one_is_refused(tmp_path, capsys, limit):
    path = write(tmp_path, "klein.json", {"group": KLEIN})
    assert main(["h2", path, "--json", "--max-order", str(limit)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"
    assert err["witness"] == {"field": "max_order", "value": limit}


@pytest.mark.parametrize("raw, value", [("abc", "abc"), ("0", 0)])
def test_brq_max_order_must_be_a_positive_integer(tmp_path, capsys, monkeypatch, raw, value):
    monkeypatch.setenv("BRQ_MAX_ORDER", raw)
    path = write(tmp_path, "klein.json", {"group": KLEIN})
    assert main(["h2", path, "--json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ValidationError"
    assert err["witness"] == {"field": "BRQ_MAX_ORDER", "value": value}


# An action block of each kind on the Klein four group: (verb, document with
# the given generator-position keys, each mapped to an identity matrix).
_ACTION_BLOCKS = {
    "projective": ("brnr", lambda keys: {
        "group": KLEIN, "projective": {"matrices": {k: [[1, 0], [0, 1]] for k in keys}}}),
    "toric": ("brnr", lambda keys: {
        "group": KLEIN, "toric": {"rank": 2, "matrices": {k: [[1, 0], [0, 1]] for k in keys}}}),
    "module": ("h1", lambda keys: {
        "group": KLEIN, "module": {"kind": "lattice", "rank": 1,
                                   "action": {k: [[1]] for k in keys}}}),
}
_NON_CANONICAL = ["00", "+1", " 1", "1_0", "-0"]


def _run_json(verb, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([verb, str(path), "--json"])
    return code, json.loads(out.getvalue()) if code else None


@pytest.mark.parametrize("block", sorted(_ACTION_BLOCKS))
@pytest.mark.parametrize("key", _NON_CANONICAL)
def test_generator_position_keys_must_be_canonical(block, key):
    verb, make_doc = _ACTION_BLOCKS[block]
    code, out = _run_json(verb, make_doc(["0", "1", key]))
    assert code == 2
    assert out["error"]["type"] == "ValidationError"
    assert out["error"]["witness"] == {"position": key}


def test_a_second_spelling_of_a_position_does_not_replace_the_first():
    # "00" used to overwrite the matrix at "0", and "+1" was read as position 1
    matrices = {"0": [[5, 0], [0, 5]], "00": [[0, 1], [1, 0]], "+1": [[1, 0], [0, -1]]}
    code, out = _run_json("brnr", {"group": KLEIN, "projective": {"matrices": matrices}})
    assert code == 2
    assert out["error"]["witness"] == {"position": "00"}


@settings(max_examples=120, deadline=None, database=None)
@given(st.sampled_from(sorted(_ACTION_BLOCKS)),
       st.lists(st.sampled_from(["0", "1", "2", "01", "x", "", *_NON_CANONICAL]),
                unique=True, max_size=4))
def test_action_blocks_refuse_the_first_key_that_is_not_a_position(block, keys):
    verb, make_doc = _ACTION_BLOCKS[block]
    code, out = _run_json(verb, make_doc(keys))
    bad = [k for k in keys if k not in ("0", "1")]
    if bad:
        assert code == 2 and out["error"]["witness"] == {"position": bad[0]}
    elif code:
        assert "position" not in (out["error"].get("witness") or {})


def test_h2_and_brnr_load_neither_the_verify_suites_nor_numpy_ma():
    fixtures = Path(PAULI).parent
    script = ("import contextlib, io, json, sys\n"
              "from brq.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [main(['h2', {str(fixtures / 'a4_h2.json')!r}]),\n"
              f"             main(['brnr', {str(fixtures / 'pauli_brnr.json')!r}])]\n"
              "print(json.dumps([codes, [m in sys.modules for m in ('numpy.ma', 'brq.verify')]]))\n")
    src = str(Path(brq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert json.loads(run.stdout) == [[0, 0], [False, False]]


GR24 = str(Path(PAULI).parent / "gr24_correlation.json")
ID3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("fixture, edit, message, witness", [
    # a non-projective pair: the first failing (element, generator) edge
    (PAULI, {"projective.matrices.0": [[1, 1], [0, 1]], "projective.matrices.1": [[1, 0], [0, -1]]},
     "matrix defect is not scalar: input is not a projective action", [1, 1]),
    (PAULI, {"projective.matrices.0": [[0, 2], [2, 0]]},
     "scalar defect is not a root of unity at the working conductor", [1, 1]),
    (PAULI, {"projective.matrices.1": ID3},
     "matrices must be square of a common dimension", {"generator": 2, "shape": [3, 3]}),
    (PAULI, {"projective.dimension": 3},
     "declared dimension does not match the matrices", {"declared": 3, "dimension": 2}),
    (GR24, {"correlation.phi": ID3 + [[0, 0, 0]]}, "phi must be square", {"shape": [4, 3]}),
    (GR24, {"correlation.phi": [[1, 1, 0, 0]] * 4}, "phi is singular", {"shape": [4, 4]}),
    # a matrix at the coset witness's position (0, element 1) is refused, not dropped
    (GR24, {"projective.matrices.0": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
     "coset witness cannot carry a collineation matrix", 1),
])
def test_action_errors_exit_2_with_their_witness(tmp_path, capsys, fixture, edit, message,
                                                 witness):
    doc = json.loads(Path(fixture).read_text())["document"]
    for dotted, value in edit.items():
        *path, key = dotted.split(".")
        block = doc
        for part in path:
            block = block[part]
        block[key] = value
    path = write(tmp_path, "action.json", doc)
    assert main(["brnr", path, "--json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ValidationError", "message": message, "witness": witness}


# ---------------------------------------------------------------------------
# fuzzing the group document


def _is_group_table(table):
    """Whether `table` is the Cayley table of a group, by a plain check."""
    n = len(table) if isinstance(table, list) else 0
    if not n or any(not isinstance(row, list) or len(row) != n for row in table):
        return False
    if any(type(x) is not int or not 0 <= x < n for row in table for x in row):
        return False
    if any(table[a][table[b][c]] != table[table[a][b]][c]
           for a in range(n) for b in range(n) for c in range(n)):
        return False
    ones = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    return bool(ones) and all(ones[0] in row for row in table)


_SMALL_INT = st.integers(-2, 7)
_JSON = st.recursive(
    st.none() | st.booleans() | _SMALL_INT | st.floats(-3, 8) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["kind", "table", "degree", "generators", "group", "normal",
                         "acting", "action", "base", "n", "cocycle"]), inner, max_size=4),
    max_leaves=12)


def _square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def _perturbed_cyclic(n, a, b, v):
    table = [[(x + y) % n for y in range(n)] for x in range(n)]
    table[a % n][b % n] = v
    return table


C3 = {"kind": "permutation", "degree": 3, "generators": [[1, 2, 0]]}
S3 = {"kind": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
_SMALL_GROUPS = st.sampled_from([(C2, 2), (C3, 3), (KLEIN, 4), (S3, 6)])


def _maps(rows, k):
    """`rows` lists over 0..k-1, some of them permutations."""
    row = st.permutations(range(k)).map(list) | st.lists(st.integers(-1, k), min_size=k,
                                                         max_size=k)
    return st.lists(row, min_size=rows, max_size=rows)


_GROUP_DOCS = st.one_of(
    # Cayley tables: ragged, random, and one entry off a cyclic group
    st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-1, n), min_size=n - 1, max_size=n + 1), min_size=n, max_size=n)),
    st.integers(1, 5).flatmap(lambda n: _square(n, st.integers(0, n - 1))),
    st.builds(_perturbed_cyclic, st.integers(2, 6), _SMALL_INT, _SMALL_INT, _SMALL_INT),
).map(lambda t: {"kind": "cayley", "table": t}) | st.one_of(
    st.fixed_dictionaries({"kind": st.just("permutation"), "degree": _SMALL_INT,
                           "generators": st.lists(st.lists(_SMALL_INT, max_size=5), max_size=3)}),
    st.tuples(_SMALL_GROUPS, _SMALL_GROUPS).flatmap(lambda pair: _maps(pair[1][1], pair[0][1]).map(
        lambda action: {"kind": "semidirect", "normal": pair[0][0], "acting": pair[1][0],
                        "action": action})),
    _SMALL_GROUPS.flatmap(lambda base: st.builds(
        lambda n, c: {"kind": "central_extension", "base": base[0], "n": n, "cocycle": c},
        _SMALL_INT, _square(base[1], st.integers(0, 2)))),
    st.fixed_dictionaries({"kind": st.sampled_from(["cayley", "permutation", "semidirect",
                                                    "central_extension", "matrix"])},
                          optional={k: _JSON for k in ("table", "degree", "generators",
                                                       "normal", "acting", "action", "base",
                                                       "n", "cocycle")}),
    _JSON)
_DOCUMENTS = st.one_of(
    _GROUP_DOCS.map(lambda g: json.dumps({"group": g}).encode()),
    _GROUP_DOCS.map(lambda g: json.dumps(g).encode()),
    st.tuples(_GROUP_DOCS.map(lambda g: json.dumps({"group": g}).encode()),
              st.integers(0, 60)).map(lambda pair: pair[0][:pair[1]]),
    _JSON.map(lambda v: json.dumps(v).encode()),
    _JSON.map(lambda v: json.dumps({"verb": "b0", "document": v}).encode()),
    st.binary(max_size=20),
    st.text(max_size=20).map(str.encode))


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(["group-info", "h2", "b0"]), _DOCUMENTS)
@example("b0", b"5")
@example("h2", b'{"verb": "h2", "document": null}')
@example("group-info", b'{"group": {"kind": "cayley", "table": [[0, 1], [1, 1]]}}')
def test_malformed_group_documents_exit_with_a_witness(verb, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(data)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([verb, str(path), "--json"])
    if code == 0:  # only a real group goes through
        doc = json.loads(data)
        group = doc.get("group", doc)
        assert group["kind"] != "cayley" or _is_group_table(group["table"])
        return
    assert code in (2, 3)
    err = json.loads(out.getvalue())["error"]
    assert err.get("witness") is not None, err


@pytest.mark.parametrize("fixture", [PAULI, GR24], ids=["projective", "correlation"])
def test_brnr_flag_without_a_dimension_exits_2(tmp_path, capsys, fixture):
    doc = json.loads(Path(fixture).read_text())["document"]
    doc["flag"] = {"r_list": []}
    path = write(tmp_path, "flag.json", doc)
    assert main(["brnr", "flag", path, "--json"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "DomainError"
    assert err["witness"] == {"r_list": []}


def test_python_m_brq_runs_the_cli(capsys):
    argv = ["brnr", PAULI, "--json"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    src = str(Path(brq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-m", "brq", *argv], capture_output=True, text=True,
                         env=env, timeout=120)
    assert (run.returncode, run.stdout) == (0, want)
