from __future__ import annotations

import json
from pathlib import Path

import pytest

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
    # the bar solver for H^2 has generators x (|G| - 1) unknowns
    assert err["witness"] == {"order": 12, "unknowns": 2 * 11}


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
