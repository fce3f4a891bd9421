"""Tests of the benchmark's reference values and output checks.

    python3 -m pytest -q bench/tests

Run from the root of a checkout.  The closed forms are checked on
hand-worked cases; the output checks are shown to pass on what ``brq``
computes and to fail when the reference value is wrong.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# closed forms on hand-worked cases


@pytest.mark.parametrize("value, want", [
    (ref.dihedral_schur(4), [2]),                    # D8
    (ref.dicyclic_schur(2), []),                     # Q8
    (ref.abelian_schur([2, 4, 4]), [2, 2, 4]),       # Z/2 x Z/4 x Z/4
    (ref.metacyclic_schur(4, 4, 3), [2]),            # Z/4 x| Z/4
    (ref.metacyclic_schur(8, 2, 5), []),             # M16, the modular group
    (ref.metacyclic_schur(8, 2, 3), []),             # semidihedral of order 16
    (ref.abelian_schur([2, 2, 2]), [2, 2, 2]),
    (ref.abelian_schur([7, 7]), [7]),
    (ref.abelian_schur([12]), []),
    (ref.cyclic_schur(96), []),
])
def test_hand_worked_schur_multipliers(value, want):
    assert value == want


def test_invariant_form_splits_into_prime_powers():
    assert ref.invariant_form([6, 4]) == [2, 12]
    assert ref.invariant_form([2, 3]) == [6]
    assert ref.invariant_form([4, 2, 2]) == [2, 2, 4]
    assert ref.invariant_form([]) == []


@pytest.mark.parametrize("m", range(3, 20))
def test_metacyclic_formula_agrees_with_dihedral(m):
    assert ref.metacyclic_schur(m, 2, m - 1) == ref.dihedral_schur(m)


def test_projective_stack():
    assert ref.projective_stack([2, 2, 2], 1, 1) == [2, 2, 2]
    assert ref.projective_stack([3], 3, 1) == []
    assert ref.projective_stack([3], 3, 3) == [3]
    assert ref.projective_stack([4], 4, 2) == [2]
    with pytest.raises(ValueError):
        ref.projective_stack([2, 2], 2, 1)


def test_b0_theorem_covers_only_orders_below_64():
    assert ref.b0_below_64(32) == []
    with pytest.raises(ValueError):
        ref.b0_below_64(64)


# ---------------------------------------------------------------------------
# the checks fail on a wrong reference


def fake_report(stack, unram):
    return SimpleNamespace(
        stack_group=SimpleNamespace(invariant_factors=tuple(stack)),
        unramified_group=SimpleNamespace(invariant_factors=tuple(unram)))


def test_b0_check_on_brq_output():
    from brq import corpus
    from brq.brauer import bogomolov_multiplier

    report = bogomolov_multiplier(corpus.dihedral(4))
    assert workloads.check_b0("dihedral8", 8, [])(report) == []
    assert workloads.check_b0("dihedral8", 8, [2])(report)


def test_b0_check_fails_on_a_wrong_schur_reference(monkeypatch):
    from brq import corpus
    from brq.brauer import bogomolov_multiplier

    report = bogomolov_multiplier(corpus.z4_semidirect_z4())
    assert workloads.check_b0("z4_semidirect_z4", 16, [])(report) == []
    monkeypatch.setitem(ref.B0_CORPUS_SCHUR, "z4_semidirect_z4", [4])
    assert workloads.check_b0("z4_semidirect_z4", 16, [])(report)


def test_b0_check_fails_when_b0_does_not_divide_h2():
    assert workloads.check_b0("none", 8, [2])(fake_report([], [2]))


def test_schur_check_on_a_relabelled_table():
    from brq import corpus
    from brq.cohomology import h2_qz
    from brq.groups import from_cayley_table

    table, gens = workloads.relabelled_table(corpus.dihedral(4), random.Random(7))
    coh = h2_qz(from_cayley_table(table, generators=gens))
    assert workloads.expect("H2", workloads.factors(coh), ref.dihedral_schur(4)) == []
    assert workloads.expect("H2", workloads.factors(coh), ref.dihedral_schur(5))


def test_report_checks_fail_on_wrong_values():
    check = workloads.check_report(want_stack=[2], want_unram=[])
    assert check(fake_report([2], [])) == []
    assert check(fake_report([], []))
    assert check(fake_report([2], [2]))
    assert workloads.check_report(stack_divides=[2])(fake_report([4], []))


def test_same_as_check_compares_with_the_earlier_report():
    held = {"first": fake_report([2], [])}
    assert workloads.check_same_as("first", held)(fake_report([2], [])) == []
    assert workloads.check_same_as("first", held)(fake_report([], []))
    assert workloads.check_same_as("missing", held)(fake_report([2], []))


def test_cli_check_on_brq_output(monkeypatch):
    import brq
    import brq.cli

    monkeypatch.chdir(BENCH.parent)
    runs = workloads.run_cli_twice(brq, "b0", workloads.FIXTURE_INPUTS / "klein4_b0.json")
    assert workloads.check_cli("klein4_b0.json", runs) == []
    wrong = dict(workloads.CLI_FIXTURES["klein4_b0.json"], stack=[])
    monkeypatch.setitem(workloads.CLI_FIXTURES, "klein4_b0.json", wrong)
    assert workloads.check_cli("klein4_b0.json", runs)


def test_cli_check_fails_on_differing_renderings():
    out = '{"kind":"h2","group_order":12,"invariant_factors":[2]}\n'
    assert workloads.check_cli("a4_h2.json", [(0, out), (0, out)]) == []
    assert workloads.check_cli("a4_h2.json", [(0, out), (0, out.replace("[2]", "[2] "))])
    assert workloads.check_cli("a4_h2.json", [(0, out), (2, out)])
