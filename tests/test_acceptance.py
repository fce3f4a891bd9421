"""Acceptance battery: one test per criterion, each printing a pass line.

The criteria run through the same bundled suites the CLI `verify` verb
exposes, so `pytest tests/test_acceptance.py` and `brq verify all` exercise
identical checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from brq import corpus, verify
from brq.brauer import bogomolov_multiplier, br_stack_fixed_point
from brq.cohomology import GModule, h2_qz, h2_qz_cached, restrict_qz_class
from brq.groups import cyclic_group, from_cayley_table, from_permutation_generators


def _run_cases(cases):
    failures = []
    for name, fn in cases:
        ok, detail = fn()
        if not ok:
            failures.append(f"{name}: {detail}")
    return failures


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({detail})")


def test_criterion_1_abelian_h2_sweep():
    t0 = time.monotonic()
    cases = [c for c in verify.suite_abelian_sweep() if c[0].startswith("abelian_")]
    failures = _run_cases(cases)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300
    _report(1, ok, f"{len(cases)} abelian groups of order <= 48 in {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 300, f"sweep took {elapsed:.1f}s"


def test_criterion_2_cyclic_vanishing():
    t0 = time.monotonic()
    bad = [n for n in range(1, 97) if h2_qz(cyclic_group(n)).invariant_factors != []]
    elapsed = time.monotonic() - t0
    _report(2, not bad, f"96 cyclic groups in {elapsed:.1f}s")
    assert not bad, bad


def test_criterion_3_b0_vanishing_corpus():
    t0 = time.monotonic()
    entries = corpus.b0_vanishing_corpus()
    assert len(entries) >= 30
    failures = []
    for name, group in entries:
        rep = bogomolov_multiplier(group)
        if list(rep.unramified_group.invariant_factors) != []:
            failures.append(name)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 600
    _report(3, ok, f"{len(entries)} groups in {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 600


def test_criterion_4_b0_order64_fixture():
    doc = verify.load_fixture_json("b0_order64.json")
    assert doc is not None, "order-64 fixture missing"
    t0 = time.monotonic()
    g = from_cayley_table(doc["group"]["table"])
    rep = bogomolov_multiplier(g)
    got = list(rep.unramified_group.invariant_factors)
    elapsed = time.monotonic() - t0
    ok = got == [2] and elapsed < 600
    _report(4, ok, f"B0 = {got} in {elapsed:.1f}s")
    assert got == [2]
    assert elapsed < 600


def test_criterion_5_quotient_stack_klein():
    g = corpus.klein_four()
    pic = GModule.lattice(g, 1)
    got = list(br_stack_fixed_point(g, pic, True).invariant_factors)
    _report(5, got == [2], f"stack group {got}")
    assert got == [2]


def test_criterion_6_moduli_example():
    a4 = corpus.alternating4(nonstandard_in_s6=True)
    coh = h2_qz_cached(a4, 12)
    ok_h2 = coh.invariant_factors == [2]
    klein = [x for x in range(12) if a4.element_order(x) in (1, 2)]
    sub = a4.subgroup(klein)
    _, coords = restrict_qz_class(coh, (1,), sub)
    ok_res = any(coords)
    doc = verify.load_fixture_json("m06_picard_lattice.json")
    if doc is None:
        _report(6, ok_h2 and ok_res, "lattice fixture absent; gated half skipped")
        assert ok_h2 and ok_res
        return
    g = from_permutation_generators(doc["group"]["degree"], doc["group"]["generators"])
    action = {g.generators[int(k)]: v for k, v in doc["module"]["action"].items()}
    pic = GModule.lattice(g, doc["module"]["rank"], action)
    got = list(br_stack_fixed_point(g, pic, True).invariant_factors)
    ok = ok_h2 and ok_res and got == [2, 2]
    _report(6, ok, f"H2(A4) = {coh.invariant_factors}, restriction {coords}, "
                   f"stack {got}")
    assert ok


def test_m06_lattice_generator_reproduces_the_fixture():
    root = os.path.dirname(os.path.dirname(__file__))
    proc = subprocess.run([sys.executable, os.path.join("tools", "gen_m06_lattice.py"), "--check"],
                          capture_output=True, text=True, cwd=root)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "stored fixture matches" in proc.stdout


def test_criterion_7_oracle_equivalence():
    cases = verify.suite_oracle_equivalence()
    assert len(cases) >= 50
    failures = _run_cases(cases)
    _report(7, not failures, f"{len(cases)} randomized module comparisons")
    assert not failures, failures[:5]


def test_criterion_8_transfer_identity():
    failures = _run_cases(verify.suite_transfer())
    _report(8, not failures, "cores after res is multiplication by the index")
    assert not failures, failures[:5]


def test_criterion_9_plucker_correlation_oracle():
    cases = [c for c in verify.suite_plucker_oracle()
             if c[0] == "gr24_annihilator_oracle"]
    failures = _run_cases(cases)
    _report(9, not failures, "25 random planes, proportional images, 2-torsion class")
    assert not failures, failures


def test_criterion_10_formula_degeneracies():
    cases = [c for c in verify.suite_plucker_oracle()
             if c[0].startswith("degeneracy_")]
    assert len(cases) == 30  # three identities on ten catalog actions
    failures = _run_cases(cases)
    _report(10, not failures, "projective/grassmannian/flag degeneracies")
    assert not failures, failures[:5]


def test_criterion_11_toric_bicyclic():
    cases = [c for c in verify.suite_fixtures() if c[0].startswith("toric_")]
    assert len(cases) >= 9
    t0 = time.monotonic()
    failures = _run_cases(cases)
    elapsed = time.monotonic() - t0
    _report(11, not failures, f"{len(cases)} lattice-subgroup cases in {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_12_byte_determinism():
    from brq.cli import run_document_for_fixture

    names = ["klein4_b0.json", "a4_h2.json", "pauli_brnr.json",
             "toric_s3.json", "p3_klein_stack.json", "gr24_correlation.json"]
    mismatch = []
    for name in names:
        if run_document_for_fixture(name) != run_document_for_fixture(name):
            mismatch.append(name)
    _report(12, not mismatch, "reports byte-identical across runs")
    assert not mismatch, mismatch


def test_cli_verify_exit_codes():
    # the CLI wrapper drives the same suites; spot-check wiring only
    proc = subprocess.run(
        [sys.executable, "-m", "brq.cli", "verify", "fixtures"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"}, cwd=os.path.dirname(os.path.dirname(__file__)))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "suite fixtures:" in proc.stdout
    data = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    assert not data, data
