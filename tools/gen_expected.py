#!/usr/bin/env python3
"""Regenerate the stored expected output of every bundled input fixture
(`src/brq/fixtures/inputs/*.json`, in sorted order).

Run after any intentional change to report formats; the fixtures suite
compares live output against these files byte-for-byte.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from brq.cli import run_document_for_fixture  # noqa: E402

FIXTURES = SRC / "brq" / "fixtures"


def main():
    (FIXTURES / "expected").mkdir(exist_ok=True)
    for path in sorted((FIXTURES / "inputs").glob("*.json")):
        out = run_document_for_fixture(path.name)
        dest = FIXTURES / "expected" / f"{path.stem}.out"
        dest.write_text(out, encoding="utf-8")
        print("wrote", dest.name, f"({len(out)} bytes)")


if __name__ == "__main__":
    main()
