#!/usr/bin/env python3
"""Regenerate the stored expected output of every bundled input fixture
(`src/brq/fixtures/inputs/*.json`, in sorted order).

    python3 tools/gen_expected.py           # rewrite fixtures/expected/*.out
    python3 tools/gen_expected.py --check   # write nothing; exit 1 on a difference

Run after any intentional change to report formats; the fixtures suite
compares live output against these files byte-for-byte.  `--check` lists
each fixture whose live output differs from its stored file (or has none).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from brq.cli import run_document_for_fixture  # noqa: E402

FIXTURES = SRC / "brq" / "fixtures"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the stored files instead of writing them")
    args = parser.parse_args(argv)
    if not args.check:
        (FIXTURES / "expected").mkdir(exist_ok=True)
    differ = 0
    for path in sorted((FIXTURES / "inputs").glob("*.json")):
        out = run_document_for_fixture(path.name)
        dest = FIXTURES / "expected" / f"{path.stem}.out"
        if args.check:
            if not dest.exists() or dest.read_text(encoding="utf-8") != out:
                differ += 1
                print("differs", dest.name)
            continue
        dest.write_text(out, encoding="utf-8")
        print("wrote", dest.name, f"({len(out)} bytes)")
    if args.check:
        print(f"{differ} of the stored outputs differ" if differ else "all stored outputs match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
