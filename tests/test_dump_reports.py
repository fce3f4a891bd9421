from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "dump_reports.py"
_SPEC = importlib.util.spec_from_file_location("dump_reports", _PATH)
dump_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(dump_reports)

OLD = [["kept", {"a": 1}], ["moved", {"a": 1, "b": [1, 2]}], ["dropped", 3]]
NEW = [["kept", {"a": 1}], ["moved", {"a": 2, "b": [1, 2]}], ["added", 4], ["added2", 5]]


def test_diff_lines_sort_moved_from_present_in_one_dump_only():
    moved, only_new, only_old = dump_reports.diff_lines(OLD, NEW)
    assert moved == ["moved: a"]
    assert only_new == ["added: only in the new dump", "added2: only in the new dump"]
    assert only_old == ["dropped: only in the old dump"]


def test_diff_summary_counts_each_kind_apart():
    kinds = dump_reports.diff_lines(OLD, NEW)
    assert dump_reports.diff_summary(*kinds) == \
        "1 results moved, 2 only in the new dump, 1 only in the old dump"
    # results that only appear are not counted as moved
    assert dump_reports.diff_summary(*dump_reports.diff_lines(OLD[:1], NEW[:1] + NEW[2:])) == \
        "0 results moved, 2 only in the new dump, 0 only in the old dump"
    assert dump_reports.diff_summary(*dump_reports.diff_lines(OLD, OLD)) == \
        "0 results moved, 0 only in the new dump, 0 only in the old dump"
