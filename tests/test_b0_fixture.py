"""Re-checks of the frozen order-64 witness with Bogomolov multiplier Z/2.

The structural checks recompute every entry of the fixture's ``checks``
block from the raw Cayley table with plain Python, without the package's
group or linear-algebra code.  The multiplier is recomputed over every
bicyclic subgroup rather than one per conjugacy class, and the recorded
construction is checked to describe the stored table.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from brq import verify
from brq.brauer import bogomolov_multiplier
from brq.cohomology import GModule, h2
from brq.groups import from_cayley_table


@pytest.fixture(scope="module")
def doc():
    data = verify.load_fixture_json("b0_order64.json")
    assert data is not None, "order-64 fixture missing"
    return data


def _closure(table, seed):
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for s in seed:
            y = table[x][s]
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def _power_until(table, x, stop):
    """Least m >= 1 with x^m in `stop`."""
    m, y = 1, x
    while y not in stop:
        y = table[y][x]
        m += 1
    return m


def _abelian_2group_invariants(orders):
    """Invariant factors of an abelian 2-group from the orders of its
    elements (each may be listed a fixed number of times): with N_k the
    count of orders dividing 2^k, log2(N_k / N_(k-1)) factors have order at
    least 2^k."""
    at_least = []
    k = 1
    while True:
        ratio = (sum(1 for o in orders if (1 << k) % o == 0)
                 // sum(1 for o in orders if (1 << (k - 1)) % o == 0))
        if ratio == 1:
            break
        at_least.append(ratio.bit_length() - 1)
        k += 1
    at_least.append(0)
    return [1 << k for k in range(1, len(at_least))
            for _ in range(at_least[k - 1] - at_least[k])]


def _recomputed_checks(table):
    n = len(table)
    assert table[0] == list(range(n)), "identity is not element 0"
    inverse = [next(y for y in range(n) if table[x][y] == 0) for x in range(n)]

    def comm(a, b):
        return table[table[a][b]][inverse[table[b][a]]]

    identity = {0}
    orders = [_power_until(table, x, identity) for x in range(n)]
    derived = _closure(table, {comm(a, b) for a in range(n) for b in range(n)})
    center = [x for x in range(n) if all(table[x][y] == table[y][x] for y in range(n))]
    gamma, nil_class = set(range(n)), 0
    while len(gamma) > 1:
        gamma = _closure(table, {comm(a, b) for a in gamma for b in range(n)})
        nil_class += 1
    census = {}
    for o in orders:
        census[str(o)] = census.get(str(o), 0) + 1
    return {
        "order": n,
        "derived_subgroup": _abelian_2group_invariants([orders[x] for x in derived]),
        "abelianization": _abelian_2group_invariants(
            [_power_until(table, x, derived) for x in range(n)]),
        "center_order": len(center),
        "nilpotency_class": nil_class,
        "order_census": census,
    }


def test_order64_witness_checks_recomputed_from_table(doc):
    got = _recomputed_checks(doc["group"]["table"])
    assert got == doc["checks"]
    assert got["order"] == 64


def test_order64_witness_b0_over_all_bicyclic_subgroups(doc):
    g = from_cayley_table(doc["group"]["table"])
    rep = bogomolov_multiplier(g, subgroup_mode="all")
    assert doc["expected_b0"] == [2]
    assert list(rep.unramified_group.invariant_factors) == doc["expected_b0"]


def test_order64_witness_matches_its_construction(doc):
    """The group is the central extension of the recorded quotient Q by
    Z/2 at index 32 z + x, and its cocycle has the recorded H^2 class."""
    con = doc["construction"]
    q = from_cayley_table(con["quotient"]["table"], con["quotient"]["generators"])
    table = doc["group"]["table"]
    m, k = q.order, con["kernel_order"]
    assert len(table) == k * m
    for a in range(k * m):
        for b in range(k * m):
            assert table[a][b] % m == q.table[a % m][b % m]
        assert table[a][m] == table[m][a], "the kernel generator is not central"
    cocycle = [[table[x][y] // m for y in range(m)] for x in range(m)]
    coh = h2(GModule.finite(q, [k]))
    assert list(coh.reduce(cocycle)) == con["h2_coordinates"]


def _find_b0_group_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "find_b0_group.py"
    spec = importlib.util.spec_from_file_location("find_b0_group", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_search_tool_refuses_to_replace_the_frozen_group(tmp_path, doc):
    tool = _find_b0_group_tool()
    dest = tmp_path / "b0_order64.json"
    tool.freeze(doc, dest)
    assert json.loads(dest.read_text()) == doc
    # another group is refused and the file is left as it was
    other = {**doc, "group": {"kind": "cayley", "table": [[0]]}}
    with pytest.raises(SystemExit) as info:
        tool.freeze(other, dest)
    assert info.value.code == 1
    assert json.loads(dest.read_text()) == doc
    # the same group is written again
    same = {**doc, "description": "re-frozen"}
    tool.freeze(same, dest)
    assert json.loads(dest.read_text()) == same
