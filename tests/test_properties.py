"""Property tests: invariants that must not depend on presentation choices."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brq import corpus
from brq.brauer import bogomolov_multiplier
from brq.cohomology import h2_qz
from brq.groups import from_cayley_table

# group and its Schur multiplier H^2(G, Q/Z); B0 is zero for all of them
GROUPS = {
    "S3": (corpus.symmetric(3), []),
    "D4": (corpus.dihedral(4), [2]),
    "Q8": (corpus.quaternion8(), []),
    "C2xC4": (corpus.abelian_group([2, 4]), [2]),
    "A4": (corpus.alternating4(), [2]),
}


def relabel(group, perm):
    """The Cayley table of `group` with element a renamed to sigma(a); the
    identity keeps label 0 and `perm` renames 1..n-1."""
    sigma = [0] + list(perm)
    n = group.order
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[sigma[a]][sigma[b]] = sigma[group.table[a][b]]
    return from_cayley_table(table)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_relabelling_keeps_h2_and_b0(name):
    group, schur = GROUPS[name]

    def invariants(g):
        report = bogomolov_multiplier(g)
        return (h2_qz(g).invariant_factors, report.stack_group.invariant_factors,
                report.unramified_group.invariant_factors)

    expected = invariants(group)
    assert expected == (schur, tuple(schur), ())

    @settings(max_examples=8, deadline=None, database=None)
    @given(st.permutations(range(1, group.order)))
    def check(perm):
        assert invariants(relabel(group, perm)) == expected

    check()
