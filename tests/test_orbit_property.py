"""Property test for the fact orbit closures rest on: a one-cut move keeps a
terrace exactly when its new junction lies in the broken junction's
inverse-pair class."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import get_group
from oracles import _materialize
from terraces import props as P
from terraces._ckernel import _MOVES
from terraces.groups import _class_data
from terraces.hillclimb import ClimbParams, climb

# Every catalogue group of order 2..12 that has terraces (E4 and E8 have none).
TERRACED_LE_12 = ["Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z11", "Z12", "Z4xZ2",
                  "Z3xZ3", "Z6xZ2", "D6", "D8", "D10", "D12", "Q8", "Q12", "A4"]
MOVES = _MOVES[2, True][1]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TERRACED_LE_12), st.integers(0, 2**32 - 1), st.data())
def test_one_cut_move_keeps_terrace_iff_junction_classes_match(spec, seed, data):
    g = get_group(spec)
    r = climb(g, ClimbParams(mode="terrace", seed=seed))
    assert r.outcome == "found"
    seq = r.arrangement.seq
    c = data.draw(st.integers(1, g.order - 1), label="cut")
    order, mask, ((i, j),), ((k, l),) = data.draw(st.sampled_from(MOVES), label="move")
    ends = (seq[0], seq[c], seq[c - 1], seq[-1])
    cls, ldiv = _class_data(g)[2], g.ldiv
    same_class = cls[ldiv[ends[i]][ends[j]]] == cls[ldiv[ends[k]][ends[l]]]
    moved = P.Arrangement(g, tuple(_materialize(seq, (c,), order, mask)))
    assert P.is_terrace(moved) == same_class
