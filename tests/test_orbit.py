from __future__ import annotations

import hashlib
from collections import deque

import pytest

from conftest import get_group, kernels, naive_is_terrace, neighbors
from terraces import _ckernel
from terraces import groups as G
from terraces import hillclimb as H
from terraces import props as P
from terraces.enumerate import EnumMode, enumerate_basic
from terraces.orbit import _closure, explore_chain, orbit_of, two_piece_moves

ALLOWED_ORBIT_SIZES = {1, 2, 3, 4, 6}  # divisors of 4 or 6
# Z1 has no cut, and the one cut of Z2 leaves two single elements.
CATALOGUE_1_TO_10 = ["Z1", "Z2", "Z3", "Z4", "E4", "Z5", "Z6", "D6", "Z7", "Z8", "Z4xZ2", "E8",
                     "D8", "Q8", "Z9", "Z3xZ3", "Z10", "D10"]


def essential_terraces(spec):
    g = get_group(spec)
    return enumerate_basic(g, EnumMode("terrace", count_only=False, essentially_different=True)).witnesses


def test_moves_require_a_terrace():
    g = get_group("Z6")
    with pytest.raises(ValueError):
        two_piece_moves(P.Arrangement(g, (0, 1, 2, 3, 4, 5)), False)


def oracle_moves(w, flag):
    """Every one-cut reassembly built and tested naively, re-based; first
    occurrences in order, after the re-based whole reversal."""
    based = [P.to_basic(P.reverse(w))]
    if w.group.order > 1:  # Z1 has no cut
        based += [P.to_basic(nb) for nb in neighbors(w, 1, flag) if naive_is_terrace(nb)]
    return list(dict.fromkeys(b.seq for b in based))


def oracle_orbit_keys(w):
    """Breadth-first closure over oracle_moves without piece reversal."""
    g = w.group
    start = P.canonical_form(w).seq
    keys = {start: None}
    queue = deque([start])
    while queue:
        for seq in oracle_moves(P.Arrangement(g, queue.popleft()), False):
            cf = P.canonical_form(P.Arrangement(g, seq)).seq
            if cf not in keys:
                keys[cf] = None
                queue.append(cf)
    return list(keys)


@pytest.mark.parametrize("spec", CATALOGUE_1_TO_10)
def test_moves_and_orbits_match_oracle(spec, monkeypatch):
    """The moves and the orbits, on the compiled and the Python neighbour
    step, equal the naive oracle's, in order."""
    for w in essential_terraces(spec):
        want = oracle_orbit_keys(w)
        for python in (False, True):
            with kernels(monkeypatch, python):
                for flag in (False, True):
                    assert [m.seq for m in two_piece_moves(w, flag)] == oracle_moves(w, flag), python
                assert list(orbit_of(w)) == want, python


def test_compiled_neighbours_refuse_a_terrace_of_the_wrong_length():
    """The neighbour step, bound once per group, refuses a terrace whose
    length is not the group's order, and still steps afterwards."""
    w = P.walecki(10)
    forms = _ckernel.load().neighbours(w.group, False, True)
    first = forms(w.seq)
    assert len(first) > 1 and all(len(f) == 10 for f in first)
    for seq in (w.seq[:9], w.seq + (0,), ()):
        with pytest.raises(ValueError, match="terrace"):
            forms(seq)
    assert forms(w.seq) == first


def test_a_groups_flat_tables_are_built_once():
    """A freshly parsed group has no flat tables; the first climb builds
    the ones it reads, and a second climb and a closure of the same group
    read those same arrays, the closure adding the automorphisms."""
    g = G.parse_group_spec("D10")
    assert g._flat is None
    first = H.climb(g, H.ClimbParams(mode="terrace", seed=1))
    built = dict(g._flat)
    assert {"ldiv", "cls", "caps"} <= set(built)
    second = H.climb(g, H.ClimbParams(mode="terrace", seed=2))
    assert first.outcome == second.outcome == "found"
    assert len(orbit_of(second.arrangement)) > 1
    assert all(g._flat[name] is table for name, table in built.items())
    assert "auts" in g._flat


@pytest.mark.parametrize("spec", CATALOGUE_1_TO_10)
def test_compiled_chains_match_the_python_chains(spec, monkeypatch):
    """The first 300 forms of the chain walks from two essential terraces
    come in the same order on the compiled and the Python neighbour step."""
    for w in essential_terraces(spec)[:2]:
        got = []
        for python in (False, True):
            with kernels(monkeypatch, python):
                got.append(list(_closure(w, True, None, 300)[0]))
        assert got[0] == got[1]


def test_reverse_always_produced():
    for spec in ["Z5", "Z7", "D6"]:
        for w in essential_terraces(spec):
            out = {m.seq for m in two_piece_moves(w, False)}
            assert P.to_basic(P.reverse(w)).seq in out


def test_outputs_are_based_terraces():
    for w in essential_terraces("Z6"):
        for flag in (False, True):
            for m in two_piece_moves(w, flag):
                assert m.seq[0] == 0
                assert P.is_terrace(m)


def test_move_set_monotone_in_reversal_flag():
    for w in essential_terraces("Z7"):
        no_rev = {m.seq for m in two_piece_moves(w, False)}
        with_rev = {m.seq for m in two_piece_moves(w, True)}
        assert no_rev <= with_rev


def test_orbit_sizes_z5():
    sizes = {len(orbit_of(w)) for w in essential_terraces("Z5")}
    assert sizes <= ALLOWED_ORBIT_SIZES


def test_orbit_closure_is_representative_independent():
    for w in essential_terraces("D6"):
        orbit = orbit_of(w)
        for member in orbit.values():
            assert orbit_of(member).keys() == orbit.keys()


def test_orbit_members_are_terraces():
    for w in essential_terraces("Z8")[:10]:
        for member in orbit_of(w).values():
            assert P.is_terrace(member)
            assert P.canonical_form(member).seq == member.seq


@pytest.mark.parametrize("spec", ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "D6", "Q8", "D8"])
def test_orbit_divisor_rule(spec):
    for w in essential_terraces(spec):
        assert len(orbit_of(w)) in ALLOWED_ORBIT_SIZES


def test_chain_visits_at_most_all_essential_terraces():
    for n in (5, 6, 7, 8, 9):
        g = get_group(f"Z{n}")
        t = enumerate_basic(g, EnumMode("terrace", essentially_different=True)).essential_count
        _w, visited = explore_chain(P.walecki(n), limit=100_000, predicate=lambda r: False)
        assert visited <= t


def test_chain_finds_extendable_on_z12(monkeypatch):
    for python in (False, True):
        with kernels(monkeypatch, python):
            witness, visited = explore_chain(
                P.walecki(12), limit=100_000, predicate=lambda r: P.is_extendable(r)[0]
            )
        assert witness is not None and visited >= 1
        ok, j = P.is_extendable(witness)
        assert ok and j >= 5
        assert (witness.seq, visited) == ((0, 1, 3, 10, 4, 9, 5, 8, 6, 7, 11, 2), 5), python


def test_chain_walk_order_is_pinned(monkeypatch):
    for python in (False, True):
        with kernels(monkeypatch, python):
            forms, witness = _closure(P.walecki(14), True, None, 5000)
        assert witness is None and len(forms) == 5000
        digest = hashlib.sha256(repr(list(forms)).encode()).hexdigest()
        assert digest == "559b3a685030302a99255ec45b7e1be57b6af232f78d95fd65e3cb06aeba8e63", python


def test_chain_never_finds_extendable_on_z10():
    # order 2 mod 4: extendable terraces cannot exist; try several starts
    g = get_group("Z10")
    starts = enumerate_basic(
        g, EnumMode("terrace", count_only=False, essentially_different=True), max_witnesses=5
    ).witnesses
    for start in (P.walecki(10), *starts):
        witness, _visited = explore_chain(
            start, limit=5_000, predicate=lambda r: P.is_extendable(r)[0]
        )
        assert witness is None


def test_chain_determinism():
    a, va = explore_chain(P.walecki(9), limit=500, predicate=lambda r: False)
    b, vb = explore_chain(P.walecki(9), limit=500, predicate=lambda r: False)
    assert (a, va) == (b, vb)


def test_chain_respects_limit(monkeypatch):
    for python in (False, True):
        with kernels(monkeypatch, python):
            _w, visited = explore_chain(P.walecki(13), limit=100, predicate=lambda r: False)
        assert visited == 100, python
