from __future__ import annotations

import hashlib
import itertools
from collections import deque

import pytest

from conftest import CATALOGUE_1_TO_10, get_group, kernels, naive_is_terrace, neighbors
from oracles import _moves
from terraces import _ckernel
from terraces import groups as G
from terraces import hillclimb as H
from terraces import props as P
from terraces.enumerate import EnumMode, enumerate_basic
from terraces.orbit import _closure, explore_chain, orbit_of

ALLOWED_ORBIT_SIZES = {1, 2, 3, 4, 6}  # divisors of 4 or 6
# CATALOGUE_1_TO_10 holds Z1, which has no cut, and Z2, whose one cut
# leaves two single elements.


def essential_terraces(spec):
    g = get_group(spec)
    return enumerate_basic(g, EnumMode("terrace", count_only=False, essentially_different=True)).witnesses


def test_moves_require_a_terrace():
    """The closures step only from terraces: a start that is not one is
    refused, compiled or not."""
    a = P.Arrangement(get_group("Z6"), (0, 1, 2, 3, 4, 5))
    for walk in (orbit_of, lambda a: explore_chain(a, 10, lambda r: False)):
        with pytest.raises(ValueError, match="terraces"):
            walk(a)


def moves(w, flag):
    """`oracles._moves` of the arrangement w, as arrangements."""
    return [P.Arrangement(w.group, s) for s in _moves(w.group, w.seq, flag)]


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
    """The moves, and the orbits on the compiled and the Python closure,
    equal the naive oracle's, in order."""
    for w in essential_terraces(spec):
        for flag in (False, True):
            assert _moves(w.group, w.seq, flag) == oracle_moves(w, flag), flag
        want = oracle_orbit_keys(w)
        for python in (False, True):
            with kernels(monkeypatch, python):
                assert list(orbit_of(w)) == want, python


def test_compiled_closure_steps_first_to_the_forms_of_the_oracle_moves():
    """The compiled closure's first step, from each essential terrace w,
    visits the canonical forms of oracles._moves(w), w's own left out, in
    their first-occurrence order: the C step against the Python moves."""
    for spec in CATALOGUE_1_TO_10:
        for w in essential_terraces(spec):
            for flag in (False, True):
                step = dict.fromkeys(P.canonical_form(m).seq for m in moves(w, flag))
                step.pop(w.seq, None)
                forms = list(_closure(w, flag, None, 1 + len(step))[0])
                assert forms == [w.seq, *step], (spec, w.seq, flag)


def test_a_groups_flat_tables_are_built_once():
    """A freshly parsed group has no flat tables; the first climb builds
    the ones it reads, and a second climb and a closure of the same group
    read those same arrays, the closure adding the automorphisms."""
    g = G.parse_group_spec("D10")
    assert "_flat" not in vars(g)
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
    come in the same order on the compiled and the Python closure."""
    for w in essential_terraces(spec)[:2]:
        got = []
        for python in (False, True):
            with kernels(monkeypatch, python):
                got.append(list(_closure(w, True, None, 300)[0]))
        assert got[0] == got[1]


def test_reverse_always_produced():
    for spec in ["Z5", "Z7", "D6"]:
        for w in essential_terraces(spec):
            out = set(_moves(w.group, w.seq, False))
            assert P.to_basic(P.reverse(w)).seq in out


def test_outputs_are_based_terraces():
    for w in essential_terraces("Z6"):
        for flag in (False, True):
            for m in moves(w, flag):
                assert m.seq[0] == 0
                assert P.is_terrace(m)


def test_move_set_monotone_in_reversal_flag():
    for w in essential_terraces("Z7"):
        no_rev = set(_moves(w.group, w.seq, False))
        with_rev = set(_moves(w.group, w.seq, True))
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


def _left_shift(w):
    """w left-multiplied by its last entry: a terrace with the same quotients
    that is not based, so the closure must take its form itself."""
    mul, x = w.group.mul, w.seq[-1]
    return P.Arrangement(w.group, tuple(mul[x][y] for y in w.seq))


CLOSURE_PREDICATES = {
    "none": None,
    "extendable": lambda r: P.is_extendable(r)[0],
    "middle_is_1": lambda r: r.seq[len(r.seq) // 2] == 1,
}


def _both_closures(monkeypatch, start, flag, predicate=None, limit=None):
    """(forms, witness seq) of the compiled closure, then of the Python
    twin's, each with its forms as a list in discovery order."""
    got = []
    for python in (False, True):
        with kernels(monkeypatch, python):
            forms, witness = _closure(start, flag, predicate, limit)
        got.append((list(forms), witness and witness.seq))
    return got


@pytest.mark.parametrize("spec", CATALOGUE_1_TO_10)
def test_compiled_closures_match_the_oracle_closures(spec, monkeypatch):
    """The whole closures from three essential terraces, each started from
    a left shift of itself, give the same forms in the same order and the
    same witness on the compiled kernel and the Python twin, with and
    without piece reversal; the first form is the start's canonical form,
    and every form an arrangement of a terrace."""
    for w in essential_terraces(spec)[:3]:
        start = _left_shift(w)
        for flag in (False, True):
            for name, predicate in CLOSURE_PREDICATES.items():
                compiled, python = _both_closures(monkeypatch, start, flag, predicate)
                assert compiled == python, (w.seq, flag, name)
                forms, witness = compiled
                assert forms[0] == P.canonical_form(w).seq
                if witness is not None:
                    assert forms[-1] == witness and predicate(P.Arrangement(w.group, witness))


def test_compiled_and_oracle_chains_agree_on_a_limited_z14_chain(monkeypatch):
    """The Z14 chain walk stopped at 1500 forms, and stopped at the first
    form whose middle entry is 1, agrees on both paths."""
    w = P.walecki(14)
    compiled, python = _both_closures(monkeypatch, w, True, None, 1500)
    assert compiled == python and len(compiled[0]) == 1500 and compiled[1] is None
    middle = CLOSURE_PREDICATES["middle_is_1"]
    compiled, python = _both_closures(monkeypatch, w, True, middle, 1500)
    assert compiled == python and compiled[1] is not None and 1 < len(compiled[0]) < 1500


@pytest.mark.parametrize("limit", [1, 2, 100])
def test_compiled_and_oracle_chains_count_the_start_in_the_limit(limit, monkeypatch):
    """explore_chain visits exactly limit forms, the start's form first."""
    w = P.walecki(14)
    for python in (False, True):
        with kernels(monkeypatch, python):
            witness, visited = explore_chain(w, limit, lambda r: False)
            forms = list(_closure(w, True, None, limit)[0])
        assert (witness, visited, len(forms)) == (None, limit, limit), python
        assert forms[0] == P.canonical_form(w).seq


class _Raised(Exception):
    pass


def test_a_raising_predicate_stops_the_compiled_and_oracle_closures(monkeypatch):
    """An exception raised in the predicate, on the 30th form, reaches the
    caller of either closure, and the next closure runs to the same end."""
    w = P.walecki(12)
    want = explore_chain(w, 100_000, lambda r: P.is_extendable(r)[0])
    for python in (False, True):
        calls = itertools.count(1)

        def bad(r):
            if next(calls) == 30:
                raise _Raised
            return False

        with kernels(monkeypatch, python):
            with pytest.raises(_Raised):
                explore_chain(P.walecki(14), 5000, bad)
            assert next(calls) == 31, python
            assert explore_chain(w, 100_000, lambda r: P.is_extendable(r)[0]) == want, python


def test_compiled_closure_refuses_a_terrace_of_the_wrong_length():
    """The compiled closure refuses a start whose length is not the group's
    order, and the returned count is the number of forms visited."""
    w = P.walecki(10)
    closure = _ckernel.load().closure
    for seq in (w.seq[:9], w.seq + (0,), ()):
        with pytest.raises(ValueError, match="terrace"):
            closure(w.group, True, seq, lambda form: False)
    seen = []
    assert closure(w.group, True, w.seq, lambda form: seen.append(form)) == len(seen) > 1
    assert closure(w.group, True, w.seq, lambda form: True, 5) == 1
