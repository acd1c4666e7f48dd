from __future__ import annotations

import os
import random
import re
import subprocess
import threading
from array import array
from itertools import accumulate, combinations, product
from pathlib import Path

import pytest

import oracles
from conftest import SIGINT_RAISES, get_group, kernels, neighbors, random_arrangement, teleport
from terraces import _ckernel
from terraces import enumerate as E
from terraces import groups as G
from terraces import hillclimb as H
from terraces import props as P


class _FixedIndex(random.Random):
    """Stub RNG whose randrange always returns a fixed value."""

    def __init__(self, value):
        super().__init__(0)
        self.value = value

    def randrange(self, *args, **kwargs):
        return self.value


def test_params_validation():
    with pytest.raises(ValueError):
        H.ClimbParams(mode="sideways")
    with pytest.raises(ValueError):
        H.ClimbParams(max_cuts=3)
    with pytest.raises(ValueError, match="max_steps"):
        H.ClimbParams(max_steps=-1)
    assert H.ClimbParams(max_steps=0).max_steps == 0


def test_neighbor_counts_per_cut_choice():
    g = get_group("Z10")
    a = P.Arrangement(g, tuple(range(10)))
    n = g.order
    assert len(neighbors(a, 1, False)) == (n - 1) * 1
    assert len(neighbors(a, 1, True)) == (n - 1) * 7
    pairs = (n - 1) * (n - 2) // 2
    assert len(neighbors(a, 2, False)) == pairs * 5
    assert len(neighbors(a, 2, True)) == pairs * 47


def test_one_cut_examples():
    g = get_group("Z6")
    a = P.Arrangement(g, (0, 1, 2, 3, 4, 5))
    swaps = neighbors(a, 1, False)
    # cut at position 3: second piece first
    assert swaps[2].seq == (3, 4, 5, 0, 1, 2)
    rev = neighbors(a, 1, True)
    # per cut: (A^r B), (A B^r), (A^r B^r), (B A), (B A^r), (B^r A), (B^r A^r)
    per_cut_3 = rev[7 * 2 : 7 * 3]
    assert per_cut_3[1].seq == (0, 1, 2, 5, 4, 3)  # reverse the second piece
    assert per_cut_3[3].seq == (3, 4, 5, 0, 1, 2)


def test_two_cut_distinctness():
    g = get_group("Z8")
    a = P.Arrangement(g, tuple(range(8)))
    for c1 in (1, 3):
        for c2 in (5, 6):
            seqs = set()
            for order, mask in _ckernel._iter_combos(3, False):
                seqs.add(tuple(oracles._materialize(list(a.seq), (c1, c2), order, mask)))
            assert len(seqs) == 5 and a.seq not in seqs


def test_neighbors_exclude_original(rng):
    g = get_group("D8")
    for _ in range(10):
        a = random_arrangement(g, rng)
        assert all(nb.seq != a.seq for nb in neighbors(a, 1, False))
        assert all(nb.seq != a.seq for nb in neighbors(a, 2, False))


class _TeleportDue(Exception):
    """Raised by a draw that must not be called."""


def _compiled_step(g, mode, seq, max_cuts=2, draw=None):
    """One compiled call from seq with a budget of one step: (what, seq,
    altitude), what being "found", "moved" or "teleported", or "teleport
    due" (altitude None) when the loop asks for a teleport index and draw
    is None; else the index it gets is draw."""
    seq = array("i", seq)

    def index():
        if draw is None:
            raise _TeleportDue
        return draw

    try:
        found, steps, teleports, alt = _ckernel.load().climb(g, mode == "terrace", max_cuts, 1, seq, index)
    except _TeleportDue:
        return "teleport due", tuple(seq), None
    return "found" if found else "moved" if steps else "teleported", tuple(seq), alt


def test_compiled_climb_refuses_bad_buffers():
    """The climb kernel takes n from the group and refuses an arrangement
    of another length before it reads it, and a teleport index outside
    0..n-1 before it teleports."""
    g = get_group("Q12")
    climb = _ckernel.load().climb
    for bad in (array("i", range(11)), array("i", range(13))):
        with pytest.raises(ValueError, match="arrangement"):
            climb(g, True, 2, 10, bad, lambda: 3)
        assert list(bad) == list(range(len(bad)))
    # E8 has no terrace, so its climb comes to a teleport: a bad index
    # leaves the arrangement as it was when the teleport was due.
    g = get_group("E8")

    def due():
        raise _TeleportDue

    before = array("i", range(8))
    with pytest.raises(_TeleportDue):
        climb(g, True, 2, 1000, before, due)
    for r in (8, -1):
        seq = array("i", range(8))
        with pytest.raises(ValueError, match="teleport index"):
            climb(g, True, 2, 1000, seq, lambda: r)
        assert seq == before != array("i", range(8))


@pytest.mark.parametrize("spec", ["Z2", "Z9", "D10", "Q12", "E8", "A4"])
def test_flat_class_tables_stay_in_bounds(spec):
    """The climb's room test reads the class and cap of every element, the
    identity included: each class index the kernels read, the identity's
    and every quotient's, lies inside the caps, and the identity's class
    has cap 0."""
    g = G.parse_group_spec(spec)
    cls, caps, ctab = _ckernel._flat(g, "cls", "caps", "ctab")
    assert all(0 <= c < len(caps) for c in (*cls, *ctab))
    assert caps[cls[0]] == 0 and tuple(caps[:-1]) == g.class_data[1]


def test_teleport_examples():
    g = get_group("Z4")
    a = P.Arrangement(g, (0, 1, 2, 3))
    assert teleport(a, _FixedIndex(2)).seq == (0, 1, 3, 2)
    assert teleport(a, _FixedIndex(3)).seq == a.seq


@pytest.mark.parametrize("mode", H.MODES)
def test_climber_teleport_updates_the_counts(mode, rng):
    """From a local maximum the Python climber's `try_improve` reached,
    its teleport of every index, the first and the last included, moves
    what the oracle moves and leaves the class counts and the altitude of
    a fresh count; one compiled teleport moves the same and leaves the
    same altitude."""
    g = get_group("Q12")
    top = None
    while top is None or top.alt == g.order - 1:  # a terrace is no local maximum
        top = oracles._Climber(g, mode, list(random_arrangement(g, rng).seq))
        while top.try_improve(2):
            pass
    a = P.Arrangement(g, tuple(top.seq))
    assert _compiled_step(g, mode, a.seq) == ("teleport due", a.seq, None)
    for r in range(g.order):
        climber = oracles._Climber(g, mode, list(a.seq))
        climber.teleport(r)
        assert tuple(climber.seq) == teleport(a, _FixedIndex(r)).seq
        fresh = oracles._Climber(g, mode, list(climber.seq))
        assert (climber.ccnt, climber.alt) == (fresh.ccnt, fresh.alt)
        what = "found" if fresh.alt == g.order - 1 else "teleported"
        assert _compiled_step(g, mode, a.seq, draw=r) == (what, tuple(climber.seq), fresh.alt)


def test_move_altitude_bounds(rng):
    """One uniformly drawn neighbour per arrangement and move kind: a cut
    tuple and a (piece order, reversal mask), as `neighbors` lists them."""
    kinds = [
        (cuts, alt_fn, list(_ckernel._iter_combos(cuts + 1, allow)))
        for cuts, alt_fn, allow in (
            (1, P.altitude_directed, False),
            (2, P.altitude_directed, False),
            (1, P.altitude_undirected, True),
            (2, P.altitude_undirected, True),
        )
    ]
    for spec in ["Z12", "D12", "Q12"]:
        g = get_group(spec)
        for _ in range(150):
            a = random_arrangement(g, rng)
            for cuts, alt_fn, combos in kinds:
                base = alt_fn(a)
                at = sorted(rng.sample(range(1, g.order), cuts))
                order, mask = combos[rng.randrange(len(combos))]
                nb = P.Arrangement(g, tuple(oracles._materialize(list(a.seq), at, order, mask)))
                assert -cuts <= alt_fn(nb) - base <= 2 * cuts


def test_teleport_altitude_bound(rng):
    for spec in ["Z12", "D12", "Q12"]:
        g = get_group(spec)
        for _ in range(300):
            a = random_arrangement(g, rng)
            t = teleport(a, rng)
            assert P.altitude_directed(t) - P.altitude_directed(a) >= -2
            assert P.altitude_undirected(t) - P.altitude_undirected(a) >= -2


def test_piece_reversal_is_junction_only_in_undirected_mode(rng):
    """Reversing one piece flips its internal b entries to inverses, which is
    class-neutral; only the single junction entry can move the altitude."""
    for spec in ["Z12", "Q12"]:
        g = get_group(spec)
        for _ in range(150):
            a = random_arrangement(g, rng)
            base = P.altitude_undirected(a)
            c = rng.randrange(1, g.order)
            seq = list(a.seq)
            for flipped_seq in (seq[:c] + seq[c:][::-1], seq[:c][::-1] + seq[c:]):
                flipped = P.Arrangement(g, tuple(flipped_seq))
                assert abs(P.altitude_undirected(flipped) - base) <= 1
    # the whole-sequence reversal really is altitude-neutral
    g = get_group("Q12")
    for _ in range(50):
        a = random_arrangement(g, rng)
        assert P.altitude_undirected(P.reverse(a)) == P.altitude_undirected(a)


def test_climb_finds_examples():
    r = H.climb(get_group("Z10"), H.ClimbParams(mode="directed", seed=3))
    assert r.outcome == "found" and P.is_directed_terrace(r.arrangement)
    r = H.climb(get_group("D12"), H.ClimbParams(mode="terrace", seed=5))
    assert r.outcome == "found" and P.is_terrace(r.arrangement)
    r = H.climb(get_group("Q12"), H.ClimbParams(mode="directed", seed=1))
    assert r.outcome == "found" and P.is_directed_terrace(r.arrangement)


def test_climb_exhausts_on_obstructed_group():
    r = H.climb(get_group("D6"), H.ClimbParams(mode="directed", seed=1, max_steps=400))
    assert r.outcome == "exhausted" and r.arrangement is None


def test_climb_determinism():
    params = H.ClimbParams(mode="directed", seed=42, record_trace=True)
    a = H.climb(get_group("Q12"), params)
    b = H.climb(get_group("Q12"), params)
    assert a.arrangement.seq == b.arrangement.seq
    assert (a.steps_taken, a.teleports_taken, a.trace) == (b.steps_taken, b.teleports_taken, b.trace)


def test_climb_debug_check_agrees():
    for spec, mode in [("Z12", "directed"), ("D10", "terrace"), ("Q16", "directed"), ("Q64", "terrace")]:
        r = H.climb(get_group(spec), H.ClimbParams(mode=mode, seed=7, debug_check=True))
        assert r.outcome == "found"


def _ends(seq, cuts):
    """Piece ends in move-table order: heads, then tails."""
    return [seq[b] for b in (0, *cuts)] + [seq[c - 1] for c in cuts] + [seq[-1]]


@pytest.mark.parametrize("npieces", [2, 3])
@pytest.mark.parametrize("allow_reversal", [False, True])
def test_move_table_junctions_match_materialize(npieces, allow_reversal, rng):
    """Each table entry's new and broken junctions, with the junctions it
    keeps, are the quotients at the piece boundaries of `_materialize`."""
    g = get_group("Q12")
    ldiv, n = g.ldiv, g.order
    pairs, moves = _ckernel._MOVES[npieces, allow_reversal]
    assert [m[:2] for m in moves] == list(_ckernel._iter_combos(npieces, allow_reversal))
    assert set(pairs) == {j for m in moves for j in m[2]}
    joined = {(npieces + k, k + 1) for k in range(npieces - 1)}
    for _ in range(40):
        seq = list(random_arrangement(g, rng).seq)
        cuts = sorted(rng.sample(range(1, n), npieces - 1))
        ends = _ends(seq, cuts)
        bounds = [0, *cuts, n]
        for order, mask, junctions, broken in moves:
            assert len(junctions) == len(broken) and set(broken) <= joined
            assert not set(junctions) & joined
            kept = [p for p in joined if p not in broken]
            want = sorted(ldiv[ends[i]][ends[j]] for i, j in kept + list(junctions))
            out = oracles._materialize(seq, cuts, order, mask)
            at = list(accumulate(bounds[k + 1] - bounds[k] for k in order))[:-1]
            assert sorted(ldiv[out[i - 1]][out[i]] for i in at) == want


KERNEL_C = Path(_ckernel.__file__).with_name(_ckernel._SOURCE)


def _c_offset(name, p):
    """The C source's offset macro `name` at p pieces, evaluated."""
    param, body = re.search(rf"#define {name}\((\w+)\) (.+)", KERNEL_C.read_text()).groups()
    return eval(body.replace(param, str(p)))


@pytest.mark.parametrize("npieces, allow_reversal", list(_ckernel._MOVES))
def test_packed_move_tables_unpack_to_the_move_tables(npieces, allow_reversal):
    """Read with the C source's offsets, each packed table gives back its
    move table exactly: its end pairs, then per move the junctions, the
    broken pairs, zeros up to ORDER(p), the piece order and the mask."""
    assert "#define ROWS(table) ((table) + 2 + 2 * (table)[0])" in KERNEL_C.read_text()
    row, order = _c_offset("ROW", npieces), _c_offset("ORDER", npieces)
    t = list(_ckernel._PACKED[npieces, allow_reversal])
    npairs, nmoves, rows = t[0], t[1], t[2 + 2 * t[0]:]
    pairs = tuple(zip(t[2 : 2 + 2 * npairs : 2], t[3 : 2 + 2 * npairs : 2]))
    assert len(rows) == nmoves * row
    moves = []
    for mv in (rows[m * row : (m + 1) * row] for m in range(nmoves)):
        k = mv[0]
        ends = list(zip(mv[1 : 1 + 4 * k : 2], mv[2 : 1 + 4 * k : 2]))
        assert mv[1 + 4 * k : order] == [0] * (order - 1 - 4 * k)
        moves.append((tuple(mv[order : order + npieces]), mv[order + npieces], tuple(ends[:k]),
                      tuple(ends[k:])))
    assert (pairs, tuple(moves)) == _ckernel._MOVES[npieces, allow_reversal]


@pytest.mark.parametrize("spec", ["Z12", "D12", "Q12", "Z4xZ2", "E8"])
@pytest.mark.parametrize("mode", ["directed", "terrace"])
@pytest.mark.parametrize("max_cuts", [1, 2])
def test_try_improve_takes_the_first_improving_neighbour(spec, mode, max_cuts, rng):
    """Along a walk of improving moves and teleports, the Python climber's
    `try_improve` and one step of the compiled loop apply exactly the first
    neighbour in `neighbors` order that raises the altitude, or none when
    none does; and every move the prefilter skips (no new junction whose
    class has room) has altitude gain <= 0."""
    g = get_group(spec)
    alt_fn = P.altitude_directed if mode == "directed" else P.altitude_undirected
    allow = mode == "terrace"
    ldiv = g.ldiv
    a = random_arrangement(g, rng)
    for _ in range(12):
        base = alt_fn(a)
        climber = oracles._Climber(g, mode, list(a.seq))
        room = [climber.ccnt[c] < climber.cap[c] for c in climber.cls]
        for cuts in range(1, max_cuts + 1):
            _pairs, moves = _ckernel._MOVES[cuts + 1, allow]
            for cut in combinations(range(1, g.order), cuts):
                ends = _ends(a.seq, cut)
                for order, mask, junctions, _broken in moves:
                    if not any(room[ldiv[ends[i]][ends[j]]] for i, j in junctions):
                        nb = P.Arrangement(g, tuple(oracles._materialize(list(a.seq), cut, order, mask)))
                        assert alt_fn(nb) <= base
        first = next((nb for c in range(1, max_cuts + 1) for nb in neighbors(a, c, allow)
                      if alt_fn(nb) > base), None)
        assert climber.try_improve(max_cuts) == (first is not None)
        what, seq, alt = _compiled_step(g, mode, a.seq, max_cuts)
        if first is None:
            assert tuple(climber.seq) == seq == a.seq
            assert what == ("found" if base == g.order - 1 else "teleport due")
        else:
            assert tuple(climber.seq) == seq == first.seq
            assert what == ("found" if alt == g.order - 1 else "moved")
            assert climber.alt == alt == alt_fn(first)
        a = teleport(a, rng) if first is None else first


# Seed-1 climbs at order 63-64, recorded before the scans were merged into
# one table-driven scan, and at orders 189 and 171, recorded with the Python
# scan before the compiled one; debug_check recomputes the altitude at every
# move.
D64_TERRACE_SEED1 = (
    23, 32, 57, 14, 41, 24, 30, 28, 15, 40, 47, 11, 62, 18, 51, 54, 36, 9, 44, 25, 26, 31,
    59, 29, 8, 10, 33, 2, 58, 12, 16, 4, 48, 60, 5, 19, 3, 7, 52, 22, 17, 6, 38, 0, 49, 43,
    21, 45, 42, 34, 35, 46, 20, 13, 63, 53, 37, 61, 39, 56, 27, 50, 1, 55,
)
SD792_DIRECTED_SEED1 = (
    11, 6, 41, 16, 9, 2, 25, 48, 28, 58, 31, 7, 5, 51, 54, 36, 8, 34, 13, 12, 52, 24, 30,
    33, 19, 37, 0, 14, 57, 17, 27, 43, 49, 45, 20, 47, 44, 60, 61, 32, 4, 62, 22, 26, 10,
    3, 55, 1, 39, 15, 42, 46, 23, 53, 29, 35, 18, 50, 56, 21, 40, 59, 38,
)

SD7272_DIRECTED_SEED1 = (
    10, 63, 28, 59, 87, 55, 8, 100, 134, 127, 60, 183, 112, 56, 30, 168, 166, 108, 51, 102,
    155, 109, 144, 75, 31, 143, 9, 103, 173, 104, 124, 101, 40, 84, 6, 54, 26, 151, 61, 111,
    78, 39, 17, 58, 122, 186, 105, 110, 185, 36, 177, 165, 146, 69, 32, 175, 81, 80, 43, 126,
    90, 187, 139, 114, 89, 88, 158, 27, 45, 83, 113, 68, 34, 42, 162, 0, 2, 123, 37, 132,
    138, 5, 65, 16, 178, 149, 44, 107, 38, 184, 99, 7, 62, 188, 172, 52, 93, 129, 50, 66,
    133, 20, 170, 13, 3, 4, 160, 18, 169, 24, 156, 98, 180, 33, 71, 176, 121, 47, 25, 142,
    161, 141, 15, 116, 14, 79, 76, 46, 154, 86, 82, 174, 85, 106, 70, 95, 29, 11, 140, 179,
    159, 135, 164, 137, 97, 22, 1, 117, 131, 150, 136, 145, 163, 92, 96, 118, 128, 41, 91, 49,
    152, 74, 23, 12, 171, 73, 19, 125, 67, 35, 21, 148, 57, 157, 53, 153, 119, 72, 77, 48,
    130, 182, 167, 94, 120, 115, 147, 181, 64,
)
SD1997_DIRECTED_SEED1 = (
    3, 94, 96, 26, 101, 149, 106, 133, 151, 16, 146, 68, 141, 114, 18, 24, 120, 83, 158, 102,
    150, 4, 127, 92, 122, 54, 163, 157, 80, 71, 154, 6, 142, 168, 69, 115, 124, 0, 41, 70,
    123, 25, 104, 116, 46, 45, 11, 148, 82, 85, 160, 59, 75, 135, 20, 117, 81, 143, 27, 57,
    32, 118, 107, 47, 23, 1, 136, 60, 42, 152, 165, 61, 153, 17, 87, 39, 44, 86, 126, 53,
    132, 76, 15, 108, 130, 63, 88, 145, 38, 74, 134, 129, 51, 31, 50, 58, 99, 162, 161, 2,
    100, 37, 77, 97, 125, 113, 169, 21, 90, 105, 48, 112, 9, 10, 78, 164, 33, 131, 14, 91,
    140, 30, 49, 95, 28, 89, 55, 34, 159, 128, 56, 98, 147, 7, 40, 155, 119, 156, 79, 22,
    64, 144, 52, 139, 65, 166, 8, 67, 111, 109, 5, 62, 43, 93, 138, 35, 12, 36, 73, 110,
    137, 121, 72, 13, 167, 103, 84, 29, 19, 170, 66,
)


@pytest.mark.parametrize(
    "spec, mode, steps, teleports, seq",
    [
        ("D64", "terrace", 35, 9, D64_TERRACE_SEED1),
        ("SD(7,9,2)", "directed", 42, 11, SD792_DIRECTED_SEED1),
        ("SD(7,27,2)", "directed", 283, 112, SD7272_DIRECTED_SEED1),
        ("SD(19,9,7)", "directed", 998, 499, SD1997_DIRECTED_SEED1),
    ],
)
def test_large_order_climbs_are_pinned(spec, mode, steps, teleports, seq, monkeypatch):
    """Both loops repeat the order-63/64 climbs; only the compiled one runs
    the larger ones, which take seconds on the Python loop."""
    g = get_group(spec)
    for python in (False, True) if g.order <= 64 else (False,):
        with kernels(monkeypatch, python):
            r = H.climb(g, H.ClimbParams(mode=mode, seed=1, debug_check=True))
        assert (r.outcome, r.steps_taken, r.teleports_taken) == ("found", steps, teleports), python
        assert r.arrangement.seq == seq, python


# Z9, Z11, D6 and E8 have no directed terrace, and E8 no terrace, so those
# climbs, and some others, spend their budget.
AGREEMENT_CLIMBS = (
    [f"Z{n}" for n in range(8, 13)] + [f"D{n}" for n in range(6, 34, 2)]
    + [f"Q{n}" for n in range(8, 28, 4)] + ["A4", "S4", "E8", "SD(7,9,2)"]
)


@pytest.mark.parametrize("spec", AGREEMENT_CLIMBS)
def test_compiled_scan_matches_the_python_scan(spec, monkeypatch):
    """Climbs on the compiled loop follow those on the Python loop: the same
    outcome, steps, teleports, altitude trace and arrangement, in both
    modes, with one cut and two, for seeds 1-3."""
    g = get_group(spec)
    for mode, max_cuts, seed in product(H.MODES, (1, 2), (1, 2, 3)):
        params = H.ClimbParams(mode, max_cuts, seed, max_steps=200, record_trace=True)
        got = []
        for python in (False, True):
            with kernels(monkeypatch, python):
                r = H.climb(g, params)
            got.append((r.to_dict(), r.arrangement and r.arrangement.seq))
        assert got[0] == got[1], (mode, max_cuts, seed)


@pytest.mark.parametrize(
    "spec, params",
    [
        # 400 teleports
        ("D6", H.ClimbParams("directed", seed=1, max_steps=400)),
        ("E8", H.ClimbParams("terrace", seed=2, max_steps=400, record_trace=True)),
        ("Q12", H.ClimbParams("directed", seed=1, max_steps=0)),
        ("Q12", H.ClimbParams("terrace", seed=1, max_steps=0, record_trace=True)),
        ("Z10", H.ClimbParams("directed", max_cuts=1, seed=11)),
        ("D12", H.ClimbParams("terrace", max_cuts=1, seed=3, record_trace=True)),
        ("Q16", H.ClimbParams("directed", seed=7, record_trace=True, debug_check=True)),
        ("D10", H.ClimbParams("terrace", seed=7, debug_check=True)),
        ("D6", H.ClimbParams("directed", seed=9, max_steps=60, record_trace=True, debug_check=True)),
    ],
)
def test_compiled_climb_matches_the_python_loop(spec, params):
    """The compiled loop takes the steps of `oracles.climb`: over hundreds
    of teleports, with no budget, with one cut, and when it calls back
    after each move or teleport to record or recheck the altitude."""
    g = get_group(spec)
    got, want = H.climb(g, params), oracles.climb(g, params)
    assert got.to_dict() == want.to_dict()
    assert (got.arrangement and got.arrangement.seq) == (want.arrangement and want.arrangement.seq)
    if params.max_steps == 0:
        assert (got.outcome, got.steps_taken, got.teleports_taken) == ("exhausted", 0, 0)
    if spec in ("D6", "E8") and params.max_steps == 400:
        assert got.teleports_taken == 400


def test_a_climb_is_one_compiled_call(monkeypatch):
    """A climb of 400 teleports that records its trace and rechecks every
    altitude is one `Kernel.climb` call, and takes the oracle's steps."""
    g = get_group("D6")
    params = H.ClimbParams("directed", seed=1, max_steps=400, record_trace=True, debug_check=True)
    kernel, calls = _ckernel.load(), []

    def climb(*args):
        calls.append(args[0])
        return kernel.climb(*args)

    monkeypatch.setattr(_ckernel, "_KERNEL", kernel._replace(climb=climb))
    r = H.climb(g, params)
    assert calls == [g] and r.teleports_taken == 400
    assert r.to_dict() == oracles.climb(g, params).to_dict()


def test_an_error_in_a_climb_callback_reaches_the_caller(monkeypatch, capfd):
    """An exception raised in a callback of the compiled climb stops it and
    reaches the caller: the AssertionError of a debug_check that
    disagrees, and a KeyboardInterrupt raised by draw; ctypes prints
    nothing."""
    monkeypatch.setattr(H, "altitude_directed", lambda arr: P.altitude_directed(arr) + 1)
    with pytest.raises(AssertionError, match="incremental altitude"):
        H.climb(get_group("Q12"), H.ClimbParams("directed", seed=1, debug_check=True))

    def draw():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):  # E8 has no terrace: its climb teleports
        _ckernel.load().climb(get_group("E8"), True, 2, 1000, array("i", range(8)), draw)
    assert "Exception ignored" not in capfd.readouterr().err


def test_ctrl_c_stops_a_compiled_climb_within_a_second(tmp_path):
    """SIGINT during a long compiled climb ends the process with
    KeyboardInterrupt within a second, and nothing swallows it."""
    import signal
    import sys
    import time

    src = os.path.dirname(os.path.dirname(os.path.abspath(H.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # E64 has no terrace, so this climb spends its budget, about 20 s, in
    # one compiled call; the signal lands in the loop's own poll or in a
    # callback for a teleport index.
    code = (SIGINT_RAISES +
            "from terraces import _ckernel, groups, hillclimb as H\n"
            "_ckernel.load(); g = groups.parse_group_spec('E64')\n"
            "print('ready', flush=True)\n"
            "H.climb(g, H.ClimbParams(mode='terrace', max_steps=200_000))\n")
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=env)
    try:
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.5)  # well inside the climb
        assert proc.poll() is None
        t0 = time.monotonic()
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=60)
        waited = time.monotonic() - t0
    finally:
        proc.kill()
        proc.wait()
    err = proc.stderr.read()
    said = f"return code {proc.returncode}, stderr:\n{err}"
    assert "KeyboardInterrupt" in err, said
    assert "Exception ignored" not in err, said
    assert waited < 1.0, waited


def _reference_climb(group, params):
    """Slow oracle: the public neighbour enumeration plus full recomputes."""
    rng = random.Random(params.seed)
    seq = list(range(group.order))
    rng.shuffle(seq)
    a = P.Arrangement(group, tuple(seq))
    alt_fn = P.altitude_directed if params.mode == "directed" else P.altitude_undirected
    allow = params.mode == "terrace"
    steps = teleports = 0
    trace = []
    while True:
        alt = alt_fn(a)
        if alt == group.order - 1:
            return "found", a.seq, steps, teleports, tuple(trace)
        if steps >= params.max_steps or teleports >= params.max_steps:
            return "exhausted", None, steps, teleports, tuple(trace)
        nxt = None
        for cuts in range(1, params.max_cuts + 1):
            for nb in neighbors(a, cuts, allow):
                if alt_fn(nb) > alt:
                    nxt = nb
                    break
            if nxt is not None:
                break
        if nxt is not None:
            a = nxt
            steps += 1
            trace.append(alt_fn(a))
            continue
        a = teleport(a, rng)
        teleports += 1


@pytest.mark.parametrize(
    "spec,mode,seed",
    [("Z8", "directed", 0), ("Z8", "directed", 5), ("D8", "terrace", 1), ("Z9", "terrace", 2)],
)
def test_climb_matches_reference_trajectory(spec, mode, seed):
    g = get_group(spec)
    params = H.ClimbParams(mode=mode, seed=seed, max_steps=300, record_trace=True)
    fast = H.climb(g, params)
    outcome, seq, steps, teleports, trace = _reference_climb(g, params)
    assert fast.outcome == outcome
    assert (fast.steps_taken, fast.teleports_taken) == (steps, teleports)
    assert fast.trace == trace
    if seq is not None:
        assert fast.arrangement.seq == seq


def test_climb_matches_reference_on_exhaustion():
    g = get_group("D6")  # no directed terrace exists
    params = H.ClimbParams(mode="directed", seed=9, max_steps=40, record_trace=True)
    fast = H.climb(g, params)
    outcome, _seq, steps, teleports, trace = _reference_climb(g, params)
    assert fast.outcome == outcome == "exhausted"
    assert (fast.steps_taken, fast.teleports_taken, fast.trace) == (steps, teleports, trace)


def test_climb_one_cut_only():
    params = H.ClimbParams(mode="directed", seed=11, max_cuts=1)
    r = H.climb(get_group("Z10"), params)
    assert r.outcome == "found" and P.is_directed_terrace(r.arrangement)


def test_climb_seeds_first_found_wins():
    g = get_group("Q12")
    params = H.ClimbParams(mode="directed", max_steps=10_000)
    seq_result = H.climb_seeds(g, params, seeds=[4, 5, 6])
    assert seq_result.outcome == "found" and seq_result.seed == 4
    par_result = H.climb_seeds(g, params, seeds=[4, 5, 6], threads=2)
    assert par_result == seq_result and par_result.arrangement.group is g


def test_threaded_climb_seeds_and_counts_build_the_tables_once_in_the_calling_thread(monkeypatch):
    """A fresh group climbed or counted only on the map's threads has the
    tables they read, each built once, in the calling thread, before any
    thread starts, rather than in each thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    built = []
    for name, make in list(_ckernel._TABLES.items()):
        monkeypatch.setitem(_ckernel._TABLES, name,
                            lambda g, name=name, make=make: built.append((name, threading.current_thread())) or make(g))
    me = threading.current_thread()
    for mode, names in (("terrace", {"ldiv", "cls", "caps"}), ("directed", {"ldiv", "ids", "ones"})):
        g = G.parse_group_spec("Q12")
        built.clear()
        r = H.climb_seeds(g, H.ClimbParams(mode=mode, max_steps=10_000), seeds=[4, 5], threads=2)
        assert r.outcome == "found" and set(g._flat) == names, mode
        assert sorted(name for name, _ in built) == sorted(names) and {t for _, t in built} == {me}, mode
    monkeypatch.setattr(E, "_SPLIT_MIN_ORDER", 1)
    g = G.parse_group_spec("Q12")
    built.clear()
    assert E.count_table(g, threads=2) == (13470, 372)
    assert sorted(name for name, _ in built) == sorted(g._flat) and {t for _, t in built} == {me}


def test_a_set_stop_cell_stops_a_climb_before_its_first_scan():
    """A climb given a stop cell runs without the GIL; one already set stops
    it before its first scan, with Stopped, and leaves seq as it was.  An
    unset cell changes no step, and the draw and step callbacks, which take
    the GIL back, see every teleport and move."""
    seq = array("i", range(8))
    with pytest.raises(_ckernel.Stopped):  # E8 has no terrace: seq is no answer
        _ckernel.load().climb(get_group("E8"), True, 2, 1000, seq, lambda: 0, None, array("i", [1]))
    assert seq == array("i", range(8))
    for mode in H.MODES:
        params = H.ClimbParams(mode=mode, seed=1, record_trace=True, debug_check=True)
        g = get_group("Q12")
        assert H.climb(g, params, stop=array("i", [0])) == H.climb(g, params), mode


@pytest.mark.parametrize("max_steps", [3_000_000_000, 4_294_967_297])
def test_a_budget_past_the_c_int_range_climbs_as_the_largest_one(max_steps):
    """A step budget past 2^31 - 1, which the compiled loop's int counters
    never pass, is clamped to it rather than wrapped around."""
    r = H.climb(get_group("Q12"), H.ClimbParams("directed", seed=1, max_steps=max_steps))
    assert (r.outcome, r.steps_taken, r.teleports_taken) == ("found", 8, 3)


def test_climb_rejects_trivial_group():
    with pytest.raises(ValueError):
        H.climb(get_group("Z1"), H.ClimbParams())
