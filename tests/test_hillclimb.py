from __future__ import annotations

import random

import pytest

from conftest import get_group, neighbors, random_arrangement
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
    with pytest.raises(ValueError):
        H.ClimbParams(restart_policy="quantum")


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
            for order, mask in H._iter_combos(3, False):
                seqs.add(tuple(H._materialize(list(a.seq), (c1, c2), order, mask)))
            assert len(seqs) == 5 and a.seq not in seqs


def test_neighbors_exclude_original(rng):
    g = get_group("D8")
    for _ in range(10):
        a = random_arrangement(g, rng)
        assert all(nb.seq != a.seq for nb in neighbors(a, 1, False))
        assert all(nb.seq != a.seq for nb in neighbors(a, 2, False))


def test_teleport_examples():
    g = get_group("Z4")
    a = P.Arrangement(g, (0, 1, 2, 3))
    assert H.teleport(a, _FixedIndex(2)).seq == (0, 1, 3, 2)
    assert H.teleport(a, _FixedIndex(3)).seq == a.seq


def test_move_altitude_bounds(rng):
    for spec in ["Z12", "D12", "Q12"]:
        g = get_group(spec)
        for _ in range(150):
            a = random_arrangement(g, rng)
            for cuts, alt_fn, allow in (
                (1, P.altitude_directed, False),
                (2, P.altitude_directed, False),
                (1, P.altitude_undirected, True),
                (2, P.altitude_undirected, True),
            ):
                base = alt_fn(a)
                nbs = neighbors(a, cuts, allow)
                nb = nbs[rng.randrange(len(nbs))]
                assert -cuts <= alt_fn(nb) - base <= 2 * cuts


def test_teleport_altitude_bound(rng):
    for spec in ["Z12", "D12", "Q12"]:
        g = get_group(spec)
        for _ in range(300):
            a = random_arrangement(g, rng)
            t = H.teleport(a, rng)
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
    for spec, mode in [("Z12", "directed"), ("D10", "terrace"), ("Q16", "directed")]:
        r = H.climb(get_group(spec), H.ClimbParams(mode=mode, seed=7, debug_check=True))
        assert r.outcome == "found"


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
        a = H.teleport(a, rng)
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


def test_fresh_random_restart_policy():
    params = H.ClimbParams(
        mode="directed", seed=1, max_steps=10_000, max_restarts=3, restart_policy="fresh-random"
    )
    r = H.climb(get_group("D6"), params)
    assert r.outcome == "exhausted" and r.restarts_taken == 3
    r2 = H.climb(get_group("Z10"), params)
    assert r2.outcome == "found"


def test_climb_seeds_first_found_wins():
    g = get_group("Q12")
    params = H.ClimbParams(mode="directed", max_steps=10_000)
    seq_result = H.climb_seeds(g, params, seeds=[4, 5, 6])
    assert seq_result.outcome == "found" and seq_result.seed == 4
    par_result = H.climb_seeds(g, params, seeds=[4, 5, 6], threads=2)
    assert par_result.seed == seq_result.seed
    assert par_result.arrangement.seq == seq_result.arrangement.seq


def test_climb_rejects_trivial_group():
    with pytest.raises(ValueError):
        H.climb(get_group("Z1"), H.ClimbParams())
