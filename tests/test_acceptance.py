"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The extended enumeration
tier is tagged slow (several minutes of backtracking); run it explicitly
with `pytest -m slow -v -s`.
"""

from __future__ import annotations

import random
import time

import pytest

import oracles
import terraces
from conftest import CORE_TIER, KNOWN_COUNTS, basic_arrangements, get_group, naive_basic_count, teleport
from terraces import groups as G
from terraces import hillclimb as H
from terraces import latin as L
from terraces import props as P
from terraces._ckernel import _iter_combos
from terraces.enumerate import EnumMode, count_table, enumerate_basic, search_first
from terraces.orbit import explore_chain, orbit_of

THREADS = 2


# -- criterion 1: enumeration core tier (orders 5..12), exact ----------------


def test_criterion1_enumeration_core_tier():
    start = time.perf_counter()
    for spec in CORE_TIER:
        got = count_table(get_group(spec), threads=THREADS)
        assert got == KNOWN_COUNTS[spec], f"{spec}: got {got}, expected {KNOWN_COUNTS[spec]}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"core tier took {elapsed:.0f}s, budget is 5 minutes"
    print(f"\nPASS criterion-1: enumeration counts exact for all {len(CORE_TIER)} groups of order 5..12 "
          f"({elapsed:.1f}s)")


# -- criterion 2: enumeration extended tier, orders 13..15 (Z15 slow) ---------


@pytest.mark.parametrize("spec", ["Z13", "D14", "Z14", pytest.param("Z15", marks=pytest.mark.slow)])
def test_criterion2_enumeration_extended_tier(spec):
    expected = KNOWN_COUNTS[spec]
    g = get_group(spec)
    t = enumerate_basic(g, EnumMode("terrace", essentially_different=True), threads=THREADS)
    d = enumerate_basic(g, EnumMode("directed", essentially_different=True), threads=THREADS)
    assert (t.essential_count, d.essential_count) == expected
    print(f"\nPASS criterion-2[{spec}]: t={t.essential_count} d={d.essential_count}")


# -- criterion 3: nonexistence certificates ----------------------------------


def test_criterion3_nonexistence_certificates():
    for spec in ["E4", "E8"]:
        assert enumerate_basic(get_group(spec), EnumMode("terrace")).raw_count == 0
        assert search_first(get_group(spec), EnumMode("terrace")) is None
    for spec in ["D6", "D8", "Q8"]:
        assert enumerate_basic(get_group(spec), EnumMode("directed")).raw_count == 0
        assert search_first(get_group(spec), EnumMode("directed")) is None
    print("\nPASS criterion-3: no terraces for Z2^2/Z2^3; no directed terraces for D6/D8/Q8")


# -- criterion 4: published-witness suite -------------------------------------


def test_criterion4_published_witnesses():
    g21 = P.load_arrangement(terraces.fixture_path("g21_1_t2"))
    assert g21.group.order == 21
    assert P.is_directed_tk(g21, 2)

    a4 = P.load_arrangement(terraces.fixture_path("a4_t2"))
    assert a4.group.order == 12
    assert P.is_directed_tk(a4, 2)

    narc = P.load_arrangement(terraces.fixture_path("g27_4_narcissistic"))
    assert narc.group.order == 27
    assert P.is_terrace(narc) and P.is_narcissistic(narc) and P.is_half_and_half(narc)

    dhh = P.load_arrangement(terraces.fixture_path("g27_4_directed_half_and_half"))
    assert P.is_directed_terrace(dhh) and P.is_half_and_half(dhh)

    square = L.square_from(g21)
    assert square.order == 21
    assert L.certify(square).roman_k_max >= 2
    print("\nPASS criterion-4: all four published witnesses verify; "
          "G21_1 square is Roman-2 at order 21")


# -- criterion 5: directed T2/T3 landscape at small orders --------------------


def test_criterion5_t2_and_t3_slices():
    t2 = EnumMode("directed_tk", k=2)
    for spec in ["A4", "Q12", "Q16"]:
        w = search_first(get_group(spec), t2)
        assert w is not None and P.is_directed_tk(w, 2), spec
    for spec in ["D8", "Q8", "D12", "D16"]:
        assert search_first(get_group(spec), t2) is None, spec

    t3 = EnumMode("directed_tk", k=3)
    catalogue_le_12 = [
        "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z11", "Z12",
        "E4", "E8", "Z4xZ2", "Z3xZ3", "Z6xZ2", "D6", "D8", "D10", "D12",
        "Q8", "Q12", "A4",
    ]
    with_t3 = set()
    for spec in catalogue_le_12:
        w = search_first(get_group(spec), t3)
        if w is not None:
            assert P.is_directed_tk(w, 3), spec
            with_t3.add(spec)
    assert with_t3 == {"Z4", "Z6", "Z10", "Z12"}
    print("\nPASS criterion-5: directed T2 exactly for A4/Q12/Q16 (not D8/Q8/D12/D16); "
          "directed T3 exactly for Z4/Z6/Z10/Z12 among orders <= 12")


# -- criterion 6: hill-climb effectiveness ------------------------------------

CLIMB_GROUPS = (
    [f"D{n}" for n in range(10, 34, 2)]
    + [f"Q{n}" for n in range(12, 36, 4)]
    + ["A4", "S4"]
)


def test_criterion6_hillclimb_effectiveness():
    seeds = list(range(1, 9))
    for spec in CLIMB_GROUPS:
        g = get_group(spec)
        start = time.perf_counter()
        found = None
        for seed in seeds:
            r = H.climb(g, H.ClimbParams(mode="directed", seed=seed, max_steps=1_000_000))
            if r.outcome == "found":
                found = r
                break
        elapsed = time.perf_counter() - start
        assert found is not None, f"{spec}: no directed terrace in 8 seeds"
        assert found.steps_taken <= 1_000_000
        assert elapsed < 60, f"{spec}: took {elapsed:.1f}s"
        assert P.is_directed_terrace(found.arrangement)
    print(f"\nPASS criterion-6: directed climb succeeds (seed budget 8, step budget 1e6, "
          f"<60s) for all {len(CLIMB_GROUPS)} groups of order 10..32")


# -- criterion 7: directed half-and-half terrace at order 39 ------------------


def test_criterion7_directed_half_and_half_for_order_39():
    g = get_group("SD(13,3,3)")
    start = time.perf_counter()
    w = search_first(g, EnumMode("directed_half_and_half"))
    elapsed = time.perf_counter() - start
    assert elapsed < 1800, "30 minute budget exceeded"
    assert w is not None
    assert P.is_directed_terrace(w) and P.is_half_and_half(w)
    print(f"\nPASS criterion-7: directed half-and-half terrace found for SD(13,3,3) "
          f"({elapsed:.2f}s)")


# -- criterion 8: property suites ---------------------------------------------


def test_criterion8_walecki_1_to_200():
    for n in range(1, 201):
        w = P.walecki(n)
        assert P.is_terrace(w), n
        assert P.is_directed_terrace(w) == (n % 2 == 0 or n == 1), n
    print("\nPASS criterion-8a: Walecki terraces verify for 1 <= n <= 200, "
          "directed exactly at even n (and the trivial n=1)")


def test_criterion8_move_and_teleport_altitude_bounds():
    rng = random.Random(8)
    groups = [get_group(s) for s in ("Z12", "D12", "Q12")]
    trials_per_mode = 10_000

    def random_move(seq, cuts, allow_reversal):
        n = len(seq)
        if cuts == 1:
            cc = (rng.randrange(1, n),)
        else:
            c1 = rng.randrange(1, n - 1)
            cc = (c1, rng.randrange(c1 + 1, n))
        combos = list(_iter_combos(cuts + 1, allow_reversal))
        order, mask = combos[rng.randrange(len(combos))]
        return tuple(oracles._materialize(list(seq), cc, order, mask))

    for alt_fn, allow in ((P.altitude_directed, False), (P.altitude_undirected, True)):
        for _ in range(trials_per_mode):
            g = groups[rng.randrange(3)]
            seq = list(range(g.order))
            rng.shuffle(seq)
            a = P.Arrangement(g, tuple(seq))
            cuts = rng.randrange(1, 3)
            moved = P.Arrangement(g, random_move(a.seq, cuts, allow))
            delta = alt_fn(moved) - alt_fn(a)
            assert -cuts <= delta <= 2 * cuts, (g.spec, cuts, delta)

    for _ in range(trials_per_mode):
        g = groups[rng.randrange(3)]
        seq = list(range(g.order))
        rng.shuffle(seq)
        a = P.Arrangement(g, tuple(seq))
        t = teleport(a, rng)
        assert P.altitude_directed(t) - P.altitude_directed(a) >= -2
        assert P.altitude_undirected(t) - P.altitude_undirected(a) >= -2
    print("\nPASS criterion-8b: move altitude deltas within [-k, 2k] and teleport >= -2 "
          f"over {trials_per_mode} trials per mode")


ORDER_LE_9 = ["Z1", "Z2", "Z3", "Z4", "E4", "Z5", "Z6", "D6", "Z7",
              "Z8", "Z4xZ2", "E8", "D8", "Q8", "Z9", "Z3xZ3"]


def test_criterion8_orbit_sizes_for_all_groups_up_to_order_9():
    allowed = {1, 2, 3, 4, 6}
    total = 0
    for spec in ORDER_LE_9:
        g = get_group(spec)
        witnesses = enumerate_basic(
            g, EnumMode("terrace", count_only=False, essentially_different=True)
        ).witnesses
        for w in witnesses:
            assert len(orbit_of(w)) in allowed, spec
            total += 1
    print(f"\nPASS criterion-8c: orbit sizes divide 4 or 6 for all {total} essential "
          "terraces of every group of order <= 9")


def test_criterion8_every_witness_yields_certified_square():
    produced_directed = []
    produced_terraces = []
    # hill climb products
    for spec in ["Z10", "Q12", "D14"]:
        r = H.climb(get_group(spec), H.ClimbParams(mode="directed", seed=1))
        assert r.outcome == "found"
        produced_directed.append(r.arrangement)
    for spec in ["D12", "Z9"]:
        r = H.climb(get_group(spec), H.ClimbParams(mode="terrace", seed=1))
        assert r.outcome == "found"
        produced_terraces.append(r.arrangement)
    # enumeration products
    produced_directed += list(
        enumerate_basic(get_group("Z8"), EnumMode("directed", count_only=False)).witnesses
    )
    produced_terraces += list(
        enumerate_basic(get_group("Z8"), EnumMode("terrace", count_only=False),
                        max_witnesses=20).witnesses
    )
    # backtracking search products
    for spec, k in [("G21_1", 2), ("Q16", 2), ("Z12", 3)]:
        w = search_first(get_group(spec), EnumMode("directed_tk", k=k))
        assert w is not None
        produced_directed.append(w)
        assert L.certify(L.square_from(w)).k_complete_max >= k
    # chain exploration products
    ext, _ = explore_chain(P.walecki(12), 100_000, lambda r: P.is_extendable(r)[0])
    assert ext is not None
    produced_terraces.append(ext)

    for a in produced_directed:
        assert L.certify(L.square_from(a)).complete, a.group.spec
    for a in produced_terraces:
        assert L.certify(L.square_from(a)).quasi_complete, a.group.spec
    print(f"\nPASS criterion-8d: {len(produced_directed)} directed witnesses gave complete "
          f"squares, {len(produced_terraces)} terraces gave quasi-complete squares")


def test_criterion8_enumerate_matches_naive_filter_up_to_order_6():
    for spec in ["Z1", "Z2", "Z3", "Z4", "E4", "Z5", "Z6", "D6"]:
        g = get_group(spec)
        assert enumerate_basic(g, EnumMode("terrace")).raw_count == naive_basic_count(
            g, P.is_terrace
        ), spec
        assert enumerate_basic(g, EnumMode("directed")).raw_count == naive_basic_count(
            g, P.is_directed_terrace
        ), spec
    print("\nPASS criterion-8e: backtracking counts equal the naive "
          "all-permutations filter for every group of order <= 6")
