from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import threading
from array import array
from functools import lru_cache

import pytest

from conftest import (KNOWN_COUNTS, SIGINT_RAISES, basic_arrangements, get_group, kernels,
                      naive_basic_count)
from terraces import _ckernel as C
from terraces import cli
from terraces import enumerate as E
from terraces import groups as G
from terraces import hillclimb as H
from terraces import latin as L
from terraces import props as P
from terraces.enumerate import (
    BudgetExceeded,
    EnumMode,
    count_table,
    enumerate_basic,
    search_first,
)
from terraces.orbit import orbit_of


def test_mode_validation():
    with pytest.raises(ValueError):
        EnumMode("nonsense")
    with pytest.raises(ValueError):
        EnumMode("directed_tk", k=1)
    for kind in E.KINDS:  # only directed_tk takes a T_k depth
        if kind != "directed_tk":
            with pytest.raises(ValueError):
                EnumMode(kind, k=5)
    assert EnumMode("directed_tk", k=2).label() == "directed_t2"


@pytest.mark.parametrize("spec", ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "D6", "E4"])
def test_raw_counts_match_naive_filter(spec):
    g = get_group(spec)
    naive_t = naive_basic_count(g, P.is_terrace)
    naive_d = naive_basic_count(g, P.is_directed_terrace)
    assert enumerate_basic(g, EnumMode("terrace")).raw_count == naive_t
    assert enumerate_basic(g, EnumMode("directed")).raw_count == naive_d


def test_z4_directed_examples():
    g = get_group("Z4")
    res = enumerate_basic(g, EnumMode("directed", count_only=False))
    assert res.raw_count == 2
    assert sorted(w.seq for w in res.witnesses) == [(0, 1, 3, 2), (0, 3, 1, 2)]
    ess = enumerate_basic(g, EnumMode("directed", essentially_different=True))
    assert ess.essential_count == 1


def test_z5_row():
    assert count_table(get_group("Z5")) == (3, 0)


def test_free_action_raw_equals_essential_times_aut():
    for spec in ["Z5", "Z6", "D6", "Z8", "Q8", "Z3xZ3"]:
        g = get_group(spec)
        aut = len(G.automorphisms(g))
        raw = enumerate_basic(g, EnumMode("terrace")).raw_count
        res = enumerate_basic(g, EnumMode("terrace", essentially_different=True))
        assert res.raw_count == raw
        assert res.essential_count * aut == raw


def test_orbit_stabilizers_are_trivial():
    for spec in ["Z5", "Z6", "Q8"]:
        g = get_group(spec)
        auts = G.automorphisms(g)
        ident = tuple(range(g.order))
        for a in basic_arrangements(g):
            if not P.is_terrace(a):
                continue
            stab = [phi for phi in auts if tuple(phi[x] for x in a.seq) == a.seq]
            assert stab == [ident]


def test_essential_counts_by_canonical_form_dedup():
    for spec in ["Z6", "D6", "Z8", "Q8"]:
        g = get_group(spec)
        forms = {P.canonical_form(a).seq for a in basic_arrangements(g) if P.is_terrace(a)}
        res = enumerate_basic(g, EnumMode("terrace", essentially_different=True))
        assert res.essential_count == len(forms)


def test_essential_witnesses_are_canonical_forms():
    g = get_group("Z8")
    res = enumerate_basic(g, EnumMode("terrace", count_only=False, essentially_different=True))
    assert res.essential_count == len(res.witnesses) == 58
    for w in res.witnesses:
        assert P.canonical_form(w).seq == w.seq
        assert P.is_terrace(w)


def test_witness_streams_are_deterministic_and_verified():
    g = get_group("Q8")
    m = EnumMode("terrace", count_only=False)
    first = enumerate_basic(g, m)
    second = enumerate_basic(g, m)
    assert [w.seq for w in first.witnesses] == [w.seq for w in second.witnesses]
    assert all(P.is_terrace(w) for w in first.witnesses)
    d = enumerate_basic(g, EnumMode("directed", count_only=False))
    assert d.raw_count == 0 and d.witnesses == ()


def test_max_witnesses_truncates_in_dfs_order():
    g = get_group("Z8")
    full = enumerate_basic(g, EnumMode("terrace", count_only=False))
    cut = enumerate_basic(g, EnumMode("terrace", count_only=False), max_witnesses=5)
    assert [w.seq for w in cut.witnesses] == [w.seq for w in full.witnesses[:5]]


@pytest.mark.parametrize("limit", [0, -2])
def test_max_witnesses_below_one_rejected(limit):
    with pytest.raises(ValueError, match="max_witnesses"):
        enumerate_basic(get_group("Z8"), EnumMode("terrace", count_only=False), max_witnesses=limit)


@pytest.fixture
def split_small_groups(monkeypatch):
    """Split counts of every order over threads, so small groups test the
    split as well."""
    monkeypatch.setattr(E, "_SPLIT_MIN_ORDER", 1)


def test_parallel_split_matches_single_thread(split_small_groups):
    for spec in ["Z1", "Z2", "Z3", "Z4", "Z12", "D12"]:
        g = get_group(spec)
        assert count_table(g, threads=2) == count_table(g, threads=1), spec


def test_tk_counts_against_props_filter():
    for spec in ["Z6", "Z8", "D8"]:
        g = get_group(spec)
        for k in (2, 3):
            want = naive_basic_count(g, lambda a: P.is_directed_tk(a, k))
            got = enumerate_basic(g, EnumMode("directed_tk", k=k)).raw_count
            assert got == want, (spec, k)


def test_half_and_half_counts_against_props_filter():
    for spec in ["Z5", "Z7", "Z9"]:
        g = get_group(spec)
        want_h = naive_basic_count(g, lambda a: P.is_terrace(a) and P.is_half_and_half(a))
        got_h = enumerate_basic(g, EnumMode("half_and_half")).raw_count
        assert got_h == want_h, spec
        want_n = naive_basic_count(g, lambda a: P.is_terrace(a) and P.is_narcissistic(a))
        got_n = enumerate_basic(g, EnumMode("narcissistic")).raw_count
        assert got_n == want_n, spec
        want_dh = naive_basic_count(
            g, lambda a: P.is_directed_terrace(a) and P.is_half_and_half(a)
        )
        got_dh = enumerate_basic(g, EnumMode("directed_half_and_half")).raw_count
        assert got_dh == want_dh, spec


ORDER_LE_8 = ["Z1", "Z2", "Z3", "Z4", "E4", "Z5", "Z6", "D6", "Z7", "Z8", "Z4xZ2", "E8", "D8", "Q8"]
ORDER_LE_12 = ORDER_LE_8 + ["Z9", "Z3xZ3", "Z10", "D10", "Z11", "Z12", "Z6xZ2", "D12", "Q12", "A4"]
ODD_KINDS = ("half_and_half", "narcissistic", "directed_half_and_half")
KIND_CASES = {
    "directed": (EnumMode("directed"), P.is_directed_terrace),
    "terrace": (EnumMode("terrace"), P.is_terrace),
    "directed_t2": (EnumMode("directed_tk", k=2), lambda a: P.is_directed_tk(a, 2)),
    "directed_t3": (EnumMode("directed_tk", k=3), lambda a: P.is_directed_tk(a, 3)),
    "directed_t4": (EnumMode("directed_tk", k=4), lambda a: P.is_directed_tk(a, 4)),
    "half_and_half": (EnumMode("half_and_half"), lambda a: P.is_terrace(a) and P.is_half_and_half(a)),
    "narcissistic": (EnumMode("narcissistic"), lambda a: P.is_terrace(a) and P.is_narcissistic(a)),
    "directed_half_and_half": (
        EnumMode("directed_half_and_half"),
        lambda a: P.is_directed_terrace(a) and P.is_half_and_half(a),
    ),
}


@lru_cache(maxsize=None)
def _naive_list(spec):
    return tuple(basic_arrangements(get_group(spec)))


@pytest.mark.parametrize("label", list(KIND_CASES))
def test_exotic_kind_essential_counts_match_dedup(label):
    """Orderly pruning by Aut(G) reaches exactly the canonical forms, for
    every kind: checked against the naive filter over all permutations."""
    mode, pred = KIND_CASES[label]
    odd = mode.kind in ODD_KINDS
    for spec in ORDER_LE_8 + (["Z9"] if odd else []):
        g = get_group(spec)
        if (odd and g.order % 2 == 0) or g.order <= mode.k:
            continue
        hits = [a for a in _naive_list(spec) if pred(a)]
        forms = sorted({P.canonical_form(a).seq for a in hits})
        raw = enumerate_basic(g, mode).raw_count
        assert raw == len(hits), spec
        ess = enumerate_basic(g, EnumMode(mode.kind, mode.k, essentially_different=True))
        assert ess.essential_count == len(forms), spec
        assert ess.raw_count == raw == ess.essential_count * len(G.automorphisms(g)), spec
        stream = enumerate_basic(
            g, EnumMode(mode.kind, mode.k, count_only=False, essentially_different=True)
        )
        assert [w.seq for w in stream.witnesses] == forms, spec


@pytest.mark.parametrize("label", list(KIND_CASES))
def test_parallel_kinds_match_single_thread(split_small_groups, label):
    """threads=2 splits each count over its live prefixes; the pieces add
    up to the single-process count, pruned or not, for every kind."""
    mode, _pred = KIND_CASES[label]
    if mode.kind in ODD_KINDS:
        specs = ["Z5", "Z7", "Z9", "Z3xZ3"]
    else:
        specs = ["Z4", "Z6", "D6", "Z8", "Q8", "Z10", "D10", "Z11"]
    for spec in specs:
        g = get_group(spec)
        if g.order <= mode.k:
            continue
        for ess in (False, True):
            m = EnumMode(mode.kind, mode.k, essentially_different=ess)
            one, two = enumerate_basic(g, m), enumerate_basic(g, m, threads=2)
            assert (two.raw_count, two.essential_count) == (one.raw_count, one.essential_count), (spec, ess)


def _walk(g, mode, prune, **kw) -> tuple[int, int]:
    """(nodes, leaves) of one _dfs call."""
    budget = [10**12]
    leaves = E._dfs(g, mode, prune, budget=budget, **kw)
    return 10**12 - budget[0], leaves


def _trace(g, mode, prune, limit) -> tuple:
    """(nodes, leaves, witness sequences) of one _dfs call; witnesses are
    collected, up to limit, when limit is set."""
    sink = None if limit is None else []
    nodes, leaves = _walk(g, mode, prune, sink=sink, limit=limit)
    return nodes, leaves, sink and [w.seq for w in sink]


@pytest.mark.parametrize("spec", ["Z10", "D10", "A4"])
def test_prefix_resume_adds_up_to_the_unsplit_count(monkeypatch, spec):
    """Resuming _dfs below every live (a2, a3) prefix, in one process,
    walks the rest of the unsplit tree: the nodes above the cut plus the
    nodes and leaves below each prefix are those of one unsplit walk, less
    the one node per prefix entry that each resumed walk spends on its path
    down from the root.  The T3 case cuts one level deeper, where that path
    also places b^(3) marks.  Both kernels are held to this."""
    g = get_group(spec)
    cases = [
        (EnumMode("terrace", essentially_different=True), 2),
        (EnumMode("directed", essentially_different=True), 2),
        (EnumMode("directed"), 2),
        (EnumMode("directed_tk", k=3), 3),
    ]
    for python, (mode, depth) in itertools.product((False, True), cases):
        with kernels(monkeypatch, python):
            prune = mode.essentially_different
            prefixes: list = []
            top, _ = _walk(g, mode, prune, sink=prefixes, stop_at=depth)
            if depth == E._SPLIT_DEPTH:
                assert prefixes == E._live_prefixes(g, mode, prune)
            assert prefixes and all(len(p) == depth for p in prefixes)
            assert prefixes == sorted(set(prefixes))
            below = [_walk(g, mode, prune, prefix=p) for p in prefixes]
            nodes = sum(nodes - len(p) for p, (nodes, _) in zip(prefixes, below))
            split = (top + nodes, sum(leaves for _, leaves in below))
            assert split == _walk(g, mode, prune), (spec, mode, python)


@pytest.mark.parametrize("essential, depth", [(True, 6), (False, 4)])
def test_narcissistic_prefix_resume_replays_the_c_ledger(monkeypatch, essential, depth):
    """In a non-abelian group the narcissistic cut on repeated c_d fires.
    Resuming below every live (a2, a3) prefix of G21_1 must replay c_1, c_2
    and their marks: the prefixes reached at `depth`, and the nodes spent
    less one per prefix entry (the prefix path), add up to those of one
    unsplit walk cut at the same depth, and both kernels reach the same
    prefixes with the same nodes."""
    g = get_group("G21_1")
    mode = EnumMode("narcissistic", essentially_different=essential)
    seen = []
    for python in (False, True):
        with kernels(monkeypatch, python):
            prefixes: list = []
            top, _ = _walk(g, mode, essential, sink=prefixes, stop_at=E._SPLIT_DEPTH)
            assert prefixes == E._live_prefixes(g, mode, essential)
            reached: list = []
            for p in prefixes:
                below: list = []
                nodes, _ = _walk(g, mode, essential, sink=below, prefix=p, stop_at=depth)
                top += nodes - len(p)
                reached += below
            unsplit: list = []
            nodes, _ = _walk(g, mode, essential, sink=unsplit, stop_at=depth)
            assert (top, reached) == (nodes, unsplit)
            seen.append((nodes, unsplit))
    assert seen[0] == seen[1]


def test_prefix_resume_below_a_dead_or_non_canonical_prefix_finds_no_leaves(monkeypatch):
    """A resumed walk checks its prefix as it checks every other entry.  In
    Z10, (1, 2) is dead for a directed terrace (b_1 = b_2 = 1), and (9, 1)
    is live for a terrace but not canonical: x -> -x maps it to (1, 9).
    Below either, both kernels find no leaf, with the same nodes."""
    g = get_group("Z10")
    runs = [(EnumMode("directed"), False, (1, 2)),
            (EnumMode("terrace", essentially_different=True), True, (9, 1))]
    got = []
    for python in (False, True):
        with kernels(monkeypatch, python):
            got.append([_walk(g, mode, prune, prefix=p) for mode, prune, p in runs])
    assert got[0] == got[1] and all(leaves == 0 for _, leaves in got[0]), got


def test_compiled_kernel_matches_the_python_kernel_on_shallow_live_prefixes(monkeypatch):
    """A tree that ends above _SPLIT_DEPTH is split at its end, where the
    live prefixes are the heads of its leaves, on both kernels: a
    narcissistic walk cut at its middle entry checks the forced tail."""
    cases = [("Z1", "terrace"), ("Z2", "directed"), ("Z3", "terrace"), ("Z3", "narcissistic"),
             ("Z5", "narcissistic")]
    heads = []
    for spec, kind in cases:
        g = get_group(spec)
        end = E._end_depth(g.order, kind)
        leaves = enumerate_basic(g, EnumMode(kind, count_only=False)).witnesses
        heads.append([w.seq[1 : end + 1] for w in leaves])
    for python in (False, True):
        with kernels(monkeypatch, python):
            got = [E._live_prefixes(get_group(spec), EnumMode(kind), False) for spec, kind in cases]
            assert got == heads, python


AGREEMENT_GROUPS = [f"Z{n}" for n in range(1, 13)] + [
    "E4", "E8", "D6", "D8", "D10", "D12", "Q8", "Q12", "Z4xZ2", "Z3xZ3", "Z6xZ2", "A4",
]


@pytest.mark.parametrize("spec", AGREEMENT_GROUPS)
def test_compiled_kernel_matches_the_python_kernel(monkeypatch, spec):
    """The compiled kernel visits the same nodes and reaches the same leaves
    in the same order as the Python kernel, for every kind: essential counts
    up to order 12, unpruned counts up to order 10, and the first witness
    and the first 20 streamed witnesses, pruned and not."""
    g = get_group(spec)
    runs = [(True, None), (False, 1), (True, 1), (False, 20), (True, 20)]
    if g.order <= 10:
        runs.append((False, None))
    for label, (mode, _pred) in KIND_CASES.items():
        if mode.kind in ODD_KINDS and g.order % 2 == 0:
            continue
        got = []
        for python in (False, True):
            with kernels(monkeypatch, python):
                got.append([_trace(g, mode, prune, limit) for prune, limit in runs])
        assert got[0] == got[1], (spec, label)


@pytest.mark.parametrize("spec", ["Z65", "D66"])
def test_compiled_kernel_matches_the_python_kernel_past_order_64(monkeypatch, spec):
    """Past order 64 the compiled kernel keeps the unused elements in two
    words.  Walked unpruned (Aut(G) is not listed past order 32), both
    kernels reach the same live prefixes (a2, a3) of every kind with the
    same nodes; cut at depth 48 (31 for the narcissistic kind) with a
    budget of 5,000 nodes, they reach the same prefixes before it runs
    out; and a first-witness search capped at 5,000 nodes runs out on
    both."""
    g = get_group(spec)
    got = []
    for python in (False, True):
        with kernels(monkeypatch, python):
            runs = []
            for label, (mode, _pred) in KIND_CASES.items():
                if mode.kind in ODD_KINDS and g.order % 2 == 0:
                    continue
                top: list = []
                deep: list = []
                budget = [5_000]
                with pytest.raises(BudgetExceeded):
                    E._dfs(g, mode, False, sink=deep, budget=budget,
                           stop_at=min(48, E._end_depth(g.order, mode.kind) - 1))
                with pytest.raises(BudgetExceeded):
                    search_first(g, mode, cap=70, max_nodes=5_000)
                runs.append((label, _walk(g, mode, False, sink=top, stop_at=2), top, deep, budget))
            got.append(runs)
    assert got[0] == got[1]


def test_compiled_kernel_matches_the_python_kernel_below_a_deep_z65_prefix(monkeypatch):
    """Both kernels walk the same nodes to the same leaves below a deep
    prefix of a narcissistic terrace of Z65: the image of Walecki's under
    x -> 42x, which moves 17 to 64, the one id in the second word of
    unused elements, so that the mirrored tail holds it."""
    g = get_group("Z65")
    seq = tuple(42 * x % 65 for x in P.walecki(65).seq)
    got = []
    for python in (False, True):
        with kernels(monkeypatch, python):
            runs = []
            for kind, depth in (("terrace", 54), ("half_and_half", 54), ("narcissistic", 25)):
                sink: list = []
                runs.append(_walk(g, EnumMode(kind), False, sink=sink, prefix=seq[1 : depth + 1]))
                runs.append([w.seq for w in sink])
                assert seq in runs[-1], kind
            got.append(runs)
    assert got[0] == got[1]


# First narcissistic witnesses of the non-abelian groups, and the sha256 of
# the first 20 streamed G21_1 witnesses (json.dumps of their id lists),
# recorded before the repeated-c_d cut was added.
NARCISSISTIC_FIRST = {
    "G21_1": (0, 1, 3, 7, 11, 4, 20, 2, 14, 8, 10, 15, 12, 18, 9, 19, 6, 13, 5, 16, 17),
    "SD(7,3,2)": (0, 1, 3, 7, 12, 19, 6, 14, 2, 5, 11, 17, 20, 8, 10, 18, 4, 9, 13, 15, 16),
    "G27_4": (0, 1, 3, 2, 4, 8, 17, 6, 23, 11, 18, 25, 22, 7, 19, 16, 5, 12, 9, 26, 15, 24,
              10, 21, 20, 13, 14),
}
G21_NARCISSISTIC_20_SHA256 = "8d1460c38c3b8f94ad7bdc00d0437997fd94c25ae5e05248425e22a9ab113634"


def test_non_abelian_narcissistic_witnesses_are_pinned():
    for spec, want in NARCISSISTIC_FIRST.items():
        w = search_first(get_group(spec), EnumMode("narcissistic"))
        assert w.seq == want, spec
        assert P.is_terrace(w) and P.is_narcissistic(w), spec
    stream = enumerate_basic(get_group("G21_1"), EnumMode("narcissistic", count_only=False),
                             cap=21, max_witnesses=20).witnesses
    blob = json.dumps([list(w.seq) for w in stream]).encode()
    assert len(stream) == 20 and hashlib.sha256(blob).hexdigest() == G21_NARCISSISTIC_20_SHA256


@pytest.mark.slow
def test_g21_narcissistic_count_split_and_unsplit():
    """The full essential G21_1 narcissistic count, in one walk and split
    over live prefixes whose c ledger each task replays: 88 canonical
    forms, 3696 = 88 * |Aut(G21_1)| sequences."""
    g = get_group("G21_1")
    mode = EnumMode("narcissistic", essentially_different=True)
    one = enumerate_basic(g, mode, cap=21)
    two = enumerate_basic(g, mode, cap=21, threads=2)
    assert (one.raw_count, one.essential_count) == (two.raw_count, two.essential_count) == (3696, 88)


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs, recorded as it starts; the
    threads run as usual."""
    started: list[threading.Thread] = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


def _set_cpus(monkeypatch, affinity: int, host: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: host)


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    _set_cpus(monkeypatch, affinity=1, host=64)
    assert E.usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert E.usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert E.usable_cpus() == 1


@pytest.mark.parametrize("cpus", [1, 3, 64])
def test_threaded_map_size_is_capped(started_threads, monkeypatch, cpus):
    """One threaded map per count_table, of min(threads, usable cpus, tasks)
    threads, and none when that is 1 or the group is small; climb_seeds
    caps its map the same way.  The host count is larger than the affinity
    mask, which is the one that binds, so the threads really run on any
    host; every one has ended when the call returns."""
    _set_cpus(monkeypatch, affinity=cpus, host=128)
    g = get_group("Z10")
    sizes = []

    def run(call, *args, **kw):
        started_threads.clear()
        got = call(*args, **kw)
        assert not any(t.is_alive() for t in started_threads)
        if started_threads:
            sizes.append(len(started_threads))
        return got

    monkeypatch.setattr(E, "_SPLIT_MIN_ORDER", 11)
    assert run(count_table, g, threads=2) == KNOWN_COUNTS["Z10"]
    assert sizes == []  # Z10 is below _SPLIT_MIN_ORDER
    monkeypatch.setattr(E, "_SPLIT_MIN_ORDER", 10)
    tasks = sum(len(E._live_prefixes(g, EnumMode(k, essentially_different=True), True))
                for k in ("terrace", "directed"))
    assert run(count_table, g, threads=10**6) == KNOWN_COUNTS["Z10"]
    assert run(count_table, g, threads=2) == KNOWN_COUNTS["Z10"]
    assert sizes == [w for w in (min(cpus, tasks), min(2, cpus)) if w > 1]
    sizes.clear()
    params = H.ClimbParams(mode="directed", max_steps=50)
    run(H.climb_seeds, get_group("Z6"), params, seeds=[1, 2, 3], threads=10**6)
    assert sizes == [w for w in (min(cpus, 3),) if w > 1]


def test_threaded_climb_seeds_stop_at_the_first_find(monkeypatch):
    """The map's results are read in seed order and the first found one is
    returned; it equals the serial result, and its arrangement is on the
    caller's group, which nothing pickles.  The later seeds here are climbs
    of E64, which has no terrace, that would take about 20 s each: the
    stop cell ends them when the map exits, and none runs on after
    climb_seeds returns."""
    import time

    _set_cpus(monkeypatch, affinity=2, host=2)
    g, e64 = get_group("Q12"), get_group("E64")
    params = H.ClimbParams(mode="directed", max_steps=10_000)
    serial = H.climb_seeds(g, params, seeds=[4, 5, 6])
    C._climb_tables(e64, True)
    running = []
    climb = H.climb

    def first_or_long(group, p, stop=None):
        running.append(p.seed)
        try:
            if p.seed == 4:
                return climb(group, p, stop=stop)
            return climb(e64, H.ClimbParams(mode="terrace", seed=p.seed, max_steps=200_000), stop=stop)
        finally:
            running.remove(p.seed)

    monkeypatch.setattr(H, "climb", first_or_long)
    monkeypatch.setattr(G.Group, "__reduce__", lambda self: pytest.fail("a Group was pickled"))
    t0 = time.monotonic()
    pooled = H.climb_seeds(g, params, seeds=[4, 5, 6], threads=2)
    assert time.monotonic() - t0 < 5 and running == []
    assert pooled == serial and pooled.arrangement.group is g


def test_threaded_counts_agree_under_fast_thread_switching(monkeypatch):
    """More threads than cores, switching every microsecond where they run
    Python: every count of a split count_table still adds up, so no task is
    lost or counted twice."""
    import sys

    _set_cpus(monkeypatch, affinity=8, host=8)
    monkeypatch.setattr(E, "_SPLIT_MIN_ORDER", 1)
    want = {spec: count_table(get_group(spec)) for spec in ("Z8", "D8", "Z10", "D10", "Q12")}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert {spec: count_table(get_group(spec), threads=8) for spec in want} == want
    finally:
        sys.setswitchinterval(interval)


def test_a_set_stop_cell_stops_a_walk_at_its_first_poll():
    """A walk given a stop cell runs without the GIL; one already set stops
    it at its first poll, node 2^20, with Stopped, not the MemoryError of an
    out-of-memory exit.  An unset cell changes no count, node or leaf, and
    a leaf callback, which takes the GIL back, sees each leaf."""
    g = get_group("Z13")
    mode = EnumMode("terrace", essentially_different=True)
    assert _walk(g, mode, True) == _walk(g, mode, True, stop=array("i", [0])) == (4_183_389, 138_066)
    budget = [10**12]
    with pytest.raises(C.Stopped):
        E._dfs(g, mode, True, budget=budget, stop=array("i", [1]))
    assert 10**12 - budget[0] == 1 << 20
    d8 = get_group("D8")
    free, held = [], []
    E._dfs(d8, EnumMode("terrace"), sink=held)
    E._dfs(d8, EnumMode("terrace"), sink=free, stop=array("i", [0]))
    assert [a.seq for a in free] == [a.seq for a in held]
    assert len(held) == KNOWN_COUNTS["D8"][0] * len(G.automorphisms(d8))


@pytest.mark.parametrize(
    "spec, mode, nodes, found",
    [
        ("Q8", EnumMode("directed"), 36, False),
        ("D8", EnumMode("directed_tk", k=2), 76, False),
        ("Z9", EnumMode("directed_half_and_half"), 259, False),
        ("A4", EnumMode("directed_tk", k=2), 487, True),
        ("G21_1", EnumMode("narcissistic"), 43569, True),
    ],
)
def test_max_nodes_edge(monkeypatch, spec, mode, nodes, found):
    """A search visits a fixed number of nodes: max_nodes=N finishes, N-1
    does not, on either kernel."""
    g = get_group(spec)
    for python in (False, True):
        with kernels(monkeypatch, python):
            w = search_first(g, mode, max_nodes=nodes)
            assert (w is not None) == found
            with pytest.raises(BudgetExceeded):
                search_first(g, mode, max_nodes=nodes - 1)


@pytest.mark.parametrize(
    "spec, mode, nodes, witness",
    [
        ("G21_1", EnumMode("directed_tk", k=2), 1_674_373,
         (0, 1, 3, 2, 7, 11, 17, 16, 19, 4, 14, 18, 13, 9, 20, 8, 10, 5, 6, 15, 12)),
        ("Q16", EnumMode("directed_tk", k=2), 124_035,
         (0, 1, 3, 4, 9, 5, 2, 15, 13, 7, 12, 11, 10, 6, 14, 8)),
        ("Z14", EnumMode("directed_tk", k=3), 120_402, None),
        ("G27_4", EnumMode("narcissistic"), 180_415,
         (0, 1, 3, 2, 4, 8, 17, 6, 23, 11, 18, 25, 22, 7, 19, 16, 5, 12, 9, 26, 15, 24, 10, 21, 20, 13,
          14)),
        ("SD(13,3,3)", EnumMode("directed_half_and_half"), 101_190,
         (0, 1, 3, 2, 4, 7, 11, 5, 8, 12, 6, 9, 13, 18, 10, 16, 23, 15, 22, 17, 14, 19, 27, 24, 37, 33,
          29, 30, 38, 20, 35, 34, 26, 32, 25, 36, 31, 28, 21)),
    ],
    ids=["G21_1-t2", "Q16-t2", "Z14-t3", "G27_4-narcissistic", "SD13-directed_half_and_half"],
)
def test_compiled_first_witness_searches_are_pinned(spec, mode, nodes, witness):
    """The agreement tests stop at order 12; past it the compiled kernel is
    held to a pin for each shape of its walk (T2, T_k with k >= 3, the
    narcissistic and the half-and-half layer 2): the first-witness search,
    pruned by Aut(G) up to order 32 as `search_first` walks it, visits
    these nodes and finds this witness, or none."""
    g = get_group(spec)
    prune = g.order <= G.DEFAULT_AUT_CAP
    assert _trace(g, mode, prune, 1) == (nodes, witness is not None, [witness] if witness else [])


# (nodes, leaves) of the essential terrace walk, then the directed one,
# then for Z13 the half-and-half one: the kind that mixes a class bucket
# with a layer-2 test.
WALK_SIZES = {
    "Z12": ((1_322_401, 40_722), (135_992, 964)),
    "D12": ((143_379, 1_380), (56_520, 256)),
    "Q12": ((440_281, 13_470), (44_818, 372)),
    "A4": ((151_522, 3_516), (22_922, 96)),
    "Z13": ((4_183_389, 138_066), (263_162, 0), (347_050, 15_664)),
    "D14": ((2_516_224, 25_608), (604_249, 2_700)),
}


@pytest.mark.parametrize("spec", sorted(WALK_SIZES))
def test_compiled_walk_sizes_are_pinned(spec):
    """The essential count walks of the compiled kernel visit pinned numbers
    of nodes and leaves, past the orders the agreement tests reach too: a
    change to the candidate order, a cut or the budget accounting moves
    them."""
    g = get_group(spec)
    kinds = ("terrace", "directed", "half_and_half")[: len(WALK_SIZES[spec])]
    sizes = tuple(_walk(g, EnumMode(kind, essentially_different=True), True) for kind in kinds)
    assert sizes == WALK_SIZES[spec]


def test_streamed_witnesses_pass_their_verifiers():
    cases = [
        ("Z9", EnumMode("narcissistic", count_only=False), P.is_narcissistic),
        ("Z9", EnumMode("half_and_half", count_only=False), P.is_half_and_half),
        ("A4", EnumMode("directed_tk", k=2, count_only=False),
         lambda a: P.is_directed_tk(a, 2)),
    ]
    for spec, mode, verifier in cases:
        res = enumerate_basic(get_group(spec), mode, max_witnesses=10)
        assert res.witnesses, (spec, mode.kind)
        for w in res.witnesses:
            assert verifier(w), (spec, mode.kind)


def test_directed_half_and_half_witnesses_on_g21():
    g = get_group("G21_1")
    res = enumerate_basic(
        g, EnumMode("directed_half_and_half", count_only=False), cap=21, max_witnesses=3
    )
    assert res.witnesses
    for w in res.witnesses:
        assert P.is_directed_terrace(w) and P.is_half_and_half(w)


def test_witness_mode_is_single_threaded():
    with pytest.raises(ValueError):
        enumerate_basic(get_group("Z6"), EnumMode("terrace", count_only=False), threads=2)


def test_even_order_rejected_for_half_kinds():
    with pytest.raises(ValueError):
        enumerate_basic(get_group("Z6"), EnumMode("half_and_half"))


def test_caps_enforced():
    with pytest.raises(ValueError):
        enumerate_basic(get_group("G21_1"), EnumMode("terrace"))  # 21 > 16
    with pytest.raises(ValueError):
        count_table(get_group("G16_6"))
    with pytest.raises(ValueError):
        search_first(get_group("PSL2_7"), EnumMode("directed"))  # 168 > 64


def test_search_first_examples():
    g21 = get_group("G21_1")
    w = search_first(g21, EnumMode("directed_tk", k=2))
    assert w is not None and P.is_directed_tk(w, 2)
    assert search_first(get_group("Q8"), EnumMode("directed")) is None
    assert search_first(get_group("D8"), EnumMode("directed_tk", k=2)) is None


def test_search_first_is_deterministic_and_first_in_dfs_order():
    """The Aut(G)-pruned search returns the first witness of the unpruned
    stream (or None with it), for every kind on every group of order <= 12."""
    g = get_group("Z8")
    assert search_first(g, EnumMode("terrace")).seq == search_first(g, EnumMode("terrace")).seq
    for spec in ORDER_LE_12:
        g = get_group(spec)
        for label, (mode, _pred) in KIND_CASES.items():
            if (mode.kind in ODD_KINDS and g.order % 2 == 0) or g.order <= mode.k:
                continue
            stream = enumerate_basic(
                g, EnumMode(mode.kind, mode.k, count_only=False), max_witnesses=1
            ).witnesses
            got = search_first(g, mode)
            assert (got and got.seq) == (stream[0].seq if stream else None), (spec, label)


def test_search_first_on_e32_skips_the_automorphism_group():
    """|Aut(Z2^5)| = 9,999,360: the search must not list it before walking."""
    g = get_group("Z2xZ2xZ2xZ2xZ2")
    with pytest.raises(BudgetExceeded):
        search_first(g, EnumMode("directed"), max_nodes=1000)


def test_search_budget():
    g = get_group("Z11")
    with pytest.raises(BudgetExceeded):
        search_first(g, EnumMode("directed"), max_nodes=5)
    with pytest.raises(BudgetExceeded):
        search_first(g, EnumMode("directed"), max_nodes=0)
    with pytest.raises(ValueError, match="max_nodes"):
        search_first(g, EnumMode("directed"), max_nodes=-5)


def test_abelian_non_binary_groups_have_no_directed_terraces():
    for spec in ["Z5", "Z7", "Z9", "Z11", "Z3xZ3", "Z4xZ2", "Z6xZ2", "E4", "E8"]:
        g = get_group(spec)
        assert len(G.involutions(g)) != 1 and G.is_abelian(g)
        assert enumerate_basic(g, EnumMode("directed")).raw_count == 0, spec


def test_compiled_and_python_kernels_reach_the_one_leaf_of_z1(monkeypatch):
    """At order 1 both kernels reach one leaf, (e), for every kind, spend
    no node on it, and the public functions answer from it: one terrace
    and one directed terrace, and (e) as the first witness of every kind,
    even with no node to spend."""
    one = get_group("Z1")
    for python in (False, True):
        with kernels(monkeypatch, python):
            for label, (mode, _pred) in KIND_CASES.items():
                sink: list = []
                assert _walk(one, mode, True, sink=sink) == (0, 1), (label, python)
                assert [w.seq for w in sink] == [(0,)], (label, python)
                assert search_first(one, mode, max_nodes=0).seq == (0,), (label, python)
                assert enumerate_basic(one, mode).raw_count == 1, (label, python)
            assert count_table(one) == (1, 1), python


def test_degenerate_orders():
    one = get_group("Z1")
    res = enumerate_basic(one, EnumMode("terrace", count_only=False, essentially_different=True))
    assert res.raw_count == res.essential_count == 1
    assert res.witnesses[0].seq == (0,)
    assert count_table(get_group("Z2")) == (1, 1)
    assert count_table(get_group("Z3")) == (1, 0)
    assert count_table(get_group("Z4")) == (1, 1)


def test_core_table_rows_small():
    for spec in ["Z5", "Z6", "D6", "Z8", "Z4xZ2", "D8", "Q8", "Z9", "Z3xZ3"]:
        assert count_table(get_group(spec)) == KNOWN_COUNTS[spec], spec


def test_without_a_compiler_every_kernel_raises_one_error(monkeypatch, tmp_path, capfd):
    """Without a compiler, or without a usable cache directory, counts,
    climbs, closures and certificates raise one OSError that names the
    compiler and the directories tried, and leave no cache directory
    behind; the CLI's enumerate, search, climb, orbit and square commands
    exit 2 with one JSON error line."""
    monkeypatch.delenv("TERRACE_CONFIG", raising=False)
    terrace = tmp_path / "w10.json"
    P.save_arrangement(P.walecki(10), terrace)
    out = ["--outdir", str(tmp_path / "out")]
    argvs = [
        ["enumerate", "--group", "D10", "--mode", "directed", "--essential", *out],
        ["search", "--group", "A4", "--mode", "tk", "--k", "2", *out],
        ["climb", "--group", "D10", "--seeds", "1,2", "--threads", "2", *out],
        ["orbit", "--terrace", str(terrace), *out],
        ["square", "--terrace", str(terrace), "--check", "complete", *out],
    ]
    blocked = tmp_path / "file"
    blocked.write_text("")
    cache = tmp_path / "cache"
    for cc, dirs in [("/nonexistent/cc", [cache]), (C._CC, [blocked / "a", blocked / "b"])]:
        monkeypatch.setattr(C, "_CC", cc)
        monkeypatch.setattr(C, "_cache_dirs", lambda: [str(d) for d in dirs])
        monkeypatch.setattr(C, "_KERNEL", None)
        calls = [
            lambda: count_table(get_group("Z8")),
            lambda: H.climb(get_group("D10"), H.ClimbParams(seed=1)),
            lambda: orbit_of(P.walecki(10)),
            lambda: L.certify(L.square_from(P.walecki(10))),
        ]
        for call in calls:
            with pytest.raises(OSError) as info:
                call()
            assert repr(cc) in str(info.value) and all(str(d) in str(info.value) for d in dirs)
        capfd.readouterr()
        for argv in argvs:
            assert cli.main(argv) == 2, argv
            out_, err = capfd.readouterr()
            assert out_ == "" and len(err.splitlines()) == 1, (argv, err)
            assert json.loads(err)["error"] == str(info.value), argv
        assert C._KERNEL is None
    assert not cache.exists()


def test_a_failed_build_reports_the_compilers_message(monkeypatch, tmp_path):
    """When the compiler runs and fails, the OSError carries the last lines
    of its own message, and the cache directory it was given is removed."""
    monkeypatch.setattr(C, "_FLAGS", (*C._FLAGS, "-Wsuch-flag-xyz"))
    monkeypatch.setattr(C, "_cache_dirs", lambda: [str(tmp_path / "cache")])
    monkeypatch.setattr(C, "_KERNEL", None)
    with pytest.raises(OSError) as info:
        C.load()
    assert f"{C._CC} could not build the kernel" in str(info.value), info.value
    assert "-Wsuch-flag-xyz" in str(info.value), info.value  # in the compiler's own words
    assert list(tmp_path.iterdir()) == []


def test_build_leaves_only_the_shared_object(monkeypatch, tmp_path):
    """A fresh build compiles under a private name and renames the result
    into place, so the cache holds the shared object alone."""
    monkeypatch.setattr(C, "_cache_dirs", lambda: [str(tmp_path / "cache")])
    monkeypatch.setattr(C, "_KERNEL", None)
    C.load()
    assert [p.suffix for p in (tmp_path / "cache").iterdir()] == [".so"]
    assert count_table(get_group("Z10")) == KNOWN_COUNTS["Z10"]


def test_ctrl_c_stops_a_compiled_walk_within_a_second(tmp_path):
    """SIGINT during a long compiled count ends the process with
    KeyboardInterrupt within a second, and no callback swallows it."""
    import signal
    import sys
    import time

    src = os.path.dirname(os.path.dirname(os.path.abspath(E.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (SIGINT_RAISES +
            "from terraces import _ckernel, groups, enumerate as E\n"
            "_ckernel.load(); g = groups.parse_group_spec('Z14'); groups.automorphisms(g)\n"
            "print('ready', flush=True); E.count_table(g)\n")
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=env)
    try:
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.5)  # well inside the walk, which takes seconds
        assert proc.poll() is None
        t0 = time.monotonic()
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=30)
        waited = time.monotonic() - t0
    finally:
        proc.kill()
        proc.wait()
    err = proc.stderr.read()
    said = f"return code {proc.returncode}, stderr:\n{err}"
    assert "KeyboardInterrupt" in err, said
    assert "Exception ignored" not in err, said
    assert waited < 1.0, waited


def test_ctrl_c_stops_a_threaded_count_within_a_second(tmp_path):
    """SIGINT during a count split over two threads ends the process with
    KeyboardInterrupt within a second: the wait for a result raises it, and
    leaving the map stops and joins both threads, so the process can exit.
    Nothing is printed from a thread, and no callback swallows it."""
    import signal
    import sys
    import time

    src = os.path.dirname(os.path.dirname(os.path.abspath(E.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # Two usable CPUs on any host, so that the count starts two threads.
    code = (SIGINT_RAISES +
            "import os; os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from terraces import _ckernel, groups, enumerate as E\n"
            "_ckernel.load(); g = groups.parse_group_spec('Z15'); groups.automorphisms(g)\n"
            "print('ready', flush=True); E.count_table(g, threads=2)\n")
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=env)
    try:
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.5)  # well inside the count, which takes seconds
        assert proc.poll() is None
        t0 = time.monotonic()
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=30)
        waited = time.monotonic() - t0
    finally:
        proc.kill()
        proc.wait()
    err = proc.stderr.read()
    said = f"return code {proc.returncode}, stderr:\n{err}"
    assert "KeyboardInterrupt" in err, said
    assert "Exception ignored" not in err and "Exception in thread" not in err, said
    assert waited < 1.0, waited


def test_an_error_in_a_leaf_callback_reaches_the_caller(capfd):
    """An exception raised while the compiled kernel reports a leaf stops
    the walk and is raised by `_dfs`; ctypes prints nothing."""

    class Refuse(list):
        def append(self, item):
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        E._dfs(get_group("Z8"), EnumMode("directed"), sink=Refuse())
    assert capfd.readouterr().err == ""
