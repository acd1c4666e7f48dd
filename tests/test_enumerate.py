from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import os
import pickle
import subprocess
from functools import lru_cache
from types import SimpleNamespace

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
    """Send counts of every order through the pool, so small groups test
    the split as well."""
    monkeypatch.setattr(E, "_FORK_MIN_ORDER", 1)


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
    nodes and leaves below each prefix are those of one unsplit walk.  The
    T3 case cuts one level deeper, where the replay also places b^(3) marks.
    Both kernels are held to this."""
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
            split = (top + sum(nodes for nodes, _ in below), sum(leaves for _, leaves in below))
            assert split == _walk(g, mode, prune), (spec, mode, python)


@pytest.mark.parametrize("essential, depth", [(True, 6), (False, 4)])
def test_narcissistic_prefix_resume_replays_the_c_ledger(monkeypatch, essential, depth):
    """In a non-abelian group the narcissistic cut on repeated c_d fires.
    Resuming below every live (a2, a3) prefix of G21_1 must replay c_1, c_2
    and their marks: the prefixes reached at `depth`, and the nodes spent,
    add up to those of one unsplit walk cut at the same depth, and both
    kernels reach the same prefixes with the same nodes."""
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
                top += nodes
                reached += below
            unsplit: list = []
            nodes, _ = _walk(g, mode, essential, sink=unsplit, stop_at=depth)
            assert (top, reached) == (nodes, unsplit)
            seen.append((nodes, unsplit))
    assert seen[0] == seen[1]


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
    """The full essential G21_1 narcissistic count, in one process and split
    over live prefixes whose c ledger each worker replays: 88 canonical
    forms, 3696 = 88 * |Aut(G21_1)| sequences."""
    g = get_group("G21_1")
    mode = EnumMode("narcissistic", essentially_different=True)
    one = enumerate_basic(g, mode, cap=21)
    two = enumerate_basic(g, mode, cap=21, threads=2)
    assert (one.raw_count, one.essential_count) == (two.raw_count, two.essential_count) == (3696, 88)


class _FakePool:
    """Stands in for a process pool: records its size, runs tasks inline
    and pickles each result, as a pool sends it back to the parent."""

    sizes: list[int] = []

    def __init__(self, processes=None, initializer=None, initargs=()):
        _FakePool.sizes.append(processes)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, tasks):
        return (pickle.loads(pickle.dumps(fn(task))) for task in tasks)


@pytest.fixture
def fake_pools(monkeypatch):
    monkeypatch.setattr(_FakePool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=_FakePool))
    monkeypatch.setattr(E, "_POOL_TASK", None)
    return _FakePool.sizes


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
def test_pool_size_is_capped_without_starting_processes(fake_pools, monkeypatch, cpus):
    """One pool per count_table, of min(threads, usable cpus, tasks)
    workers, and none when that is 1 or the group is small; climb_seeds
    caps its pool the same way.  The host count is larger than the
    affinity mask, which is the one that binds.  No process is started."""
    _set_cpus(monkeypatch, affinity=cpus, host=128)
    g = get_group("Z10")
    assert count_table(g, threads=2) == KNOWN_COUNTS["Z10"]
    assert fake_pools == []  # Z10 is below _FORK_MIN_ORDER
    monkeypatch.setattr(E, "_FORK_MIN_ORDER", 10)
    tasks = sum(len(E._live_prefixes(g, EnumMode(k, essentially_different=True), True))
                for k in ("terrace", "directed"))
    assert count_table(g, threads=10**6) == KNOWN_COUNTS["Z10"]
    assert count_table(g, threads=2) == KNOWN_COUNTS["Z10"]
    want = [w for w in (min(cpus, tasks), min(2, cpus)) if w > 1]
    assert fake_pools == want
    fake_pools.clear()
    params = H.ClimbParams(mode="directed", max_steps=50)
    H.climb_seeds(get_group("Z6"), params, seeds=[1, 2, 3], threads=10**6)
    assert fake_pools == [w for w in (min(cpus, 3),) if w > 1]


def test_climb_seeds_pool_stops_at_the_first_find(fake_pools, monkeypatch):
    """The pool's results are read in seed order and the first found one is
    returned without asking for the later seeds; it equals the serial result,
    and its arrangement is on the caller's group: no result pickles one."""
    _set_cpus(monkeypatch, affinity=2, host=2)
    g = get_group("Q12")
    params = H.ClimbParams(mode="directed", max_steps=10_000)
    serial = H.climb_seeds(g, params, seeds=[4, 5, 6])
    ran = []
    climb = H.climb
    monkeypatch.setattr(H, "climb", lambda group, p: ran.append(p.seed) or climb(group, p))
    monkeypatch.setattr(G.Group, "__reduce__", lambda self: pytest.fail("a Group was pickled"))
    pooled = H.climb_seeds(g, params, seeds=[4, 5, 6], threads=2)
    assert fake_pools == [2] and ran == [4] and pooled == serial
    assert pooled.arrangement.group is g


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


def test_g21_t2_first_witness_nodes_are_pinned():
    """The agreement tests stop at order 12; past it the compiled kernel is
    held to a pin: the pruned G21_1 T2 first-witness search visits
    1,674,373 nodes and finds this witness."""
    g = get_group("G21_1")
    nodes, _leaves, found = _trace(g, EnumMode("directed_tk", k=2), True, 1)
    assert nodes == 1_674_373
    assert found == [(0, 1, 3, 2, 7, 11, 17, 16, 19, 4, 14, 18, 13, 9, 20, 8, 10, 5, 6, 15, 12)]


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


def test_build_removes_the_users_stale_shared_objects(monkeypatch, tmp_path):
    """A build for a changed source removes the kernel objects that earlier
    sources left in the cache directory, and nothing else there."""
    cache = tmp_path / "cache"
    cache.mkdir()
    stale, kept = ["dfs-0123456789abcdef.so", "dfs-fedcba9876543210.so"], ["dfs-notes.txt", "notes.so"]
    for name in stale + kept:
        (cache / name).write_text("")
    monkeypatch.setattr(C, "_cache_dirs", lambda: [str(cache)])
    monkeypatch.setattr(C, "_KERNEL", None)
    C.load()
    built = [p.name for p in cache.iterdir() if p.name not in kept]
    assert len(built) == 1 and built[0] not in stale and built[0].endswith(".so"), built
    assert all((cache / name).exists() for name in kept)
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


def test_an_error_in_a_leaf_callback_reaches_the_caller(capfd):
    """An exception raised while the compiled kernel reports a leaf stops
    the walk and is raised by `_dfs`; ctypes prints nothing."""

    class Refuse(list):
        def append(self, item):
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        E._dfs(get_group("Z8"), EnumMode("directed"), sink=Refuse())
    assert capfd.readouterr().err == ""
