"""Exhaustive backtracking over basic arrangements.

Every count, witness stream and first-witness search of every kind runs
one depth-first kernel, `_dfs`.  It fixes a_1 = e (left translation is
quotiented out up front), extends prefixes with candidates in ascending id
order, and prunes as soon as the partial quotient list violates the kind.
`_dfs` runs the walk in C (`_ckernel`, compiled with the system C compiler
on the first call and cached per user), passing the kind by name, the T_k
depth and the depth to stop at; `_ckernel._KINDS` alone says how a kind is
encoded, and `KINDS` lists its names.  Its Python twin, `dfs` in
`tests/oracles.py`, visits the same nodes and reaches the same leaves in
the same order; the tests hold the compiled kernel to it for every kind.

Essentially-different runs of every kind prune by Aut(G) (orderly
generation, after Read 1978 and McKay, J. Algorithms 26, 1998): a prefix
that some automorphism maps to a lexicographically smaller one is cut, so
exactly the canonical forms are reached.  This is exact because every kind
is Aut(G)-invariant and Aut(G) acts freely on complete basic arrangements
(an automorphism fixing every entry fixes the whole group): each orbit
holds |Aut(G)| sequences and one lexicographically-least canonical form,
so the raw count is essential * |Aut(G)|.

First-witness searches prune by Aut(G) too, for every group of order up to
`groups.DEFAULT_AUT_CAP` except the elementary abelian 2-groups.  The least
witness in DFS order is the lexicographically least one, hence least in its
own Aut(G)-orbit, so the pruned search reaches it first: it returns the
same witness as an unpruned walk and visits a subset of its nodes.

Narcissistic runs (n = 2m + 1, b_j = b_{n-j}) choose a_2, ..., a_{m+1} and
the mirror forces the tail.  Put c_0 = e and c_d = b_d c_{d-1} = b_d ... b_1.
Walking the mirrored quotients back from a_n gives a_{n+1-j} = a_n c_{j-1}^-1
for j = 1, ..., m + 1, the middle entry a_{m+1} at j = m + 1.  So the tail
repeats an entry exactly when two of c_0, ..., c_{m-1} are equal, and holds
a_{m+1} exactly when c_m equals one of them.  A prefix whose c_0, ..., c_d
(d <= m) are not pairwise distinct has no completion, and the kernel cuts it
at depth d in its layer 2, with c_0 = e taken from the start.  The cut
is exact: it drops only prefixes without a completion and keeps the walk's
order, and the mirror step still checks the tail against the head.  In an
abelian group c_d = a_{d+1}, so it never fires there; in G27_4 it cuts the
first-witness search from 874,839 nodes to 180,415.

Counts with threads > 1 split by live prefix, for groups of order 13 and
up (smaller trees take less time than forking a pool).  The parent runs
`_dfs` down to depth 2 and keeps every prefix (a2, a3) that survives its
checks, orderly ones included; each is one task.  A worker places the
prefix in a fresh ledger and resumes `_dfs` below it, with the
automorphisms that fix every prefix entry still active.  `count_table`
streams the tasks of both kinds through one forked pool, whose workers
read the group, its tables and its automorphisms from the parent's memory.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from . import _ckernel
from .groups import DEFAULT_AUT_CAP, Group, automorphisms
from .props import Arrangement

__all__ = [
    "EnumMode",
    "EnumResult",
    "BudgetExceeded",
    "KINDS",
    "enumerate_basic",
    "count_table",
    "search_first",
    "DEFAULT_TERRACE_CAP",
    "DEFAULT_DIRECTED_CAP",
    "DEFAULT_SEARCH_CAP",
]

KINDS = tuple(_ckernel._KINDS)
_DIRECTED_KINDS = {kind for kind, entry in _ckernel._KINDS.items() if entry.directed}

DEFAULT_TERRACE_CAP = 16
DEFAULT_DIRECTED_CAP = 24
DEFAULT_SEARCH_CAP = 64


class BudgetExceeded(RuntimeError):
    """A budgeted search ran out of nodes before exhausting its space."""


@dataclass(frozen=True)
class EnumMode:
    """What to enumerate: kind, T_k depth, and result shape."""

    kind: str
    k: int = 1
    count_only: bool = True
    essentially_different: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown enumeration kind {self.kind!r}")
        tk = _ckernel._KINDS[self.kind].tk  # only a T_k kind takes k >= 2, and it needs one
        if (self.k < 2) if tk else (self.k != 1):
            raise ValueError(f"{self.kind} takes k {'>= 2' if tk else '= 1'}, got k={self.k}")

    def label(self) -> str:
        return f"directed_t{self.k}" if self.k > 1 else self.kind


@dataclass
class EnumResult:
    raw_count: int
    essential_count: int | None = None
    witnesses: tuple[Arrangement, ...] | None = None


def _check_group(group: Group, mode: EnumMode) -> None:
    """Refuse a kind with a layer 2 on an even order, and a T_k depth past n - 1."""
    n = group.order
    if _ckernel._KINDS[mode.kind].layer2 and n % 2 == 0:
        raise ValueError(f"{mode.kind} enumeration requires odd group order, got {n}")
    if n > 1 and mode.k > n - 1:
        raise ValueError(f"k={mode.k} out of range 1..{n - 1}")


# ---------------------------------------------------------------------------
# The search kernel


def _dfs(
    group: Group,
    mode: EnumMode,
    prune: bool = False,
    sink: list | None = None,
    limit: int | None = None,
    budget: list[int] | None = None,
    prefix: tuple[int, ...] = (),
    stop_at: int | None = None,
) -> int:
    """Number of leaves (complete arrangements of mode.kind) below a_1 = e.

    prune turns on orderly pruning by Aut(group): a prefix that some
    automorphism maps to a lexicographically smaller one has no canonical
    completion, so only canonical forms are reached.  With sink set every
    leaf is appended to it and the search stops after `limit` of them.
    budget is a one-cell node allowance; every call of the inner recursion
    spends one node.

    prefix resumes the search below a live prefix (a_2, ..., a_{d+1}), as
    `_live_prefixes` returns it: its entries are placed before the search
    starts.  stop_at (below `_end_depth`) cuts the search at that depth and
    appends each surviving prefix (a_2, ..., a_{stop_at+1}) to sink.

    The walk runs in the compiled kernel (`_ckernel`), which takes the
    group and the kind and reports each leaf through one callback.  At
    order 1 the one leaf, of every kind, is (e).
    """
    end = _end_depth(group.order, mode.kind) if stop_at is None else stop_at
    leaf = None
    if sink is not None and stop_at is not None:
        def leaf(seq):
            sink.append(tuple(seq[1 : end + 1]))
    elif sink is not None:
        def leaf(seq):
            sink.append(Arrangement(group, tuple(seq)))
            return limit is not None and len(sink) >= limit
    leaves = _ckernel.load().dfs(group, mode.kind, mode.k, end, prune, prefix, budget, leaf)
    if leaves < 0:
        raise BudgetExceeded("search node budget exhausted")
    return leaves


def _end_depth(n: int, kind: str) -> int:
    """Depth of the last free choice: a_n, or the middle entry of a mirrored kind."""
    return (n - 1) // 2 if _ckernel._KINDS[kind].mirrored else n - 1


# ---------------------------------------------------------------------------
# Public surface


def _default_cap(kind: str) -> int:
    return DEFAULT_DIRECTED_CAP if kind in _DIRECTED_KINDS else DEFAULT_TERRACE_CAP


# Parallel counts (see the module docstring), on a forked pool whose
# workers read the group, its tables and its automorphisms from the
# parent's memory, so a task carries only (index, mode, prefix).

_SPLIT_DEPTH = 2  # tasks are the live prefixes (a2, a3)
# Groups of smaller order count in one process.  Where the pool pays off
# depends on the host.  With the compiled kernel on a 2-vCPU host, four
# sets of 7 count_table runs each gave these medians, one process against
# a two-worker pool: at order 12 the pool broke even (Z12 53-64 against
# 50-65 ms); from order 13 it mostly won (D14 124-151 against 87-92 ms,
# Z13 147-183 against 103-216 ms, whose best runs were 141-180 against
# 94-117 ms).
_FORK_MIN_ORDER = 13
_POOL_TASK: Callable | None = None  # the task function, set in each pool worker


def _live_prefixes(group: Group, mode: EnumMode, prune: bool) -> list[tuple[int, ...]]:
    """The prefixes (a2, a3) that pass every check of `_dfs`, in DFS order;
    [()], the whole tree, when the tree is too shallow to split."""
    if _end_depth(group.order, mode.kind) <= _SPLIT_DEPTH:
        return [()]
    out: list[tuple[int, ...]] = []
    _dfs(group, mode, prune, sink=out, stop_at=_SPLIT_DEPTH)
    return out


def usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity mask where the
    OS has one (a cgroup cpuset narrows it too), else the host's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _set_pool_task(fn: Callable) -> None:
    global _POOL_TASK
    _POOL_TASK = fn


def _run_pool_task(task):
    return _POOL_TASK(task)


@contextmanager
def _forked_map(threads: int, fn: Callable, tasks: list) -> Iterator[Iterator]:
    """fn over tasks, yielded as an iterator of the results in task order:
    on a pool of min(threads, usable cpus, tasks) forked processes, or a
    plain map when that is 1.  fn reaches each worker through the fork,
    not pickled, so it may close over a group and its tables; only the
    tasks and the results are pickled.  Leaving the block stops the
    workers still running."""
    workers = min(threads, usable_cpus(), len(tasks))
    if workers <= 1:
        yield map(fn, tasks)
        return
    _ckernel.load()  # in the parent, so that the workers inherit it built
    with multiprocessing.get_context("fork").Pool(workers, _set_pool_task, (fn,)) as pool:
        yield pool.imap(_run_pool_task, tasks)


def _count(group: Group, modes, prune: bool, threads: int) -> list[int]:
    """Leaf counts of the count-only `modes`, which are all essential
    (prune set) or all not: one `_dfs` walk each, or, with threads > 1 and
    order at least _FORK_MIN_ORDER, tasks split by live prefix over
    `_forked_map`."""
    if threads <= 1 or group.order < _FORK_MIN_ORDER:
        return [_dfs(group, mode, prune) for mode in modes]
    tasks = [(i, mode, p) for i, mode in enumerate(modes) for p in _live_prefixes(group, mode, prune)]
    totals = [0] * len(modes)

    def count(task):
        i, mode, prefix = task
        return i, _dfs(group, mode, prune, prefix=prefix)

    with _forked_map(threads, count, tasks) as results:
        for i, leaves in results:
            totals[i] += leaves
    return totals


def enumerate_basic(
    group: Group,
    mode: EnumMode,
    cap: int | None = None,
    threads: int = 1,
    max_witnesses: int | None = None,
) -> EnumResult:
    """Count (and optionally collect) basic sequences of the given kind.

    With essentially_different set, only canonical forms are visited and
    the essential count is the number of them; the free Aut-action makes
    the raw count exactly essential * |Aut(G)|.  A count with threads > 1
    of a group of order 13 or more is split by live prefix over one forked
    pool; witness collection runs in one process.
    """
    if max_witnesses is not None and max_witnesses < 1:
        raise ValueError(f"max_witnesses must be at least 1, got {max_witnesses}")
    cap = _default_cap(mode.kind) if cap is None else cap
    if group.order > cap:
        raise ValueError(f"enumeration capped at order {cap}, group has {group.order}")
    _check_group(group, mode)
    prune = mode.essentially_different
    witnesses = None
    if not mode.count_only:
        if threads != 1:
            raise ValueError("witness collection runs single-threaded")
        sink: list[Arrangement] = []
        leaves = _dfs(group, mode, prune, sink=sink, limit=max_witnesses)
        witnesses = tuple(sink)
    else:
        [leaves] = _count(group, [mode], prune, threads)

    if mode.essentially_different:
        return EnumResult(leaves * len(automorphisms(group)), leaves, witnesses)
    return EnumResult(leaves, None, witnesses)


def count_table(group: Group, threads: int = 1) -> tuple[int, int]:
    """(t, d): essentially different terraces and directed terraces, |G| <= 15."""
    if group.order > 15:
        raise ValueError(f"count_table covers orders up to 15, group has {group.order}")
    modes = [EnumMode(kind, essentially_different=True) for kind in ("terrace", "directed")]
    t, d = _count(group, modes, True, threads)
    return t, d


def search_first(
    group: Group,
    mode: EnumMode,
    cap: int = DEFAULT_SEARCH_CAP,
    max_nodes: int | None = None,
) -> Arrangement | None:
    """The lexicographically least witness, or None after exhausting the space.

    A None return is a nonexistence certificate; running past `max_nodes`
    raises BudgetExceeded instead.  The walk prunes by Aut(G) up to order
    DEFAULT_AUT_CAP, which leaves the witness unchanged (it is a canonical
    form) and only lowers the node count.  Elementary abelian 2-groups,
    where every non-identity element is an involution, are walked unpruned:
    |Aut(E_{2^m})| = |GL(m, 2)| grows like 2^(m^2), and listing it for E32
    takes over a minute.  essentially_different is ignored here.
    """
    if group.order > cap:
        raise ValueError(f"search capped at order {cap}, group has {group.order}")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be at least 0, got {max_nodes}")
    _check_group(group, mode)
    elementary_2 = all(x == y for x, y in enumerate(group.inv))
    prune = group.order <= DEFAULT_AUT_CAP and not elementary_2
    sink: list[Arrangement] = []
    budget = None if max_nodes is None else [max_nodes]
    _dfs(group, mode, prune, sink=sink, limit=1, budget=budget)
    return sink[0] if sink else None
