"""Terrace-preserving cut-and-reassemble moves.

Cutting a terrace into two pieces and regluing them can give a new terrace;
forbidding piece reversal but allowing whole reversal generates an orbit of
terraces whose essential size divides 4 or 6.  Allowing single-piece
reversal instead chains through much larger families, which is the cheap
way to hunt for special members (extendable terraces in particular) once a
single terrace is known.

Closures work over canonical forms, so the counts are counts of
essentially different terraces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .groups import Group
from .props import Arrangement, canonical_form, is_terrace, reverse, to_basic

__all__ = ["TerraceSet", "two_piece_moves", "orbit_of", "explore_chain"]


@dataclass
class TerraceSet:
    """Canonical forms reached by a closure, with one representative each."""

    group: Group
    members: dict[tuple[int, ...], Arrangement] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, a: Arrangement) -> bool:
        return canonical_form(a).seq in self.members


def two_piece_moves(a: Arrangement, allow_piece_reversal: bool) -> list[Arrangement]:
    """Terrace outputs of one-cut reassemblies, plus the whole reversal.

    Pieces may be swapped, and reversed when the flag allows; results are
    re-based with to_basic and deduplicated, keeping only terraces.  The
    whole-sequence reversal is always included (it is always a terrace).
    """
    if not is_terrace(a):
        raise ValueError("two_piece_moves is defined on terraces")
    g = a.group
    n = g.order
    seq = list(a.seq)
    out: list[Arrangement] = []
    seen: set[tuple[int, ...]] = set()

    def push(cand: Arrangement) -> None:
        based = to_basic(cand)
        if based.seq not in seen and is_terrace(based):
            seen.add(based.seq)
            out.append(based)

    push(to_basic(reverse(a)))
    masks = (0, 1, 2, 3) if allow_piece_reversal else (0,)
    for c in range(1, n):
        head, tail = seq[:c], seq[c:]
        for order in ((0, 1), (1, 0)):
            for mask in masks:
                if order == (0, 1) and mask == 0:
                    continue
                p0 = head[::-1] if mask & 1 else head
                p1 = tail[::-1] if mask & 2 else tail
                cand = p0 + p1 if order == (0, 1) else p1 + p0
                push(Arrangement(g, tuple(cand)))
    return out


def orbit_of(a: Arrangement) -> TerraceSet:
    """Closure under no-piece-reversal moves, collapsed to canonical forms."""
    return _closure(a, allow_piece_reversal=False)[0]


def _closure(
    a: Arrangement,
    allow_piece_reversal: bool,
    predicate: Callable[[Arrangement], bool] | None = None,
    limit: int | None = None,
) -> tuple[TerraceSet, Arrangement | None]:
    if not is_terrace(a):
        raise ValueError("closure is defined on terraces")
    start = canonical_form(a)
    ts = TerraceSet(a.group)
    ts.members[start.seq] = start
    if predicate is not None and predicate(start):
        return ts, start
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nb in two_piece_moves(cur, allow_piece_reversal):
            cf = canonical_form(nb)
            if cf.seq in ts.members:
                continue
            ts.members[cf.seq] = cf
            if predicate is not None and predicate(cf):
                return ts, cf
            if limit is not None and len(ts.members) >= limit:
                return ts, None
            queue.append(cf)
    return ts, None


def explore_chain(
    a: Arrangement,
    limit: int,
    predicate: Callable[[Arrangement], bool],
) -> tuple[Arrangement | None, int]:
    """Breadth-first chain closure with single-piece reversal allowed.

    Stops as soon as `predicate` accepts a canonical representative, or
    once `limit` distinct canonical forms have been seen.  Returns the
    witness (or None) and the number of forms visited.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    ts, witness = _closure(a, allow_piece_reversal=True, predicate=predicate, limit=limit)
    return witness, len(ts)
