"""Terrace-preserving cut-and-reassemble moves.

Cutting a terrace into two pieces and regluing them can give a new terrace;
forbidding piece reversal but allowing whole reversal generates an orbit of
terraces whose essential size divides 4 or 6.  Allowing single-piece
reversal instead chains through much larger families, which is the cheap
way to hunt for special members (extendable terraces in particular) once a
single terrace is known.

The moves are the climber's one-cut move table, in its order.  A move
breaks one junction and forms one; every other quotient is kept, or
inverted inside a reversed piece, which keeps its inverse-pair class.  So
the result is a terrace exactly when the new junction's quotient is in the
broken one's class, and only those results are built (re-basing keeps
every quotient).  Closures work over canonical forms, so the counts are
counts of essentially different terraces.

A closure step, the canonical forms of one terrace's neighbours, runs in
C (`_ckernel.terraces_neighbours`), which owns the move table and picks
it from the reversal flag; `_neighbour_forms` binds it for one group.
`two_piece_moves` is the same step with the identity as the only
automorphism.  Its Python twin, `neighbour_forms` in `tests/oracles.py`,
takes `oracles._moves` and a least image under Aut(G) of each; the tests
hold the two to the same forms in the same order.  The chain walk
`explore_chain(walecki(14), 5000)` takes about 0.08 s compiled and 0.7 s
in Python (Python 3.11, one core).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from . import _ckernel
from .groups import Group
from .props import Arrangement, canonical_form, is_terrace

__all__ = ["two_piece_moves", "orbit_of", "explore_chain"]


def two_piece_moves(a: Arrangement, allow_piece_reversal: bool) -> list[Arrangement]:
    """The whole reversal, then the terrace one-cut reassemblies (pieces
    swapped, and reversed when the flag allows), re-based and deduplicated."""
    if not is_terrace(a):
        raise ValueError("two_piece_moves is defined on terraces")
    based = _neighbour_forms(a.group, allow_piece_reversal, canonical=False)(a.seq)
    return [Arrangement(a.group, s) for s in dict.fromkeys(based)]


def orbit_of(a: Arrangement) -> dict[tuple[int, ...], Arrangement]:
    """Closure under no-piece-reversal moves, collapsed to canonical forms:
    {canonical form: its arrangement}, in discovery order."""
    return _closure(a, allow_piece_reversal=False)[0]


def _neighbour_forms(g: Group, allow_piece_reversal: bool,
                     canonical: bool = True) -> Callable[[tuple[int, ...]], list]:
    """seq -> the re-based neighbours of the terrace seq in the order of the
    move table, each taken to its canonical form when canonical is set,
    computed by the compiled kernel, which also lists a neighbour again for
    each repeat."""
    return _ckernel.load().neighbours(g, allow_piece_reversal, canonical)


def _closure(
    a: Arrangement,
    allow_piece_reversal: bool,
    predicate: Callable[[Arrangement], bool] | None = None,
    limit: int | None = None,
) -> tuple[dict[tuple[int, ...], Arrangement], Arrangement | None]:
    if not is_terrace(a):
        raise ValueError("closure is defined on terraces")
    g = a.group
    neighbour_forms = _neighbour_forms(g, allow_piece_reversal)
    start = canonical_form(a)
    forms = {start.seq: start}
    if predicate is not None and predicate(start):
        return forms, start
    queue = deque([start.seq])
    while queue:
        for cf in neighbour_forms(queue.popleft()):
            if cf in forms:
                continue
            rep = forms[cf] = Arrangement(g, cf)
            if predicate is not None and predicate(rep):
                return forms, rep
            if limit is not None and len(forms) >= limit:
                return forms, None
            queue.append(cf)
    return forms, None


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
    forms, witness = _closure(a, allow_piece_reversal=True, predicate=predicate, limit=limit)
    return witness, len(forms)
