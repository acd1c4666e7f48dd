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

A closure is one call of C (`_ckernel.terraces_closure`, via `_walk`): it
steps each form in discovery order, drops repeats in a hash set and calls
back for new forms only, which `_closure` checks as `Arrangement`s and
offers to the predicate.  Its step lists the moves of the 2-piece table
that keep a terrace and takes the canonical form of each.  The tests hold
the closure to its Python twin in `tests/oracles.py`, which steps with
the same moves in Python (`oracles._moves`), form for form.
`explore_chain(walecki(14), 5000)` takes about 0.02 s compiled (0.04 s
with `is_extendable` as the predicate) and 0.5 s in Python (Python 3.11,
one process).
"""

from __future__ import annotations

from typing import Callable

from . import _ckernel
from .groups import Group
from .props import Arrangement, is_terrace

__all__ = ["orbit_of", "explore_chain"]


def orbit_of(a: Arrangement) -> dict[tuple[int, ...], Arrangement]:
    """Closure under no-piece-reversal moves, collapsed to canonical forms:
    {canonical form: its arrangement}, in discovery order."""
    return _closure(a, allow_piece_reversal=False)[0]


def _walk(g: Group, allow_piece_reversal: bool, seq: tuple[int, ...],
          visit: Callable[[tuple[int, ...]], bool], limit: int | None) -> int:
    """The compiled closure, `Kernel.closure`: visit(form) for each new
    canonical form; returns the number visited."""
    return _ckernel.load().closure(g, allow_piece_reversal, seq, visit, limit)


def _closure(a: Arrangement, allow_piece_reversal: bool, predicate: Callable[[Arrangement], bool] | None = None,
             limit: int | None = None) -> tuple[dict[tuple[int, ...], Arrangement], Arrangement | None]:
    """({canonical form: its arrangement} in discovery order, the first that
    predicate accepts or None) of the closure of the terrace a."""
    if not is_terrace(a):
        raise ValueError("closure is defined on terraces")
    g = a.group
    forms: dict[tuple[int, ...], Arrangement] = {}
    witness = None

    def visit(form: tuple[int, ...]) -> bool:
        nonlocal witness
        rep = forms[form] = Arrangement(g, form)
        if predicate is not None and predicate(rep):
            witness = rep
        return witness is not None

    _walk(g, allow_piece_reversal, a.seq, visit, limit)
    return forms, witness


def explore_chain(
    a: Arrangement,
    limit: int,
    predicate: Callable[[Arrangement], bool],
) -> tuple[Arrangement | None, int]:
    """Breadth-first chain closure with single-piece reversal allowed.

    Stops as soon as `predicate` accepts a canonical representative, or
    once `limit` distinct canonical forms, the start's included, have been
    visited.  Returns the witness (or None) and the number visited.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    forms, witness = _closure(a, allow_piece_reversal=True, predicate=predicate, limit=limit)
    return witness, len(forms)
