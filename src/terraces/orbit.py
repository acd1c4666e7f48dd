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
C (`_ckernel.terraces_neighbours`), with `_moves` and a least image under
Aut(G) as its oracle and as the silent fallback where the C code cannot
be built; both give the same forms in the same order.  The chain walk
`explore_chain(walecki(14), 5000)` takes about 0.08 s compiled and 0.7 s
in Python (Python 3.11, one core).
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import chain
from typing import Callable

from . import _ckernel
from .groups import Group, _class_data, automorphisms
from .hillclimb import _FLAT_MOVES, _MOVES, _materialize
from .props import Arrangement, canonical_form, is_terrace

__all__ = ["two_piece_moves", "orbit_of", "explore_chain"]


def _moves(g: Group, seq: tuple[int, ...], allow_piece_reversal: bool) -> list[tuple[int, ...]]:
    """The based terraces one move away from the terrace `seq`, first
    occurrences in order: the whole reversal, then the move table cut by cut."""
    ldiv, cls = g.ldiv, _class_data(g)[2]
    row = ldiv[seq[-1]]
    out = {tuple(row[x] for x in reversed(seq)): None}
    for c in range(1, len(seq)):
        ends = (seq[0], seq[c], seq[c - 1], seq[-1])
        for order, mask, ((i, j),), ((k, l),) in _MOVES[2, allow_piece_reversal][1]:
            if cls[ldiv[ends[i]][ends[j]]] == cls[ldiv[ends[k]][ends[l]]]:
                cand = _materialize(seq, (c,), order, mask)
                row = ldiv[cand[0]]
                out[tuple(row[x] for x in cand)] = None
    return list(out)


def two_piece_moves(a: Arrangement, allow_piece_reversal: bool) -> list[Arrangement]:
    """The whole reversal, then the terrace one-cut reassemblies (pieces
    swapped, and reversed when the flag allows), re-based and deduplicated."""
    if not is_terrace(a):
        raise ValueError("two_piece_moves is defined on terraces")
    return [Arrangement(a.group, s) for s in _moves(a.group, a.seq, allow_piece_reversal)]


def orbit_of(a: Arrangement) -> dict[tuple[int, ...], Arrangement]:
    """Closure under no-piece-reversal moves, collapsed to canonical forms:
    {canonical form: its arrangement}, in discovery order."""
    return _closure(a, allow_piece_reversal=False)[0]


def _neighbour_forms(g: Group, allow_piece_reversal: bool) -> Callable[[tuple[int, ...]], list]:
    """seq -> the canonical forms of the neighbours `_moves` gives for the
    terrace seq, in its order: computed by the compiled kernel, which also
    lists a form again for each repeated neighbour, or by `_moves` and a
    least image under Aut(g) where the kernel cannot be built."""
    auts = automorphisms(g)
    kernel = _ckernel.load()
    if kernel is None:
        return lambda seq: [min(tuple(phi[x] for x in nb) for phi in auts)
                            for nb in _moves(g, seq, allow_piece_reversal)]
    n = g.order
    _pairs, moves, shapes = _FLAT_MOVES[2, allow_piece_reversal]
    ldiv = array("i", chain.from_iterable(g.ldiv))
    cls = array("i", _class_data(g)[2])
    flat_auts = array("i", chain.from_iterable(auts))
    out = array("i", [0]) * (n * (1 + (n - 1) * (len(shapes) // 3)))

    def forms(seq):
        count = kernel.neighbours(moves, shapes, array("i", seq), ldiv, cls, flat_auts, out)
        it = iter(out[: count * n])
        return list(zip(*[it] * n))  # n entries at a time: the forms as tuples

    return forms


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
