"""Latin squares from arrangements and their completeness certificates.

The square built from an arrangement a has (i, j) entry a_i^-1 * a_j; group
cancellation makes it Latin for any arrangement.  A directed terrace gives a
complete square, a terrace a quasi-complete one, and a directed T_k-terrace
a k-complete one.  All checks count occurrences exactly and report a
re-verifiable witness for the first failure they see.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .props import Arrangement

__all__ = [
    "LatinSquare",
    "SquareCertificate",
    "square_from",
    "transpose",
    "check_row_complete",
    "check_row_quasi_complete",
    "check_complete",
    "check_quasi_complete",
    "roman_k_max",
    "k_complete_max",
    "certify",
    "square_to_csv",
    "square_to_json",
]


@dataclass(frozen=True)
class LatinSquare:
    order: int
    cells: tuple[tuple[int, ...], ...]
    group_spec: str = ""
    source: tuple[int, ...] | None = None

    def __post_init__(self):
        n = self.order
        full = set(range(n))
        for r, row in enumerate(self.cells):
            if set(row) != full:
                raise ValueError(f"row {r} is not a permutation of 0..{n - 1}")
        for c in range(n):
            if {row[c] for row in self.cells} != full:
                raise ValueError(f"column {c} is not a permutation of 0..{n - 1}")


@dataclass(frozen=True)
class SquareCertificate:
    row_complete: bool
    complete: bool
    row_quasi_complete: bool
    quasi_complete: bool
    roman_k_max: int
    k_complete_max: int
    row_witness: dict | None = None
    quasi_witness: dict | None = None

    def to_dict(self) -> dict:
        return {
            "row_complete": self.row_complete,
            "complete": self.complete,
            "row_quasi_complete": self.row_quasi_complete,
            "quasi_complete": self.quasi_complete,
            "roman_k_max": self.roman_k_max,
            "k_complete_max": self.k_complete_max,
            "row_witness": self.row_witness,
            "quasi_witness": self.quasi_witness,
        }


def square_from(a: Arrangement) -> LatinSquare:
    """cells[i][j] = a_i^-1 * a_j; row 0 of a basic arrangement's square is
    the arrangement itself and the diagonal is constantly the identity."""
    g = a.group
    ldiv = g.ldiv
    cells = tuple(tuple(ldiv[x][y] for y in a.seq) for x in a.seq)
    return LatinSquare(g.order, cells, g.spec, a.seq)


def transpose(sq: LatinSquare) -> LatinSquare:
    cells = tuple(tuple(sq.cells[c][r] for c in range(sq.order)) for r in range(sq.order))
    return LatinSquare(sq.order, cells, sq.group_spec, None)


def _offset_repeat(sq: LatinSquare, m: int) -> dict | None:
    """First ordered pair occurring twice at horizontal offset m, or None."""
    n = sq.order
    first: dict[int, tuple[int, int]] = {}
    for r, row in enumerate(sq.cells):
        for c in range(n - m):
            key = row[c] * n + row[c + m]
            if key in first:
                r0, c0 = first[key]
                return {
                    "pair": [row[c], row[c + m]],
                    "offset": m,
                    "positions": [[r0, c0], [r, c]],
                }
            first[key] = (r, c)
    return None


def check_row_complete(sq: LatinSquare) -> tuple[bool, dict | None]:
    """Each ordered pair of symbols adjacent within rows exactly once.

    There are exactly n(n-1) adjacent slots, so no repeat means every pair
    occurs; the witness is the first repeated pair.
    """
    witness = _offset_repeat(sq, 1) if sq.order > 1 else None
    return witness is None, witness


def check_row_quasi_complete(sq: LatinSquare) -> tuple[bool, dict | None]:
    """Each unordered pair adjacent within rows exactly twice (either order)."""
    n = sq.order
    counts = [0] * (n * n)
    for row in sq.cells:
        for x, y in zip(row, row[1:]):
            counts[(x * n + y) if x < y else (y * n + x)] += 1
    for x in range(n):
        for y in range(x + 1, n):
            key = x * n + y
            if counts[key] != 2:
                return False, {
                    "pair": [x, y],
                    "offset": 1,
                    "count": counts[key],
                    "positions": [[r, c] for r, row in enumerate(sq.cells)
                                  for c in range(n - 1) if {row[c], row[c + 1]} == {x, y}],
                }
    return True, None


def check_complete(sq: LatinSquare) -> bool:
    return check_row_complete(sq)[0] and check_row_complete(transpose(sq))[0]


def check_quasi_complete(sq: LatinSquare) -> bool:
    return check_row_quasi_complete(sq)[0] and check_row_quasi_complete(transpose(sq))[0]


def roman_k_max(sq: LatinSquare) -> int:
    """Largest k such that every ordered pair occurs at most once at every
    horizontal offset m <= k; 0 when even offset 1 fails."""
    k = 0
    while k < sq.order - 1 and _offset_repeat(sq, k + 1) is None:
        k += 1
    return k


def k_complete_max(sq: LatinSquare) -> int:
    return min(roman_k_max(sq), roman_k_max(transpose(sq)))


def certify(sq: LatinSquare) -> SquareCertificate:
    t = transpose(sq)
    row_ok, row_wit = check_row_complete(sq)
    quasi_ok, quasi_wit = check_row_quasi_complete(sq)
    roman = roman_k_max(sq)
    return SquareCertificate(
        row_complete=row_ok,
        complete=row_ok and check_row_complete(t)[0],
        row_quasi_complete=quasi_ok,
        quasi_complete=quasi_ok and check_row_quasi_complete(t)[0],
        roman_k_max=roman,
        k_complete_max=min(roman, roman_k_max(t)),
        row_witness=row_wit,
        quasi_witness=quasi_wit,
    )


# ---------------------------------------------------------------------------
# Serialization.  CSV: UTF-8, one row per line, ids comma-joined with no
# trailing separator, every line (including the last) terminated by LF.
# JSON: sorted keys, two-space indent, trailing LF.


def square_to_csv(sq: LatinSquare) -> str:
    return "".join(",".join(str(x) for x in row) + "\n" for row in sq.cells)


def square_to_json(sq: LatinSquare, words: tuple[str, ...] | None = None) -> str:
    payload: dict = {
        "order": sq.order,
        "group": sq.group_spec,
        "cells": [list(row) for row in sq.cells],
    }
    if sq.source is not None:
        payload["source_elements"] = list(sq.source)
    if words is not None:
        payload["words"] = [[words[x] for x in row] for row in sq.cells]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
