"""Latin squares from arrangements and their completeness certificates.

The square built from an arrangement a has (i, j) entry a_i^-1 * a_j; group
cancellation makes it Latin for any arrangement.  A directed terrace gives a
complete square, a terrace a quasi-complete one, and a directed T_k-terrace
a k-complete one.  `certify` counts occurrences exactly, in C from the
cells alone (its Python oracle is in `tests/oracles.py`), and reports a
re-verifiable witness for the first failure it sees.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from . import _ckernel
from .props import Arrangement

__all__ = [
    "LatinSquare",
    "SquareCertificate",
    "square_from",
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
        n, cells = self.order, self.cells
        if len(cells) != n or any(len(row) != n for row in cells):
            raise ValueError(f"cells are not {n} rows of {n}")
        full = set(range(n))
        for r, row in enumerate(cells):
            if set(row) != full:
                raise ValueError(f"row {r} is not a permutation of 0..{n - 1}")
        for c, column in enumerate(zip(*cells)):
            if set(column) != full:
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
        return asdict(self)


def square_from(a: Arrangement) -> LatinSquare:
    """cells[i][j] = a_i^-1 * a_j; row 0 of a basic arrangement's square is
    the arrangement itself and the diagonal is constantly the identity."""
    g = a.group
    ldiv = g.ldiv
    cells = tuple(tuple(ldiv[x][y] for y in a.seq) for x in a.seq)
    return LatinSquare(g.order, cells, g.spec, a.seq)


def certify(sq: LatinSquare) -> SquareCertificate:
    """The square's certificate, worked out from its cells alone by the
    compiled `_ckernel.terraces_certify`; each witness is the first failure
    in row order, re-verifiable by reading the cells it names."""
    n, cells = sq.order, sq.cells
    rows, cols = _ckernel.load().certify(n, cells)
    row_ok, r0, c0, r, c, quasi_ok, x, y, count, roman = rows
    row_wit = quasi_wit = None
    if not row_ok:
        row_wit = {"pair": [cells[r][c], cells[r][c + 1]], "offset": 1,
                   "positions": [[r0, c0], [r, c]]}
    if not quasi_ok:
        quasi_wit = {"pair": [x, y], "offset": 1, "count": count,
                     "positions": [[i, j] for i, row in enumerate(cells) for j in range(n - 1)
                                   if (row[j], row[j + 1]) in ((x, y), (y, x))]}
    return SquareCertificate(
        row_complete=bool(row_ok),
        complete=bool(row_ok and cols[0]),
        row_quasi_complete=bool(quasi_ok),
        quasi_complete=bool(quasi_ok and cols[5]),
        roman_k_max=roman,
        k_complete_max=min(roman, cols[9]),
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
