"""Latin squares from arrangements and their completeness certificates.

The square built from an arrangement a has (i, j) entry a_i^-1 * a_j; group
cancellation makes it Latin for any arrangement.  A directed terrace gives a
complete square, a terrace a quasi-complete one, and a directed T_k-terrace
a k-complete one.  A square keeps its cells as one row-major int array of
n^2: `square_from` builds it, every `LatinSquare` checks it, and `certify`
counts occurrences in it exactly, each in one compiled call (their Python
oracles are in `tests/oracles.py`); `certify` reports a re-verifiable
witness for the first failure it sees.  Rows of tuples, `LatinSquare.rows`,
are made only for output and witnesses.
"""

from __future__ import annotations

import json
from array import array
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
    """cells, any ints read row-major and kept as an int array; ValueError
    unless they are an order x order Latin square on 0..order-1."""

    order: int
    cells: array
    group_spec: str = ""
    source: tuple[int, ...] | None = None

    def __post_init__(self):
        if not (isinstance(self.cells, array) and self.cells.typecode == "i"):
            object.__setattr__(self, "cells", array("i", self.cells))
        _ckernel.load().latin(self.order, self.cells)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        n, cells = self.order, self.cells
        return tuple(tuple(cells[r * n:(r + 1) * n]) for r in range(n))


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
    return LatinSquare(g.order, _ckernel.load().square(g, a.seq), g.spec, a.seq)


def certify(sq: LatinSquare) -> SquareCertificate:
    """The square's certificate, worked out from its cells alone by the
    compiled `_ckernel.terraces_certify`; each witness is the first failure
    in row order, re-verifiable by reading the cells it names."""
    n, cells = sq.order, sq.cells
    rows, cols = _ckernel.load().certify(n, cells)
    row_ok, r0, c0, r, c, quasi_ok, x, y, count, roman = rows
    row_wit = quasi_wit = None
    if not row_ok:
        row_wit = {"pair": [cells[r * n + c], cells[r * n + c + 1]], "offset": 1,
                   "positions": [[r0, c0], [r, c]]}
    if not quasi_ok:
        quasi_wit = {"pair": [x, y], "offset": 1, "count": count,
                     "positions": [[i, j] for i, row in enumerate(sq.rows) for j in range(n - 1)
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
    return "".join(",".join(str(x) for x in row) + "\n" for row in sq.rows)


def square_to_json(sq: LatinSquare, words: tuple[str, ...] | None = None) -> str:
    payload: dict = {
        "order": sq.order,
        "group": sq.group_spec,
        "cells": [list(row) for row in sq.rows],
    }
    if sq.source is not None:
        payload["source_elements"] = list(sq.source)
    if words is not None:
        payload["words"] = [[words[x] for x in row] for row in sq.rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
