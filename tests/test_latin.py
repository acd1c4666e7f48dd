from __future__ import annotations

import json

import pytest

import oracles
from conftest import basic_arrangements, get_group, random_arrangement
from terraces import hillclimb as H
from terraces import latin as L
from terraces import props as P
from terraces.enumerate import EnumMode, enumerate_basic


def test_square_from_basics():
    a = P.Arrangement(get_group("Z4"), (0, 1, 3, 2))
    sq = L.square_from(a)
    assert all(sq.cells[i][i] == 0 for i in range(4))
    assert sq.cells[0] == (0, 1, 3, 2)  # row 0 of a basic arrangement
    assert sq.cells[1][3] == 1


def test_square_from_is_always_latin(rng):
    for spec in ["Z7", "D8", "Q12", "A4", "G21_1"]:
        g = get_group(spec)
        L.square_from(random_arrangement(g, rng))  # constructor validates


def test_latin_square_validation_rejects_bad_cells():
    with pytest.raises(ValueError):
        L.LatinSquare(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        L.LatinSquare(2, ((0, 0), (1, 1)))


@pytest.mark.parametrize("cells", [((0, 1), (1, 0), (0, 1)), ((0, 1, 1), (1, 0))])
def test_latin_square_validation_rejects_cells_not_n_by_n(cells):
    """Three rows for order 2, and a row of three, are refused although
    every row and column holds the symbols 0 and 1."""
    with pytest.raises(ValueError, match="2 rows of 2"):
        L.LatinSquare(2, cells)


def test_row_complete_examples():
    directed = P.Arrangement(get_group("Z6"), (0, 1, 5, 2, 4, 3))
    cert = L.certify(L.square_from(directed))
    assert cert.row_complete and cert.row_witness is None
    straight = P.Arrangement(get_group("Z6"), (0, 1, 2, 3, 4, 5))
    cert = L.certify(L.square_from(straight))
    assert not cert.row_complete
    wit = cert.row_witness
    # witness is re-verifiable by direct cell reads
    sq = L.square_from(straight)
    (r1, c1), (r2, c2) = wit["positions"]
    x, y = wit["pair"]
    m = wit["offset"]
    assert sq.cells[r1][c1] == x and sq.cells[r1][c1 + m] == y
    assert sq.cells[r2][c2] == x and sq.cells[r2][c2 + m] == y


def test_order_one_square_is_trivially_everything():
    sq = L.square_from(P.Arrangement(get_group("Z1"), (0,)))
    cert = L.certify(sq)
    assert cert.row_complete and cert.complete
    assert cert.quasi_complete and cert.roman_k_max == 0


def test_directed_terrace_gives_complete_square():
    for seq in [(0, 1, 5, 2, 4, 3)]:
        sq = L.square_from(P.Arrangement(get_group("Z6"), seq))
        assert L.certify(sq).complete
    res = enumerate_basic(get_group("Q12"), EnumMode("directed", count_only=False), max_witnesses=4)
    for w in res.witnesses:
        assert L.certify(L.square_from(w)).complete


def test_terrace_gives_quasi_complete_square():
    g = get_group("Z5")
    for a in basic_arrangements(g):
        if P.is_terrace(a):
            assert L.certify(L.square_from(a)).quasi_complete


def test_non_terrace_of_e4_gives_non_quasi_complete_square():
    g = get_group("E4")
    for a in basic_arrangements(g):
        assert not P.is_terrace(a)
        assert not L.certify(L.square_from(a)).quasi_complete


def test_quasi_witness_reports_count():
    g = get_group("E4")
    sq = L.square_from(P.Arrangement(g, (0, 1, 2, 3)))
    cert = L.certify(sq)
    assert not cert.row_quasi_complete and cert.quasi_witness["count"] != 2
    assert cert.to_dict() == {
        "row_complete": False, "complete": False,
        "row_quasi_complete": False, "quasi_complete": False,
        "roman_k_max": 0, "k_complete_max": 0,
        "row_witness": {"pair": [2, 3], "offset": 1, "positions": [[0, 2], [2, 0]]},
        "quasi_witness": {"pair": [0, 1], "offset": 1, "count": 4,
                          "positions": [[0, 0], [1, 0], [2, 2], [3, 2]]},
    }


def test_roman_k_examples():
    g21 = get_group("G21_1")
    t2 = P.load_arrangement(__import__("terraces").fixture_path("g21_1_t2"), g21)
    sq = L.square_from(t2)
    assert sq.order == 21
    cert = L.certify(sq)
    assert cert.roman_k_max >= 2 and cert.k_complete_max >= 2


def test_directed_tk_terrace_gives_k_complete_square():
    for spec, k in [("Z4", 3), ("Z6", 3), ("A4", 2)]:
        from terraces.enumerate import search_first

        w = search_first(get_group(spec), EnumMode("directed_tk", k=k))
        assert w is not None
        assert L.certify(L.square_from(w)).k_complete_max >= k


def test_roman_k_max_at_most_order_minus_one():
    w = P.walecki(4)  # (0,1,3,2) is directed T3 for Z4: a Vatican square
    sq = L.square_from(w)
    cert = L.certify(sq)
    assert cert.roman_k_max == 3 == sq.order - 1


def test_certificate_invariants(rng):
    for spec in ["Z5", "Z6", "Z8", "D8"]:
        g = get_group(spec)
        for _ in range(30):
            cert = L.certify(L.square_from(random_arrangement(g, rng)))
            if cert.complete:
                assert cert.row_complete
            if cert.quasi_complete:
                assert cert.row_quasi_complete
            assert cert.k_complete_max <= cert.roman_k_max
            assert (cert.roman_k_max >= 1) == cert.row_complete
            assert cert.roman_k_max <= g.order - 1


def test_transpose_involution():
    sq = L.square_from(P.walecki(8))
    assert oracles.transpose(oracles.transpose(sq)).cells == sq.cells


def _agreement_squares(rng):
    """Squares that exercise every field and witness of the certificate."""
    for spec in ["Z1", "Z2", "Z3", "Z4", "E4", "Z5", "Z6", "D6"]:
        yield from map(L.square_from, basic_arrangements(get_group(spec)))
    more = {6: ["D6"], 8: ["D8", "Q8", "E8"], 12: ["Q12", "A4"], 16: ["D16"]}
    for n in range(1, 17):
        for spec in [f"Z{n}", *more.get(n, [])]:
            for _ in range(10):
                yield L.square_from(random_arrangement(get_group(spec), rng))
    for spec in [f"D{n}" for n in range(10, 33, 2)] + [f"Q{n}" for n in range(12, 33, 4)]:
        for seed in (1, 2, 3):
            found = H.climb(get_group(spec), H.ClimbParams(seed=seed)).arrangement
            assert found is not None, (spec, seed)
            yield L.square_from(found)
    for n in (2, 4, 64, 600):
        yield L.square_from(P.walecki(n))
    yield L.square_from(P.load_arrangement(__import__("terraces").fixture_path("g21_1_t2")))


def test_certify_agrees_with_the_oracle(rng):
    """The compiled certificate, witnesses included, equals the Python
    oracle's on every kind of square the library builds and on failures."""
    for sq in _agreement_squares(rng):
        assert L.certify(sq).to_dict() == oracles.certify(sq).to_dict(), sq.cells
    assert L.certify(L.square_from(P.walecki(4))).roman_k_max == 3  # Z4: Vatican


def test_certify_reads_columns_apart_from_rows():
    """Permuting the rows of a complete square keeps every row and breaks
    the columns; the certificate sees both."""
    sq = L.square_from(P.walecki(8))
    permuted = L.LatinSquare(8, (sq.cells[1], sq.cells[0], *sq.cells[2:]))
    cert = L.certify(permuted)
    assert cert.row_complete and not cert.complete
    assert cert.row_quasi_complete and not cert.quasi_complete
    assert cert.k_complete_max == 0 < cert.roman_k_max
    assert cert.to_dict() == oracles.certify(permuted).to_dict()


def test_csv_format_is_byte_exact():
    sq = L.square_from(P.Arrangement(get_group("Z3"), (0, 1, 2)))
    assert L.square_to_csv(sq) == "0,1,2\n2,0,1\n1,2,0\n"


def test_json_format_is_deterministic():
    a = P.walecki(5)
    sq = L.square_from(a)
    s1 = L.square_to_json(sq, a.group.element_words)
    s2 = L.square_to_json(sq, a.group.element_words)
    assert s1 == s2 and s1.endswith("\n")
    payload = json.loads(s1)
    assert payload["order"] == 5 and payload["cells"][0] == [0, 1, 4, 2, 3]
