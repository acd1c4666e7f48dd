from __future__ import annotations

import random

import pytest

from conftest import basic_arrangements, get_group, naive_is_terrace, random_arrangement
from terraces import groups as G
from terraces import props as P


def arr(spec, seq):
    return P.Arrangement(get_group(spec), tuple(seq))


def test_arrangement_validates():
    with pytest.raises(ValueError):
        arr("Z4", (0, 1, 2, 2))


def test_diff_list_examples():
    a = arr("Z6", (0, 1, 5, 2, 4, 3))
    assert P.diff_list(a, 1) == (1, 4, 3, 2, 5)
    assert P.diff_list(a, 2) == (5, 1, 5, 1)
    with pytest.raises(ValueError):
        P.diff_list(a, 6)


def test_diff_list_step_one_never_hits_identity(rng):
    for spec in ["Z7", "D8", "Q12"]:
        g = get_group(spec)
        for _ in range(50):
            a = random_arrangement(g, rng)
            assert 0 not in P.diff_list(a, 1)


def test_altitudes_examples():
    assert P.altitude_directed(arr("Z5", (0, 1, 4, 2, 3))) == 2
    assert P.altitude_directed(arr("Z6", (0, 1, 5, 2, 4, 3))) == 5
    assert P.altitude_undirected(arr("Z5", (0, 1, 4, 2, 3))) == 4
    assert P.altitude_undirected(arr("Z6", (0, 1, 5, 2, 4, 3))) == 5
    assert P.altitude_undirected(arr("Z2", (0, 1))) == 1


def test_altitude_bounds_and_equality_characterisation(rng):
    for spec in ["Z6", "D8", "Q12", "Z3xZ3"]:
        g = get_group(spec)
        n = g.order
        for _ in range(100):
            a = random_arrangement(g, rng)
            ad = P.altitude_directed(a)
            au = P.altitude_undirected(a)
            assert 0 <= ad <= n - 1 and 0 <= au <= n - 1
            assert (ad == n - 1) == P.is_directed_terrace(a)
            assert (au == n - 1) == P.is_terrace(a)


def test_directed_terrace_examples():
    assert P.is_directed_terrace(arr("Z6", (0, 1, 5, 2, 4, 3)))
    assert not P.is_directed_terrace(arr("Z5", (0, 1, 4, 2, 3)))
    assert P.is_directed_terrace(arr("Z4", (0, 1, 3, 2)))


def test_terrace_examples():
    assert P.is_terrace(arr("Z5", (0, 1, 4, 2, 3)))
    assert not P.is_terrace(arr("Z6", (0, 1, 2, 3, 4, 5)))
    e4 = get_group("E4")
    assert not any(P.is_terrace(a) for a in basic_arrangements(e4))


def test_is_terrace_matches_naive(rng):
    for spec in ["Z7", "Z8", "D8", "Q8"]:
        g = get_group(spec)
        for _ in range(200):
            a = random_arrangement(g, rng)
            assert P.is_terrace(a) == naive_is_terrace(a)


def test_to_basic():
    a = arr("Z5", (1, 2, 0, 3, 4))
    assert P.to_basic(a).seq == (0, 1, 4, 2, 3)
    b = arr("Z5", (0, 1, 4, 2, 3))
    assert P.to_basic(b).seq == b.seq


def test_to_basic_preserves_status_and_altitude(rng):
    g = get_group("Q8")
    for _ in range(100):
        a = random_arrangement(g, rng)
        b = P.to_basic(a)
        assert P.altitude_directed(a) == P.altitude_directed(b)
        assert P.altitude_undirected(a) == P.altitude_undirected(b)
        assert P.is_terrace(a) == P.is_terrace(b)


def test_left_translation_invariance(rng):
    for spec in ["Z9", "D10", "Q12"]:
        g = get_group(spec)
        for _ in range(40):
            a = random_arrangement(g, rng)
            for h in range(g.order):
                shifted = P.Arrangement(g, tuple(g.mul[h][x] for x in a.seq))
                assert P.altitude_directed(shifted) == P.altitude_directed(a)
                assert P.altitude_undirected(shifted) == P.altitude_undirected(a)


def test_reversal_preserves_terraces_and_altitudes(rng):
    for spec in ["Z9", "D10", "Q12"]:
        g = get_group(spec)
        for _ in range(100):
            a = random_arrangement(g, rng)
            r = P.reverse(a)
            assert P.altitude_directed(r) == P.altitude_directed(a)
            assert P.altitude_undirected(r) == P.altitude_undirected(a)
    w = P.walecki(9)
    assert P.is_terrace(P.reverse(w))


def test_automorphism_action_preserves_terraces(rng):
    for spec in ["Z8", "Q12"]:
        g = get_group(spec)
        auts = G.automorphisms(g)
        for _ in range(50):
            a = random_arrangement(g, rng)
            for phi in auts:
                image = P.apply_automorphism(a, phi)
                assert P.is_terrace(image) == P.is_terrace(a)
                assert P.is_directed_terrace(image) == P.is_directed_terrace(a)


def test_directed_tk_examples():
    z6 = arr("Z6", (0, 1, 5, 2, 4, 3))
    assert P.is_directed_tk(z6, 1)
    assert not P.is_directed_tk(z6, 2)  # b^(2) = (5,1,5,1)
    with pytest.raises(ValueError):
        P.is_directed_tk(z6, 6)


def test_symmetric_sequencing_examples():
    assert P.is_symmetric_sequencing(arr("Z6", (0, 1, 5, 2, 4, 3)))
    assert P.is_symmetric_sequencing(arr("Z4", (0, 1, 3, 2)))
    with pytest.raises(ValueError):  # Z5 is not binary
        P.is_symmetric_sequencing(arr("Z5", (0, 1, 4, 2, 3)))
    with pytest.raises(ValueError):  # binary but not a directed terrace
        P.is_symmetric_sequencing(arr("Z4", (0, 1, 2, 3)))


def test_extendable_small_orders_are_false():
    for spec, seq in [("Z5", (0, 1, 4, 2, 3)), ("Z6", (0, 1, 5, 2, 4, 3))]:
        ok, j = P.is_extendable(arr(spec, seq))
        assert not ok and j is None
    with pytest.raises(ValueError):
        P.is_extendable(arr("Z5", (1, 2, 0, 3, 4)))  # not basic


def test_extendable_z12_witness_exists():
    g = get_group("Z12")
    # scan the first basic terraces for an extendable one (oracle by scan)
    found = None
    for a in basic_arrangements(g):
        if P.is_terrace(a) and P.is_extendable(a)[0]:
            found = a
            break
    assert found is not None
    ok, j = P.is_extendable(found)
    assert ok and 5 <= j <= 11
    s, mul = found.seq, g.mul
    assert s[-1] == mul[s[1]][s[1]]
    assert mul[s[j - 2]][s[j]] == s[j - 1] == mul[s[j]][s[j - 2]]


def test_half_and_half_examples():
    assert P.is_half_and_half(arr("Z5", (0, 1, 4, 2, 3)))
    assert P.is_half_and_half(arr("Z5", (0, 4, 1, 3, 2)))  # b=(4,2,2,4)
    # (0,2,3,1,4) has b=(2,1,3,3): the {2,3} class occurs three times, so it
    # is not a terrace and cannot be half-and-half.
    assert not P.is_half_and_half(arr("Z5", (0, 2, 3, 1, 4)))
    with pytest.raises(ValueError):
        P.is_half_and_half(arr("Z6", (0, 1, 5, 2, 4, 3)))


def test_half_and_half_cross_check_on_z7():
    """First-half class counting must agree with the literal definition."""
    g = get_group("Z7")
    classes = G.inverse_pair_classes(g)
    for a in basic_arrangements(g):
        if not P.is_terrace(a):
            continue
        b = P.diff_list(a)
        first = b[:3]
        literal = all(sum(1 for v in first if v in cls) == 1 for cls in classes)
        assert P.is_half_and_half(a) == literal


def test_narcissistic_examples():
    assert P.is_narcissistic(arr("Z5", (0, 1, 4, 2, 3)))
    with pytest.raises(ValueError):
        P.is_narcissistic(arr("Z4", (0, 1, 3, 2)))


def test_narcissistic_implies_half_and_half():
    for spec in ["Z7", "Z9"]:
        g = get_group(spec)
        for a in basic_arrangements(g):
            if P.is_terrace(a) and P.is_narcissistic(a):
                assert P.is_half_and_half(a)


def test_canonical_form_examples():
    g = get_group("Z4")
    c1 = P.canonical_form(P.Arrangement(g, (0, 1, 3, 2)))
    c2 = P.canonical_form(P.Arrangement(g, (0, 3, 1, 2)))
    assert c1.seq == c2.seq


def test_canonical_form_idempotent_and_translation_invariant(rng):
    for spec in ["Z8", "D8"]:
        g = get_group(spec)
        for _ in range(50):
            a = random_arrangement(g, rng)
            c = P.canonical_form(a)
            assert P.canonical_form(c).seq == c.seq
            for h in range(g.order):
                shifted = P.Arrangement(g, tuple(g.mul[h][x] for x in a.seq))
                assert P.canonical_form(shifted).seq == c.seq


def test_canonical_form_constant_on_aut_orbits(rng):
    g = get_group("Q8")
    auts = G.automorphisms(g)
    for _ in range(30):
        a = random_arrangement(g, rng)
        c = P.canonical_form(a)
        for phi in auts:
            assert P.canonical_form(P.apply_automorphism(a, phi)).seq == c.seq


def test_walecki_examples():
    assert P.walecki(6).seq == (0, 1, 5, 2, 4, 3)
    assert P.walecki(5).seq == (0, 1, 4, 2, 3)
    assert P.walecki(1).seq == (0,)
    assert P.is_directed_terrace(P.walecki(6))
    assert not P.is_directed_terrace(P.walecki(5))


def test_walecki_terrace_for_all_small_orders():
    for n in range(1, 41):
        w = P.walecki(n)
        assert P.is_terrace(w)
        assert P.is_directed_terrace(w) == (n % 2 == 0 or n == 1)


def test_classify_reports():
    rep = P.classify(P.walecki(6))
    assert rep["directed_terrace"] and rep["terrace"] and rep["basic"]
    assert rep["symmetric_sequencing"] is True
    assert rep["max_k_directed_tk"] == 1
    assert rep["half_and_half"] is None  # even order: not applicable

    rep5 = P.classify(P.walecki(5))
    assert not rep5["directed_terrace"] and rep5["terrace"]
    assert rep5["half_and_half"] is True and rep5["narcissistic"] is True
    assert rep5["max_k_directed_tk"] == 0
    assert rep5["symmetric_sequencing"] is None

    e4 = get_group("E4")
    rep_e4 = P.classify(P.Arrangement(e4, (0, 1, 2, 3)))
    assert not rep_e4["terrace"]


def test_classify_respects_report_invariants(rng):
    for spec in ["Z5", "Z6", "Z9", "D8", "Q12", "G21_1"]:
        g = get_group(spec)
        for _ in range(60):
            rep = P.classify(random_arrangement(g, rng))
            if rep["directed_terrace"]:
                assert rep["terrace"]
            assert (rep["max_k_directed_tk"] >= 1) == rep["directed_terrace"]
            if rep["narcissistic"]:
                assert rep["half_and_half"]


def test_arrangement_json_roundtrip(tmp_path):
    a = P.walecki(7)
    path = tmp_path / "w7.json"
    P.save_arrangement(a, path)
    back = P.load_arrangement(path)
    assert back.seq == a.seq and back.group.mul == a.group.mul


def test_arrangement_from_words_only(tmp_path):
    g = get_group("G21_1")
    payload = {"group": "G21_1", "words": ["e", "v", "u"] + [g.element_words[x] for x in range(21) if x not in (0, 1, 3)]}
    a = P.arrangement_from_json(payload)
    assert a.seq[0] == 0 and a.seq[1] == g.word_index("v")


def test_arrangement_json_mismatch_rejected():
    with pytest.raises(ValueError):
        P.arrangement_from_json({"group": "Z4", "elements": [0, 1, 3, 2], "words": ["0", "1", "2", "3"]})
    with pytest.raises(ValueError):
        P.arrangement_from_json({"group": "Z4"})
    with pytest.raises(ValueError):
        P.arrangement_from_json({"group": "Z5", "elements": [0, 1, 3, 2]}, get_group("Z4"))


def test_order_one_and_two_degenerate_cases():
    one = P.Arrangement(get_group("Z1"), (0,))
    assert P.is_terrace(one) and P.is_directed_terrace(one)
    assert P.altitude_directed(one) == 0
    two = P.Arrangement(get_group("Z2"), (0, 1))
    assert P.is_terrace(two) and P.is_directed_terrace(two)
    assert P.is_symmetric_sequencing(two)
