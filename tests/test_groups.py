from __future__ import annotations

import hashlib

import pytest

from conftest import get_group, naive_automorphisms, naive_closure_table, validate_group
from terraces import groups as G

ALL_CATALOGUE_SMALL = [
    "Z1", "Z2", "Z6", "Z12", "D6", "D8", "D12", "Q8", "Q12", "E4", "E8",
    "Z4xZ2", "Z3xZ3", "Z6xZ2", "SD(7,3,4)", "A4", "G16_6", "G16_13",
]


def test_cyclic_examples():
    assert G.build_cyclic(1).mul == ((0,),)
    assert G.build_cyclic(4).inv == (0, 3, 2, 1)
    assert G.build_cyclic(6).mul[5][3] == 2


def test_cyclic_rejects_nonpositive():
    with pytest.raises(ValueError):
        G.build_cyclic(0)


def test_dihedral_involution_counts():
    assert len(G.involutions(G.build_dihedral(6))) == 3
    assert len(G.involutions(G.build_dihedral(8))) == 5


def test_dihedral_center_of_d12():
    d12 = G.build_dihedral(12)
    center = [x for x in range(12) if all(d12.mul[x][y] == d12.mul[y][x] for y in range(12))]
    assert len(center) == 2  # m even: r^{m/2} is central


def test_dihedral_rejects_odd_order():
    with pytest.raises(ValueError):
        G.build_dihedral(7)


def test_dicyclic_binary_and_orders():
    assert G.involutions(G.build_dicyclic(8)) == [4]  # u^2 at id 2*2+0
    assert G.involutions(G.build_dicyclic(12)) == [6]  # u^3
    q16 = G.build_dicyclic(16)
    assert G.element_order(q16, q16.word_index("v")) == 4


def test_dicyclic_rejects_bad_order():
    with pytest.raises(ValueError):
        G.build_dicyclic(10)


def test_semidirect_presentations():
    g21 = G.build_semidirect_cyclic(7, 3, 4)
    # v*u = u^4 v: ids are i*n + j
    assert g21.mul[0 * 3 + 1][1 * 3 + 0] == 4 * 3 + 1
    g27 = G.build_semidirect_cyclic(9, 3, 7)
    assert g27.mul[0 * 3 + 1][1 * 3 + 0] == 7 * 3 + 1
    g39 = G.build_semidirect_cyclic(13, 3, 3)
    assert g39.order == 39 and not G.is_abelian(g39)


def test_semidirect_rejects_inconsistent_relation():
    with pytest.raises(ValueError):
        G.build_semidirect_cyclic(5, 2, 2)  # 2^2 = 4 != 1 mod 5
    with pytest.raises(ValueError):
        G.build_semidirect_cyclic(9, 3, 3)  # gcd(3, 9) > 1


def test_semidirect_abelian_iff_k_is_one_mod_m():
    assert G.is_abelian(G.build_semidirect_cyclic(5, 2, 1))
    assert G.is_abelian(G.build_semidirect_cyclic(4, 2, 5 % 4))
    assert not G.is_abelian(G.build_semidirect_cyclic(7, 3, 4))


def test_direct_product_examples():
    e4 = get_group("Z2xZ2")
    assert len(G.involutions(e4)) == 3
    assert len(G.involutions(get_group("Z4xZ2"))) == 3
    z6z3 = get_group("Z6xZ3")
    assert G.is_abelian(z6z3)
    assert max(G.element_order(z6z3, x) for x in range(18)) == 6


def test_closure_examples():
    a4 = G.closure_from_permutations(
        [G.perm_from_cycles([(1, 2, 3)], 4), G.perm_from_cycles([(1, 2), (3, 4)], 4)]
    )
    assert a4.order == 12
    assert len(G.involutions(a4)) == 3
    assert get_group("PSL2_5").order == 60


def test_closure_of_n_cycle_matches_cyclic_table():
    for n in (3, 5, 8):
        cyc = tuple(range(2, n + 1)) + (1,)
        closed = G.closure_from_permutations([cyc])
        assert closed.mul == G.build_cyclic(n).mul


@pytest.mark.parametrize("name, gens", [
    ("S5", [G.perm_from_cycles([(1, 2, 3, 4, 5)], 5), G.perm_from_cycles([(1, 2)], 5)]),
    ("A6", [G.perm_from_cycles([(1, 2, 3, 4, 5)], 6), G.perm_from_cycles([(4, 5, 6)], 6)]),
    ("PGL2_7", list(G._moebius_perms(7))),
    (None, [G.perm_from_cycles([(1, 2, 3)], 4), G.perm_from_cycles([(1, 2), (3, 4)], 4)]),
])
def test_closure_table_matches_pairwise_composition(name, gens):
    g = G.closure_from_permutations(gens)
    assert g.mul == naive_closure_table(gens)
    if name is None:
        assert g.spec == "PERM[(1,2,3),(1,2)(3,4)]"
    else:
        assert get_group(name).mul == g.mul


def test_closure_cap_and_invalid_perm():
    s7 = [G.perm_from_cycles([tuple(range(1, 8))], 7), G.perm_from_cycles([(1, 2)], 7)]
    with pytest.raises(ValueError, match=f"exceeds cap {G.DEFAULT_CLOSURE_CAP}"):
        G.closure_from_permutations(s7)
    with pytest.raises(ValueError):
        G.closure_from_permutations([(1, 1, 2)])
    with pytest.raises(ValueError):
        G.closure_from_permutations([])


def test_element_orders():
    assert G.element_order(G.build_cyclic(6), 3) == 2
    q8 = G.build_dicyclic(8)
    assert G.element_order(q8, q8.word_index("v")) == 4
    g21 = get_group("G21_1")
    assert G.element_order(g21, g21.word_index("u^2v")) == 3


def test_involutions_examples():
    assert G.involutions(G.build_cyclic(5)) == []
    assert G.involutions(G.build_cyclic(8)) == [4]
    assert len(G.involutions(get_group("E8"))) == 7


def test_inverse_pair_classes():
    assert G.inverse_pair_classes(G.build_cyclic(5)) == [(1, 4), (2, 3)]
    assert G.inverse_pair_classes(G.build_cyclic(6)) == [(1, 5), (2, 4), (3,)]
    classes = G.inverse_pair_classes(G.build_dicyclic(8))
    assert sorted(len(c) for c in classes) == [1, 2, 2, 2]
    # deterministic ordering by least member
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)


def test_automorphism_counts():
    assert len(G.automorphisms(G.build_cyclic(5))) == 4
    assert len(G.automorphisms(get_group("Z3xZ3"))) == 48
    assert len(G.automorphisms(G.build_dicyclic(8))) == 24


def test_automorphisms_form_a_group():
    g = get_group("Q12")
    auts = G.automorphisms(g)
    perms = {tuple(p) for p in auts}
    ident = tuple(range(g.order))
    assert ident in perms
    for p in auts[:6]:
        inv = [0] * g.order
        for i, v in enumerate(p):
            inv[v] = i
        assert tuple(inv) in perms
        for q in auts[:6]:
            assert tuple(q[p[i]] for i in range(g.order)) in perms


def test_automorphisms_preserve_multiplication():
    for spec in ["Z8", "D8", "Q8", "Z3xZ3", "A4", "D10"]:
        g = get_group(spec)
        for phi in G.automorphisms(g):
            assert phi[0] == 0
            assert all(
                phi[g.mul[x][y]] == g.mul[phi[x]][phi[y]]
                for x in range(g.order)
                for y in range(g.order)
            )


def test_automorphism_cap():
    assert len(G.automorphisms(G.build_cyclic(G.DEFAULT_AUT_CAP))) == G.DEFAULT_AUT_CAP // 2
    with pytest.raises(ValueError, match=f"capped at order {G.DEFAULT_AUT_CAP}"):
        G.automorphisms(G.build_cyclic(G.DEFAULT_AUT_CAP + 1))


def test_a_groups_derived_tables_are_built_once(monkeypatch):
    """A group builds each derived table on first read and keeps it; the
    automorphism search runs once, each call returns a list of its own,
    and a group above the cap is refused before anything is built."""
    calls = []
    extend = G._extend
    monkeypatch.setattr(G, "_extend", lambda *args: calls.append(1) or extend(*args))
    g = G.parse_group_spec("D10")
    assert g.ldiv is g.ldiv and g.orders is g.orders and g.class_data is g.class_data
    first = G.automorphisms(g)
    kept, built = list(first), len(calls)
    assert len(kept) == 20 and built > 0
    first.clear()
    assert G.automorphisms(g) == kept and len(calls) == built
    big = G.build_cyclic(G.DEFAULT_AUT_CAP + 1)
    with pytest.raises(ValueError, match=f"capped at order {G.DEFAULT_AUT_CAP}"):
        G.automorphisms(big)
    assert not {"orders", "auts"} & set(vars(big)) and len(calls) == built


@pytest.mark.parametrize("spec", [f"Z{n}" for n in range(1, 9)]
                         + ["E4", "E8", "D6", "D8", "Q8", "Z4xZ2"])
def test_automorphisms_are_complete(spec):
    g = G.parse_group_spec(spec)
    assert G.automorphisms(g) == naive_automorphisms(g)


# Tables, words and automorphism lists that result files and canonical forms
# depend on, pinned as digests: every catalogue group, the dihedral and
# dicyclic families to order 128, the metacyclic SD specs of the paper's odd
# orders (63, 93, 189) and of the catalogue, edge parameters, and products.
PINNED_SPECS = (
    list(G.CATALOGUE_NAMES)
    + [f"D{n}" for n in range(2, 129, 2)]
    + [f"Q{n}" for n in range(8, 129, 4)]
    + ["SD(7,3,4)", "SD(8,2,5)", "SD(9,3,7)", "SD(13,3,3)", "SD(7,9,2)", "SD(31,3,5)",
       "SD(7,27,2)", "SD(5,4,2)", "SD(4,2,1)", "SD(1,3,1)", "SD(3,1,1)"]
    + ["E1", "E8", "E16", "Z4xZ2", "A4xZ3", "Z2xA6"]
)
TABLE_DIGEST = "63c4f80c42235aa121140d41c6e1276d65f0ee1d3333dbdb1781fc0f99bbcd19"
AUT_DIGEST = "917d7d2aeead667cd305ce11b174213a3ddaa682578b347ddbe28bb1f9ab7a3c"


def test_tables_and_words_are_pinned():
    h = hashlib.sha256()
    for spec in PINNED_SPECS:
        g = G.parse_group_spec(spec)
        h.update(repr((g.spec, g.mul, g.element_words)).encode())
    assert h.hexdigest() == TABLE_DIGEST


def test_automorphism_lists_are_pinned():
    h = hashlib.sha256()
    for spec in PINNED_SPECS:
        g = G.parse_group_spec(spec)
        if g.order <= G.DEFAULT_AUT_CAP:
            h.update(repr((g.spec, G.automorphisms(g))).encode())
    assert h.hexdigest() == AUT_DIGEST


@pytest.mark.parametrize("spec", ALL_CATALOGUE_SMALL)
def test_constructed_groups_satisfy_axioms(spec):
    validate_group(get_group(spec))


def test_validate_group_on_permutation_catalogue():
    for spec in ["A4", "S4", "PSL2_3", "PGL2_3", "G27_3"]:
        validate_group(get_group(spec))


def test_catalogue_orders():
    expected = {
        "A4": 12, "S4": 24, "A5": 60, "S5": 120, "A6": 360,
        "PSL2_3": 12, "PSL2_5": 60, "PSL2_7": 168, "PSL2_11": 660,
        "PGL2_3": 24, "PGL2_5": 120, "PGL2_7": 336,
        "G16_6": 16, "G16_13": 16, "G21_1": 21, "G27_3": 27, "G27_4": 27,
        "G39_1": 39,
    }
    for spec, order in expected.items():
        assert get_group(spec).order == order, spec


def test_g16_entries_are_the_right_groups():
    g6 = get_group("G16_6")  # modular group: has order-8 elements
    assert max(G.element_order(g6, x) for x in range(16)) == 8
    assert len(G.involutions(g6)) == 3
    g13 = get_group("G16_13")  # Pauli group: exponent 4, centre Z4
    assert max(G.element_order(g13, x) for x in range(16)) == 4
    center = [x for x in range(16) if all(g13.mul[x][y] == g13.mul[y][x] for y in range(16))]
    assert len(center) == 4


def test_parse_examples():
    assert G.parse_group_spec("Z12").order == 12
    g = G.parse_group_spec("Z4xZ2")
    assert g.order == 8 and G.is_abelian(g)
    g21 = G.parse_group_spec("SD(7,3,4)")
    assert g21.order == 21 and not G.is_abelian(g21)
    assert G.parse_group_spec("D8").order == 8
    assert G.parse_group_spec("Q12").order == 12
    assert G.parse_group_spec("E8").order == 8
    assert not any("x" in name for name in G.CATALOGUE_NAMES)  # a name ends at "x"
    assert G.parse_group_spec("A4xZ3").order == 36
    assert G.parse_group_spec("G16_13xZ2").order == 32
    assert G.parse_group_spec("A4xZ3").spec == "A4xZ3"


def test_parse_roundtrip():
    for text in ["Z12", "Z4xZ2", "SD(7,3,4)", "E8", "A4", "D8xZ3", "Z2xZ2xZ2"]:
        assert G.parse_group_spec(text).spec == text


def test_parse_names_groups_in_normal_form():
    assert G.parse_group_spec(" Z012 ").spec == "Z12"
    assert G.parse_group_spec("SD(07,3,4)xZ2").spec == "SD(7,3,4)xZ2"


def test_parse_errors_carry_position():
    for bad in ["", "Z", "Zx", "Z4x", "Z4y", "SD(4,2)", "SD(4,2,", "W5", "Z4xW5", "xZ4",
                "A4x", "Z4xxZ2"]:
        with pytest.raises(ValueError, match="position"):
            G.parse_group_spec(bad)
    with pytest.raises(ValueError, match="power of 2"):
        G.parse_group_spec("E6")


def test_parse_errors_come_before_any_atom_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an atom was built")

    monkeypatch.setattr(G, "closure_from_permutations", refuse)
    with pytest.raises(ValueError, match="position"):
        G.parse_group_spec("A6xW5")


def test_parse_rejects_orders_above_the_cap():
    assert G.parse_group_spec("Z1024").order == G.DEFAULT_CLOSURE_CAP
    assert G.parse_group_spec("Z2xA6").order == 720
    for bad in ["Z100000", "Z1025", "Z1000xZ1000", "SD(1000,2,1)", "Z2xPSL2_11"]:
        with pytest.raises(ValueError, match="exceeds the cap"):
            G.parse_group_spec(bad)


def test_spec_strings_rebuild_identically():
    for spec in ["Z12", "D12", "Q12", "SD(7,3,4)", "A4", "Z4xZ2"]:
        a = G.parse_group_spec(spec)
        b = G.parse_group_spec(spec)
        assert a.mul == b.mul and a.element_words == b.element_words


def test_word_index_roundtrip():
    for spec in ["D8", "Q12", "G21_1", "A4"]:
        g = get_group(spec)
        for i, w in enumerate(g.element_words):
            assert g.word_index(w) == i
        with pytest.raises(ValueError):
            g.word_index("nonsense")
