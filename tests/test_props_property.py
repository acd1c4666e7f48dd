"""Property tests for the verifiers on real witnesses.

Random arrangements are almost never terraces, so these tests draw from the
witness streams of every enumeration kind at order <= 9 instead: the
odd-order kinds from Z9 and Z3xZ3 (Z3, Z5 and Z7 too), the others from every
catalogue group of order 3..9.  The directed half-and-half streams are empty
there (an abelian group of odd order has no directed terrace), so that kind
adds no witnesses.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import get_group
from terraces import props as P
from terraces.enumerate import EnumMode, enumerate_basic
from terraces.groups import automorphisms

SPECS = ["Z3", "Z4", "E4", "Z5", "Z6", "D6", "Z7", "Z8", "Z4xZ2", "E8", "D8", "Q8", "Z9", "Z3xZ3"]
ODD_KINDS = ("half_and_half", "narcissistic", "directed_half_and_half")
KINDS = {  # enumeration kind -> the verifier of that kind
    "directed": P.is_directed_terrace,
    "terrace": P.is_terrace,
    "directed_tk": lambda a: P.is_directed_tk(a, 2),
    "half_and_half": P.is_half_and_half,
    "narcissistic": P.is_narcissistic,
    "directed_half_and_half": lambda a: P.is_directed_terrace(a) and P.is_half_and_half(a),
}


@lru_cache(maxsize=None)
def witnesses(kind: str) -> tuple[P.Arrangement, ...]:
    mode = EnumMode(kind, k=2 if kind == "directed_tk" else 1, count_only=False)
    return tuple(w for spec in SPECS if kind not in ODD_KINDS or get_group(spec).order % 2
                 for w in enumerate_basic(get_group(spec), mode).witnesses)


def test_streams_hold_witnesses_of_every_kind_but_directed_half_and_half():
    assert [kind for kind in KINDS if not witnesses(kind)] == ["directed_half_and_half"]


# A kind first, then one of its witnesses, so the rare kinds (two T_2
# witnesses, 84 narcissistic ones) are drawn as often as the terraces.
drawn = st.sampled_from([k for k in KINDS if k != "directed_half_and_half"]).flatmap(
    lambda kind: st.tuples(st.just(kind), st.sampled_from(witnesses(kind))))


@settings(max_examples=100, deadline=None)
@given(drawn)
def test_classify_is_invariant_under_every_automorphism(item):
    _kind, w = item
    report = P.classify(w).to_dict()
    for phi in automorphisms(w.group):
        assert P.classify(P.apply_automorphism(w, phi)).to_dict() == report, phi


@settings(max_examples=300, deadline=None)
@given(drawn)
def test_reversal_then_to_basic_keeps_the_kind(item):
    kind, w = item
    back = P.to_basic(P.reverse(w))
    assert P.is_basic(back) and KINDS[kind](back)
