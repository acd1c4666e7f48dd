"""Difference lists, altitudes, and verifiers for every terrace flavour.

An arrangement lists every element of a group exactly once.  Its quotient
list b has entries b_i = a_i^-1 * a_{i+1}; the verifiers here classify an
arrangement from b alone and are deliberately direct transcriptions of the
definitions, independent of the incremental bookkeeping used by the search
modules (which they cross-check).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .groups import Group, automorphisms, build_cyclic, inverse_pair_classes, involutions, parse_group_spec

__all__ = [
    "Arrangement",
    "diff_list",
    "altitude_directed",
    "altitude_undirected",
    "is_basic",
    "is_directed_terrace",
    "is_terrace",
    "to_basic",
    "reverse",
    "apply_automorphism",
    "is_directed_tk",
    "max_directed_tk",
    "is_symmetric_sequencing",
    "is_extendable",
    "is_half_and_half",
    "is_narcissistic",
    "canonical_form",
    "walecki",
    "classify",
    "arrangement_to_json",
    "arrangement_from_json",
    "load_arrangement",
    "save_arrangement",
]


@dataclass(frozen=True)
class Arrangement:
    """A sequence of all n element ids of `group` exactly once."""

    group: Group
    seq: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "seq", tuple(self.seq))
        if sorted(self.seq) != list(range(self.group.order)):
            raise ValueError("sequence is not an arrangement of all element ids")

    def words(self) -> tuple[str, ...]:
        ew = self.group.element_words
        return tuple(ew[x] for x in self.seq)


def diff_list(a: Arrangement, m: int = 1) -> tuple[int, ...]:
    """The step-m quotient list: entry i is seq[i]^-1 * seq[i+m]."""
    n = a.group.order
    if n == 1 and m == 1:
        return ()
    if not 1 <= m <= n - 1:
        raise ValueError(f"step {m} out of range 1..{n - 1}")
    ldiv = a.group.ldiv
    s = a.seq
    return tuple(ldiv[s[i]][s[i + m]] for i in range(n - m))


def altitude_directed(a: Arrangement) -> int:
    """Number of distinct entries of b; n-1 exactly on directed terraces."""
    return len(set(diff_list(a)))


def altitude_undirected(a: Arrangement) -> int:
    """Involution classes count once, inverse-pair classes up to twice;
    n-1 exactly on terraces."""
    counts = Counter(diff_list(a))
    total = 0
    for cls in inverse_pair_classes(a.group):
        got = sum(counts.get(x, 0) for x in cls)
        total += min(got, 1 if len(cls) == 1 else 2)
    return total


def is_basic(a: Arrangement) -> bool:
    return a.seq[0] == a.group.identity


def is_directed_terrace(a: Arrangement) -> bool:
    return len(set(diff_list(a))) == a.group.order - 1


def is_terrace(a: Arrangement) -> bool:
    """Each involution exactly once in b; each pair {x, x^-1} twice in total."""
    g, s = a.group, a.seq
    ldiv, inv = g.ldiv, g.inv
    counts = [0] * g.order
    for x, y in zip(s, s[1:]):
        counts[ldiv[x][y]] += 1
    for x in range(1, g.order):  # for an involution x = x^-1: counts[x] == 1
        if counts[x] + counts[inv[x]] != 2:
            return False
    return True


def to_basic(a: Arrangement) -> Arrangement:
    """Left-multiply by a_1^-1 so the arrangement starts at the identity."""
    row = a.group.ldiv[a.seq[0]]
    return Arrangement(a.group, tuple(row[x] for x in a.seq))


def reverse(a: Arrangement) -> Arrangement:
    return Arrangement(a.group, a.seq[::-1])


def apply_automorphism(a: Arrangement, phi) -> Arrangement:
    return Arrangement(a.group, tuple(phi[x] for x in a.seq))


def is_directed_tk(a: Arrangement, k: int) -> bool:
    """No repeats in any quotient list b^(m) with m <= k."""
    n = a.group.order
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range 1..{n - 1}")
    for m in range(1, k + 1):
        vals = diff_list(a, m)
        if len(set(vals)) != len(vals):
            return False
    return True


def max_directed_tk(a: Arrangement) -> int:
    """Largest k with is_directed_tk(a, k); 0 when not a directed terrace.

    For the order-1 group the (vacuously directed) arrangement reports 1.
    """
    n = a.group.order
    if n == 1:
        return 1
    for m in range(1, n):
        if len(set(diff_list(a, m))) != n - m:
            return m - 1
    return n - 1


def is_symmetric_sequencing(a: Arrangement) -> bool:
    """Directed terrace of a binary group with b_m = z and b_{2m-i} = b_i^-1.

    The mirror condition is the inverse-symmetric form; the literal equality
    would contradict the distinctness of a sequencing.
    """
    g = a.group
    zs = involutions(g)
    if len(zs) != 1:
        raise ValueError(f"group {g.spec} is not binary ({len(zs)} involutions)")
    if not is_directed_terrace(a):
        raise ValueError("arrangement is not a directed terrace")
    m = g.order // 2
    b = diff_list(a)
    if b[m - 1] != zs[0]:
        return False
    inv = g.inv
    return all(b[2 * m - i - 1] == inv[b[i - 1]] for i in range(1, m))


def is_extendable(a: Arrangement) -> tuple[bool, int | None]:
    """Basic terrace with a_n = a_2^2 and a commuting product point at j >= 5.

    Returns (True, least such j) or (False, None); j is 1-based with
    5 <= j <= n-1, so groups of order < 6 always report False.
    """
    if not is_basic(a):
        raise ValueError("extendability is defined for basic terraces")
    if not is_terrace(a):
        raise ValueError("arrangement is not a terrace")
    g, s = a.group, a.seq
    n = g.order
    mul = g.mul
    if n < 2 or s[n - 1] != mul[s[1]][s[1]]:
        return False, None
    for j in range(5, n):
        left, mid, right = s[j - 2], s[j - 1], s[j]
        if mul[left][right] == mid == mul[right][left]:
            return True, j
    return False, None


def is_half_and_half(a: Arrangement) -> bool:
    """Odd-order terrace whose first half of b has one entry per inverse pair."""
    g = a.group
    if g.order % 2 == 0:
        raise ValueError("half-and-half terraces require odd group order")
    if not is_terrace(a):
        return False
    # odd order: (n-1)/2 inverse pairs and (n-1)/2 first-half entries
    half = g.order // 2
    index = g.class_data[2]
    return len({index[v] for v in diff_list(a)[:half]}) == half


def is_narcissistic(a: Arrangement) -> bool:
    """Odd-order terrace whose b equals its reverse."""
    g = a.group
    if g.order % 2 == 0:
        raise ValueError("narcissistic terraces require odd group order")
    if not is_terrace(a):
        return False
    b = diff_list(a)
    return b == b[::-1]


def canonical_form(a: Arrangement) -> Arrangement:
    """Lexicographically least image of to_basic(a) under the automorphism group.

    Two arrangements are essentially equal exactly when their canonical
    forms are identical sequences.
    """
    basic = to_basic(a).seq
    best = min(tuple(phi[x] for x in basic) for phi in automorphisms(a.group))
    return Arrangement(a.group, best)


def walecki(n: int) -> Arrangement:
    """The zig-zag arrangement (0, 1, n-1, 2, n-2, ...) of Z_n."""
    if n < 1:
        raise ValueError("order must be positive")
    seq = [0]
    i = 1
    while len(seq) < n:
        seq.append(i)
        if len(seq) < n:
            seq.append(n - i)
        i += 1
    return Arrangement(build_cyclic(n), tuple(seq))


def classify(a: Arrangement) -> dict:
    """Run every applicable verifier; non-applicable ones report None (for
    example symmetric sequencings only exist in binary groups)."""
    g = a.group
    basic = is_basic(a)
    directed = is_directed_terrace(a)
    terrace = is_terrace(a)
    symmetric = None
    if directed and len(involutions(g)) == 1:
        symmetric = is_symmetric_sequencing(a)
    extendable = extendable_index = None
    if basic and terrace:
        extendable, extendable_index = is_extendable(a)
    half = narcissistic = None
    if g.order % 2 == 1 and terrace:
        half = is_half_and_half(a)
        narcissistic = is_narcissistic(a)
    return {
        "order": g.order,
        "basic": basic,
        "altitude_directed": altitude_directed(a),
        "altitude_undirected": altitude_undirected(a),
        "directed_terrace": directed,
        "terrace": terrace,
        "max_k_directed_tk": max_directed_tk(a) if directed else 0,
        "symmetric_sequencing": symmetric,
        "extendable": extendable,
        "extendable_index": extendable_index,
        "half_and_half": half,
        "narcissistic": narcissistic,
    }


# ---------------------------------------------------------------------------
# Terrace file format: {"group": "<spec>", "elements": [ids...]} with an
# optional "words" list; either ids or words identify the sequence.


def arrangement_to_json(a: Arrangement) -> dict:
    return {"group": a.group.spec, "elements": list(a.seq), "words": list(a.words())}


def _typed_list(payload: dict, key: str, kind: type) -> list:
    """payload[key] when it is a list of `kind` (bools are not ints)."""
    vals = payload[key]
    if not isinstance(vals, list) or not all(type(x) is kind for x in vals):
        raise ValueError(f"terrace file {key!r} must be a list of {kind.__name__}")
    return vals


def arrangement_from_json(payload: dict, group: Group | None = None) -> Arrangement:
    if not isinstance(payload, dict):
        raise ValueError("terrace file must hold a JSON object")
    if "group" in payload and not isinstance(payload["group"], str):
        raise ValueError("terrace file 'group' must be a string")
    if group is None:
        if "group" not in payload:
            raise ValueError("terrace file names no group and none was supplied")
        group = parse_group_spec(payload["group"])
    elif "group" in payload and payload["group"] != group.spec:
        named = parse_group_spec(payload["group"])
        if named.mul != group.mul:
            raise ValueError(
                f"terrace file is for group {payload['group']!r}, not {group.spec!r}"
            )
    if "elements" in payload:
        seq = _typed_list(payload, "elements", int)
        if "words" in payload:
            from_words = [group.word_index(w) for w in _typed_list(payload, "words", str)]
            if from_words != seq:
                raise ValueError("terrace file ids and words disagree")
    elif "words" in payload:
        seq = [group.word_index(w) for w in _typed_list(payload, "words", str)]
    else:
        raise ValueError("terrace file has neither 'elements' nor 'words'")
    return Arrangement(group, tuple(seq))


def load_arrangement(path: str | Path, group: Group | None = None) -> Arrangement:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:  # not a ValueError, as json's other refusals are
        raise ValueError(f"terrace file {str(path)!r} nests too deeply to read") from None
    return arrangement_from_json(payload, group)


def save_arrangement(a: Arrangement, path: str | Path) -> None:
    Path(path).write_text(json.dumps(arrangement_to_json(a), indent=2) + "\n", encoding="utf-8")
