"""Shared oracles and fixtures.

The naive helpers here deliberately re-derive everything from definitions
(full permutation scans, Counter-based checks) so the fast search and
enumeration paths are always measured against independent code.  The
Python twins of the compiled kernels live in `oracles.py`; `kernels`
swaps them in.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from collections import Counter
from functools import lru_cache

import pytest

from terraces import enumerate as E
from terraces import groups as G
from terraces import hillclimb as H
from terraces import orbit as O
from terraces import props as P
from terraces._ckernel import _iter_combos

# Known enumeration results for 5 <= |G| <= 15: spec -> (t, d).
KNOWN_COUNTS = {
    "Z5": (3, 0),
    "Z6": (11, 2),
    "D6": (2, 0),
    "Z8": (58, 6),
    "Z4xZ2": (10, 0),
    "D8": (6, 0),
    "Q8": (6, 0),
    "Z9": (234, 0),
    "Z3xZ3": (35, 0),
    "Z10": (1517, 72),
    "D10": (76, 16),
    "Z11": (4116, 0),
    "Z12": (40722, 964),
    "Z6xZ2": (5528, 0),
    "D12": (1380, 256),
    "Q12": (13470, 372),
    "A4": (3516, 96),
    "Z13": (138066, 0),
    "Z14": (1458038, 14888),
    "D14": (25608, 2700),
    "Z15": (10910262, 0),
}

CORE_TIER = [s for s in KNOWN_COUNTS if s not in ("Z13", "Z14", "D14", "Z15")]
EXTENDED_TIER = ["Z13", "D14", "Z14", "Z15"]
# The first line of a child process a Ctrl-C test interrupts.  A shell
# starts a background job with SIGINT ignored, the child inherits that,
# and Python then installs no KeyboardInterrupt handler, so the signal
# would be lost; this installs the handler an interactive run has.
SIGINT_RAISES = "import signal; signal.signal(signal.SIGINT, signal.default_int_handler)\n"
# One group of each isomorphism class of order at most 10.
CATALOGUE_1_TO_10 = ["Z1", "Z2", "Z3", "Z4", "E4", "Z5", "Z6", "D6", "Z7", "Z8", "Z4xZ2", "E8",
                     "D8", "Q8", "Z9", "Z3xZ3", "Z10", "D10"]


@lru_cache(maxsize=None)
def get_group(spec: str) -> G.Group:
    return G.parse_group_spec(spec)


def basic_arrangements(group: G.Group):
    """Every basic arrangement, in lexicographic order."""
    n = group.order
    for tail in itertools.permutations(range(1, n)):
        yield P.Arrangement(group, (0,) + tail)


def naive_basic_count(group: G.Group, predicate) -> int:
    return sum(1 for a in basic_arrangements(group) if predicate(a))


def naive_is_terrace(a: P.Arrangement) -> bool:
    """Literal transcription of the 2-sequencing conditions."""
    g = a.group
    if g.order == 1:
        return True
    b = [g.mul[g.inv[a.seq[i]]][a.seq[i + 1]] for i in range(g.order - 1)]
    counts = Counter(b)
    for x in range(1, g.order):
        if g.inv[x] == x:
            if counts.get(x, 0) != 1:
                return False
        elif counts.get(x, 0) + counts.get(g.inv[x], 0) != 2:
            return False
    return True


def naive_automorphisms(group: G.Group) -> list[tuple[int, ...]]:
    """Every permutation of the element ids that fixes 0 and preserves mul,
    in lexicographic order."""
    n, mul = group.order, group.mul
    out = []
    for tail in itertools.permutations(range(1, n)):
        phi = (0,) + tail
        if all(phi[mul[x][y]] == mul[phi[x]][phi[y]] for x in range(n) for y in range(n)):
            out.append(phi)
    return out


def naive_closure_table(generators) -> tuple[tuple[int, ...], ...]:
    """Cayley table of a permutation closure by composing every pair, with
    the elements in breadth-first discovery order from the identity (the
    order `closure_from_permutations` documents); x*y applies x first."""
    gens = [tuple(p - 1 for p in g) for g in generators]
    elems = [tuple(range(len(gens[0])))]
    index = {elems[0]: 0}
    for x in elems:
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    return tuple(tuple(index[tuple(y[i] for i in x)] for y in elems) for x in elems)


def validate_group(group: G.Group, sample_triples: int = 100_000, seed: int = 0) -> None:
    """Check the Group invariants; raises ValueError on the first failure.

    Associativity is checked exhaustively for order <= 64 and by random
    sampling of `sample_triples` triples above that.
    """
    n = group.order
    mul, inv = group.mul, group.inv
    full = set(range(n))
    for x in range(n):
        if set(mul[x]) != full:
            raise ValueError(f"row {x} is not a permutation")
        if {mul[y][x] for y in range(n)} != full:
            raise ValueError(f"column {x} is not a permutation")
    if any(mul[0][x] != x or mul[x][0] != x for x in range(n)):
        raise ValueError("identity law fails")
    for x in range(n):
        if mul[x][inv[x]] != 0 or mul[inv[x]][x] != 0:
            raise ValueError(f"inverse law fails at {x}")
    if n <= 64:
        triples = ((x, y, z) for x in range(n) for y in range(n) for z in range(n))
    else:
        rng = random.Random(seed)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(sample_triples))
    for x, y, z in triples:
        if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
            raise ValueError(f"associativity fails at ({x},{y},{z})")


def neighbors(a: P.Arrangement, cuts: int, allow_reversal: bool) -> list[P.Arrangement]:
    """All reassemblies of the given cut count, in the documented order.

    Per cut choice this yields 1 (one cut), 5 (two cuts), 7 (one cut with
    reversal) or 47 (two cuts with reversal) arrangements; the identity
    reassembly is the only one excluded.
    """
    n = a.group.order
    if n < 2:
        raise ValueError("neighbourhoods need order >= 2")
    if cuts == 1:
        cut_choices = [(c,) for c in range(1, n)]
    elif cuts == 2:
        cut_choices = [(c1, c2) for c1 in range(1, n - 1) for c2 in range(c1 + 1, n)]
    else:
        raise ValueError("cuts must be 1 or 2")
    from oracles import _materialize  # imported here for the reason `kernels` gives

    seq = list(a.seq)
    out = []
    for cc in cut_choices:
        for order, mask in _iter_combos(len(cc) + 1, allow_reversal):
            out.append(P.Arrangement(a.group, tuple(_materialize(seq, cc, order, mask))))
    return out


def teleport(a: P.Arrangement, rng: random.Random) -> P.Arrangement:
    """The climber's teleport: move one uniformly chosen element to the end
    (altitude drop <= 2), with the same single randrange(n)."""
    n = a.group.order
    if n < 2:
        raise ValueError("teleport needs order >= 2")
    seq = list(a.seq)
    seq.append(seq.pop(rng.randrange(n)))
    return P.Arrangement(a.group, tuple(seq))


def random_arrangement(group: G.Group, rng: random.Random) -> P.Arrangement:
    seq = list(range(group.order))
    rng.shuffle(seq)
    return P.Arrangement(group, tuple(seq))


@contextlib.contextmanager
def kernels(monkeypatch, python: bool):
    """Run the body on the compiled kernels, or, with python set, on their
    Python twins in `oracles.py`: `enumerate._dfs`, `hillclimb.climb` and
    `orbit._walk` are patched for the body.
    They are module attributes, so the threads of a split count see the
    patch too."""
    # Imported here, not at the top: bench/run.py imports this file for
    # KNOWN_COUNTS, and loading the oracles there would add to the peak RSS
    # it measures.
    import oracles

    with monkeypatch.context() as m:
        if python:
            m.setattr(E, "_dfs", oracles.dfs)
            m.setattr(H, "climb", oracles.climb)
            m.setattr(O, "_walk", oracles.closure)
        yield


@pytest.fixture
def rng():
    return random.Random(20260810)
