"""Finite groups as explicit Cayley tables with deterministic element ordering.

Element ids are 0-based and id 0 is always the identity.  Each constructor
fixes a documented, reproducible element ordering so that arrangement files
written against a group-spec string stay valid across runs.

Dihedral, dicyclic and Z_m x| Z_n groups come from one metacyclic table
builder, <a, b | a^m = e, b^n = a^t, b a = a^k b> with a^i b^j at id
i*n + j; the catalogue's other groups are permutation closures.
Automorphisms (order <= DEFAULT_AUT_CAP) try every order-matching image of a
greedy generating set and extend each one breadth first through the Cayley
graph, keeping the bijections whose every generator edge agrees.  Group
specs ("Z4xZ2", "SD(7,3,4)", "A4xZ3") are read atom by atom with one regular
expression and built in the same pass; orders above DEFAULT_CLOSURE_CAP are
refused.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Iterable, Sequence

__all__ = [
    "Group",
    "CATALOGUE_NAMES",
    "build_cyclic",
    "build_dihedral",
    "build_dicyclic",
    "build_semidirect_cyclic",
    "direct_product",
    "closure_from_permutations",
    "perm_from_cycles",
    "element_order",
    "involutions",
    "inverse_pair_classes",
    "automorphisms",
    "is_abelian",
    "parse_group_spec",
]

DEFAULT_CLOSURE_CAP = 1024
DEFAULT_AUT_CAP = 32


class Group:
    """Immutable multiplication structure: Cayley table, inverses, words.

    Attributes:
        order: number of elements n.
        mul: n x n table of element ids, mul[x][y] = x*y.
        inv: length-n table of inverses.
        identity: always 0.
        element_words: display string per element id.
        spec: the originating group-spec string (parseable for grammar-built
            groups, descriptive otherwise).
    """

    __slots__ = (
        "order",
        "mul",
        "inv",
        "identity",
        "element_words",
        "spec",
        "_ldiv",
        "_orders",
        "_classes",
        "_auts",
    )

    def __init__(self, mul: Sequence[Sequence[int]], element_words: Sequence[str], spec: str):
        n = len(mul)
        self.order = n
        self.mul = tuple(tuple(row) for row in mul)
        self.identity = 0
        if any(len(row) != n for row in self.mul):
            raise ValueError("multiplication table is not square")
        if list(self.mul[0]) != list(range(n)):
            raise ValueError("element 0 is not a left identity")
        inv = [-1] * n
        for x in range(n):
            if self.mul[x][0] != x:
                raise ValueError("element 0 is not a right identity")
            for y in range(n):
                if self.mul[x][y] == 0:
                    inv[x] = y
                    break
            if inv[x] < 0:
                raise ValueError(f"element {x} has no inverse")
        self.inv = tuple(inv)
        if len(element_words) != n:
            raise ValueError("element_words length does not match order")
        self.element_words = tuple(str(w) for w in element_words)
        self.spec = spec
        self._ldiv: tuple[tuple[int, ...], ...] | None = None
        self._orders: tuple[int, ...] | None = None
        self._classes: tuple | None = None
        self._auts: list[tuple[int, ...]] | None = None

    def __repr__(self) -> str:
        return f"Group({self.spec!r}, order={self.order})"

    @property
    def ldiv(self) -> tuple[tuple[int, ...], ...]:
        """Left-division table: ldiv[x][y] = x^-1 * y (cached)."""
        tab = self._ldiv
        if tab is None:
            mul, inv = self.mul, self.inv
            tab = tuple(mul[inv[x]] for x in range(self.order))
            self._ldiv = tab
        return tab

    def word_index(self, word: str) -> int:
        """Resolve a display word (whitespace-insensitive) to an element id."""
        key = word.replace(" ", "")
        for i, w in enumerate(self.element_words):
            if w.replace(" ", "") == key:
                return i
        raise ValueError(f"unknown element word {word!r} for group {self.spec}")


def element_order(group: Group, x: int) -> int:
    """Least t >= 1 with x^t = e."""
    return _orders(group)[x]


def _orders(group: Group) -> tuple[int, ...]:
    if group._orders is None:
        mul = group.mul
        out = []
        for x in range(group.order):
            t, y = 1, x
            while y != 0:
                y = mul[y][x]
                t += 1
            out.append(t)
        group._orders = tuple(out)
    return group._orders


def involutions(group: Group) -> list[int]:
    """Sorted ids of all x != e with x^2 = e."""
    ords = _orders(group)
    return [x for x in range(1, group.order) if ords[x] == 2]


def inverse_pair_classes(group: Group) -> list[tuple[int, ...]]:
    """Partition of non-identity ids into {x} (involutions) and {x, x^-1},
    ordered by least member."""
    return list(_class_data(group)[0])


def _class_data(group: Group):
    """(classes, caps, class_index) where class_index[v] locates v's class.

    caps[i] is 1 for an involution class and 2 for an inverse pair; these are
    the per-class occurrence bounds in a 2-sequencing.
    """
    if group._classes is None:
        inv = group.inv
        classes: list[tuple[int, ...]] = []
        caps: list[int] = []
        index = [-1] * group.order
        for x in range(1, group.order):
            if index[x] >= 0:
                continue
            xi = inv[x]
            ci = len(classes)
            if xi == x:
                classes.append((x,))
                caps.append(1)
                index[x] = ci
            else:
                classes.append((x, xi))
                caps.append(2)
                index[x] = ci
                index[xi] = ci
        group._classes = (classes, caps, index)
    return group._classes


def is_abelian(group: Group) -> bool:
    mul = group.mul
    n = group.order
    return all(mul[x][y] == mul[y][x] for x in range(n) for y in range(x + 1, n))


# ---------------------------------------------------------------------------
# Constructors


def build_cyclic(n: int, spec: str | None = None) -> Group:
    """Additive cyclic group Z_n; element i is the integer i."""
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return Group(mul, [str(i) for i in range(n)], spec or f"Z{n}")


def _power_word(sym: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return sym
    return f"{sym}^{e}"


def _two_gen_word(a: str, i: int, b: str, j: int) -> str:
    w = _power_word(a, i) + _power_word(b, j)
    return w or "e"


def _metacyclic(m: int, n: int, k: int, t: int, a: str, b: str, spec: str) -> Group:
    """<a, b | a^m = e, b^n = a^t, b a = a^k b>; the element a^i b^j gets id
    i*n + j.

    (a^i b^j)(a^c b^d) = a^(i + c k^j) b^(j + d), and b^(j + d) = a^t b^(j + d - n)
    once j + d reaches n.
    """
    mul = []
    for i in range(m):
        for j in range(n):
            kj = pow(k, j, m)
            b_part = [((j + d) % n, t if j + d >= n else 0) for d in range(n)]
            mul.append([(i + c * kj + s) % m * n + jd for c in range(m) for jd, s in b_part])
    words = [_two_gen_word(a, i, b, j) for i in range(m) for j in range(n)]
    return Group(mul, words, spec)


def build_dihedral(order: int, spec: str | None = None) -> Group:
    """Dihedral group of the given (even) order.

    Presentation <r, s | r^m = s^2 = e, s r s = r^-1> with m = order/2; the
    element r^i s^j gets id 2i + j (interleaved ordering).
    """
    if order < 2 or order % 2:
        raise ValueError(f"dihedral order must be even and >= 2, got {order}")
    return _metacyclic(order // 2, 2, -1, 0, "r", "s", spec or f"D{order}")


def build_dicyclic(order: int, spec: str | None = None) -> Group:
    """Dicyclic group of the given order (divisible by 4).

    Presentation <u, v | u^(2m) = e, v^2 = u^m, v u v^-1 = u^-1> with
    m = order/4; the element u^i v^j gets id 2i + j (interleaved ordering).
    """
    if order < 8 or order % 4:
        raise ValueError(f"dicyclic order must be divisible by 4 and >= 8, got {order}")
    return _metacyclic(order // 2, 2, -1, order // 4, "u", "v", spec or f"Q{order}")


def build_semidirect_cyclic(m: int, n: int, k: int, spec: str | None = None) -> Group:
    """Semidirect product <u, v | u^m = e = v^n, v u = u^k v>.

    Requires gcd(k, m) = 1 and k^n = 1 (mod m); the element u^i v^j gets
    id i*n + j.
    """
    if m < 1 or n < 1 or k < 1:
        raise ValueError("semidirect parameters must be positive")
    if math.gcd(k, m) != 1:
        raise ValueError(f"SD({m},{n},{k}): k must be invertible mod m")
    if pow(k, n, m) != 1 % m:
        raise ValueError(f"SD({m},{n},{k}): k^n != 1 (mod m), relation inconsistent")
    return _metacyclic(m, n, k, 0, "u", "v", spec or f"SD({m},{n},{k})")


def direct_product(g: Group, h: Group, spec: str | None = None) -> Group:
    """Componentwise product; the pair (a, b) gets id a*|H| + b."""
    gn, hn = g.order, h.order
    order = gn * hn
    gmul, hmul = g.mul, h.mul
    mul = [[0] * order for _ in range(order)]
    for a in range(gn):
        for b in range(hn):
            row = mul[a * hn + b]
            ga = gmul[a]
            hb = hmul[b]
            for c in range(gn):
                gac = ga[c] * hn
                base = c * hn
                for d in range(hn):
                    row[base + d] = gac + hb[d]
    words = [f"({gw},{hw})" for gw in g.element_words for hw in h.element_words]
    return Group(mul, words, spec or f"{g.spec}x{h.spec}")


# ---------------------------------------------------------------------------
# Permutation closures


def perm_from_cycles(cycles: Iterable[Iterable[int]], degree: int) -> tuple[int, ...]:
    """Permutation of {1..degree} (one-line, 1-based images) from cycles."""
    img = list(range(degree))
    for cyc in cycles:
        pts = [p - 1 for p in cyc]
        if any(p < 0 or p >= degree for p in pts) or len(set(pts)) != len(pts):
            raise ValueError(f"invalid cycle {tuple(cyc)} for degree {degree}")
        for i, p in enumerate(pts):
            img[p] = pts[(i + 1) % len(pts)]
    return tuple(x + 1 for x in img)


def _cycle_word(perm0: Sequence[int]) -> str:
    """Cycle notation for a 0-based permutation, '()' for the identity."""
    n = len(perm0)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or perm0[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm0[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm0[j]
        parts.append("(" + ",".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "()"


def closure_from_permutations(
    generators: Sequence[Sequence[int]], spec: str | None = None
) -> Group:
    """Breadth-first closure of permutation generators under composition.

    Generators are permutations of {1..d} in one-line notation (1-based
    images).  Products follow the right-action convention: x*y applies x
    first, then y.  Element ordering is BFS discovery order from the
    identity, exploring generators in the listed order; element words use
    cycle notation.  Closures above DEFAULT_CLOSURE_CAP elements are refused.
    The Cayley table is filled from the breadth-first steps x -> x*g, with
    no permutation composed after the walk.
    """
    if not generators:
        raise ValueError("generator list must be nonempty")
    d = len(generators[0])
    gens0: list[tuple[int, ...]] = []
    for g in generators:
        if sorted(g) != list(range(1, d + 1)):
            raise ValueError(f"invalid permutation {tuple(g)}: not a rearrangement of 1..{d}")
        gens0.append(tuple(x - 1 for x in g))
    ident = tuple(range(d))
    elems: list[tuple[int, ...]] = [ident]
    index: dict[tuple[int, ...], int] = {ident: 0}
    links = []  # (p, k) for each elems[j], j >= 1, with elems[j] = elems[p]*gens[k]
    step: list[list[int]] = []  # step[i][k] = id of elems[i]*gens[k]
    for x in elems:
        row = []
        for k, g in enumerate(gens0):
            y = tuple(g[x[i]] for i in range(d))
            j = index.get(y)
            if j is None:
                if len(elems) >= DEFAULT_CLOSURE_CAP:
                    raise ValueError(f"closure exceeds cap {DEFAULT_CLOSURE_CAP}")
                j = index[y] = len(elems)
                elems.append(y)
                links.append((len(step), k))
            row.append(j)
        step.append(row)
    # x*elems[j] = (x*elems[p])*gens[k] with p < j, so each row fills from
    # its own earlier entries.
    mul = []
    for i in range(len(elems)):
        row = [i]
        for p, k in links:
            row.append(step[row[p]][k])
        mul.append(row)
    words = [_cycle_word(p) for p in elems]
    return Group(mul, words, spec or "PERM[" + ",".join(words[1 : len(gens0) + 1]) + "]")


def _moebius_perms(p: int) -> tuple[tuple[int, ...], ...]:
    """The Moebius maps z -> z + 1, z -> -1/z and z -> g*z (g the least
    primitive root mod p) on the projective line over GF(p).

    Points are z = 0..p-1 at positions 1..p and the infinite point at p+1.
    """
    inf = p + 1
    g = next(r for r in range(2, p) if len({pow(r, e, p) for e in range(p - 1)}) == p - 1)
    translate = tuple((z + 1) % p + 1 for z in range(p)) + (inf,)
    neg_recip = (inf,) + tuple(-pow(z, p - 2, p) % p + 1 for z in range(1, p)) + (1,)
    scale = tuple(g * z % p + 1 for z in range(p)) + (inf,)
    return translate, neg_recip, scale


# ---------------------------------------------------------------------------
# Automorphisms


def automorphisms(group: Group) -> list[tuple[int, ...]]:
    """The full automorphism group as permutations of element ids, sorted
    lexicographically; groups above DEFAULT_AUT_CAP are refused.

    For each choice of order-matching images h_i of the greedy generators
    g_i, phi is extended breadth first along x -> x*g_i by
    phi(x*g_i) = phi(x)*h_i.  The choice is kept when phi stays a bijection
    and every such edge agrees; then phi(x*y) = phi(x)*phi(y) follows for
    every x and every product y of generators, so phi is an automorphism.
    """
    if group.order > DEFAULT_AUT_CAP:
        raise ValueError(f"automorphism search capped at order {DEFAULT_AUT_CAP}, "
                         f"group has {group.order}")
    if group._auts is None:
        gens = _greedy_generators(group)
        ords = _orders(group)
        candidates = [[y for y in range(group.order) if ords[y] == ords[g]] for g in gens]
        extended = (_extend(group, gens, imgs) for imgs in itertools.product(*candidates))
        group._auts = sorted(phi for phi in extended if phi is not None)
    return list(group._auts)


def _extend(group: Group, gens: list[int], imgs: tuple[int, ...]) -> tuple[int, ...] | None:
    """The map with phi(e) = e and phi(x*g) = phi(x)*h for each generator g
    and its image h, or None when the edges disagree or phi is not injective."""
    mul = group.mul
    phi = [-1] * group.order
    phi[0] = 0
    hit = bytearray(group.order)
    hit[0] = 1
    queue = [0]
    for x in queue:
        row, prow = mul[x], mul[phi[x]]
        for g, h in zip(gens, imgs):
            y, v = row[g], prow[h]
            if phi[y] < 0:
                if hit[v]:
                    return None
                phi[y] = v
                hit[v] = 1
                queue.append(y)
            elif phi[y] != v:
                return None
    return tuple(phi)


def _greedy_generators(group: Group) -> list[int]:
    """Repeatedly add the least id outside the subgroup generated so far."""
    gens: list[int] = []
    closed = {0}
    while len(closed) < group.order:
        gens.append(min(x for x in range(group.order) if x not in closed))
        closed = _closure_set(group, gens)
    return gens


def _closure_set(group: Group, gens: list[int]) -> set[int]:
    """The subgroup <gens>: everything reached from e along x -> x*g."""
    mul = group.mul
    out = {0}
    queue = [0]
    for x in queue:
        for g in gens:
            y = mul[x][g]
            if y not in out:
                out.add(y)
                queue.append(y)
    return out


# ---------------------------------------------------------------------------
# Group-spec grammar and catalogue
#
#   spec  := atom ( "x" atom )*
#   atom  := "Z"int | "D"int | "Q"int | "E"int | "SD(" int "," int "," int ")" | NAME
#
# "D8" is the dihedral group OF ORDER 8, "Q12" the dicyclic group of order 12,
# "E8" the elementary abelian group of order 8.


def _catalogue() -> dict:
    A = perm_from_cycles
    entries: dict[str, object] = {
        # Alternating / symmetric groups on standard generators.
        "A4": lambda: closure_from_permutations([A([(1, 2, 3)], 4), A([(1, 2), (3, 4)], 4)], spec="A4"),
        "S4": lambda: closure_from_permutations([A([(1, 2, 3, 4)], 4), A([(1, 2)], 4)], spec="S4"),
        "A5": lambda: closure_from_permutations([A([(1, 2, 3, 4, 5)], 5), A([(1, 2, 3)], 5)], spec="A5"),
        "S5": lambda: closure_from_permutations([A([(1, 2, 3, 4, 5)], 5), A([(1, 2)], 5)], spec="S5"),
        "A6": lambda: closure_from_permutations([A([(1, 2, 3, 4, 5)], 6), A([(4, 5, 6)], 6)], spec="A6"),
        # GAP small-group positions pinned to explicit presentations:
        # (16,6) is Z8 x| Z2 with v u v^-1 = u^5 (the modular group of order 16).
        "G16_6": lambda: build_semidirect_cyclic(8, 2, 5, spec="G16_6"),
        # (16,13) is the central product D8 o Z4 (Pauli group), acting on the
        # eight vectors {i^k e_j} of the 2-dim monomial representation.
        "G16_13": lambda: closure_from_permutations(
            [
                A([(1, 2), (3, 4), (5, 6), (7, 8)], 8),
                A([(2, 6), (4, 8)], 8),
                A([(1, 3, 5, 7), (2, 4, 6, 8)], 8),
            ],
            spec="G16_13",
        ),
        "G21_1": lambda: build_semidirect_cyclic(7, 3, 4, spec="G21_1"),
        # (27,3) is the exponent-3 extraspecial group (Heisenberg mod 3),
        # acting on GF(3)^2: x: (i,j) -> (i+1,j), y: (i,j) -> (i,j+i),
        # with the point (i,j) numbered 3i + j + 1.
        "G27_3": lambda: closure_from_permutations(
            [
                A([(1, 4, 7), (2, 5, 8), (3, 6, 9)], 9),
                A([(4, 5, 6), (7, 9, 8)], 9),
            ],
            spec="G27_3",
        ),
        "G27_4": lambda: build_semidirect_cyclic(9, 3, 7, spec="G27_4"),
        "G39_1": lambda: build_semidirect_cyclic(13, 3, 3, spec="G39_1"),
    }
    # PSL(2,p) from the translation and -1/z; PGL(2,p) adds the scaling.
    for p in (3, 5, 7, 11):
        entries[f"PSL2_{p}"] = lambda p=p: closure_from_permutations(
            _moebius_perms(p)[:2], spec=f"PSL2_{p}"
        )
    for p in (3, 5, 7):
        entries[f"PGL2_{p}"] = lambda p=p: closure_from_permutations(
            _moebius_perms(p), spec=f"PGL2_{p}"
        )
    return entries


_CATALOGUE = _catalogue()
CATALOGUE_NAMES = tuple(sorted(_CATALOGUE))


def _build_elementary(n: int) -> Group:
    """Elementary abelian group of order n (a power of 2) as Z2 x ... x Z2."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"E{n}: elementary abelian order must be a power of 2")
    g = build_cyclic(min(n, 2), f"E{min(n, 2)}")
    while g.order < n:
        g = direct_product(g, build_cyclic(2), f"E{2 * g.order}")
    return g


# Family letter -> builder taking the group's order.
_FAMILIES = {"Z": build_cyclic, "D": build_dihedral, "Q": build_dicyclic, "E": _build_elementary}

# One atom: SD(m,n,k), a family letter with its order, or a catalogue name,
# which ends at the product sign "x" (no catalogue name contains one).
_ATOM = re.compile(r"SD\((\d+),(\d+),(\d+)\)|([" + "".join(_FAMILIES) + r"])(\d+)|([^\Wx]+)")


def _spec_error(text: str, pos: int, msg: str) -> ValueError:
    return ValueError(f"group spec error at position {pos}: {msg} (in {text!r})")


def _check_order(order: int, text: str) -> None:
    if order > DEFAULT_CLOSURE_CAP:
        raise ValueError(f"{text}: order {order} exceeds the cap {DEFAULT_CLOSURE_CAP}")


def parse_group_spec(text: str) -> Group:
    """Build the group named by a spec string ("Z12", "Z4xZ2", "SD(7,3,4)",
    "A4", ...), named in normal form ("Z012" gives Z12).

    Parse errors carry their position and orders above DEFAULT_CLOSURE_CAP
    are refused, both before any Cayley table is built; a catalogue name
    counts as order 1 until its capped closure is built.
    """
    text = text.strip()
    atoms = []  # (builder, args) per atom, built once the whole text parses
    order = 1
    pos = 0
    while True:
        m = _ATOM.match(text, pos)
        if m is None or (m[6] and m[6] not in _CATALOGUE):
            word = m[0] if m else text[pos:pos + 1]
            raise _spec_error(text, pos, f"expected a group atom, found {word!r}")
        if m[1]:
            build, args = build_semidirect_cyclic, (int(m[1]), int(m[2]), int(m[3]))
        elif m[4]:
            build, args = _FAMILIES[m[4]], (int(m[5]),)
        else:
            build, args = _CATALOGUE[m[6]], ()
        atoms.append((build, args))
        order *= math.prod(args[:2])  # m*n for SD(m,n,k), n for a family, 1 for a name
        _check_order(order, text)
        pos = m.end()
        if pos == len(text):
            break
        if text[pos] != "x":
            raise _spec_error(text, pos, f"expected 'x' or end, found {text[pos]!r}")
        pos += 1
    groups = [build(*args) for build, args in atoms]
    _check_order(math.prod(h.order for h in groups), text)
    return functools.reduce(direct_product, groups)
