"""Finite groups as explicit Cayley tables with deterministic element ordering.

Element ids are 0-based and id 0 is always the identity.  Each constructor
fixes a documented, reproducible element ordering so that arrangement files
written against a group-spec string stay valid across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Group",
    "GroupSpec",
    "SpecAtom",
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
    "parse_spec",
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
    return [c for c, _cap in zip(*_class_data(group)[:2])]


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


def build_dihedral(order: int, spec: str | None = None) -> Group:
    """Dihedral group of the given (even) order.

    Presentation <r, s | r^m = s^2 = e, s r s = r^-1> with m = order/2; the
    element r^i s^j gets id 2i + j (interleaved ordering).
    """
    if order < 2 or order % 2:
        raise ValueError(f"dihedral order must be even and >= 2, got {order}")
    m = order // 2
    mul = [[0] * order for _ in range(order)]
    for i in range(m):
        for j in range(2):
            for a in range(m):
                for b in range(2):
                    ii = (i + a) % m if j == 0 else (i - a) % m
                    mul[2 * i + j][2 * a + b] = 2 * ii + (j + b) % 2
    words = [_two_gen_word("r", i, "s", j) for i in range(m) for j in range(2)]
    return Group(mul, words, spec or f"D{order}")


def build_dicyclic(order: int, spec: str | None = None) -> Group:
    """Dicyclic group of the given order (divisible by 4).

    Presentation <u, v | u^(2m) = e, v^2 = u^m, v u v^-1 = u^-1> with
    m = order/4; the element u^i v^j gets id 2i + j (interleaved ordering).
    """
    if order < 8 or order % 4:
        raise ValueError(f"dicyclic order must be divisible by 4 and >= 8, got {order}")
    m = order // 4
    mm = 2 * m
    mul = [[0] * order for _ in range(order)]
    for i in range(mm):
        for j in range(2):
            for a in range(mm):
                for b in range(2):
                    if j == 0:
                        ii, jj = (i + a) % mm, b
                    elif b == 0:
                        ii, jj = (i - a) % mm, 1
                    else:
                        ii, jj = (i - a + m) % mm, 0
                    mul[2 * i + j][2 * a + b] = 2 * ii + jj
    words = [_two_gen_word("u", i, "v", j) for i in range(mm) for j in range(2)]
    return Group(mul, words, spec or f"Q{order}")


def build_semidirect_cyclic(m: int, n: int, k: int, spec: str | None = None) -> Group:
    """Semidirect product <u, v | u^m = e = v^n, v u = u^k v>.

    Requires gcd(k, m) = 1 and k^n = 1 (mod m); the element u^i v^j gets
    id i*n + j.
    """
    if m < 1 or n < 1 or k < 1:
        raise ValueError("semidirect parameters must be positive")
    if _gcd(k % m if m > 1 else 1, m) != 1:
        raise ValueError(f"SD({m},{n},{k}): k must be invertible mod m")
    if pow(k, n, m) != 1 % m:
        raise ValueError(f"SD({m},{n},{k}): k^n != 1 (mod m), relation inconsistent")
    kpow = [pow(k, j, m) for j in range(n)]
    order = m * n
    mul = [[0] * order for _ in range(order)]
    for i in range(m):
        for j in range(n):
            kj = kpow[j]
            for a in range(m):
                for b in range(n):
                    mul[i * n + j][a * n + b] = ((i + a * kj) % m) * n + (j + b) % n
    words = [_two_gen_word("u", i, "v", j) for i in range(m) for j in range(n)]
    return Group(mul, words, spec or f"SD({m},{n},{k})")


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


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
    generators: Sequence[Sequence[int]],
    cap: int = DEFAULT_CLOSURE_CAP,
    spec: str | None = None,
) -> Group:
    """Breadth-first closure of permutation generators under composition.

    Generators are permutations of {1..d} in one-line notation (1-based
    images).  Products follow the right-action convention: x*y applies x
    first, then y.  Element ordering is BFS discovery order from the
    identity, exploring generators in the listed order; element words use
    cycle notation.
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
    pos = 0
    while pos < len(elems):
        x = elems[pos]
        pos += 1
        for g in gens0:
            y = tuple(g[x[i]] for i in range(d))
            if y not in index:
                if len(elems) >= cap:
                    raise ValueError(f"closure exceeds cap {cap}")
                index[y] = len(elems)
                elems.append(y)
    n = len(elems)
    mul = [[0] * n for _ in range(n)]
    for i, x in enumerate(elems):
        row = mul[i]
        for j, y in enumerate(elems):
            row[j] = index[tuple(y[x[t]] for t in range(d))]
    words = [_cycle_word(p) for p in elems]
    return Group(mul, words, spec or "PERM[" + ",".join(words[1 : len(gens0) + 1]) + "]")


def _moebius_perms(p: int) -> dict[str, tuple[int, ...]]:
    """Generators of the Moebius action on the projective line over GF(p).

    Points are z = 0..p-1 at positions 1..p and the infinite point at p+1.
    """
    inf = p + 1

    def pt(z: int | None) -> int:
        return inf if z is None else z % p + 1

    def make(f) -> tuple[int, ...]:
        img = [0] * inf
        for z in range(p):
            img[z] = pt(f(z))
        img[p] = pt(f(None))
        return tuple(img)

    def translate(z):
        return None if z is None else z + 1

    def neg_recip(z):
        if z is None:
            return 0
        if z % p == 0:
            return None
        return -pow(z, p - 2, p)

    g = _least_primitive_root(p)

    def scale(z):
        return None if z is None else g * z

    return {"t": make(translate), "s": make(neg_recip), "m": make(scale)}


def _least_primitive_root(p: int) -> int:
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise ValueError(f"{p} is not prime")


# ---------------------------------------------------------------------------
# Automorphisms


def automorphisms(group: Group, cap: int = DEFAULT_AUT_CAP) -> list[tuple[int, ...]]:
    """The full automorphism group as permutations of element ids.

    Uses a greedy generating set and backtracking over order-matching
    generator images; the result is sorted lexicographically.
    """
    if group.order > cap:
        raise ValueError(f"automorphism search capped at order {cap}, group has {group.order}")
    if group._auts is not None:
        return list(group._auts)
    n = group.order
    mul = group.mul
    gens = _greedy_generators(group)
    # Expression DAG: every element as parent * generator, in BFS order.
    expr: list[tuple[int, int] | None] = [None] * n
    disc = [0]
    found = bytearray(n)
    found[0] = 1
    qi = 0
    while qi < len(disc):
        x = disc[qi]
        qi += 1
        for gi, g in enumerate(gens):
            y = mul[x][g]
            if not found[y]:
                found[y] = 1
                expr[y] = (x, gi)
                disc.append(y)
    ords = _orders(group)
    candidates = [[y for y in range(n) if ords[y] == ords[g]] for g in gens]
    auts: list[tuple[int, ...]] = []
    img = [0] * len(gens)

    def build_and_check() -> None:
        phi = [-1] * n
        phi[0] = 0
        hit = bytearray(n)
        hit[0] = 1
        for x in disc[1:]:
            p, gi = expr[x]  # type: ignore[misc]
            v = mul[phi[p]][img[gi]]
            if hit[v]:
                return
            hit[v] = 1
            phi[x] = v
        for a in range(n):
            ra, pa = mul[a], phi[a]
            rpa = mul[pa]
            for b in range(n):
                if phi[ra[b]] != rpa[phi[b]]:
                    return
        auts.append(tuple(phi))

    def assign(i: int) -> None:
        if i == len(gens):
            build_and_check()
            return
        for y in candidates[i]:
            img[i] = y
            assign(i + 1)

    assign(0)
    auts.sort()
    group._auts = auts
    return list(auts)


def _greedy_generators(group: Group) -> list[int]:
    """Repeatedly add the least id outside the current closure."""
    n = group.order
    gens: list[int] = []
    closed = {0}
    while len(closed) < n:
        g = min(x for x in range(n) if x not in closed)
        gens.append(g)
        closed = _closure_set(group, closed | {g})
    return gens


def _closure_set(group: Group, seed: set[int]) -> set[int]:
    mul = group.mul
    out = set(seed) | {0}
    frontier = list(out)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(out):
                for z in (mul[x][y], mul[y][x]):
                    if z not in out:
                        out.add(z)
                        nxt.append(z)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# Group-spec grammar and catalogue
#
#   spec  := atom ( "x" atom )*
#   atom  := "Z"int | "D"int | "Q"int | "E"int | "SD(" int "," int "," int ")" | NAME
#
# "D8" is the dihedral group OF ORDER 8, "Q12" the dicyclic group of order 12,
# "E8" the elementary abelian group of order 8.


@dataclass(frozen=True)
class SpecAtom:
    kind: str  # "Z" | "D" | "Q" | "E" | "SD" | "NAME"
    params: tuple

    def format(self) -> str:
        if self.kind == "SD":
            return "SD({},{},{})".format(*self.params)
        if self.kind == "NAME":
            return self.params[0]
        return f"{self.kind}{self.params[0]}"


@dataclass(frozen=True)
class GroupSpec:
    atoms: tuple[SpecAtom, ...]

    def format(self) -> str:
        return "x".join(a.format() for a in self.atoms)


def _catalogue() -> dict:
    A = perm_from_cycles
    moeb = _moebius_perms
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
    for p in (3, 5, 7, 11):
        entries[f"PSL2_{p}"] = lambda p=p: closure_from_permutations(
            [moeb(p)["t"], moeb(p)["s"]], spec=f"PSL2_{p}"
        )
    for p in (3, 5, 7):
        entries[f"PGL2_{p}"] = lambda p=p: closure_from_permutations(
            [moeb(p)["t"], moeb(p)["s"], moeb(p)["m"]], spec=f"PGL2_{p}"
        )
    return entries


_CATALOGUE = _catalogue()
CATALOGUE_NAMES = tuple(sorted(_CATALOGUE))


class _SpecParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> ValueError:
        return ValueError(f"group spec error at position {self.pos}: {msg} (in {self.text!r})")

    def parse(self) -> GroupSpec:
        atoms = [self.atom()]
        while self.pos < len(self.text):
            if self.text[self.pos] != "x":
                raise self.error(f"expected 'x' or end, found {self.text[self.pos]!r}")
            self.pos += 1
            atoms.append(self.atom())
        return GroupSpec(tuple(atoms))

    def atom(self) -> SpecAtom:
        t, i = self.text, self.pos
        if i >= len(t):
            raise self.error("expected a group atom")
        if t.startswith("SD(", i):
            self.pos = i + 3
            m = self.integer()
            self.expect(",")
            n = self.integer()
            self.expect(",")
            k = self.integer()
            self.expect(")")
            return SpecAtom("SD", (m, n, k))
        head = t[i]
        if head in "ZDQE" and i + 1 < len(t) and t[i + 1].isdigit():
            self.pos = i + 1
            return SpecAtom(head, (self.integer(),))
        # No catalogue name contains "x", so a name ends at the product sign.
        j = i
        while j < len(t) and (t[j].isalnum() or t[j] == "_") and t[j] != "x":
            j += 1
        name = t[i:j]
        if name in _CATALOGUE:
            self.pos = j
            return SpecAtom("NAME", (name,))
        raise self.error(f"unknown group atom starting with {t[i:j] or t[i]!r}")

    def integer(self) -> int:
        j = self.pos
        while j < len(self.text) and self.text[j].isdigit():
            j += 1
        if j == self.pos:
            raise self.error("expected an integer")
        val = int(self.text[self.pos : j])
        self.pos = j
        return val

    def expect(self, ch: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1


def parse_spec(text: str) -> GroupSpec:
    """Parse a group-spec string into its tree; raises ValueError with position."""
    return _SpecParser(text.strip()).parse()


def _build_atom(atom: SpecAtom) -> Group:
    kind, params = atom.kind, atom.params
    if kind == "Z":
        return build_cyclic(params[0])
    if kind == "D":
        return build_dihedral(params[0])
    if kind == "Q":
        return build_dicyclic(params[0])
    if kind == "E":
        n = params[0]
        if n < 1 or n & (n - 1):
            raise ValueError(f"E{n}: elementary abelian order must be a power of 2")
        g = build_cyclic(1) if n == 1 else build_cyclic(2)
        while g.order < n:
            g = direct_product(g, build_cyclic(2))
        return Group(g.mul, g.element_words, f"E{n}")
    if kind == "SD":
        return build_semidirect_cyclic(*params)
    return _CATALOGUE[params[0]]()  # type: ignore[operator]


def _atom_order(atom: SpecAtom) -> int:
    """The order an atom names; 1 for a catalogue name, whose closure is
    capped while it is built."""
    if atom.kind == "SD":
        return atom.params[0] * atom.params[1]
    if atom.kind == "NAME":
        return 1
    return atom.params[0]


def _check_order(order: int, spec: GroupSpec) -> None:
    if order > DEFAULT_CLOSURE_CAP:
        raise ValueError(f"{spec.format()}: order {order} exceeds the cap {DEFAULT_CLOSURE_CAP}")


def build_group(spec: GroupSpec) -> Group:
    """Build the group a spec names; orders above DEFAULT_CLOSURE_CAP are
    rejected before any Cayley table is built."""
    order = 1
    for atom in spec.atoms:
        order *= _atom_order(atom)
        _check_order(order, spec)
    groups = [_build_atom(a) for a in spec.atoms]
    order = 1
    for h in groups:
        order *= h.order
    _check_order(order, spec)
    g = groups[0]
    for h in groups[1:]:
        g = direct_product(g, h)
    return Group(g.mul, g.element_words, spec.format())


def parse_group_spec(text: str) -> Group:
    """Build the group named by a spec string ("Z12", "Z4xZ2", "SD(7,3,4)", "A4", ...)."""
    return build_group(parse_spec(text))
