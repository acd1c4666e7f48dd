"""The Python kernels: the reference the compiled kernels are held to.

Each routine here is the Python twin of one function of the C source in
`terraces._ckernel`, and visits the same nodes, moves or neighbours in the
same order:

- `dfs` is `enumerate._dfs`, the backtracking kernel, node for node (with
  `_CRows`, the narcissistic layer 2, and `_Stop`);
- `climb` is `hillclimb.climb`, the climb loop, step for step: the
  climber `_Climber` keeps the arrangement, class counts and altitude and
  applies moves and teleports, and `scan` is its first-improvement move
  scan, move for move (with `_gain`, and `_classes`, the class of each
  quotient and the cap of each class);
- `closure` is `orbit._walk`, the whole orbit closure: it steps with
  `_moves`, the based terraces one move away, and takes each neighbour's
  least image under Aut(G) itself, so it visits the same forms in the
  same order, each new one once;
- `counted_is_terrace` is `props.is_terrace` as it was written before
  it counted b into a list: a `Counter` of `diff_list`, and the
  involutions checked apart;
- `certify` is `latin.certify`, a Latin square's certificate with the
  same witnesses, from the same scans of the cells (with `_offset_repeat`,
  `check_row_complete`, `check_row_quasi_complete`, `roman_k_max` and
  `transpose`);
- `latin_error` is the compiled Latin check `LatinSquare` runs, as a set
  test of each row and column, and `square_cells` the compiled build of
  `latin.square_from`, read from the rows of `ldiv`.

The climb (with `_materialize`, which cuts and reassembles an
arrangement) and `_moves` read the move tables `_ckernel._MOVES` as
tuples, where the C source reads each packed into one int array
(`_ckernel._PACKED`).  `conftest.kernels` swaps the first three in for
the compiled routines, through the same names, so that a test runs one
body on both and compares; the Latin square tests call both and compare
their cells, errors and certificates.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter, deque
from itertools import combinations
from typing import Callable

from terraces._ckernel import _MOVES
from terraces.enumerate import _DIRECTED_KINDS, BudgetExceeded, EnumMode, _end_depth
from terraces.groups import Group, automorphisms, involutions
from terraces.hillclimb import ClimbParams, ClimbResult
from terraces.latin import LatinSquare, SquareCertificate
from terraces.props import (Arrangement, altitude_directed, altitude_undirected, diff_list,
                            is_directed_terrace, is_terrace)


class _Stop(Exception):
    pass


def dfs(
    group: Group,
    mode: EnumMode,
    prune: bool = False,
    sink: list | None = None,
    limit: int | None = None,
    budget: list[int] | None = None,
    prefix: tuple[int, ...] = (),
    stop_at: int | None = None,
    stop=None,
) -> int:
    """The Python kernel: `enumerate._dfs` without the compiled code, node
    for node, with the same arguments and result.  A stop cell is taken
    and not read: this walk keeps the GIL, so threads run it in turn."""
    n = group.order
    kind = mode.kind
    ldiv = group.ldiv
    _classes, caps, cindex = group.class_data
    half = (n - 1) // 2
    # Layer 1: b_depth lands in a bucket with a capacity.  Directed kinds
    # bucket by the quotient itself (capacity 1); the others by its
    # inverse-pair class (capacities 1 and 2, or 1 for the first half of a
    # narcissistic b, whose second half is the mirror image).  Bucket -1
    # has capacity 0.
    if kind in _DIRECTED_KINDS:
        bucket, rem = list(ldiv), [0] + [1] * (n - 1) + [0]
    else:
        bucket = [[cindex[v] for v in row] for row in ldiv]
        rem = ([1] * len(caps) if kind == "narcissistic" else list(caps)) + [0]
    # Layer 2, capacity 1, at the depths where the kind has one: the values
    # of b^(2) for T_k, the classes already in the first half of b for the
    # half-and-half kinds, or the values c_0 = e, ..., c_d of the
    # narcissistic kind (see the module docstring).  slot2[d][a_{d+1-back2}]
    # is the row y -> the layer-2 value of a_{d+1} = y.  T_k layers m >= 3
    # come as a list.
    slot2: list = [None] * n
    deep_at: list = [None] * n
    m2 = marks = None
    back2 = 0
    k = mode.k if kind == "directed_tk" else 1
    if k >= 2:
        marks = [[0] * n for _ in range(k + 1)]
        m2, back2 = marks[2], 2
        for d in range(2, n):
            slot2[d] = ldiv
            if k >= 3 and d >= 3:
                deep_at[d] = range(3, min(k, d) + 1)
    elif kind in ("half_and_half", "directed_half_and_half"):
        ctab = [[cindex[v] for v in row] for row in ldiv]
        m2, back2 = [0] * len(caps), 1
        for d in range(1, half + 1):
            slot2[d] = ctab
    elif kind == "narcissistic":
        m2, back2 = [1] + [0] * (n - 1), 1  # c_0 = e is taken
        crows: list = [(0,)] + [None] * half  # c_0, read at a_1 = e
        mul = group.mul
        table = [[[mul[v][c] for v in row] for row in ldiv] for c in range(n)]
        for d in range(1, half + 1):
            slot2[d] = _CRows(d, crows, table)
    end = _end_depth(n, kind)
    seq = [0] * n
    free = list(range(1, n))

    # The T_k rows for m >= 3, the narcissistic tail and witness output sit
    # in helpers so that the frame of rec stays small.  CPython 3.11 keeps
    # frames in 16 KiB chunks and frees a chunk as soon as its first frame
    # returns, so a search whose stack keeps crossing a chunk edge pays an
    # allocation per crossing; small frames make that less likely.

    def deep_rows(depth):
        return [(ldiv[seq[depth - m]], marks[m]) for m in deep_at[depth]]

    def mirror():
        # b_j = b_{n-j} forces a_{end+1} .. a_{n-1}; each must be unused.
        # An automorphism fixing the (n+1)/2 entries placed fixes a subgroup
        # of more than half the group, so it is the identity: no orderly
        # check is left for the tail.
        placed = set(seq[: end + 1])
        mul = group.mul
        x = seq[end]
        for j in range(end + 1, n):
            x = mul[x][ldiv[seq[n - j - 1]][seq[n - j]]]
            if x in placed:
                return False
            placed.add(x)
            seq[j] = x
        return True

    if stop_at is None:
        def leaf():
            sink.append(Arrangement(group, tuple(seq)))
            if limit is not None and len(sink) >= limit:
                raise _Stop

    else:
        end = stop_at

        def leaf():
            sink.append(tuple(seq[1 : end + 1]))

    # As in the C source, a walk cut at the middle entry checks the tail too.
    forced_tail = mirror if kind == "narcissistic" and end == half else None

    def rec(depth, active):
        if budget is not None:
            if budget[0] <= 0:
                raise BudgetExceeded("search node budget exhausted")
            budget[0] -= 1
        brow = bucket[seq[depth - 1]]
        row2 = slot2[depth]
        if row2 is not None:
            row2 = row2[seq[depth - back2]]
        deep = None if deep_at[depth] is None else deep_rows(depth)
        at_end = depth == end
        total = 0
        for i, y in enumerate(free):
            if depth <= len(prefix) and y != prefix[depth - 1]:
                continue  # a resumed walk's prefix entry is the one candidate
            c = brow[y]
            if not rem[c]:
                continue
            if row2 is not None:
                c2 = row2[y]
                if m2[c2]:
                    continue
            if deep is not None:
                clash = False
                for row, mk in deep:
                    if mk[row[y]]:
                        clash = True
                        break
                if clash:
                    continue
            na = None
            if active is not None:
                rej = False
                for phi in active:
                    t = phi[y]
                    if t < y:
                        rej = True
                        break
                    if t == y:
                        if na is None:
                            na = [phi]
                        else:
                            na.append(phi)
                if rej:
                    continue
            seq[depth] = y
            if at_end:
                if forced_tail is None or forced_tail():
                    total += 1
                    if sink is not None:
                        leaf()
                continue
            rem[c] -= 1
            if row2 is not None:
                m2[c2] = 1
            if deep is not None:
                for row, mk in deep:
                    mk[row[y]] = 1
            del free[i]
            total += rec(depth + 1, na)
            free.insert(i, y)
            rem[c] += 1
            if row2 is not None:
                m2[c2] = 0
            if deep is not None:
                for row, mk in deep:
                    mk[row[y]] = 0
        return total

    # The first automorphism is the identity, which prunes nothing.
    active = automorphisms(group)[1:] if prune else None
    try:
        if end == 0:  # order 1: the arrangement (e) is the one leaf, spending no node
            if sink is not None:
                leaf()
            return 1
        return rec(1, active)
    except _Stop:
        return len(sink)
    finally:
        # rec refers to itself through its closure; clearing that cell frees
        # the ledgers and tables now, not at the next cyclic collection.
        rec = None


class _CRows:
    """Layer 2 of the narcissistic kind at depth d, indexed like the tables
    of the other kinds: self[s], for a_d = s, is the row y -> c_d =
    (s^-1 y) c_{d-1}, which is table[c_{d-1}][s].  The row is kept in
    rows[d], where depth d+1 reads c_d from it (rows[0][e] = c_0 = e)."""

    __slots__ = ("depth", "rows", "table")

    def __init__(self, depth, rows, table):
        self.depth, self.rows, self.table = depth, rows, table

    def __getitem__(self, s):
        d = self.depth
        row = self.rows[d] = self.table[self.rows[d - 1][s]][s]
        return row


def _materialize(seq, cuts, order, mask):
    """seq cut at `cuts` and reassembled: the pieces in `order`, piece k
    reversed when bit k of mask is set."""
    bounds = [0, *cuts, len(seq)]
    pieces = [seq[bounds[i] : bounds[i + 1]] for i in range(len(cuts) + 1)]
    out = []
    for k in order:
        p = pieces[k]
        out.extend(p[::-1] if (mask >> k) & 1 else p)
    return out


def _classes(group: Group, mode: str) -> tuple[array, array]:
    """The class of each quotient and the cap of each class."""
    if mode == "terrace":
        _cl, caps, cindex = group.class_data
        return array("i", cindex), array("i", caps)
    return array("i", range(group.order)), array("i", [1]) * group.order


class _Climber:
    """The climber's arrangement, class counts and altitude, with its moves
    and teleports applied from O(1) count updates."""

    def __init__(self, group: Group, mode: str, seq: list[int]):
        self.group = group
        self.mode = mode
        self.n = n = group.order
        self.ldiv = group.ldiv
        self.cls, self.cap = _classes(group, mode)
        self.seq = seq = array("i", seq)
        self.ccnt = array("i", [0]) * len(self.cap)
        self.alt = 0
        self._update((), [self.ldiv[seq[i]][seq[i + 1]] for i in range(n - 1)])

    def _update(self, removed, added) -> None:
        """Replace the quotients `removed` by `added` in the class counts
        and the altitude."""
        ccnt, cls, cap = self.ccnt, self.cls, self.cap
        alt = self.alt
        for v in removed:
            c = cls[v]
            ccnt[c] -= 1
            alt -= ccnt[c] < cap[c]
        for v in added:
            c = cls[v]
            alt += ccnt[c] < cap[c]
            ccnt[c] += 1
        self.alt = alt

    def check(self) -> None:
        arr = Arrangement(self.group, tuple(self.seq))
        ref = altitude_directed(arr) if self.mode == "directed" else altitude_undirected(arr)
        if ref != self.alt:
            raise AssertionError(f"incremental altitude {self.alt} != recomputed {ref}")

    def teleport(self, r: int) -> None:
        """Move seq[r] to the end: the quotients next to it are replaced by
        the one that joins its neighbours and the one that joins the old
        end to it."""
        seq, ldiv, last = self.seq, self.ldiv, self.n - 1
        if r == last:
            return
        x, y = seq[r], seq[r + 1]
        removed, added = [ldiv[x][y]], [ldiv[seq[last]][x]]
        if r > 0:
            removed.append(ldiv[seq[r - 1]][x])
            added.append(ldiv[seq[r - 1]][y])
        self._update(removed, added)
        seq.append(seq.pop(r))

    def try_improve(self, max_cuts: int) -> bool:
        """Apply the first move that raises the altitude (one cut, then two)."""
        terrace = self.mode == "terrace"
        for npieces in range(2, max_cuts + 2):
            hit = scan(self, npieces)
            if hit is not None:
                cuts, move = hit
                order, mask, junctions, broken = _MOVES[npieces, terrace][1][move]
                seq, ldiv = self.seq, self.ldiv
                ends = (seq[0], *(seq[c] for c in cuts), *(seq[c - 1] for c in cuts), seq[-1])
                self._update([ldiv[ends[i]][ends[j]] for i, j in broken],
                             [ldiv[ends[i]][ends[j]] for i, j in junctions])
                self.seq = array("i", _materialize(seq, cuts, order, mask))
                return True
        return False


def _gain(self, removed, added) -> int:
    """Altitude change of the climber `self` from replacing the quotients
    `removed` by `added`."""
    alt = self.alt
    self._update(removed, added)
    gain = self.alt - alt
    self._update(added, removed)
    return gain


def scan(self, npieces: int) -> tuple[tuple[int, ...], int] | None:
    """The first improving move of the climber `self` as (cuts, index in
    the move table), or None: the Python scan, which the compiled one
    repeats move for move."""
    ccnt, cap = self.ccnt, self.cap
    # room[v]: the class of quotient v holds fewer than cap entries.
    # Within one class, a move that removes k entries and adds j can
    # raise the altitude only if j > k and the class had room before the
    # move; so a move none of whose new junctions lands in room cannot
    # gain, and skipping it (or a cut tuple with no such end pair at
    # all) leaves the first improving move unchanged.
    room = [ccnt[c] < cap[c] for c in self.cls]
    seq, ldiv, n = self.seq, self.ldiv, self.n
    pairs, moves = _MOVES[npieces, self.mode == "terrace"]
    s0, sl, k = seq[0], seq[n - 1], npieces - 1
    # cut c splits seq[c - 1] (a tail) from seq[c] (a head)
    for cuts, heads, tails in zip(
        combinations(range(1, n), k), combinations(seq[1:], k), combinations(seq[:-1], k)
    ):
        ends = (s0, *heads, *tails, sl)
        for i, j in pairs:
            if room[ldiv[ends[i]][ends[j]]]:
                break
        else:
            continue
        for index, (_order, _mask, junctions, broken) in enumerate(moves):
            for i, j in junctions:
                if room[ldiv[ends[i]][ends[j]]]:
                    break
            else:
                continue
            added = [ldiv[ends[i]][ends[j]] for i, j in junctions]
            removed = [ldiv[ends[i]][ends[j]] for i, j in broken]
            if _gain(self, removed, added) > 0:
                return cuts, index
    return None


def climb(group: Group, params: ClimbParams, *, stop=None) -> ClimbResult:
    """The Python climb loop: `hillclimb.climb` step for step, with one
    randrange(n) drawn at each teleport.  A stop cell is taken and not
    read, as in `dfs`."""
    n = group.order
    if n < 2:
        raise ValueError("climb needs order >= 2")
    rng = random.Random(params.seed)
    directed = params.mode == "directed"
    start = list(range(n))
    rng.shuffle(start)
    climber = _Climber(group, params.mode, start)
    steps = teleports = 0
    trace: list[int] | None = [] if params.record_trace else None

    def result(outcome: str, arrangement: Arrangement | None) -> ClimbResult:
        return ClimbResult(
            outcome,
            arrangement,
            steps,
            teleports,
            params.seed,
            None if trace is None else tuple(trace),
        )

    while True:
        if climber.alt == n - 1:
            arr = Arrangement(group, tuple(climber.seq))
            ok = is_directed_terrace(arr) if directed else is_terrace(arr)
            if not ok:
                raise AssertionError("altitude bookkeeping and verifier disagree")
            return result("found", arr)
        if steps >= params.max_steps or teleports >= params.max_steps:
            return result("exhausted", None)
        if climber.try_improve(params.max_cuts):
            steps += 1
            if params.debug_check:
                climber.check()
            if trace is not None:
                trace.append(climber.alt)
            continue
        climber.teleport(rng.randrange(n))
        if params.debug_check:
            climber.check()
        teleports += 1


def _moves(g: Group, seq: tuple[int, ...], allow_piece_reversal: bool) -> list[tuple[int, ...]]:
    """The based terraces one move away from the terrace seq, first
    occurrences in order: the whole reversal, then, cut by cut, each move
    of the 2-piece table whose new junction's quotient is in the class of
    the junction it breaks."""
    ldiv, cls = g.ldiv, g.class_data[2]
    row = ldiv[seq[-1]]
    out = {tuple(row[x] for x in reversed(seq)): None}
    for c in range(1, len(seq)):
        ends, pieces = (seq[0], seq[c], seq[c - 1], seq[-1]), (seq[:c], seq[c:])
        for order, mask, ((i, j),), ((k, l),) in _MOVES[2, allow_piece_reversal][1]:
            if cls[ldiv[ends[i]][ends[j]]] == cls[ldiv[ends[k]][ends[l]]]:
                cand = [x for p in order for x in (pieces[p][::-1] if mask >> p & 1 else pieces[p])]
                row = ldiv[cand[0]]
                out[tuple(row[x] for x in cand)] = None
    return list(out)


def closure(g: Group, allow_piece_reversal: bool, seq: tuple[int, ...],
            visit: Callable[[tuple[int, ...]], bool], limit: int | None = None) -> int:
    """`orbit._walk`: visit(form) for the least image under Aut(g) of the
    re-based seq, then breadth first for the least image of each neighbour
    `_moves` lists that is new, until visit answers true, limit forms
    have been visited, or none is left; returns the number visited."""
    auts = automorphisms(g)

    def least(s):
        return min(tuple(phi[x] for x in s) for phi in auts)

    row = g.ldiv[seq[0]]
    start = least([row[x] for x in seq])
    seen = {start}
    queue = deque([start])
    if visit(start) or (limit is not None and len(seen) >= limit):
        return len(seen)
    while queue:
        for cf in map(least, _moves(g, queue.popleft(), allow_piece_reversal)):
            if cf in seen:
                continue
            seen.add(cf)
            if visit(cf) or (limit is not None and len(seen) >= limit):
                return len(seen)
            queue.append(cf)
    return len(seen)


def counted_is_terrace(a: Arrangement) -> bool:
    """Each involution exactly once in b; each pair {x, x^-1} twice in total."""
    g = a.group
    if g.order == 1:
        return True
    counts = Counter(diff_list(a))
    for z in involutions(g):
        if counts.get(z, 0) != 1:
            return False
    inv = g.inv
    for x in range(1, g.order):
        if inv[x] != x and counts.get(x, 0) + counts.get(inv[x], 0) != 2:
            return False
    return True


def latin_error(n: int, cells) -> str | None:
    """The set-based check `LatinSquare` ran in Python before the compiled
    one: None when the flat cells are n rows of n whose every row, then
    every column, holds the symbols 0..n-1, else the error that says what
    is not."""
    if len(cells) != n * n:
        return f"{len(cells)} cells for a square of order {n}"
    rows = [cells[r * n:(r + 1) * n] for r in range(n)]
    full = set(range(n))
    for r, row in enumerate(rows):
        if set(row) != full:
            return f"row {r} is not a permutation of 0..{n - 1}"
    for c, column in enumerate(zip(*rows)):
        if set(column) != full:
            return f"column {c} is not a permutation of 0..{n - 1}"
    return None


def square_cells(a: Arrangement) -> list[int]:
    """The cells of a's square, row-major, read from the rows of `ldiv`."""
    ldiv = a.group.ldiv
    return [ldiv[x][y] for x in a.seq for y in a.seq]


def transpose(sq: LatinSquare) -> LatinSquare:
    rows = sq.rows
    return LatinSquare(sq.order, [row[c] for c in range(sq.order) for row in rows], sq.group_spec, None)


def _offset_repeat(sq: LatinSquare, m: int) -> dict | None:
    """First ordered pair occurring twice at horizontal offset m, or None."""
    n = sq.order
    first: dict[int, tuple[int, int]] = {}
    for r, row in enumerate(sq.rows):
        for c in range(n - m):
            key = row[c] * n + row[c + m]
            if key in first:
                r0, c0 = first[key]
                return {
                    "pair": [row[c], row[c + m]],
                    "offset": m,
                    "positions": [[r0, c0], [r, c]],
                }
            first[key] = (r, c)
    return None


def check_row_complete(sq: LatinSquare) -> tuple[bool, dict | None]:
    """Each ordered pair of symbols adjacent within rows exactly once.

    There are exactly n(n-1) adjacent slots, so no repeat means every pair
    occurs; the witness is the first repeated pair.
    """
    witness = _offset_repeat(sq, 1) if sq.order > 1 else None
    return witness is None, witness


def check_row_quasi_complete(sq: LatinSquare) -> tuple[bool, dict | None]:
    """Each unordered pair adjacent within rows exactly twice (either order)."""
    n = sq.order
    counts = [0] * (n * n)
    for row in sq.rows:
        for x, y in zip(row, row[1:]):
            counts[(x * n + y) if x < y else (y * n + x)] += 1
    for x in range(n):
        for y in range(x + 1, n):
            key = x * n + y
            if counts[key] != 2:
                return False, {
                    "pair": [x, y],
                    "offset": 1,
                    "count": counts[key],
                    "positions": [[r, c] for r, row in enumerate(sq.rows)
                                  for c in range(n - 1) if {row[c], row[c + 1]} == {x, y}],
                }
    return True, None


def roman_k_max(sq: LatinSquare) -> int:
    """Largest k such that every ordered pair occurs at most once at every
    horizontal offset m <= k; 0 when even offset 1 fails."""
    k = 0
    while k < sq.order - 1 and _offset_repeat(sq, k + 1) is None:
        k += 1
    return k


def certify(sq: LatinSquare) -> SquareCertificate:
    t = transpose(sq)
    row_ok, row_wit = check_row_complete(sq)
    quasi_ok, quasi_wit = check_row_quasi_complete(sq)
    roman = roman_k_max(sq)
    return SquareCertificate(
        row_complete=row_ok,
        complete=row_ok and check_row_complete(t)[0],
        row_quasi_complete=quasi_ok,
        quasi_complete=quasi_ok and check_row_quasi_complete(t)[0],
        roman_k_max=roman,
        k_complete_max=min(roman, roman_k_max(t)),
        row_witness=row_wit,
        quasi_witness=quasi_wit,
    )
