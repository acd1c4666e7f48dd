"""The compiled kernels: `enumerate._dfs`, the climb loop of
`hillclimb.climb`, the orbit closure, and the build, Latin check and
certificate of `latin`'s squares in C, built on first use.

The C source is `_kernel.c`, shipped beside this module as package data.
Its comments say what each function does.  It exports six, each with a
Python twin in `tests/oracles.py` that the tests hold it to:
`terraces_dfs` is `oracles.dfs` node for node, `terraces_climb`
`oracles.climb` step for step, `terraces_closure` `oracles.closure` form
for form, `terraces_square` `oracles.square_cells`, `terraces_latin`
`oracles.latin_error` and `terraces_certify` `oracles.certify`.

`load` compiles the source with the system C compiler into a per-user
cache directory, loads it with `ctypes` and returns the six functions as
a `Kernel`.  The compiler is needed at first use: where no compiler,
cache directory or loader works, `load` raises one `OSError` that names
the compiler, the directories tried and the last lines of the compiler's
own message.

Only this module knows the flat int layout of the tables the C source
reads, and, in `_KINDS`, how the search encodes each kind it takes by
name.  The search, climb, closure and square wrappers take a `Group`,
whose tables `_flat` builds once and keeps in the group's instance dict.
The Latin check and the certificate read a square's cell array alone,
with no copy, so they stay checks that do not depend on a group.

The climb's moves are one move table per piece count (two or three) and
reversal flag, built once at import (`_MOVES`): for each (piece order,
reversal mask), the pairs of piece ends the move joins and the ones it
breaks.  One scan serves both climb modes and both cut counts, and the
orbit closure's neighbour step walks the 2-piece table.  Each table is
packed into one int array (`_PACKED`), and the wrappers choose it from
their mode flag.  An exact prefilter skips every cut tuple and every move
that forms no junction in a class with room, since such a move cannot
raise the altitude; only the rest reach the gain test.

The kernels call the interpreter's C API, whose symbols are resolved when
`ctypes.PyDLL` loads the shared object, as for any extension module; an
object that cannot be loaded ends in `load`'s one `OSError` too.  A call
keeps the GIL and raises the Python error pending when it returns.  The
search checks for signals every 2^20 nodes, the climb before every scan
and the closure before every step, and each stops when a handler raised,
so Ctrl-C interrupts a long walk, climb or closure at once.  An exception
raised in a Python callback (the search's leaf, the climb's draw and
step, the closure's visit), a KeyboardInterrupt included, stops the
kernel too, and the wrapper raises it when the call returns.

The search and the climb also take a stop cell, a one-int array that
another thread may set.  Given one, the call releases the GIL for its
walk or climb and takes it back only around a callback, polls the cell
where it would check for signals, and raises `Stopped` when it finds it
set; so calls on several threads run in parallel, and the thread that
set the cell stops them all.  Either kernel writes no memory it did not
allocate in its hot loop: threads writing Python arrays that share a
cache line would slow each other down.
"""

from __future__ import annotations

import array
import os
import tempfile
import zlib
from itertools import chain, permutations
from typing import Callable, NamedTuple

from .groups import Group, automorphisms

_SOURCE = "_kernel.c"  # the C source, package data beside this module
_CC = "gcc"
_FLAGS = ("-O2", "-shared", "-fPIC")
_PREFIX = "dfs-"  # shared objects are named _PREFIX + source digest + ".so"
_KERNEL: Kernel | None = None  # the loaded kernels, once built


class Stopped(Exception):
    """A search or climb given a stop cell found it set, and stopped."""


# A group's tables in the row-major int layout the C source reads, each
# built by its entry here: left division and multiplication (n x n); the
# inverse-pair class of each element and the cap of each class, with the
# identity in a last class of cap 0, so that the climb's room test reads
# no entry outside the counts; the class of each quotient (n x n); one
# class per element, which is also the identity automorphism, and a cap
# of 1 each; and every automorphism, the identity first (n each).  Each is
# built from a list, sized exactly, so that ASan sees a read past its end.
_TABLES: dict[str, Callable[[Group], array.array]] = {
    "ldiv": lambda g: _rows(g.ldiv),
    "mul": lambda g: _rows(g.mul),
    "cls": lambda g: array.array("i", [len(g.class_data[1]), *g.class_data[2][1:]]),
    "caps": lambda g: array.array("i", [*g.class_data[1], 0]),
    "ctab": lambda g: array.array("i", [*map(_flat(g, "cls")[0].__getitem__, _flat(g, "ldiv")[0])]),
    "ids": lambda g: array.array("i", [*range(g.order)]),
    "ones": lambda g: array.array("i", [1]) * g.order,
    "auts": lambda g: _rows(automorphisms(g)),
}


def _rows(rows) -> array.array:
    """The int rows `rows`, one after another, in one exactly sized array."""
    return array.array("i", [x for row in rows for x in row])


class _Kind(NamedTuple):
    """A search kind: b bucketed by quotient (directed) or by inverse-pair
    class; the C source's layer 2 (see walk there), 0 none, 1 the classes
    of b's first half, 2 the narcissistic c_d; a T_k depth k >= 2 (tk)."""

    directed: bool
    layer2: int
    tk: bool

    @property
    def mirrored(self) -> bool:  # the second half of b mirrors the first
        return self.layer2 == 2


# The search kinds, in the order `enumerate.KINDS` lists them.
_KINDS = {
    "directed": _Kind(True, 0, False),
    "terrace": _Kind(False, 0, False),
    "directed_tk": _Kind(True, 0, True),
    "half_and_half": _Kind(False, 1, False),
    "narcissistic": _Kind(False, 2, False),
    "directed_half_and_half": _Kind(True, 1, False),
}


# The climb's move tables.  Move order: cut positions ascending, then piece
# orders lexicographically, then reversal masks ascending (bit i reverses
# the piece with original index i).  The identity combination is skipped.


def _iter_combos(npieces: int, allow_reversal: bool):
    masks = range(1 << npieces) if allow_reversal else (0,)
    ident = tuple(range(npieces))
    for order in permutations(range(npieces)):
        for mask in masks:
            if order == ident and mask == 0:
                continue
            yield order, mask


def _move_table(npieces: int, allow_reversal: bool):
    """(pairs, moves) for one piece count, moves in `_iter_combos` order.

    The ends of the pieces are indexed heads first, then tails:
    (seq[0], seq[c1], ..., seq[c1 - 1], ..., seq[n - 1]).  A move is
    (order, mask, junctions, broken): the (last end, first end) pairs it
    joins that the arrangement does not, and the ones it breaks; the two
    lists have equal length.  `pairs` holds every end pair some move joins.
    """
    p = npieces
    joined = [(p + k, k + 1) for k in range(p - 1)]
    moves = []
    for order, mask in _iter_combos(p, allow_reversal):
        joins = [
            (a if (mask >> a) & 1 else p + a, p + b if (mask >> b) & 1 else b)
            for a, b in zip(order, order[1:])
        ]
        junctions = tuple(j for j in joins if j not in joined)
        broken = tuple(j for j in joined if j not in joins)
        moves.append((order, mask, junctions, broken))
    pairs = tuple(dict.fromkeys(j for m in moves for j in m[2]))
    return pairs, tuple(moves)


def _pack(pairs, moves) -> array.array:
    """A move table in the one int array the C source reads (see ROW
    there): len(pairs), len(moves), the pairs, then per move the junction
    count, the junctions and the broken pairs, zero-padded to 4 (p - 1)
    ints, then the piece order and the mask."""
    out = [len(pairs), len(moves), *chain(*pairs)]
    for order, mask, junctions, broken in moves:
        out += [len(junctions), *chain(*junctions, *broken)]
        out += [0] * (4 * (len(order) - 1 - len(junctions)))
        out += [*order, mask]
    return array.array("i", out)  # sized exactly, so that ASan sees a read past the end


_MOVES = {(p, rev): _move_table(p, rev) for p in (2, 3) for rev in (False, True)}
_PACKED = {key: _pack(*table) for key, table in _MOVES.items()}


def _climb_tables(group: Group, terrace: bool) -> list[array.array]:
    """The tables a climb of group reads: left division, then the class of
    each element and the cap of each class, the inverse-pair classes when
    terrace is set, else one class per element, every cap 1."""
    return _flat(group, "ldiv", *(("cls", "caps") if terrace else ("ids", "ones")))


def _flat(group: Group, *names: str) -> list[array.array]:
    """group's tables `names` (see `_TABLES`), each built the first time a
    kernel needs it and kept on the group."""
    tables = vars(group).setdefault("_flat", {})
    for name in names:
        if name not in tables:
            tables[name] = _TABLES[name](group)
    return [tables[name] for name in names]


class Kernel(NamedTuple):
    """The compiled functions, wrapped to take Python values (see `_bind`)."""

    dfs: Callable
    climb: Callable
    closure: Callable
    square: Callable
    latin: Callable
    certify: Callable


def _check_size(n: int, cells) -> None:
    """Refuse cells the Latin square kernels cannot read as n x n ints."""
    if not isinstance(cells, array.array) or cells.typecode != "i":
        raise TypeError("cells must be an int array")
    if n < 0 or len(cells) != n * n:
        raise ValueError(f"{len(cells)} cells for a square of order {n}")


def _cache_dirs() -> list[str]:
    """Where the shared object may live: the user's cache, then a private
    directory in the temp directory."""
    return [
        os.path.join(os.path.expanduser("~"), ".cache", "terraces"),
        os.path.join(tempfile.gettempdir(), f"terraces-{os.getuid()}"),
    ]


def _bind(path: str) -> Kernel:
    """The kernels in the shared object at `path`."""
    import ctypes

    c_int, ptr, obj = ctypes.c_int, ctypes.c_void_p, ctypes.py_object
    lib = ctypes.PyDLL(path)

    def bind(name, restype, *argtypes):
        f = getattr(lib, f"terraces_{name}")
        f.restype, f.argtypes = restype, argtypes
        return f

    fn = bind("dfs", ctypes.c_longlong, *[c_int] * 4, *[ptr] * 3, c_int, *[ptr] * 2, c_int, ptr, c_int, ptr,
              ptr, obj, ptr, ptr)
    climb_fn = bind("climb", c_int, c_int, c_int, *[ptr] * 3, c_int, c_int, *[ptr] * 3, obj, obj, ptr, ptr)
    closure_fn = bind("closure", c_int, c_int, *[ptr] * 4, c_int, ptr, c_int, ptr, obj)
    square_fn = bind("square", c_int, c_int, ptr, ptr, ptr)
    latin_fn = bind("latin", c_int, c_int, ptr)
    cert_fn = bind("certify", c_int, c_int, ptr, ptr)

    def addr(a: array.array | None) -> int | None:
        return None if a is None else a.buffer_info()[0]

    def dfs(group, kind, k, end, prune, prefix, budget, leaf, stop=None):
        """Leaves of `kind` (see `_KINDS`) with T_k depth k below a_1 = e
        and `prefix`, cut at depth end, or -1 when the node budget ran out.
        The walk checks each prefix entry as the one candidate at its
        depth, so a dead or non-canonical prefix has no leaves, and it
        spends one node per entry.  prune turns on orderly pruning by
        Aut(group).  budget is None or a one-cell list, left at the nodes
        not spent.  leaf, when given, is called with the current sequence
        at each leaf, and a true answer stops the walk."""
        n = group.order
        entry = _KINDS[kind]
        # A bucket holds one entry, or a class's cap for an unmirrored class
        # kind.  The identity's bucket is never read: its y is a_d, used.
        ledger = "ones" if entry.directed or entry.mirrored else "caps"
        ldiv, mul, ctab, caps, auts = _flat(group, "ldiv", "mul", "ctab", ledger, "auts" if prune else "ids")
        # The kernel reads and writes plain arrays by address; a ctypes
        # array type per call would leave a reference cycle behind.
        path = array.array("i", prefix)
        seq = array.array("i", [0]) * n
        cell = None
        if budget is not None:
            start = max(-1, min(budget[0], 1 << 62))
            cell = array.array("q", [start])
        # The first row of auts is the identity, which prunes nothing: skip it.
        leaves = fn(n, entry.layer2, k, end, addr(ldiv), addr(mul), addr(ldiv if entry.directed else ctab),
                    len(caps), addr(caps), addr(ctab), len(auts) // n - 1, addr(auts) + n * auts.itemsize,
                    len(prefix), addr(path), addr(cell), leaf and (lambda: leaf(seq)), addr(seq), addr(stop))
        if cell is not None:
            budget[0] -= start - cell[0]
        if leaves == -2:
            raise MemoryError("search kernel out of memory")
        if leaves == -3:  # with no Python error pending, which ctypes would have raised
            raise Stopped("search stopped")
        return leaves

    def climb(group, terrace, max_cuts, max_steps, seq, draw, step=None, stop=None):
        """Run the climb loop of `oracles.climb` on seq, an int array of the
        arrangement, in place, until it finds or spends its budget, which
        stops at 2^31 - 1 steps; returns (found, steps, teleports,
        altitude).  Quotients are counted in the tables of `_climb_tables`,
        and the moves come from the packed tables with piece reversal when
        terrace is set.  draw() gives each teleport index, which must lie in
        0..n-1, and step(moved, altitude), when given, hears of each move
        (moved 1) and teleport (moved 0); an exception either raises stops
        the loop and is raised here.  stop, when given, is a stop cell (see
        the module docstring)."""
        n = group.order
        if len(seq) != n:
            raise ValueError(f"an arrangement of {len(seq)} entries for a group of order {n}")
        ldiv, cls, cap = _climb_tables(group, terrace)
        out = array.array("i", [0]) * 3  # steps, teleports, altitude
        code = climb_fn(n, len(cap), addr(ldiv), addr(cls), addr(cap), max_cuts,
                        min(max_steps, (1 << 31) - 1), addr(_PACKED[2, terrace]),
                        addr(_PACKED[3, terrace]), addr(seq), draw, step, addr(out), addr(stop))
        if code == -2:
            raise MemoryError("climb out of memory")
        if code == -3 and stop is not None and stop[0]:
            raise Stopped("climb stopped")
        if code == -3:  # with no Python error pending, which ctypes would have raised
            raise ValueError(f"a teleport index outside 0..{n - 1}")
        return code == 0, *out

    def closure(group, allow_reversal, seq, visit, limit=None):
        """Call visit(form) for each canonical form, a tuple, of the closure
        of the terrace seq under the moves of `oracles._moves`, breadth first
        from seq's own form and each new form once, until visit answers
        true, limit forms (at most 2^31 - 1) have been visited, or none is
        left.  Returns the number visited; an exception raised in visit
        stops the walk and is raised here."""
        n, table = group.order, _PACKED[2, allow_reversal]
        if len(seq) != n:
            raise ValueError(f"a terrace of {len(seq)} entries for a group of order {n}")
        ldiv, cls, auts = _flat(group, "ldiv", "cls", "auts")
        start, cur = array.array("i", seq), array.array("i", [0]) * n
        bound = (1 << 31) - 1 if limit is None else min(limit, (1 << 31) - 1)
        count = closure_fn(n, addr(table), addr(start), addr(ldiv), addr(cls), len(auts) // n,
                           addr(auts), bound, addr(cur), lambda: visit(tuple(cur)))
        if count == -2:
            raise MemoryError("closure out of memory")
        return count

    def square(group, seq):
        """The cells of the square of the arrangement seq of group, one
        row-major int array of n^2: cell (i, j) is seq[i]^-1 seq[j]."""
        n = group.order
        if len(seq) != n:
            raise ValueError(f"an arrangement of {len(seq)} entries for a group of order {n}")
        (ldiv,) = _flat(group, "ldiv")
        seq, cells = array.array("i", seq), array.array("i", [0]) * (n * n)
        if square_fn(n, addr(ldiv), addr(seq), addr(cells)) < 0:
            raise ValueError(f"an arrangement with an entry outside 0..{n - 1}")
        return cells

    def latin(n, cells):
        """ValueError naming the first row or column of the n x n cells, an
        int array, that is not a permutation of 0..n-1, if one is not."""
        _check_size(n, cells)
        line = latin_fn(n, addr(cells))
        if line == -2:
            raise MemoryError("Latin check out of memory")
        if line >= 0:
            kind, i = ("row", line) if line < n else ("column", line - n)
            raise ValueError(f"{kind} {i} is not a permutation of 0..{n - 1}")

    def certify(n, cells):
        """The certificate fields of the n x n Latin square cells, an int
        array, row-major, as two arrays of 10, rows then columns: complete,
        the first repeat's positions (r0, c0, r, c), quasi-complete, the
        first pair x < y not adjacent twice and its count (x, y, count), and
        the largest Roman k; ValueError when cells are not Latin."""
        _check_size(n, cells)
        out = array.array("i", [0]) * 20
        code = cert_fn(n, addr(cells), addr(out))
        if code == -2:
            raise MemoryError("certify out of memory")
        if code:
            raise ValueError(f"cells are not a Latin square of order {n}")
        return out[:10], out[10:]

    return Kernel(dfs, climb, closure, square, latin, certify)


def _build(directory: str) -> Kernel:
    """Load the kernels from `directory`, compiling them there first if the
    shared object for this source and these flags is missing.  Objects of
    other sources stay, so that checkouts of different sources sharing one
    cache each build theirs once."""
    from importlib import resources

    source = resources.files(__package__) / _SOURCE
    # zlib, not hashlib: loading OpenSSL's hashes costs 3.7 MB of memory.
    text = "\0".join((source.read_text(encoding="utf-8"), *_FLAGS)).encode()
    name = f"{_PREFIX}{zlib.crc32(text):08x}{zlib.adler32(text):08x}.so"
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        import subprocess

        made = []  # the directories this build creates, deepest first
        d = directory
        while not os.path.lexists(d) and d != os.path.dirname(d):
            made.append(d)
            d = os.path.dirname(d)
        # Write under a private name and rename, so that a process building
        # at the same time never loads a partial file.
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            with resources.as_file(source) as file:
                subprocess.run([_CC, *_FLAGS, str(file), "-o", tmp], capture_output=True, timeout=120,
                               check=True)
            os.replace(tmp, path)
        except subprocess.SubprocessError as e:
            said = (e.stderr or b"").decode(errors="replace").strip().splitlines()[-5:]
            raise OSError(" | ".join([f"{_CC} could not build the kernel", *said])) from e
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
            if not os.path.exists(path):
                for d in made:  # leave behind no directory this build made
                    try:
                        os.rmdir(d)
                    except OSError:  # not made, or another build uses it
                        pass
    for p in (directory, path):
        if os.stat(p).st_uid != os.getuid():
            raise OSError(f"{p} belongs to another user")
    return _bind(path)


def load() -> Kernel:
    """The compiled kernels, built on the first call; an OSError naming the
    compiler and every cache directory tried when they cannot be built."""
    global _KERNEL
    if _KERNEL is None:
        failures = []
        for directory in _cache_dirs():
            try:
                _KERNEL = _build(directory)
                break
            except OSError as e:
                failures.append(f"{directory}: {e}")
        else:
            raise OSError(f"cannot build the compiled kernels with the C compiler {_CC!r}; "
                          f"tried {'; '.join(failures)}")
    return _KERNEL
