"""The compiled kernels: `enumerate._dfs`, the climb loop of
`hillclimb.climb`, the orbit closure, and the build, Latin check and
certificate of `latin`'s squares in C, built on first use.

`SOURCE` exports six C functions, each with a Python twin in
`tests/oracles.py` that the tests hold it to.  `terraces_dfs` translates
the Python kernel `oracles.dfs` node for node: the same bucket ledger,
layer-2 marks, T_k rows, forced narcissistic tail, ascending candidate
order, orderly test and node budget (see the comments in the source).
Each node walks a sorted free list of the unused elements, as the
oracle's `free` is; its T_k rows run m = 2 .. k, where the oracle keeps
b^(2) in its layer 2.
`terraces_climb` translates the Python climb loop `oracles.climb` step
for step: its scan is `oracles.scan` move for move, and its moves,
teleports and class counts are those of `oracles._Climber`; the seeded
generator stays in Python, and the loop calls back for each teleport
index, so a climb is one call.  `terraces_closure` runs a whole
breadth-first closure, as `oracles.closure` does: its step, the static
`terraces_neighbours`, lists the moves of `orbit._moves` in the same order
and takes the canonical form of each; it takes the start's canonical form
itself, keeps the forms in one growing array that is also the queue,
drops repeats with an open-addressing hash set over it, and calls back
for each new form only.  `terraces_square` builds a Latin square, one
row-major int array of n^2 cells, from the left-division table and an
arrangement (`oracles.square_cells`); `terraces_latin` checks that every
row, then every column, is a permutation of 0..n-1, range-checking each
entry before it indexes anything (`oracles.latin_error`); and
`terraces_certify` runs that check, then works out the square's
certificate from its cells alone, with the same first failures as
`oracles.certify`.  `load` compiles the source with the system C
compiler into a per-user cache directory, loads it with `ctypes` and
returns the six functions as a `Kernel`.  The compiler is needed at first
use: where no compiler, cache directory or loader works, `load` raises one
`OSError` that names the compiler, the directories tried and the last
lines of the compiler's own message.

Only this module knows the flat int layout of the tables the C source
reads, and, in `_KINDS`, how the search encodes each kind it takes by
name.  The search, climb, closure and square wrappers take a `Group`,
whose tables `_flat` builds once and keeps on it.  The Latin check and the
certificate read a square's cell array alone, with no copy, so they stay
checks that do not depend on a group.

The climb's moves are one move table per piece count (two or three) and
reversal flag, built once at import (`_MOVES`): for each (piece order,
reversal mask), the pairs of piece ends the move joins and the ones it
breaks.  One scan serves both climb modes and both cut counts, and the
orbit's neighbour step, in C and in `orbit._moves`, walks the 2-piece
table.  Each table is packed into one int array (`_PACKED`), and the
wrappers choose it from their mode flag.  An exact prefilter skips every
cut tuple and every move that forms no junction in a class with room,
since such a move cannot raise the altitude; only the rest reach the gain
test.

The shared object is loaded as a `ctypes.PyDLL`, so a call keeps the GIL
and raises the Python error pending when it returns.  The search checks
for signals every 2^20 nodes, the climb before every scan and the closure
before every step, and each stops when a handler raised, so Ctrl-C
interrupts a long walk, climb or closure at once.  An exception raised in
a Python callback (the search's leaf, the climb's draw and step, the
closure's visit), a KeyboardInterrupt included, stops the kernel too, and
the wrapper raises it when the call returns.
"""

from __future__ import annotations

import array
import os
import tempfile
import zlib
from itertools import chain, permutations
from typing import Callable, NamedTuple

from .groups import Group, _class_data, automorphisms

SOURCE = r"""
#include <stdlib.h>
#include <string.h>

/* Python's C API, which the kernels call holding the GIL:
   PyErr_CheckSignals (-1 when a signal handler raised),
   PyObject_CallFunction, PyObject_IsTrue, PyLong_AsLong, Py_DecRef, and
   None, which stands for no callback.  An error raised in any of them is
   left pending, and ctypes raises it when the kernel returns. */
typedef struct {
    int (*check)(void);
    void *(*call)(void *f, const char *format, ...);
    int (*truth)(void *x);
    long (*value)(void *x);
    void (*release)(void *x);
    void *none;
} py_api;
#define CHECK_EVERY ((1u << 20) - 1) /* a mask: check every 2^20 nodes */

/* The Python callable f called with no arguments, or given the format
   "ii" with (a, b): the int value of its answer when value is set, else
   its truth; -1 when the call or the reading raised. */
static long pycall(const py_api *py, void *f, const char *format, int a,
                   int b, int value)
{
    void *r = py->call(f, format, a, b);
    long v = -1;
    if (r) {
        v = value ? py->value(r) : py->truth(r);
        py->release(r);
    }
    return v;
}

typedef struct {
    int n, l2, k, end, mirror, naut;
    const int *ldiv, *mul, *bucket, *ctab, *auts;
    int *rem, *seq, *used, *m2, *marks, *cval, *act;
    int *nxt, *prv; /* the unused ids, ascending, in a ring headed by e = 0 */
    long long *budget;
    void *leaf;
    const py_api *py;
    unsigned nodes;
    int halt; /* 1: the leaf callback said stop or raised; 2: node budget
                 spent; 3: a signal handler raised */
} K;

/* b_j = b_{n-j} forces a_{end+1} .. a_{n-1}; each must be unused. */
static int mirror(K *s)
{
    const int n = s->n, end = s->end;
    int *seq = s->seq, *used = s->used;
    int j, x = seq[end], ok = 1;
    used[x] = 1;
    for (j = end + 1; j < n; j++) {
        x = s->mul[x * n + s->ldiv[seq[n - j - 1] * n + seq[n - j]]];
        if (used[x]) {
            ok = 0;
            break;
        }
        used[x] = 1;
        seq[j] = x;
    }
    while (--j > end)
        used[seq[j]] = 0;
    used[seq[end]] = 0;
    return ok;
}

/* The layer-2 value of a_{depth+1} = y, or -1 where the kind has none: at
   depths 1 .. (n - 1) / 2, the class of b for half-and-half (l2 = 1), or
   c_depth = b_depth c_{depth-1} for the narcissistic kind (l2 = 2). */
static inline int layer2(const K *s, int depth, int y)
{
    const int n = s->n;
    if (!s->l2 || depth > (n - 1) / 2)
        return -1;
    if (s->l2 == 1)
        return s->ctab[s->seq[depth - 1] * n + y];
    return s->mul[s->ldiv[s->seq[depth - 1] * n + y] * n + s->cval[depth - 1]];
}

/* Place a_{depth+1} = y (on = 1) or take it back (on = 0), in LIFO order:
   y leaves the free list keeping its own links, which bring it back. */
static inline void place(K *s, int depth, int y, int c2, int on)
{
    const int n = s->n;
    int m;
    s->rem[s->bucket[s->seq[depth - 1] * n + y]] -= on ? 1 : -1;
    if (c2 >= 0) {
        s->m2[c2] = on;
        s->cval[depth] = c2;
    }
    for (m = 2; m <= s->k && m <= depth; m++) /* T_k row m: b^(m) */
        s->marks[m * n + s->ldiv[s->seq[depth - m] * n + y]] = on;
    s->used[y] = on; /* for mirror() */
    if (on) {
        s->nxt[s->prv[y]] = s->nxt[y];
        s->prv[s->nxt[y]] = s->prv[y];
    } else
        s->nxt[s->prv[y]] = s->prv[s->nxt[y]] = y;
}

static long long rec(K *s, int depth, const int *active, int nact)
{
    const int n = s->n, *brow;
    int *next = s->act + (size_t)(depth + 1) * s->naut;
    long long total = 0;
    int y, i, m;
    if (s->budget) {
        if (*s->budget <= 0) {
            s->halt = 2;
            return 0;
        }
        --*s->budget;
    }
    if ((++s->nodes & CHECK_EVERY) == 0 && s->py->check() < 0) {
        s->halt = 3;
        return 0;
    }
    brow = s->bucket + s->seq[depth - 1] * n;
    for (y = s->nxt[0]; y; y = s->nxt[y]) {
        int c2, nn = 0, skip = 0;
        if (!s->rem[brow[y]])
            continue;
        c2 = layer2(s, depth, y);
        if (c2 >= 0 && s->m2[c2])
            continue;
        for (m = 2; m <= s->k && m <= depth; m++)
            if (s->marks[m * n + s->ldiv[s->seq[depth - m] * n + y]]) {
                skip = 1;
                break;
            }
        /* Orderly test: cut y if an active automorphism maps it lower;
           those that fix it stay active below. */
        for (i = 0; i < nact && !skip; i++) {
            int t = s->auts[(size_t)active[i] * n + y];
            if (t < y)
                skip = 1;
            else if (t == y)
                next[nn++] = active[i];
        }
        if (skip)
            continue;
        s->seq[depth] = y;
        if (depth == s->end) {
            if (!s->mirror || mirror(s)) {
                total++;
                if (s->leaf != s->py->none && pycall(s->py, s->leaf, 0, 0, 0, 0)) {
                    s->halt = 1;
                    return total;
                }
            }
            continue;
        }
        place(s, depth, y, c2, 1);
        total += rec(s, depth + 1, next, nn);
        if (s->halt)
            return total;
        place(s, depth, y, c2, 0);
    }
    return total;
}

/* Leaves below a_1 = e and the placed prefix, cut at depth end (at order
   1, end 0: the one leaf (e), which spends no node); -1 when the node
   budget ran out, -2 when memory did, -3 when a signal handler raised.
   leaf, a Python callable or None, is called at each leaf, and a true
   answer stops the search.  rem, the bucket capacities, is updated in
   place; *budget, when given, is left at the nodes not spent. */
long long terraces_dfs(int n, int l2, int k, int end, const int *ldiv,
                       const int *mul, const int *bucket, int *rem,
                       const int *ctab, int naut, const int *auts,
                       int nprefix, const int *prefix, long long *budget,
                       void *leaf, const py_api *py, int *seq)
{
    K s;
    long long total;
    int d, i, nact = naut, w = naut > 0 ? naut : 1;
    int *act0;
    s.n = n, s.l2 = l2, s.k = k, s.end = end;
    s.mirror = l2 == 2 && end == (n - 1) / 2, s.naut = naut;
    s.ldiv = ldiv, s.mul = mul, s.bucket = bucket, s.ctab = ctab;
    s.auts = auts, s.rem = rem, s.seq = seq, s.budget = budget;
    s.leaf = leaf, s.py = py, s.nodes = 0, s.halt = 0;
    s.used = calloc(n + 1, sizeof(int));
    s.m2 = calloc(n + 1, sizeof(int));
    s.marks = calloc((size_t)(k + 1) * n, sizeof(int));
    s.cval = calloc(n + 1, sizeof(int));
    s.act = malloc((size_t)(n + 2) * w * sizeof(int));
    s.nxt = malloc((size_t)n * sizeof(int));
    s.prv = malloc((size_t)n * sizeof(int));
    if (!s.used || !s.m2 || !s.marks || !s.cval || !s.act || !s.nxt || !s.prv) {
        total = -2;
        goto out;
    }
    for (i = 0; i < n; i++) {
        s.nxt[i] = (i + 1) % n;
        s.prv[(i + 1) % n] = i;
    }
    s.used[0] = 1;
    seq[0] = 0;
    if (l2 == 2)
        s.m2[0] = 1; /* c_0 = e is taken */
    /* A live prefix is canonical: the automorphisms fixing every entry
       stay active below it, and no other prunes anything there. */
    act0 = s.act + (size_t)(nprefix + 1) * naut;
    for (i = 0; i < naut; i++)
        act0[i] = i;
    for (d = 1; d <= nprefix; d++) {
        int y = prefix[d - 1], kept = 0;
        int c2 = layer2(&s, d, y);
        s.seq[d] = y;
        place(&s, d, y, c2, 1);
        for (i = 0; i < nact; i++)
            if (auts[(size_t)act0[i] * n + y] == y)
                act0[kept++] = act0[i];
        nact = kept;
    }
    if (end == 0) { /* order 1: the arrangement (e) is the one leaf */
        total = 1;
        if (leaf != py->none)
            pycall(py, leaf, 0, 0, 0, 0);
    } else
        total = rec(&s, nprefix + 1, act0, nact);
    if (s.halt >= 2)
        total = 1 - s.halt;
out:
    free(s.used);
    free(s.m2);
    free(s.marks);
    free(s.cval);
    free(s.act);
    free(s.nxt);
    free(s.prv);
    return total;
}

/* seq[lo..hi), reversed when rev, to dst; returns the end of the copy. */
static int *piece(int *dst, const int *seq, int lo, int hi, int rev)
{
    int i;
    if (rev)
        for (i = hi - 1; i >= lo; i--)
            *dst++ = seq[i];
    else
        for (i = lo; i < hi; i++)
            *dst++ = seq[i];
    return dst;
}

/* Replace the quotients rm[0..k) by add[0..k) in the class counts ccnt,
   as `oracles._Climber._update` does; returns the altitude change. */
static int update(const int *cls, const int *cap, int *ccnt, const int *rm,
                  const int *add, int k)
{
    int i, c, d = 0;
    for (i = 0; i < k; i++) {
        c = cls[rm[i]];
        ccnt[c]--;
        d -= ccnt[c] < cap[c];
    }
    for (i = 0; i < k; i++) {
        c = cls[add[i]];
        d += ccnt[c] < cap[c];
        ccnt[c]++;
    }
    return d;
}

/* A packed move table, `_ckernel._pack`, for p = 2 or 3 pieces: npairs,
   nmoves, the npairs end pairs some move joins, then one row of ROW(p)
   ints per move: the junction count k, k junction pairs and k broken
   pairs, zero-padded to 4 (p - 1) ints, then from ORDER(p) the piece
   order and the reversal mask.  The ends are indexed heads first, then
   tails, as in `_ckernel._move_table`. */
#define ROW(p) (5 * (p) - 2)
#define ORDER(p) (4 * (p) - 3)
#define ROWS(table) ((table) + 2 + 2 * (table)[0])

/* seq cut at b[1..p), with b[0] = 0 and b[p] = n, reassembled to dst as
   the move row mv says: its pieces in order, each reversed where the
   mask has its bit. */
static void reassemble(int *dst, const int *seq, const int *b, int p,
                       const int *mv)
{
    const int *sh = mv + ORDER(p);
    int i;
    for (i = 0; i < p; i++)
        dst = piece(dst, seq, b[sh[i]], b[sh[i] + 1], sh[p] >> sh[i] & 1);
}

/* `oracles.scan` for p = 2 or 3 pieces: the cut tuples in `combinations`
   order; for each, the end-pair prefilter, then the moves of the packed
   table in order, each tested for a junction with room and then for a
   positive gain.  Returns the gain of the first move that gains, with
   *hit its row, b = (0, c1, c2, n), c2 = n for one cut, and ccnt left
   updated by the move; 0 when none does.  room is n bytes of scratch. */
static int scan(int n, int p, const int *table, const int *seq,
                const int *ldiv, const int *cls, const int *cap, int *ccnt,
                unsigned char *room, int *b, const int **hit)
{
    const int npairs = table[0], nmoves = table[1], *pairs = table + 2;
    const int last = p == 3 ? n - 1 : n;
    int ends[6], rm[2], add[2], c1, c2, d, i, m;
    /* room[v]: the class of quotient v holds fewer than cap entries */
    for (i = 0; i < n; i++)
        room[i] = ccnt[cls[i]] < cap[cls[i]];
    b[0] = 0, b[3] = n;
#define Q(x, y) ldiv[ends[x] * n + ends[y]]
    for (c1 = 1; c1 < n; c1++)
        for (c2 = p == 3 ? c1 + 1 : n; c2 <= last; c2++) {
            const int *mv = ROWS(table);
            b[1] = c1, b[2] = c2;
            for (i = 0; i < p; i++) {
                ends[i] = seq[b[i]];
                ends[p + i] = seq[b[i + 1] - 1];
            }
            for (i = 0; i < npairs && !room[Q(pairs[2 * i], pairs[2 * i + 1])]; i++)
                ;
            if (i == npairs)
                continue;
            for (m = 0; m < nmoves; m++, mv += ROW(p)) {
                const int k = mv[0], *junc = mv + 1, *brk = junc + 2 * k;
                for (i = 0; i < k && !room[Q(junc[2 * i], junc[2 * i + 1])]; i++)
                    ;
                if (i == k)
                    continue;
                for (i = 0; i < k; i++) {
                    add[i] = Q(junc[2 * i], junc[2 * i + 1]);
                    rm[i] = Q(brk[2 * i], brk[2 * i + 1]);
                }
                if ((d = update(cls, cap, ccnt, rm, add, k)) > 0) {
                    *hit = mv;
                    return d;
                }
                update(cls, cap, ccnt, add, rm, k);
            }
        }
#undef Q
    return 0;
}

/* `oracles._Climber.teleport`: seq[r] moved to the end and ccnt updated;
   returns the altitude change. */
static int teleport(int n, int *seq, const int *ldiv, const int *cls,
                    const int *cap, int *ccnt, int r)
{
    int x = seq[r], rm[2], add[2], k = 1;
    if (r == n - 1)
        return 0;
    rm[0] = ldiv[x * n + seq[r + 1]];
    add[0] = ldiv[seq[n - 1] * n + x];
    if (r > 0) {
        rm[1] = ldiv[seq[r - 1] * n + x];
        add[1] = ldiv[seq[r - 1] * n + seq[r + 1]];
        k = 2;
    }
    memmove(seq + r, seq + r + 1, (size_t)(n - 1 - r) * sizeof(int));
    seq[n - 1] = x;
    return update(cls, cap, ccnt, rm, add, k);
}

/* The climb loop of `oracles.climb` on seq, in place, in the ncls classes
   cls with caps cap: stop at altitude n - 1 or when the step or teleport
   budget is spent; else scan for one cut, then (max_cuts 2) for two, and
   take the first move that gains, or teleport the entry at draw() to the
   end; step, unless None, is called as step(moved, altitude) after each
   move (moved 1) and teleport (moved 0).  table2 and table3 are the
   packed move tables for 2 and 3 pieces.  out gets (steps, teleports,
   altitude).  Returns 0 at altitude n - 1; 1 when the budget is spent; -2
   when memory ran out; -3 when draw answered no index in 0..n-1, or draw,
   step or a signal handler raised. */
int terraces_climb(int n, int ncls, const int *ldiv, const int *cls,
                   const int *cap, int max_cuts, int max_steps,
                   const int *table2, const int *table3, int *seq,
                   void *draw, void *step, int *out, const py_api *py)
{
    int *ccnt = calloc((size_t)ncls + n, sizeof(int)), *next = ccnt + ncls;
    unsigned char *room = malloc(n);
    const int *hit = 0;
    int alt = 0, code, c, d, i, p, b[4];
    long r;
    out[0] = out[1] = 0;
    if (!ccnt || !room) {
        code = -2;
        goto done;
    }
    for (i = 0; i + 1 < n; i++) {
        c = cls[ldiv[seq[i] * n + seq[i + 1]]];
        alt += ccnt[c] < cap[c];
        ccnt[c]++;
    }
    for (;;) {
        if (alt == n - 1) {
            code = 0;
            break;
        }
        if (out[0] >= max_steps || out[1] >= max_steps) {
            code = 1;
            break;
        }
        if (py->check() < 0) {
            code = -3;
            break;
        }
        for (d = 0, p = 2; p <= max_cuts + 1; p++)
            if ((d = scan(n, p, p == 2 ? table2 : table3, seq, ldiv, cls, cap,
                          ccnt, room, b, &hit)) > 0)
                break;
        if (d > 0) {
            reassemble(next, seq, b, p, hit);
            memcpy(seq, next, (size_t)n * sizeof(int));
            alt += d;
            out[0]++;
        } else {
            if ((r = pycall(py, draw, 0, 0, 0, 1)) < 0 || r >= n) {
                code = -3;
                break;
            }
            alt += teleport(n, seq, ldiv, cls, cap, ccnt, (int)r);
            out[1]++;
        }
        if (step != py->none && pycall(py, step, "ii", d > 0, alt, 0) < 0) {
            code = -3;
            break;
        }
    }
    out[2] = alt;
done:
    free(ccnt);
    free(room);
    return code;
}

/* cand re-based (x -> cand[0]^-1 x), then its least image under the naut
   automorphisms (rows of n, the first taken whole), to best; form is
   scratch.  An image is left at its first entry above the best so far. */
static void least(int n, const int *ldiv, int naut, const int *auts,
                  const int *cand, int *form, int *best)
{
    const int *row = ldiv + (size_t)cand[0] * n;
    int a, i;
    for (i = 0; i < n; i++) {
        form[i] = row[cand[i]];
        best[i] = auts[form[i]];
    }
    for (a = 1; a < naut; a++) {
        const int *phi = auts + (size_t)a * n;
        for (i = 0; i < n && phi[form[i]] == best[i]; i++)
            ;
        if (i < n && phi[form[i]] < best[i])
            for (; i < n; i++)
                best[i] = phi[form[i]];
    }
}

/* `orbit._moves` and the canonical form of each neighbour, for the terrace
   seq: out gets, n ints each and repeats included, the canonical forms of
   the whole reversal, then, cut by cut, of each move of the packed 2-piece
   table whose new junction's quotient is in the class of the junction it
   breaks; out holds n (1 + (n - 1) nmoves) ints, cand is 2 n of scratch.
   Returns the number of forms written. */
static int terraces_neighbours(int n, const int *table, const int *seq,
                               const int *ldiv, const int *cls, int naut,
                               const int *auts, int *cand, int *out)
{
    int b[3] = {0, 0, n}, ends[4], c, m, count = 1;
    piece(cand, seq, 0, n, 1);
    least(n, ldiv, naut, auts, cand, cand + n, out);
    for (c = 1; c < n; c++) {
        const int *mv = ROWS(table);
        b[1] = c;
        ends[0] = seq[0], ends[1] = seq[c], ends[2] = seq[c - 1];
        ends[3] = seq[n - 1];
        for (m = 0; m < table[1]; m++, mv += ROW(2)) {
            if (cls[ldiv[ends[mv[1]] * n + ends[mv[2]]]] !=
                cls[ldiv[ends[mv[3]] * n + ends[mv[4]]]])
                continue;
            reassemble(cand, seq, b, 2, mv);
            least(n, ldiv, naut, auts, cand, cand + n, out + (size_t)count++ * n);
        }
    }
    return count;
}

/* Where form is in the open-addressing set slot (size a power of two, -1
   empty) of indices into forms, else the empty slot its probe ends at. */
static size_t find(const int *slot, size_t size, const int *forms,
                   const int *form, int n)
{
    unsigned long long x = 0;
    size_t h;
    int i;
    for (i = 0; i < n; i++)
        x = (x + (unsigned)form[i]) * 0x9e3779b97f4a7c15ull;
    for (h = (x ^ x >> 32) & (size - 1); slot[h] >= 0; h = (h + 1) & (size - 1))
        if (!memcmp(forms + (size_t)slot[h] * n, form, n * sizeof(int)))
            break;
    return h;
}

/* The breadth-first closure of the terrace start under the moves of
   `terraces_neighbours`, over canonical forms: start's, then each new one
   in the order the steps list them.  forms keeps them in that order, which
   is also the queue, with space for room forms, and slot, an
   open-addressing set of 2 room indices into it, drops repeats.  Each new
   form is written to cur and visit() called; the walk stops when visit
   answers true, at limit forms, or when no form is left.  Returns the
   number of forms; -2 when memory ran out, -3 when visit or a signal
   handler raised. */
int terraces_closure(int n, const int *table, const int *start,
                     const int *ldiv, const int *cls, int naut,
                     const int *auts, int limit, int *cur, void *visit,
                     const py_api *py)
{
    const size_t w = n * sizeof(int), most = 1 + (size_t)(n - 1) * table[1];
    int *nb = malloc((most + 2) * w), *cand;
    int *forms = 0, *slot = 0, *grown, count = 0, head = 0, got = 1, code = -2, i;
    size_t room = 0, h;
    long r;
    if (!nb)
        return -2;
    cand = nb + most * n;
    least(n, ldiv, naut, auts, start, cand, nb); /* the start, a step of one */
    for (;;) {
        for (i = 0; i < got; i++) {
            if ((size_t)count == room) { /* double the room, and rehash */
                room = room ? 2 * room : 64;
                free(slot);
                if (!(slot = malloc(2 * room * sizeof(int))) ||
                    !(grown = realloc(forms, room * w)))
                    goto out;
                forms = grown;
                memset(slot, 0xff, 2 * room * sizeof(int));
                for (h = 0; h < (size_t)count; h++)
                    slot[find(slot, 2 * room, forms, forms + h * n, n)] = (int)h;
            }
            h = find(slot, 2 * room, forms, nb + (size_t)i * n, n);
            if (slot[h] >= 0)
                continue;
            slot[h] = count;
            memcpy(forms + (size_t)count++ * n, nb + (size_t)i * n, w);
            memcpy(cur, nb + (size_t)i * n, w);
            if ((r = pycall(py, visit, 0, 0, 0, 0)) != 0 || count >= limit) {
                code = r < 0 ? -3 : count;
                goto out;
            }
        }
        if (head == count || py->check() < 0) {
            code = head < count ? -3 : count;
            break;
        }
        got = terraces_neighbours(n, table, forms + (size_t)head++ * n, ldiv,
                                  cls, naut, auts, cand, nb);
    }
out:
    free(nb);
    free(forms);
    free(slot);
    return code;
}

/* -1 when the n x n cells (row-major) are a Latin square: every row, then
   every column, a permutation of 0..n-1; else the first line that is not,
   row r as r and column c as n + c.  Each entry is range-checked before
   it indexes stamp, n ints of scratch, so any ints are safe to check. */
static int latin(int n, const int *cells, int *stamp)
{
    int t, r, c, v;
    for (v = 0; v < n; v++)
        stamp[v] = -1;
    for (t = 0; t < 2; t++)
        for (r = 0; r < n; r++)
            for (c = 0; c < n; c++) {
                v = cells[t ? c * n + r : r * n + c];
                if (v < 0 || v >= n || stamp[v] == t * n + r)
                    return t * n + r;
                stamp[v] = t * n + r;
            }
    return -1;
}

/* The square of the arrangement seq: cells[i * n + j] = seq[i]^-1 seq[j],
   read from ldiv.  Returns 0, or -1 when an entry of seq is not in 0..n-1
   (cells then unwritten). */
int terraces_square(int n, const int *ldiv, const int *seq, int *cells)
{
    int i, j;
    for (i = 0; i < n; i++)
        if (seq[i] < 0 || seq[i] >= n)
            return -1;
    for (i = 0; i < n; i++) {
        const int *row = ldiv + (size_t)seq[i] * n;
        for (j = 0; j < n; j++)
            *cells++ = row[seq[j]];
    }
    return 0;
}

/* `latin` on the n x n cells; -2 when memory ran out. */
int terraces_latin(int n, const int *cells)
{
    int *stamp = malloc((size_t)n * sizeof(int)), line; /* exact, for ASan */
    if (!stamp && n)
        return -2;
    line = latin(n, cells, stamp);
    free(stamp);
    return line;
}

/* The first ordered pair repeated at offset m along the lines of the n x n
   square cells, whose line r has cell c at cells[r * rs + c * cs]: 1 with
   at = (r0, c0, r, c), its first two positions in line order, else 0.
   seen is n * n ints of scratch. */
static int repeat(int n, const int *cells, int rs, int cs, int m, int *seen,
                  int *at)
{
    int r, c, key;
    memset(seen, 0, (size_t)n * n * sizeof(int));
    for (r = 0; r < n; r++)
        for (c = 0; c + m < n; c++) {
            key = cells[r * rs + c * cs] * n + cells[r * rs + (c + m) * cs];
            if (seen[key]) {
                at[0] = (seen[key] - 1) / n, at[1] = (seen[key] - 1) % n;
                at[2] = r, at[3] = c;
                return 1;
            }
            seen[key] = r * n + c + 1;
        }
    return 0;
}

/* The first unordered pair x < y not adjacent exactly twice along the
   lines, as in `repeat`: 1 with at = (x, y, count), else 0. */
static int unbalanced(int n, const int *cells, int rs, int cs, int *count,
                      int *at)
{
    int r, c, x, y;
    memset(count, 0, (size_t)n * n * sizeof(int));
    for (r = 0; r < n; r++)
        for (c = 0; c + 1 < n; c++) {
            x = cells[r * rs + c * cs], y = cells[r * rs + (c + 1) * cs];
            count[x < y ? x * n + y : y * n + x]++;
        }
    for (x = 0; x < n; x++)
        for (y = x + 1; y < n; y++)
            if (count[x * n + y] != 2) {
                at[0] = x, at[1] = y, at[2] = count[x * n + y];
                return 1;
            }
    return 0;
}

/* The certificate of the n x n square cells (row-major), from the cells
   alone: out gets 10 ints for the rows, then 10 for the columns: complete
   at offset 1, the first repeat's positions (r0, c0, r, c),
   quasi-complete, the first unbalanced pair and its count (x, y, count),
   and the largest k with no repeat at offsets 1..k.  `latin` runs first,
   so that no entry outside 0..n-1 indexes anything.  Returns 0; 1 when
   cells are not a Latin square (out then unwritten); -2 when memory ran
   out. */
int terraces_certify(int n, const int *cells, int *out)
{
    int *seen = malloc(((size_t)n * n + 1) * sizeof(int)), spare[4], t, k;
    if (!seen)
        return -2;
    if (latin(n, cells, seen) >= 0) {
        free(seen);
        return 1;
    }
    for (t = 0; t < 2; t++) {
        int *o = out + 10 * t, rs = t ? 1 : n, cs = t ? n : 1;
        o[0] = !repeat(n, cells, rs, cs, 1, seen, o + 1);
        o[5] = !unbalanced(n, cells, rs, cs, seen, o + 6);
        for (k = n > 1 && o[0]; k && k < n - 1; k++)
            if (repeat(n, cells, rs, cs, k + 1, seen, spare))
                break;
        o[9] = k;
    }
    free(seen);
    return 0;
}
"""

_CC = "gcc"
_FLAGS = ("-O2", "-shared", "-fPIC")
_PREFIX = "dfs-"  # shared objects are named _PREFIX + source digest + ".so"
_KERNEL: Kernel | None = None  # the loaded kernels, once built


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
    "cls": lambda g: array.array("i", [len(_class_data(g)[1])] + _class_data(g)[2][1:]),
    "caps": lambda g: array.array("i", _class_data(g)[1] + [0]),
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
    class; the C source's layer 2 (see layer2 there), 0 none, 1 the classes
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
    tables = group._flat
    if tables is None:
        tables = group._flat = {}
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
    # py_api in SOURCE.  id(None) is None's address (CPython, the only
    # Python with ctypes.pythonapi), and None lives as long as the process.
    names = ("PyErr_CheckSignals", "PyObject_CallFunction", "PyObject_IsTrue", "PyLong_AsLong",
             "Py_DecRef")
    api = (ptr * 6)(*(ctypes.cast(getattr(ctypes.pythonapi, name), ptr) for name in names), id(None))

    def bind(name, restype, *argtypes):
        f = getattr(lib, f"terraces_{name}")
        f.restype, f.argtypes = restype, argtypes
        return f

    fn = bind("dfs", ctypes.c_longlong, *[c_int] * 4, *[ptr] * 5, c_int, ptr, c_int, ptr, ptr, obj, ptr, ptr)
    climb_fn = bind("climb", c_int, c_int, c_int, *[ptr] * 3, c_int, c_int, *[ptr] * 3, obj, obj, ptr, ptr)
    closure_fn = bind("closure", c_int, c_int, *[ptr] * 4, c_int, ptr, c_int, ptr, obj, ptr)
    square_fn = bind("square", c_int, c_int, ptr, ptr, ptr)
    latin_fn = bind("latin", c_int, c_int, ptr)
    cert_fn = bind("certify", c_int, c_int, ptr, ptr)

    def addr(a: array.array) -> int:
        return a.buffer_info()[0]

    def dfs(group, kind, k, end, prune, prefix, budget, leaf):
        """Leaves of `kind` (see `_KINDS`) with T_k depth k below a_1 = e
        and `prefix`, cut at depth end, or -1 when the node budget ran out.
        prune turns on orderly pruning by Aut(group).  budget is None or a
        one-cell list, left at the nodes not spent.  leaf, when given, is
        called with the current sequence at each leaf, and a true answer
        stops the walk."""
        n = group.order
        entry = _KINDS[kind]
        # A bucket holds one entry, or a class's cap for an unmirrored class
        # kind.  The identity's bucket is never read: its y is a_d, used.
        ledger = "ones" if entry.directed or entry.mirrored else "caps"
        ldiv, mul, ctab, rem, auts = _flat(group, "ldiv", "mul", "ctab", ledger, "auts" if prune else "ids")
        # The kernel reads and writes plain arrays by address; a ctypes
        # array type per call would leave a reference cycle behind.
        rem = array.array("i", rem)  # a copy, which the kernel updates
        placed = array.array("i", prefix)
        seq = array.array("i", [0]) * n
        cell = None
        if budget is not None:
            start = max(-1, min(budget[0], 1 << 62))
            cell = array.array("q", [start])
        tables = (ldiv, mul, ldiv if entry.directed else ctab, rem, ctab)
        # The first row of auts is the identity, which prunes nothing: skip it.
        leaves = fn(n, entry.layer2, k, end, *map(addr, tables), len(auts) // n - 1,
                    addr(auts) + n * auts.itemsize, len(prefix), addr(placed), cell and addr(cell),
                    leaf and (lambda: leaf(seq)), api, addr(seq))
        if cell is not None:
            budget[0] -= start - cell[0]
        if leaves == -2:
            raise MemoryError("search kernel out of memory")
        return leaves

    def climb(group, terrace, max_cuts, max_steps, seq, draw, step=None):
        """Run the climb loop of `oracles.climb` on seq, an int array of the
        arrangement, in place, until it finds or spends its budget, which
        stops at 2^31 - 1 steps; returns (found, steps, teleports,
        altitude).  Quotients are counted in the tables of `_climb_tables`,
        and the moves come from the packed tables with piece reversal when
        terrace is set.  draw() gives each teleport index, which must lie in
        0..n-1, and step(moved, altitude), when given, hears of each move
        (moved 1) and teleport (moved 0); an exception either raises stops
        the loop and is raised here."""
        n = group.order
        if len(seq) != n:
            raise ValueError(f"an arrangement of {len(seq)} entries for a group of order {n}")
        ldiv, cls, cap = _climb_tables(group, terrace)
        out = array.array("i", [0]) * 3  # steps, teleports, altitude
        code = climb_fn(n, len(cap), addr(ldiv), addr(cls), addr(cap), max_cuts,
                        min(max_steps, (1 << 31) - 1), addr(_PACKED[2, terrace]),
                        addr(_PACKED[3, terrace]), addr(seq), draw, step, addr(out), api)
        if code == -2:
            raise MemoryError("climb out of memory")
        if code == -3:  # with no Python error pending, which ctypes would have raised
            raise ValueError(f"a teleport index outside 0..{n - 1}")
        return code == 0, *out

    def closure(group, allow_reversal, seq, visit, limit=None):
        """Call visit(form) for each canonical form, a tuple, of the closure
        of the terrace seq under the moves of `orbit._moves`, breadth first
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
                           addr(auts), bound, addr(cur), lambda: visit(tuple(cur)), api)
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
    shared object for this source and these flags is missing; a build
    removes the user's shared objects of other sources from `directory`."""
    # zlib, not hashlib: loading OpenSSL's hashes costs 3.7 MB of memory.
    text = "\0".join((SOURCE, *_FLAGS)).encode()
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
            subprocess.run([_CC, *_FLAGS, "-x", "c", "-", "-o", tmp], input=SOURCE.encode(),
                           capture_output=True, timeout=120, check=True)
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
        _remove_stale(directory, name)
    for p in (directory, path):
        if os.stat(p).st_uid != os.getuid():
            raise OSError(f"{p} belongs to another user")
    return _bind(path)


def _remove_stale(directory: str, keep: str) -> None:
    """Remove the user's shared objects other than `keep` from `directory`.
    Unlinking a file another process has mapped leaves its mapping intact,
    and that process's next build writes its own file again."""
    for entry in os.scandir(directory):
        if entry.name != keep and entry.name.startswith(_PREFIX) and entry.name.endswith(".so"):
            try:
                if entry.stat(follow_symlinks=False).st_uid == os.getuid():
                    os.remove(entry.path)
            except OSError:  # gone already, or not ours to remove
                pass


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
