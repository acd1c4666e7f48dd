
#include <stdlib.h>
#include <string.h>

/* The parts of Python's C API the kernels call, holding the GIL; the
   interpreter provides them when ctypes.PyDLL loads this object, as for
   any extension module.  PyErr_CheckSignals is -1 when a signal handler
   raised; None (_Py_NoneStruct) stands for no callback.  An error raised
   in any of them is left pending, and ctypes raises it on return.  A
   search or climb given a stop cell releases the GIL for its whole walk
   (PyEval_SaveThread) and takes it back only around a callback. */
typedef struct _object PyObject;
typedef struct _ts PyThreadState;
extern PyObject _Py_NoneStruct;
int PyErr_CheckSignals(void);
PyObject *PyObject_CallFunction(PyObject *f, const char *format, ...);
int PyObject_IsTrue(PyObject *x);
long PyLong_AsLong(PyObject *x);
void Py_DecRef(PyObject *x);
PyThreadState *PyEval_SaveThread(void);
void PyEval_RestoreThread(PyThreadState *ts);
#define CHECK_EVERY ((1u << 20) - 1) /* a mask: check every 2^20 nodes */

/* The Python callable f called with no arguments, or given the format
   "ii" with (a, b): the int value of its answer when value is set, else
   its truth; -1 when the call or the reading raised.  ts is 0 when the
   caller holds the GIL, else where it keeps the thread state it released:
   the GIL is taken back for the call and released again after it. */
static long pycall(PyThreadState **ts, PyObject *f, const char *format, int a,
                   int b, int value)
{
    PyObject *r;
    long v = -1;
    if (ts)
        PyEval_RestoreThread(*ts);
    r = PyObject_CallFunction(f, format, a, b);
    if (r) {
        v = value ? PyLong_AsLong(r) : PyObject_IsTrue(r);
        Py_DecRef(r);
    }
    if (ts)
        *ts = PyEval_SaveThread();
    return v;
}

/* Whether a search or climb should stop: the caller's stop cell, a
   one-int cell another thread sets, is set; or, with no cell, a signal
   handler raised. */
static int stopped(const int *stop)
{
    return stop ? __atomic_load_n(stop, __ATOMIC_RELAXED) != 0
                : PyErr_CheckSignals() < 0;
}

typedef struct {
    int n, k, end, mirror, naut, nw, nprefix;
    const int *ldiv, *mul, *bucket, *ctab, *auts, *prefix;
    const int *stop;
    int *rem, *seq, *cur, *m2, *marks, *cval, *act;
    unsigned long long *unused; /* bit y % 64 of word y / 64: y is unused */
    long long *budget;
    PyObject *leaf;
    PyThreadState *ts; /* the thread state, while the GIL is released */
    unsigned nodes;
    int halt; /* 1: the leaf callback said stop or raised; 2: node budget
                 spent; 3: stopped (see `stopped`) */
} K;

#define BIT(y) (1ull << ((y) & 63))

/* b_j = b_{n-j} forces a_{end+1} .. a_{n-1}; each must be unused. */
static int mirror(K *s)
{
    const int n = s->n, end = s->end;
    int *seq = s->seq;
    unsigned long long *unused = s->unused;
    int j, x = seq[end], ok = 1;
    unused[x >> 6] ^= BIT(x);
    for (j = end + 1; j < n; j++) {
        x = s->mul[x * n + s->ldiv[seq[n - j - 1] * n + seq[n - j]]];
        if (!(unused[x >> 6] & BIT(x))) {
            ok = 0;
            break;
        }
        unused[x >> 6] ^= BIT(x);
        seq[j] = x;
    }
    while (--j >= end)
        unused[seq[j] >> 6] ^= BIT(seq[j]);
    return ok;
}

typedef long long walk_fn(K *s, int depth, const int *active, int nact);

/* The walk below a node at depth, for one shape: the kind's layer 2, l2,
   and its T_k depth, k, are constants in each wrapper below, so that the
   compiler drops the layer-2 and T_k tests a shape never makes; self is
   the wrapper, for the recursion.  Layer 2 holds, at depths 1 .. (n - 1)
   / 2, the class of b for half-and-half (l2 = 1), or c_depth = b_depth
   c_{depth-1} for the narcissistic kind (l2 = 2); row m of marks holds
   the b^(m) taken, for m = 2 .. k.  The ledger pointers and the node's
   bucket, b^(2) and layer-2 rows are held in locals, so the compiler need
   not read them through s again after each store or call.
   The candidates y are the unused ids, 64 to a word, in ascending order;
   at a depth up to nprefix, the prefix entry is the one candidate, so a
   resumed walk checks and places its prefix as it does every other entry.
   For each word, a first pass tests every candidate against the ledgers
   (bucket room, layer 2, the T_k rows) without a branch on the answer,
   and keeps the survivors in a word; a second pass takes the survivors in
   order to the orderly test, the leaf and the recursion.  The survivor
   word stays exact while its candidates' subtrees are walked: a child
   takes back every ledger change and unused bit it makes before it
   returns, so the ledgers are those the first pass read. */
static inline __attribute__((always_inline)) long long
walk(K *s, int depth, const int *active, int nact, const int l2, const int k,
     walk_fn *self)
{
    const int n = s->n, kd = k < depth ? k : depth, *const ldiv = s->ldiv;
    int *const rem = s->rem, *const seq = s->seq, *const marks = s->marks;
    unsigned long long *const unused = s->unused;
    const int *const brow = s->bucket + seq[depth - 1] * n; /* b's buckets */
    const int *const row2 = kd >= 2 ? ldiv + seq[depth - 2] * n : 0; /* b^(2) */
    const int *const crow = (l2 == 1 ? s->ctab : ldiv) + seq[depth - 1] * n;
    const int has2 = l2 && depth <= (n - 1) / 2, cv = has2 ? s->cval[depth - 1] : 0;
    int *next = s->act + (size_t)(depth + 1) * s->naut;
    long long total = 0;
    int w, i, m;
    if (s->budget) {
        if (*s->budget <= 0) {
            s->halt = 2;
            return 0;
        }
        --*s->budget;
    }
    if ((++s->nodes & CHECK_EVERY) == 0 && stopped(s->stop)) {
        s->halt = 3;
        return 0;
    }
#define LAYER2(y) (!has2 ? -1 : l2 == 1 ? crow[y] : s->mul[crow[y] * n + cv])
    for (w = 0; w < s->nw; w++) {
        unsigned long long f = unused[w], keep = 0;
        if (depth <= s->nprefix)
            f &= s->prefix[depth - 1] >> 6 == w ? BIT(s->prefix[depth - 1]) : 0;
        for (; f; f &= f - 1) {
            int y = 64 * w + __builtin_ctzll(f), c2 = LAYER2(y);
            int bad = !rem[brow[y]] | (c2 >= 0 && s->m2[c2]);
            if (kd >= 2)
                bad |= marks[2 * n + row2[y]];
            for (m = 3; m <= kd; m++)
                bad |= marks[m * n + ldiv[seq[depth - m] * n + y]];
            keep |= (unsigned long long)!bad << (y & 63);
        }
        for (; keep; keep &= keep - 1) {
            int y = 64 * w + __builtin_ctzll(keep), b = brow[y], c2, nn = 0, skip = 0;
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
            seq[depth] = y;
            if (depth == s->end) {
                if (!s->mirror || mirror(s)) {
                    total++;
                    if (s->leaf != &_Py_NoneStruct) {
                        memcpy(s->cur, seq, (size_t)n * sizeof(int));
                        if (pycall(s->stop ? &s->ts : 0, s->leaf, 0, 0, 0, 0)) {
                            s->halt = 1;
                            return total;
                        }
                    }
                }
                continue;
            }
            /* Place a_{depth+1} = y, walk below it, and take it back. */
            c2 = LAYER2(y);
            rem[b]--;
            if (c2 >= 0) {
                s->m2[c2] = 1;
                s->cval[depth] = c2;
            }
            if (kd >= 2)
                marks[2 * n + row2[y]] = 1;
            for (m = 3; m <= kd; m++)
                marks[m * n + ldiv[seq[depth - m] * n + y]] = 1;
            unused[w] ^= BIT(y);
            total += self(s, depth + 1, next, nn);
            if (s->halt)
                return total;
            rem[b]++;
            if (c2 >= 0)
                s->m2[c2] = 0;
            if (kd >= 2)
                marks[2 * n + row2[y]] = 0;
            for (m = 3; m <= kd; m++)
                marks[m * n + ldiv[seq[depth - m] * n + y]] = 0;
            unused[w] ^= BIT(y);
        }
    }
#undef LAYER2
    return total;
}

/* One wrapper per shape of the kinds in `_ckernel._KINDS`: plain
   (terrace, directed), T2, T_k with k >= 3 (k read at run time),
   half-and-half and narcissistic.  A kind with a layer 2 takes k = 1
   (`enumerate.EnumMode` checks it). */
#define SHAPE(name, l2, k)                                                  \
    static long long name(K *s, int d, const int *a, int na)               \
    {                                                                       \
        return walk(s, d, a, na, l2, k, name);                              \
    }
SHAPE(plain, 0, 1)
SHAPE(t2, 0, 2)
SHAPE(tk, 0, s->k)
SHAPE(half, 1, 1)
SHAPE(narc, 2, 1)
#undef SHAPE

/* Leaves below a_1 = e and the prefix (a_2, ..., a_{nprefix+1}), none if
   the walk finds it dead or non-canonical, cut at depth end (at order 1, end
   0: the one leaf (e), which spends no node); -1 when the node budget ran
   out, -2 when memory did, -3 when stopped (see `stopped`).
   The walk updates its own copy of caps, the nrem bucket capacities, and
   of the sequence.  leaf, a Python callable or None, is called at each
   leaf with the sequence copied to cur, and a true answer stops the
   search.  *budget, when given, is left at the nodes not spent.  Given a
   stop cell, the walk runs without the GIL, which a leaf takes back, and
   polls the cell instead of the signal handlers.  The walk writes no
   memory it did not allocate but cur, at a leaf, and *budget, at its
   end, so that walks on several threads share no cache line. */
long long terraces_dfs(int n, int l2, int k, int end, const int *ldiv,
                       const int *mul, const int *bucket, int nrem,
                       const int *caps, const int *ctab, int naut,
                       const int *auts, int nprefix, const int *prefix,
                       long long *budget, PyObject *leaf, int *cur,
                       const int *stop)
{
    K s;
    long long total, left = budget ? *budget : 0;
    int i, w = naut > 0 ? naut : 1;
    s.n = n, s.k = k, s.end = end, s.nw = (n + 63) / 64;
    s.mirror = l2 == 2 && end == (n - 1) / 2, s.naut = naut;
    s.ldiv = ldiv, s.mul = mul, s.bucket = bucket, s.ctab = ctab;
    s.auts = auts, s.cur = cur, s.budget = budget ? &left : 0;
    s.nprefix = nprefix, s.prefix = prefix, s.stop = stop;
    s.leaf = leaf, s.ts = 0, s.nodes = 0, s.halt = 0;
    s.rem = malloc((size_t)nrem * sizeof(int));
    s.seq = calloc(n, sizeof(int));
    s.m2 = calloc(n + 1, sizeof(int));
    s.marks = calloc((size_t)(k + 1) * n, sizeof(int));
    s.cval = calloc(n + 1, sizeof(int));
    s.act = malloc((size_t)(n + 2) * w * sizeof(int));
    s.unused = calloc(s.nw, sizeof(unsigned long long));
    if (!s.rem || !s.seq || !s.m2 || !s.marks || !s.cval || !s.act ||
        !s.unused) {
        total = -2;
        goto out;
    }
    memcpy(s.rem, caps, (size_t)nrem * sizeof(int));
    for (i = 1; i < n; i++)
        s.unused[i >> 6] |= BIT(i);
    if (l2 == 2)
        s.m2[0] = 1; /* c_0 = e is taken */
    for (i = 0; i < naut; i++)
        s.act[i] = i; /* at the root every automorphism is active */
    if (stop)
        s.ts = PyEval_SaveThread();
    if (end == 0) { /* order 1: the arrangement (e) is the one leaf */
        total = 1;
        if (leaf != &_Py_NoneStruct) {
            cur[0] = 0;
            pycall(stop ? &s.ts : 0, leaf, 0, 0, 0, 0);
        }
    } else
        total = (l2 == 1   ? half
                 : l2 == 2 ? narc
                 : k == 1  ? plain
                 : k == 2  ? t2
                           : tk)(&s, 1, s.act, naut);
    if (stop)
        PyEval_RestoreThread(s.ts);
    if (s.halt == 2)
        total = -1;
    else if (s.halt == 3)
        total = -3;
    if (budget)
        *budget = left;
out:
    free(s.rem);
    free(s.seq);
    free(s.m2);
    free(s.marks);
    free(s.cval);
    free(s.act);
    free(s.unused);
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
   move (moved 1) and teleport (moved 0), with seq up to date.  table2 and
   table3 are the packed move tables for 2 and 3 pieces.  out gets (steps,
   teleports, altitude).  Returns 0 at altitude n - 1; 1 when the budget
   is spent; -2 when memory ran out; -3 when draw answered no index in
   0..n-1, or draw or step raised, or before a scan the climb is stopped
   (see `stopped`).  The loop works on its own copy of seq, written back
   before each step call and at the end, and keeps its counts until the
   end, so that, as in `terraces_dfs`, climbs on several threads share no
   cache line.  Given a stop cell, it runs without the GIL, which draw and
   step take back. */
int terraces_climb(int n, int ncls, const int *ldiv, const int *cls,
                   const int *cap, int max_cuts, int max_steps,
                   const int *table2, const int *table3, int *seq,
                   PyObject *draw, PyObject *step, int *out, const int *stop)
{
    int *ccnt = calloc((size_t)ncls + 2 * (size_t)n, sizeof(int));
    int *next = ccnt + ncls, *cur = next + n;
    unsigned char *room = malloc(n);
    const int *hit = 0;
    int alt = 0, steps = 0, teleports = 0, code, c, d, i, p, b[4];
    PyThreadState *ts = 0;
    long r;
    if (!ccnt || !room) {
        code = -2;
        goto done;
    }
    memcpy(cur, seq, (size_t)n * sizeof(int));
    for (i = 0; i + 1 < n; i++) {
        c = cls[ldiv[cur[i] * n + cur[i + 1]]];
        alt += ccnt[c] < cap[c];
        ccnt[c]++;
    }
    if (stop)
        ts = PyEval_SaveThread();
    for (;;) {
        if (alt == n - 1) {
            code = 0;
            break;
        }
        if (steps >= max_steps || teleports >= max_steps) {
            code = 1;
            break;
        }
        if (stopped(stop)) {
            code = -3;
            break;
        }
        for (d = 0, p = 2; p <= max_cuts + 1; p++)
            if ((d = scan(n, p, p == 2 ? table2 : table3, cur, ldiv, cls, cap,
                          ccnt, room, b, &hit)) > 0)
                break;
        if (d > 0) {
            reassemble(next, cur, b, p, hit);
            memcpy(cur, next, (size_t)n * sizeof(int));
            alt += d;
            steps++;
        } else {
            if ((r = pycall(stop ? &ts : 0, draw, 0, 0, 0, 1)) < 0 || r >= n) {
                code = -3;
                break;
            }
            alt += teleport(n, cur, ldiv, cls, cap, ccnt, (int)r);
            teleports++;
        }
        if (step != &_Py_NoneStruct) {
            memcpy(seq, cur, (size_t)n * sizeof(int));
            if (pycall(stop ? &ts : 0, step, "ii", d > 0, alt, 0) < 0) {
                code = -3;
                break;
            }
        }
    }
    if (stop)
        PyEval_RestoreThread(ts);
    memcpy(seq, cur, (size_t)n * sizeof(int));
    out[0] = steps, out[1] = teleports, out[2] = alt;
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

/* `oracles._moves` (tests/) and the canonical form of each neighbour, for the terrace
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
                     const int *auts, int limit, int *cur, PyObject *visit)
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
            if ((r = pycall(0, visit, 0, 0, 0, 0)) != 0 || count >= limit) {
                code = r < 0 ? -3 : count;
                goto out;
            }
        }
        if (head == count || PyErr_CheckSignals() < 0) {
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
