"""First-improvement hill climbing over arrangements with k-cut moves.

The climb cuts the arrangement into two or three pieces and reassembles
them; only the junction entries of the quotient list change, so candidate
moves are scored from O(1) count updates.  Terrace mode counts inverse-pair
classes with caps, which makes piece reversal altitude-neutral and
therefore worth offering as a move; directed mode is the same count with
one class per quotient value and every cap 1, and offers no reversal,
which scrambles values.

One scan serves both modes and both cut counts.  It walks a move table
built once at import: for each (piece order, reversal mask), the pairs of
piece ends the move joins.  An exact prefilter skips every cut tuple and
every move that forms no junction in a class with room, since such a move
cannot raise the altitude; only the rest reach the gain test.

A teleport (move one random element to the end) escapes local maxima and
costs at most two altitude points.  Trajectories are fully determined by
the seed: the Mersenne Twister drives one shuffle for the start and one
randrange per teleport.  `climb_seeds` runs seeds on a forked pool and
returns the first found result in seed order as soon as the seeds before it
are done.
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import dataclass, replace
from itertools import combinations, permutations

from .enumerate import usable_cpus
from .groups import Group, _class_data
from .props import Arrangement, altitude_directed, altitude_undirected, is_directed_terrace, is_terrace

__all__ = [
    "ClimbParams",
    "ClimbResult",
    "climb",
    "climb_seeds",
]

MODES = ("directed", "terrace")


@dataclass(frozen=True)
class ClimbParams:
    mode: str = "directed"
    max_cuts: int = 2
    seed: int = 0
    max_steps: int = 1_000_000
    record_trace: bool = False
    debug_check: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown climb mode {self.mode!r}")
        if self.max_cuts not in (1, 2):
            raise ValueError("max_cuts must be 1 or 2 (3 cuts do not pay for themselves)")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be at least 0, got {self.max_steps}")


@dataclass
class ClimbResult:
    outcome: str  # "found" | "exhausted"
    arrangement: Arrangement | None
    steps_taken: int
    teleports_taken: int
    seed: int
    trace: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        """Outcome and counters; the found arrangement is left to the caller."""
        out = {
            "outcome": self.outcome,
            "steps": self.steps_taken,
            "teleports": self.teleports_taken,
            "seed": self.seed,
        }
        if self.trace is not None:
            out["trace"] = list(self.trace)
        return out


# ---------------------------------------------------------------------------
# Move enumeration.  Component order: cut positions ascending, then piece
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


def _materialize(seq, cuts, order, mask):
    bounds = [0, *cuts, len(seq)]
    pieces = [seq[bounds[i] : bounds[i + 1]] for i in range(len(cuts) + 1)]
    out = []
    for k in order:
        p = pieces[k]
        out.extend(p[::-1] if (mask >> k) & 1 else p)
    return out


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


_MOVES = {(p, rev): _move_table(p, rev) for p in (2, 3) for rev in (False, True)}


# ---------------------------------------------------------------------------
# Incremental climber.  The altitude is the number of quotients that fit in
# their class: sum over classes of min(count, cap).  Terrace mode uses the
# inverse-pair classes; directed mode is the same with one class per
# quotient value and every cap 1.


class _Climber:
    def __init__(self, group: Group, mode: str, seq: list[int]):
        self.group = group
        self.mode = mode
        self.n = n = group.order
        self.ldiv = group.ldiv
        if mode == "terrace":
            _cl, caps, cindex = _class_data(group)
            self.cls, self.cap = list(cindex), list(caps)
        else:
            self.cls, self.cap = list(range(n)), [1] * n
        self.reset(seq)

    def reset(self, seq: list[int]) -> None:
        self.seq = seq
        ldiv, cls, cap = self.ldiv, self.cls, self.cap
        ccnt = self.ccnt = [0] * len(cap)
        alt = 0
        for i in range(self.n - 1):
            c = cls[ldiv[seq[i]][seq[i + 1]]]
            if ccnt[c] < cap[c]:
                alt += 1
            ccnt[c] += 1
        self.alt = alt

    def check(self) -> None:
        arr = Arrangement(self.group, tuple(self.seq))
        ref = altitude_directed(arr) if self.mode == "directed" else altitude_undirected(arr)
        if ref != self.alt:
            raise AssertionError(f"incremental altitude {self.alt} != recomputed {ref}")

    def _gain(self, removed, added) -> int:
        """Altitude change from replacing the quotients `removed` by `added`."""
        ccnt, cls, cap = self.ccnt, self.cls, self.cap
        d = 0
        for v in removed:
            c = cls[v]
            d -= ccnt[c] <= cap[c]
            ccnt[c] -= 1
        for v in added:
            c = cls[v]
            d += ccnt[c] < cap[c]
            ccnt[c] += 1
        for v in added:
            ccnt[cls[v]] -= 1
        for v in removed:
            ccnt[cls[v]] += 1
        return d

    def try_improve(self, max_cuts: int) -> bool:
        """Apply the first move that raises the altitude (one cut, then two)."""
        ccnt, cap = self.ccnt, self.cap
        # room[v]: the class of quotient v holds fewer than cap entries.
        # Within one class, a move that removes k entries and adds j can
        # raise the altitude only if j > k and the class had room before the
        # move; so a move none of whose new junctions lands in room cannot
        # gain, and skipping it (or a cut tuple with no such end pair at
        # all) leaves the first improving move unchanged.
        room = [ccnt[c] < cap[c] for c in self.cls]
        return self._scan(2, room) or (max_cuts >= 2 and self._scan(3, room))

    def _scan(self, npieces: int, room: list[bool]) -> bool:
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
            for order, mask, junctions, broken in moves:
                for i, j in junctions:
                    if room[ldiv[ends[i]][ends[j]]]:
                        break
                else:
                    continue
                added = [ldiv[ends[i]][ends[j]] for i, j in junctions]
                removed = [ldiv[ends[i]][ends[j]] for i, j in broken]
                if self._gain(removed, added) > 0:
                    self.reset(_materialize(seq, cuts, order, mask))
                    return True
        return False


def climb(group: Group, params: ClimbParams) -> ClimbResult:
    """Steps: random start; accept the first higher neighbour (cuts=1 scan,
    then cuts=2); teleport at local maxima; stop at altitude n-1 or when the
    accepted-move/teleport budget is spent.  Same seed, same trajectory."""
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
        seq = climber.seq
        seq.append(seq.pop(rng.randrange(n)))
        climber.reset(seq)
        if params.debug_check:
            climber.check()
        teleports += 1


# Seeds on a pool: workers are forked and get the group and parameters as
# initializer arguments, so a task carries only its seed.

_SEED_STATE: tuple | None = None  # (group, params), set in each pool worker


def _init_seed_worker(group: Group, params: ClimbParams) -> None:
    global _SEED_STATE
    _SEED_STATE = (group, params)


def _seed_task(seed: int) -> ClimbResult:
    group, params = _SEED_STATE
    return climb(group, replace(params, seed=seed))


def _first_found(results) -> ClimbResult:
    for r in results:
        if r.outcome == "found":
            break
    return r


def climb_seeds(group: Group, params: ClimbParams, seeds, threads: int = 1) -> ClimbResult:
    """Run one climb per seed; return the first found result in seed order,
    or the last seed's result when no seed finds one.

    With more than one worker (min(threads, usable cpus, seeds)) the seeds
    run in that many forked processes and are read back in seed order; the
    first found result is returned as soon as every earlier seed is done,
    and the seeds still running are stopped.  The result is the one the
    serial loop returns.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    workers = min(threads, usable_cpus(), len(seeds))
    if workers <= 1:
        return _first_found(climb(group, replace(params, seed=s)) for s in seeds)
    with multiprocessing.get_context("fork").Pool(workers, _init_seed_worker, (group, params)) as pool:
        r = _first_found(pool.imap(_seed_task, seeds))
    if r.arrangement is not None:  # a worker's result holds a copy of the group
        r.arrangement = Arrangement(group, r.arrangement.seq)
    return r
