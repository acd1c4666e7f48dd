"""First-improvement hill climbing over arrangements with k-cut moves.

The climb cuts the arrangement into at most three pieces and reassembles
them; only the junction entries of the quotient list change, so candidate
moves are scored from O(1) count updates.  Directed mode counts distinct
quotient values; terrace mode counts inverse-pair classes with caps, which
makes piece reversal altitude-neutral and therefore worth offering as a
move (it is forbidden in directed mode, where reversal scrambles values).

A teleport (move one random element to the end) escapes local maxima and
costs at most two altitude points.  Trajectories are fully determined by
the seed: the Mersenne Twister drives one shuffle for the start and one
randrange per teleport.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import permutations

from .enumerate import usable_cpus
from .groups import Group, _class_data
from .props import Arrangement, altitude_directed, altitude_undirected, is_directed_terrace, is_terrace

__all__ = [
    "ClimbParams",
    "ClimbResult",
    "teleport",
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
    max_restarts: int = 0
    restart_policy: str = "teleport-only"  # or "fresh-random"
    record_trace: bool = False
    debug_check: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown climb mode {self.mode!r}")
        if self.max_cuts not in (1, 2):
            raise ValueError("max_cuts must be 1 or 2 (3 cuts do not pay for themselves)")
        if self.restart_policy not in ("teleport-only", "fresh-random"):
            raise ValueError(f"unknown restart policy {self.restart_policy!r}")


@dataclass
class ClimbResult:
    outcome: str  # "found" | "exhausted"
    arrangement: Arrangement | None
    steps_taken: int
    teleports_taken: int
    restarts_taken: int
    seed: int
    trace: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "outcome": self.outcome,
            "steps": self.steps_taken,
            "teleports": self.teleports_taken,
            "restarts": self.restarts_taken,
            "seed": self.seed,
        }
        if self.arrangement is not None:
            out["elements"] = list(self.arrangement.seq)
            out["words"] = list(self.arrangement.words())
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


def teleport(a: Arrangement, rng: random.Random) -> Arrangement:
    """Move one uniformly chosen element to the end (altitude drop <= 2)."""
    n = a.group.order
    if n < 2:
        raise ValueError("teleport needs order >= 2")
    i = rng.randrange(n)
    seq = list(a.seq)
    seq.append(seq.pop(i))
    return Arrangement(a.group, tuple(seq))


# ---------------------------------------------------------------------------
# Incremental climber


class _Climber:
    def __init__(self, group: Group, mode: str):
        self.group = group
        self.mode = mode
        self.n = group.order
        self.ldiv = group.ldiv
        if mode == "terrace":
            _cl, caps, cindex = _class_data(group)
            self.cls = list(cindex)
            self.cap = list(caps)
            self.ccnt = [0] * len(caps)
        else:
            self.vcnt = [0] * self.n
        self.seq: list[int] = list(range(self.n))
        self.alt = 0

    def reset(self, seq: list[int]) -> None:
        self.seq = seq
        self._rebuild()

    def _rebuild(self) -> None:
        ldiv, seq = self.ldiv, self.seq
        alt = 0
        if self.mode == "directed":
            vcnt = self.vcnt
            for i in range(self.n):
                vcnt[i] = 0
            for i in range(self.n - 1):
                v = ldiv[seq[i]][seq[i + 1]]
                if not vcnt[v]:
                    alt += 1
                vcnt[v] += 1
        else:
            ccnt, cls, cap = self.ccnt, self.cls, self.cap
            for i in range(len(ccnt)):
                ccnt[i] = 0
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

    def apply(self, cuts, order, mask) -> None:
        self.seq = _materialize(self.seq, cuts, order, mask)
        self._rebuild()

    def teleport_in_place(self, rng: random.Random) -> None:
        i = rng.randrange(self.n)
        self.seq.append(self.seq.pop(i))
        self._rebuild()

    # -- first-improvement scans -------------------------------------------

    def try_improve(self, max_cuts: int) -> bool:
        if self.mode == "directed":
            if self._scan1_directed():
                return True
            return max_cuts >= 2 and self._scan2_directed()
        if self._scan1_terrace():
            return True
        return max_cuts >= 2 and self._scan2_terrace()

    def _scan1_directed(self) -> bool:
        seq, ldiv, vcnt, n = self.seq, self.ldiv, self.vcnt, self.n
        a1 = ldiv[seq[n - 1]][seq[0]]  # the only new junction: end -> start
        if vcnt[a1]:
            return False
        for c in range(1, n):
            r1 = ldiv[seq[c - 1]][seq[c]]
            if a1 != r1 and vcnt[r1] > 1:
                self.apply((c,), (1, 0), 0)
                return True
        return False

    def _scan2_directed(self) -> bool:
        seq, ldiv, vcnt, n = self.seq, self.ldiv, self.vcnt, self.n
        s0 = seq[0]
        sl = seq[n - 1]

        def gain2(r1, r2, a1, a2):
            d = 0
            vcnt[r1] -= 1
            if not vcnt[r1]:
                d -= 1
            vcnt[r2] -= 1
            if not vcnt[r2]:
                d -= 1
            if not vcnt[a1]:
                d += 1
            vcnt[a1] += 1
            if not vcnt[a2]:
                d += 1
            vcnt[a2] += 1
            vcnt[a2] -= 1
            vcnt[a1] -= 1
            vcnt[r2] += 1
            vcnt[r1] += 1
            return d

        for c1 in range(1, n - 1):
            e0 = seq[c1 - 1]
            s1 = seq[c1]
            r1 = ldiv[e0][s1]
            for c2 in range(c1 + 1, n):
                e1 = seq[c2 - 1]
                s2 = seq[c2]
                r2 = ldiv[e1][s2]
                # piece orders in lexicographic order: 021, 102, 120, 201, 210
                if gain2(r1, r2, ldiv[e0][s2], ldiv[sl][s1]) > 0:
                    self.apply((c1, c2), (0, 2, 1), 0)
                    return True
                if gain2(r1, r2, ldiv[e1][s0], ldiv[e0][s2]) > 0:
                    self.apply((c1, c2), (1, 0, 2), 0)
                    return True
                if gain2(r1, r2, ldiv[e1][s2], ldiv[sl][s0]) > 0:
                    self.apply((c1, c2), (1, 2, 0), 0)
                    return True
                if gain2(r1, r2, ldiv[sl][s0], ldiv[e0][s1]) > 0:
                    self.apply((c1, c2), (2, 0, 1), 0)
                    return True
                if gain2(r1, r2, ldiv[sl][s1], ldiv[e1][s0]) > 0:
                    self.apply((c1, c2), (2, 1, 0), 0)
                    return True
        return False

    def _class_gain(self, removed, added) -> int:
        ccnt, cls, cap = self.ccnt, self.cls, self.cap
        d = 0
        rcls = [cls[v] for v in removed]
        for c in rcls:
            if ccnt[c] <= cap[c]:
                d -= 1
            ccnt[c] -= 1
        acls = [cls[v] for v in added]
        for c in acls:
            if ccnt[c] < cap[c]:
                d += 1
            ccnt[c] += 1
        for c in acls:
            ccnt[c] -= 1
        for c in rcls:
            ccnt[c] += 1
        return d

    def _scan1_terrace(self) -> bool:
        seq, ldiv, n = self.seq, self.ldiv, self.n
        gain = self._class_gain
        for c in range(1, n):
            r1 = ldiv[seq[c - 1]][seq[c]]
            # combos for pieces (A, B): order (0,1) masks 1..3, order (1,0) masks 0..3
            combos = (
                ((0, 1), 1, ldiv[seq[0]][seq[c]]),
                ((0, 1), 2, ldiv[seq[c - 1]][seq[n - 1]]),
                ((0, 1), 3, ldiv[seq[0]][seq[n - 1]]),
                ((1, 0), 0, ldiv[seq[n - 1]][seq[0]]),
                ((1, 0), 1, ldiv[seq[n - 1]][seq[c - 1]]),
                ((1, 0), 2, ldiv[seq[c]][seq[0]]),
                ((1, 0), 3, ldiv[seq[c]][seq[c - 1]]),
            )
            for order, mask, a1 in combos:
                if gain((r1,), (a1,)) > 0:
                    self.apply((c,), order, mask)
                    return True
        return False

    def _scan2_terrace(self) -> bool:
        seq, ldiv, n = self.seq, self.ldiv, self.n
        gain = self._class_gain
        for c1 in range(1, n - 1):
            for c2 in range(c1 + 1, n):
                r1 = ldiv[seq[c1 - 1]][seq[c1]]
                r2 = ldiv[seq[c2 - 1]][seq[c2]]
                head = (seq[0], seq[c1], seq[c2])
                tail = (seq[c1 - 1], seq[c2 - 1], seq[n - 1])
                for order, mask in _COMBOS3_REV:
                    k0, k1, k2 = order
                    l0 = head[k0] if (mask >> k0) & 1 else tail[k0]
                    f1 = tail[k1] if (mask >> k1) & 1 else head[k1]
                    l1 = head[k1] if (mask >> k1) & 1 else tail[k1]
                    f2 = tail[k2] if (mask >> k2) & 1 else head[k2]
                    if gain((r1, r2), (ldiv[l0][f1], ldiv[l1][f2])) > 0:
                        self.apply((c1, c2), order, mask)
                        return True
        return False


_COMBOS3_REV = tuple(_iter_combos(3, True))


def climb(group: Group, params: ClimbParams) -> ClimbResult:
    """Steps: random start; accept the first higher neighbour (cuts=1 scan,
    then cuts=2); teleport at local maxima; stop at altitude n-1 or when the
    accepted-move/teleport budget is spent.  Same seed, same trajectory."""
    n = group.order
    if n < 2:
        raise ValueError("climb needs order >= 2")
    rng = random.Random(params.seed)
    directed = params.mode == "directed"
    climber = _Climber(group, params.mode)
    start = list(range(n))
    rng.shuffle(start)
    climber.reset(start)
    target = n - 1
    steps = teleports = restarts = 0
    trace: list[int] | None = [] if params.record_trace else None

    def result(outcome: str, arrangement: Arrangement | None) -> ClimbResult:
        return ClimbResult(
            outcome,
            arrangement,
            steps,
            teleports,
            restarts,
            params.seed,
            None if trace is None else tuple(trace),
        )

    while True:
        if climber.alt == target:
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
        if params.restart_policy == "fresh-random":
            if restarts >= params.max_restarts:
                return result("exhausted", None)
            fresh = list(range(n))
            rng.shuffle(fresh)
            climber.reset(fresh)
            restarts += 1
            continue
        climber.teleport_in_place(rng)
        if params.debug_check:
            climber.check()
        teleports += 1


def _seed_worker(args) -> ClimbResult:
    mul, words, spec, params, seed = args
    group = Group(mul, words, spec)
    return climb(group, ClimbParams(**{**params, "seed": seed}))


def climb_seeds(group: Group, params: ClimbParams, seeds, threads: int = 1) -> ClimbResult:
    """Run one climb per seed; return the first found result in seed order.

    With more than one worker (min(threads, usable cpus, seeds)) all seeds
    run, in that many processes; the returned result is the same as
    sequential execution would give.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    workers = min(threads, usable_cpus(), len(seeds))
    if workers <= 1:
        last = None
        for s in seeds:
            last = climb(group, ClimbParams(**{**asdict(params), "seed": s}))
            if last.outcome == "found":
                return last
        assert last is not None
        return last
    jobs = [(group.mul, group.element_words, group.spec, asdict(params), s) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        results = list(ex.map(_seed_worker, jobs))
    for r in results:
        if r.outcome == "found":
            return r
    return results[-1]


