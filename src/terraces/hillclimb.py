"""First-improvement hill climbing over arrangements with k-cut moves.

The climb cuts the arrangement into two or three pieces and reassembles
them; only the junction entries of the quotient list change, so candidate
moves are scored, and accepted moves and teleports applied, from O(1)
count updates.  Terrace mode counts inverse-pair
classes with caps, which makes piece reversal altitude-neutral and
therefore worth offering as a move; directed mode is the same count with
one class per quotient value and every cap 1, and offers no reversal,
which scrambles values.

The whole climb loop, scans, moves, teleports and class counts, runs in
one call of C (`_ckernel`, the shared object that also holds the search
kernel and the climb's move tables), on the arrangement in an int array;
it takes the same steps as its Python twin, `climb` in `tests/oracles.py`,
which the tests hold it to.

A teleport (move one random element to the end) escapes local maxima and
costs at most two altitude points.  Trajectories are fully determined by
the seed: the Mersenne Twister drives one shuffle for the start and one
randrange per teleport, which the compiled loop calls back to Python for.
`climb_seeds` runs seeds on a forked pool and returns the first found
result in seed order as soon as the seeds before it are done; a worker
sends back the found sequence, not the group.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, replace

from . import _ckernel
from .enumerate import _forked_map
from .groups import Group
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


# The climb.  The altitude is the number of quotients that fit in their
# class: sum over classes of min(count, cap).  Terrace mode uses the
# inverse-pair classes; directed mode is the same with one class per
# quotient value and every cap 1.


def climb(group: Group, params: ClimbParams) -> ClimbResult:
    """Steps: random start; accept the first higher neighbour (cuts=1 scan,
    then cuts=2); teleport at local maxima; stop at altitude n-1 or when the
    accepted-move/teleport budget is spent.  Same seed, same trajectory.

    The loop runs in one call of `_ckernel.terraces_climb`, which calls
    back for each teleport index, one randrange(n) per teleport, and, with
    `record_trace` or `debug_check`, after each move or teleport, to record
    or recheck the altitude."""
    n = group.order
    if n < 2:
        raise ValueError("climb needs order >= 2")
    rng = random.Random(params.seed)
    terrace = params.mode == "terrace"
    start = list(range(n))
    rng.shuffle(start)
    seq = array("i", start)
    trace: list[int] | None = [] if params.record_trace else None

    def step(moved, alt):
        if params.debug_check:
            arr = Arrangement(group, tuple(seq))
            ref = altitude_undirected(arr) if terrace else altitude_directed(arr)
            if ref != alt:
                raise AssertionError(f"incremental altitude {alt} != recomputed {ref}")
        if trace is not None and moved:
            trace.append(alt)

    found, steps, teleports, _alt = _ckernel.load().climb(
        group, terrace, params.max_cuts, params.max_steps, seq, lambda: rng.randrange(n),
        step if params.record_trace or params.debug_check else None)
    arr = None
    if found:
        arr = Arrangement(group, tuple(seq))
        if not (is_terrace(arr) if terrace else is_directed_terrace(arr)):
            raise AssertionError("altitude bookkeeping and verifier disagree")
    return ClimbResult("found" if found else "exhausted", arr, steps, teleports, params.seed,
                       None if trace is None else tuple(trace))


def climb_seeds(group: Group, params: ClimbParams, seeds, threads: int = 1) -> ClimbResult:
    """Run one climb per seed; return the first found result in seed order,
    or the last seed's result when no seed finds one.

    With more than one worker (see `enumerate._forked_map`) the seeds run
    in that many forked processes and are read back in seed order; the
    first found result is returned as soon as every earlier seed is done,
    and the seeds still running are stopped.  The result is the one the
    serial loop returns.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")

    def run(seed):
        # A result comes back with the found sequence, not the arrangement,
        # whose group a worker would pickle with its tables.
        r = climb(group, replace(params, seed=seed))
        return replace(r, arrangement=None), r.arrangement and r.arrangement.seq

    # Built here, the tables reach every pool worker through the fork.
    _ckernel._climb_tables(group, params.mode == "terrace")
    with _forked_map(threads, run, seeds) as results:
        for r, seq in results:
            if seq is not None:
                r.arrangement = Arrangement(group, seq)
                break
    return r
