"""The benchmark's workloads: job lists, expected outputs and output checks.

Every call into the library goes through a span recorder (`Pass.spans`),
which times it in a traced run and passes it straight through otherwise.
A job raises JobFailed when its output is wrong; the runner counts a job
as failed when it raises anything.
"""

from __future__ import annotations

import random
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from terraces import latin, props
from terraces.enumerate import EnumMode, count_table, enumerate_basic, search_first
from terraces.groups import DEFAULT_AUT_CAP, automorphisms, parse_group_spec
from terraces.hillclimb import ClimbParams, climb_seeds
from terraces.orbit import explore_chain, orbit_of


class JobFailed(Exception):
    """A job finished but its output is wrong."""


class Pass:
    """One pass over a job list: the groups, a span recorder, the counters.

    `counts` holds the deterministic work counters; a fixed seed must give
    the same counts on every pass and every run.
    """

    def __init__(self, groups: dict, spans, threads: int):
        self.groups = groups
        self.spans = spans
        self.threads = threads
        self.counts: Counter = Counter()

    def verify(self, fn, *args) -> None:
        """Run one props verifier; a False answer fails the job."""
        self.counts["props.verify_calls"] += 1
        if not self.spans.call(fn, *args):
            raise JobFailed(f"{fn.__name__} rejects {args[0].group.spec} {args[0].seq}")

    def certify(self, a: props.Arrangement, *, complete: bool, k: int = 1) -> None:
        """Certify a_i^-1 * a_j; directed witnesses give complete squares
        (k-complete for T_k), terraces give quasi-complete ones."""
        sq = self.spans.call(latin.square_from, a)
        self.counts["latin.cells"] += sq.order * sq.order
        cert = self.spans.call(latin.certify, sq)
        ok = cert.complete and cert.k_complete_max >= k if complete else cert.quasi_complete
        if not ok:
            raise JobFailed(f"square of {a.group.spec} {a.seq} fails its certificate: {cert.to_dict()}")


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[Pass], None]


def build_groups(specs, spans) -> dict:
    """What every CLI run pays before its real work: build each group, its
    automorphisms (for orders the library computes them at) and ldiv."""
    groups = {}
    for spec in specs:
        g = spans.call(parse_group_spec, spec)
        if g.order <= DEFAULT_AUT_CAP:
            spans.call(automorphisms, g)
        with spans.span("groups.ldiv"):
            g.ldiv
        groups[spec] = g
    return groups


# ---------------------------------------------------------------------------
# enum-table: the paper's enumeration table (t, d) for the core tier plus
# Z13 and D14, counted with the two-process pool.

CORE_TIER = ["Z5", "Z6", "D6", "Z8", "Z4xZ2", "D8", "Q8", "Z9", "Z3xZ3", "Z10", "D10",
             "Z11", "Z12", "Z6xZ2", "D12", "Q12", "A4"]
ENUM_SPECS = CORE_TIER + ["Z13", "D14"]


def _count_job(spec: str, known: dict) -> Job:
    def run(p: Pass) -> None:
        got = p.spans.call(count_table, p.groups[spec], threads=p.threads)
        p.counts["enumerate.leaves"] += sum(got)
        if got != known[spec]:
            raise JobFailed(f"count_table({spec}) = {got}, expected {known[spec]}")

    return Job(f"count_table {spec}", run)


def enum_table_jobs(rng: random.Random, known: dict) -> list[Job]:
    jobs = [_count_job(s, known) for s in ENUM_SPECS]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# search-certs: first witnesses and nonexistence certificates.  Directed
# T2 exists for A4/Q12/Q16/G21_1 and not for D8/Q8/D12/D14/Z13 (D14 stands
# in for the 64 s D16 proof); among the catalogue groups of order <= 12
# plus D14 and Z14, directed T3 exists exactly for Z4/Z6/Z10/Z12;
# SD(13,3,3) has a directed half-and-half terrace, G27_4 a narcissistic one.

T2_FOUND = ["A4", "Q12", "Q16", "G21_1"]
T2_NONE = ["D8", "Q8", "D12", "D14", "Z13"]
T3_GROUPS = ["Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z11", "Z12", "E4", "E8", "Z4xZ2",
             "Z3xZ3", "Z6xZ2", "D6", "D8", "D10", "D12", "Q8", "Q12", "A4", "D14", "Z14"]
T3_FOUND = {"Z4", "Z6", "Z10", "Z12"}
SEARCH_SPECS = sorted(set(T2_FOUND + T2_NONE + T3_GROUPS + ["SD(13,3,3)", "G27_4"]))


def _check_tk(p: Pass, w: props.Arrangement, k: int) -> None:
    p.verify(props.is_directed_tk, w, k)
    p.certify(w, complete=True, k=k)


def _check_directed_half_and_half(p: Pass, w: props.Arrangement) -> None:
    p.verify(props.is_directed_terrace, w)
    p.verify(props.is_half_and_half, w)
    p.certify(w, complete=True)


def _check_narcissistic(p: Pass, w: props.Arrangement) -> None:
    p.verify(props.is_terrace, w)
    p.verify(props.is_narcissistic, w)
    p.verify(props.is_half_and_half, w)
    p.certify(w, complete=False)


def _search_job(spec: str, mode: EnumMode, exists: bool, check) -> Job:
    def run(p: Pass) -> None:
        with p.spans.span("enumerate.search_first") as attrs:
            w = search_first(p.groups[spec], mode)
            attrs["found"] = w is not None
        if (w is not None) != exists:
            raise JobFailed(f"search_first({spec}, {mode.label()}) gave {w and w.seq}, "
                            f"expected {'a witness' if exists else 'None'}")
        if w is not None:
            check(p, w)

    return Job(f"search_first {spec} {mode.label()}", run)


def search_certs_jobs(rng: random.Random, known: dict) -> list[Job]:
    t2, t3 = EnumMode("directed_tk", k=2), EnumMode("directed_tk", k=3)
    jobs = [_search_job(s, t2, s in T2_FOUND, lambda p, w: _check_tk(p, w, 2))
            for s in T2_FOUND + T2_NONE]
    jobs += [_search_job(s, t3, s in T3_FOUND, lambda p, w: _check_tk(p, w, 3)) for s in T3_GROUPS]
    jobs.append(_search_job("SD(13,3,3)", EnumMode("directed_half_and_half"), True,
                            _check_directed_half_and_half))
    jobs.append(_search_job("G27_4", EnumMode("narcissistic"), True, _check_narcissistic))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# climb-orbit: witness construction by hill climbing, orbit closures and a
# chain walk, with every arrangement found certified as a Latin square.
#
# One climb takes a seed-dependent time whose standard deviation is about
# its mean, so a run is only steady when its total sums many cheap climbs:
# the criterion-6 groups are climbed CLIMB_ROUNDS times with fresh seeds,
# Q64 and Z63 once.  A5, S5, D64, D100, D128 and Q128 are left out: their
# climbs average 0.3-7 s each, so one unlucky seed would set a run's time.

SMALL_DIRECTED = ([f"D{n}" for n in range(10, 34, 2)] + [f"Q{n}" for n in range(12, 36, 4)]
                  + ["A4", "S4"])
TERRACE_CLIMBS = ["Q64", "Z63"]
CLIMB_ROUNDS = 24
SEEDS_PER_CLIMB = 8
ORDER_LE_9 = ["Z1", "Z2", "Z3", "Z4", "E4", "Z5", "Z6", "D6", "Z7", "Z8", "Z4xZ2", "E8",
              "D8", "Q8", "Z9", "Z3xZ3"]
ORBIT_SIZES = {1, 2, 3, 4, 6}  # orbit sizes divide 4 or 6
CHAIN_ORDER, CHAIN_LIMIT = 14, 5000  # walecki(14)'s chain has no extendable
                                    # terrace among its first 5000 forms
CLIMB_SPECS = sorted(set(SMALL_DIRECTED + TERRACE_CLIMBS + ORDER_LE_9))


def _climb_job(spec: str, mode: str, seeds: list[int]) -> Job:
    def run(p: Pass) -> None:
        r = p.spans.call(climb_seeds, p.groups[spec], ClimbParams(mode=mode), seeds)
        p.counts["hillclimb.climbs"] += seeds.index(r.seed) + 1
        p.counts["hillclimb.moves"] += r.steps_taken + r.teleports_taken
        p.counts["hillclimb.teleports"] += r.teleports_taken
        if r.outcome != "found":
            raise JobFailed(f"no {mode} terrace for {spec} with seeds {seeds}")
        p.counts["hillclimb.found"] += 1
        if mode == "directed":
            p.verify(props.is_directed_terrace, r.arrangement)
            p.certify(r.arrangement, complete=True)
        else:
            p.verify(props.is_terrace, r.arrangement)
            p.certify(r.arrangement, complete=False)

    return Job(f"climb_seeds {spec} {mode} {seeds[0]}", run)


def _orbit_job(spec: str, known: dict) -> Job:
    def run(p: Pass) -> None:
        mode = EnumMode("terrace", count_only=False, essentially_different=True)
        found = p.spans.call(enumerate_basic, p.groups[spec], mode).witnesses
        if spec in known and len(found) != known[spec][0]:
            raise JobFailed(f"{spec}: {len(found)} essential terraces, expected {known[spec][0]}")
        for w in found:
            p.verify(props.is_terrace, w)
            size = len(p.spans.call(orbit_of, w))
            p.counts["orbit.forms"] += size
            if size not in ORBIT_SIZES:
                raise JobFailed(f"{spec}: orbit of {w.seq} has {size} forms")
            p.certify(w, complete=False)

    return Job(f"orbit_of {spec}", run)


def _chain_job() -> Job:
    def run(p: Pass) -> None:
        start = props.walecki(CHAIN_ORDER)
        w, visited = p.spans.call(explore_chain, start, CHAIN_LIMIT, lambda a: props.is_extendable(a)[0])
        p.counts["orbit.forms"] += visited
        if w is not None or visited != CHAIN_LIMIT:
            raise JobFailed(f"explore_chain(walecki({CHAIN_ORDER})) gave {w and w.seq} after "
                            f"{visited} forms, expected none after {CHAIN_LIMIT}")

    return Job(f"explore_chain walecki({CHAIN_ORDER})", run)


def climb_orbit_jobs(rng: random.Random, known: dict) -> list[Job]:
    def seeds() -> list[int]:
        return rng.sample(range(1 << 30), SEEDS_PER_CLIMB)

    jobs = [_climb_job(s, "directed", seeds()) for _ in range(CLIMB_ROUNDS) for s in SMALL_DIRECTED]
    jobs += [_climb_job(s, "terrace", seeds()) for s in TERRACE_CLIMBS]
    jobs += [_orbit_job(s, known) for s in ORDER_LE_9]
    jobs.append(_chain_job())
    rng.shuffle(jobs)
    return jobs


def run_pass(jobs: list[Job], groups: dict, spans, threads: int) -> tuple[dict, list[str]]:
    """One pass over the job list: (work counters, failure messages)."""
    p = Pass(groups, spans, threads)
    failures = []
    for job in jobs:
        try:
            with spans.span("job") as attrs:
                attrs["job"] = job.name
                job.run(p)
        except JobFailed as e:
            failures.append(f"{job.name}: {e}")
        except Exception:  # a job that raises is a failed job; the pass goes on
            failures.append(f"{job.name}: {traceback.format_exc()}")
    return dict(sorted(p.counts.items())), failures


@dataclass(frozen=True)
class Workload:
    specs: list[str]
    jobs: Callable[[random.Random, dict], list[Job]]


WORKLOADS = {
    "enum-table": Workload(ENUM_SPECS, enum_table_jobs),
    "search-certs": Workload(SEARCH_SPECS, search_certs_jobs),
    "climb-orbit": Workload(CLIMB_SPECS, climb_orbit_jobs),
}
