"""Benchmark for the terraces package.

Run from the repository root:

    python3 bench/run.py --workload enum-table --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

    enum-table    count_table with two processes: the core tier, Z13, D14
    search-certs  search_first: first witnesses and nonexistence certificates
    climb-orbit   hill climbs, orbit closures and a chain walk

The seed sets the job order and the climb seeds; everything else is fixed
by the paper's tables.  Every job's output is checked (expected counts come
from tests/conftest.py::KNOWN_COUNTS), and every witness must pass its
`props` verifier and `latin.certify`.

--trace 0 measures set-up SETUP_REPEATS times in fresh interpreters, then
repeats the job list while another pass fits in --seconds, and reports
the end-to-end metrics: setup_s and wall_s (medians), and peak_rss_mb.

--trace 1 ignores --seconds: it runs the job list once untraced and once
with every library call in a span (enum-table once more single-process,
the serial baseline) and reports the per-layer metrics; a layer the
workload never calls reports 0.  The spans go to bench/out/.

Both modes check that the work counters repeat exactly: between passes,
and between runs of the same seed and source tree (bench/out/counts-*).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code: 0 when every job passed and
the counters repeated, 1 otherwise, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import NoSpans, SpanRecorder, dump

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREADS = 2  # the pool size count_table gets; the benchmark machine has 2 cores
SETUP_REPEATS = 15


def setup_seconds(workload: str) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it waited for (pool workers)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed_run(w, name: str, jobs, seconds: float):
    setups = [setup_seconds(name) for _ in range(SETUP_REPEATS)]
    groups = w.build_groups(w.WORKLOADS[name].specs, NoSpans())
    walls, counts, failures = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        c, f = w.run_pass(jobs, groups, NoSpans(), THREADS)
        walls.append(time.perf_counter() - t0)
        counts.append(c)
        failures += f
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"setup_s per probe: {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"wall_s per pass: {' '.join(f'{s:.3f}' for s in walls)}")
    return metrics, counts, failures, None


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, counts: dict, overhead_s: float, cpu_per_wall: float) -> dict:
    def secs(run: str, test) -> list[float]:
        return [sp.self_s for sp in spans if sp.run == run and test(sp)]

    def named(*names):
        return lambda sp: sp.name in names

    count = secs("traced", named("enumerate.count_table"))
    serial = secs("serial", named("enumerate.count_table"))
    search = secs("traced", named("enumerate.search_first"))
    search_none = secs("traced", lambda sp: sp.name == "enumerate.search_first" and not sp.attrs.get("found"))
    search_found = secs("traced", lambda sp: sp.name == "enumerate.search_first" and sp.attrs.get("found"))
    climb = sum(secs("traced", named("hillclimb.climb_seeds")))
    closure = sum(secs("traced", named("orbit.orbit_of", "orbit.explore_chain")))
    certify = sum(secs("traced", named("latin.square_from", "latin.certify")))
    leaves, moves = counts.get("enumerate.leaves", 0), counts.get("hillclimb.moves", 0)
    forms, cells = counts.get("orbit.forms", 0), counts.get("latin.cells", 0)
    return {
        "groups.build_s": sum(secs("setup", named("groups.parse_group_spec", "groups.ldiv"))),
        "groups.automorphisms_s": sum(secs("setup", named("groups.automorphisms"))),
        "enumerate.count_s": sum(count),
        "enumerate.count_slowest_s": max(count, default=0.0),
        "enumerate.leaves": leaves,
        "enumerate.leaves_per_s": ratio(leaves, sum(count)),
        "enumerate.parallel_speedup": ratio(sum(serial), sum(count)),
        "enumerate.cpu_per_wall": cpu_per_wall,
        "enumerate.search_s": sum(search),
        "enumerate.search_none_s": sum(search_none),
        "enumerate.search_found_s": sum(search_found),
        "enumerate.search_slowest_s": max(search, default=0.0),
        "enumerate.collect_s": sum(secs("traced", named("enumerate.enumerate_basic"))),
        "hillclimb.climb_s": climb,
        "hillclimb.moves": moves,
        "hillclimb.teleports": counts.get("hillclimb.teleports", 0),
        "hillclimb.us_per_move": 1e6 * ratio(climb, moves),
        "hillclimb.found_ratio": ratio(counts.get("hillclimb.found", 0), counts.get("hillclimb.climbs", 0)),
        "orbit.closure_s": closure,
        "orbit.forms": forms,
        "orbit.us_per_form": 1e6 * ratio(closure, forms),
        "props.verify_s": sum(secs("traced", lambda sp: sp.name.startswith("props."))),
        "props.verify_calls": counts.get("props.verify_calls", 0),
        "latin.certify_s": certify,
        "latin.cells": cells,
        "latin.ns_per_cell": 1e9 * ratio(certify, cells),
        "trace.overhead_s": overhead_s,
    }


def traced_run(w, name: str, jobs):
    rec = SpanRecorder("setup")
    groups = w.build_groups(w.WORKLOADS[name].specs, rec)
    t0 = time.perf_counter()
    c_untraced, failures = w.run_pass(jobs, groups, NoSpans(), THREADS)
    wall_untraced = time.perf_counter() - t0

    rec.run = "traced"
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    c_traced, f = w.run_pass(jobs, groups, rec, THREADS)
    wall_traced = time.perf_counter() - t0
    cpu_per_wall = (cpu_seconds() - cpu0) / wall_traced
    failures += f
    counts = [c_untraced, c_traced]

    if name == "enum-table":
        rec.run = "serial"
        c_serial, f = w.run_pass(jobs, groups, rec, 1)
        failures += f
        counts.append(c_serial)

    spans = rec.finish()
    metrics = layer_metrics(spans, c_traced, wall_traced - wall_untraced, cpu_per_wall)
    print(f"wall_s untraced {wall_untraced:.3f}, traced {wall_traced:.3f}")
    return metrics, counts, failures, spans


def source_digest() -> str:
    """Digest of the library and benchmark code, which fix the counters."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "terraces").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_counts_repeat(name: str, seed: int, counts: list[dict]) -> list[str]:
    """The counters of every pass must match each other and those of any
    earlier run with the same workload, seed and source tree."""
    problems = [f"pass {i} counters {c} differ from pass 0 {counts[0]}"
                for i, c in enumerate(counts) if c != counts[0]]
    path = OUT / f"counts-{name}-seed{seed}-{source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts[0]:
            problems.append(f"counters {counts[0]} differ from an earlier run's {earlier} ({path.name})")
    elif not problems:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(counts[0], indent=1, sort_keys=True) + "\n")
        tmp.replace(path)
    return problems


def main(argv=None) -> int:
    if not (ROOT / "src" / "terraces" / "__init__.py").is_file() or not (ROOT / "tests" / "conftest.py").is_file():
        print(f"bench: {ROOT} has no src/terraces or tests/conftest.py to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from conftest import KNOWN_COUNTS

    import workloads as w

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(w.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    jobs = w.WORKLOADS[args.workload].jobs(random.Random(args.seed), KNOWN_COUNTS)
    if args.trace:
        metrics, counts, failures, spans = traced_run(w, args.workload, jobs)
    else:
        metrics, counts, failures, spans = timed_run(w, args.workload, jobs, args.seconds)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")

    OUT.mkdir(exist_ok=True)
    problems = failures + check_counts_repeat(args.workload, args.seed, counts)
    if spans is not None:
        dump(spans, OUT / f"spans-{args.workload}-seed{args.seed}.json")
    attempted = len(jobs) * len(counts)
    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{args.workload:13s} {key:28s} {value:14.6g} {declared[key]}")
    print(f"{args.workload:13s} {'fail_ratio':28s} {ratio(len(failures), attempted):14.6g} "
          f"({len(failures)} of {attempted} jobs)")
    print(f"{args.workload:13s} counters {json.dumps(counts[0], sort_keys=True)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
