"""Command-line surface: group info, climbing, enumeration, verification,
square emission and orbit exploration.

Every invocation writes one JSON result file into the run directory plus a
line in an append-only index.  The result file contains only deterministic
content (the effective configuration is echoed into it, timings are not),
so re-running the echoed command reproduces it byte for byte; timing and
timestamps live on stdout and in the index only.

Exit codes: 0 success, 1 property or search goal not satisfied, 2 usage or
input error, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .enumerate import DEFAULT_SEARCH_CAP, BudgetExceeded, EnumMode, enumerate_basic, search_first
from .groups import (
    element_order,
    inverse_pair_classes,
    involutions,
    is_abelian,
    parse_group_spec,
)
from .hillclimb import ClimbParams, climb_seeds
from .latin import certify, square_from, square_to_csv, square_to_json
from .orbit import explore_chain, orbit_of
from .props import (
    arrangement_to_json,
    classify,
    is_extendable,
    load_arrangement,
)

CONFIG_ENV = "TERRACE_CONFIG"


@dataclass
class RunConfig:
    """Built-in defaults, overridden by the config file, overridden by flags."""

    outdir: str = "runs"
    threads: int = 1
    seed: int = 0
    max_steps: int = ClimbParams.max_steps
    max_restarts: int = ClimbParams.max_restarts
    restart_policy: str = ClimbParams.restart_policy
    search_cap: int = DEFAULT_SEARCH_CAP


_INT_FIELDS = {f.name for f in fields(RunConfig) if f.type in ("int", int)}


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if not path:
        return cfg
    text = Path(path).read_text(encoding="utf-8")
    known = {f.name for f in fields(RunConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        setattr(cfg, key, int(value) if key in _INT_FIELDS else value)
    return cfg


def _effective(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    out = RunConfig(**asdict(cfg))
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(out, f.name, flag)
    if out.threads < 1:
        raise ValueError(f"threads must be at least 1, got {out.threads}")
    return out


# ---------------------------------------------------------------------------
# Result emission


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temp file in the same directory and rename it over
    `path`, so a reader sees the old file or the new one, never a part."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _emit(command: str, echo: list[str], cfg: RunConfig, result: dict, extra_files: dict | None = None) -> dict:
    """Write the deterministic result file + index line; return the payload."""
    payload = {
        "command": command,
        "echo": "terraces " + " ".join(echo),
        "version": __version__,
        "config": asdict(cfg),
        "result": result,
    }
    blob = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{command}-{digest}.json"
    _write_atomic(path, blob)
    for suffix, text in (extra_files or {}).items():
        _write_atomic(outdir / f"{command}-{digest}{suffix}", text)
    stamp = datetime.now(timezone.utc).isoformat()
    with (outdir / "runs.index").open("a", encoding="utf-8") as fh:
        fh.write(f"{stamp}\t{path.name}\t{payload['echo']}\n")
    payload["file"] = str(path)
    return payload


def _print(payload: dict, seconds: float) -> None:
    shown = dict(payload)
    shown["seconds"] = round(seconds, 3)
    print(json.dumps(shown, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_group(args, cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    g = parse_group_spec(args.group)
    result = {
        "spec": g.spec,
        "order": g.order,
        "abelian": is_abelian(g),
        "involutions": involutions(g),
        "inverse_pair_classes": [list(c) for c in inverse_pair_classes(g)],
        "element_orders": [element_order(g, x) for x in range(g.order)],
        "words": list(g.element_words),
    }
    payload = _emit("group", ["group", "--group", args.group], cfg, result)
    _print(payload, time.perf_counter() - t0)
    return 0


def _parse_seeds(args, cfg: RunConfig) -> list[int]:
    if args.seeds:
        return [int(s) for s in args.seeds.split(",")]
    return [cfg.seed if args.seed is None else args.seed]


def cmd_climb(args, cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    g = parse_group_spec(args.group)
    seeds = _parse_seeds(args, cfg)
    params = ClimbParams(
        mode=args.mode,
        max_cuts=args.max_cuts,
        seed=seeds[0],
        max_steps=cfg.max_steps,
        max_restarts=cfg.max_restarts,
        restart_policy=cfg.restart_policy,
        record_trace=args.trace,
    )
    res = climb_seeds(g, params, seeds, threads=cfg.threads)
    result = {
        "group": g.spec,
        "mode": args.mode,
        "max_cuts": args.max_cuts,
        "seeds": seeds,
        **res.to_dict(),
    }
    echo = ["climb", "--group", args.group, "--mode", args.mode, "--max-cuts", str(args.max_cuts)]
    echo += ["--seeds", ",".join(str(s) for s in seeds)] if args.seeds else ["--seed", str(seeds[0])]
    if args.trace:
        echo.append("--trace")
    extra = None
    if res.arrangement is not None:
        extra = {".terrace.json": json.dumps(arrangement_to_json(res.arrangement), indent=2) + "\n"}
    payload = _emit("climb", echo, cfg, result, extra)
    _print(payload, time.perf_counter() - t0)
    return 0 if res.outcome == "found" else 3


_CLI_KINDS = {
    "directed": ("directed", 1),
    "terrace": ("terrace", 1),
    "half-and-half": ("half_and_half", 1),
    "narcissistic": ("narcissistic", 1),
    "directed-half-and-half": ("directed_half_and_half", 1),
    "tk": ("directed_tk", None),
}


def _cli_mode(args) -> EnumMode:
    kind, k = _CLI_KINDS[args.mode]
    if k is None:
        k = args.k
        if k is None:
            raise ValueError("--mode tk requires --k")
    return EnumMode(kind, k=k, count_only=getattr(args, "witnesses", None) is None,
                    essentially_different=getattr(args, "essential", False))


def cmd_enumerate(args, cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    g = parse_group_spec(args.group)
    mode = _cli_mode(args)
    threads = cfg.threads if mode.count_only else 1
    res = enumerate_basic(g, mode, cap=args.cap, threads=threads,
                          max_witnesses=args.witnesses)
    result = {
        "group": g.spec,
        "mode": mode.label(),
        "essential": res.essential_count,
        "raw": res.raw_count,
    }
    if res.witnesses is not None:
        result["witnesses"] = [list(w.seq) for w in res.witnesses]
        for w in res.witnesses:
            print(json.dumps(arrangement_to_json(w), sort_keys=True))
    echo = ["enumerate", "--group", args.group, "--mode", args.mode]
    if args.mode == "tk":
        echo += ["--k", str(mode.k)]
    if args.essential:
        echo.append("--essential")
    if args.witnesses is not None:
        echo += ["--witnesses", str(args.witnesses)]
    if args.cap is not None:
        echo += ["--cap", str(args.cap)]
    payload = _emit("enumerate", echo, cfg, result)
    _print(payload, time.perf_counter() - t0)
    return 0


def cmd_search(args, cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    g = parse_group_spec(args.group)
    mode = _cli_mode(args)
    witness = search_first(g, mode, cap=cfg.search_cap,
                           max_nodes=args.max_nodes)
    result: dict = {"group": g.spec, "mode": mode.label(), "found": witness is not None}
    extra = None
    if witness is not None:
        result["elements"] = list(witness.seq)
        result["words"] = list(witness.words())
        extra = {".terrace.json": json.dumps(arrangement_to_json(witness), indent=2) + "\n"}
    echo = ["search", "--group", args.group, "--mode", args.mode]
    if args.mode == "tk":
        echo += ["--k", str(mode.k)]
    if args.max_nodes is not None:
        echo += ["--max-nodes", str(args.max_nodes)]
    payload = _emit("search", echo, cfg, result, extra)
    _print(payload, time.perf_counter() - t0)
    return 0 if witness is not None else 1


def _parse_property(name: str) -> tuple[str, int]:
    if name.startswith("t") and name[1:].isdigit():
        return "tk", int(name[1:])
    return name, 0


_PROPERTY_NAMES = ("basic", "terrace", "directed", "symmetric", "extendable",
                   "half-and-half", "narcissistic")


def cmd_verify(args, cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    g = parse_group_spec(args.group) if args.group else None
    arr = load_arrangement(args.terrace, g)
    report = classify(arr)
    rep = report.to_dict()
    checks = {}
    for prop in args.properties or []:
        key, k = _parse_property(prop)
        if key == "tk":
            checks[prop] = report.max_k_directed_tk >= k
        elif key == "basic":
            checks[prop] = report.is_basic
        elif key == "terrace":
            checks[prop] = report.is_terrace
        elif key == "directed":
            checks[prop] = report.is_directed_terrace
        elif key == "symmetric":
            checks[prop] = report.is_symmetric_sequencing is True
        elif key == "extendable":
            checks[prop] = report.is_extendable is True
        elif key == "half-and-half":
            checks[prop] = report.is_half_and_half is True
        elif key == "narcissistic":
            checks[prop] = report.is_narcissistic is True
        else:
            raise ValueError(f"unknown property {prop!r}; choose from "
                             f"{_PROPERTY_NAMES} or t<k>")
    result = {
        "group": arr.group.spec,
        "terrace": list(arr.seq),
        "report": rep,
        "checks": checks,
    }
    echo = ["verify", "--terrace", str(args.terrace)]
    if args.group:
        echo = ["verify", "--group", args.group, "--terrace", str(args.terrace)]
    for prop in args.properties or []:
        echo += ["--property", prop]
    payload = _emit("verify", echo, cfg, result)
    _print(payload, time.perf_counter() - t0)
    return 0 if all(checks.values()) else 1


def cmd_square(args, cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    g = parse_group_spec(args.group) if args.group else None
    arr = load_arrangement(args.terrace, g)
    sq = square_from(arr)
    cert = certify(sq)
    passed = None
    if args.check:
        if args.check == "complete":
            passed = cert.complete
        elif args.check == "quasi":
            passed = cert.quasi_complete
        elif args.check.startswith("roman:"):
            passed = cert.roman_k_max >= int(args.check.split(":", 1)[1])
        else:
            raise ValueError(f"unknown check {args.check!r}; use complete, quasi or roman:<k>")
    if args.out == "csv":
        rendered = {".square.csv": square_to_csv(sq)}
    else:
        rendered = {".square.json": square_to_json(sq, arr.group.element_words)}
    result = {
        "group": arr.group.spec,
        "order": sq.order,
        "certificate": cert.to_dict(),
        "check": args.check,
        "check_passed": passed,
    }
    echo = ["square", "--terrace", str(args.terrace), "--out", args.out]
    if args.group:
        echo = ["square", "--group", args.group, "--terrace", str(args.terrace), "--out", args.out]
    if args.check:
        echo += ["--check", args.check]
    payload = _emit("square", echo, cfg, result, rendered)
    _print(payload, time.perf_counter() - t0)
    return 0 if passed in (None, True) else 1


def cmd_orbit(args, cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    g = parse_group_spec(args.group) if args.group else None
    arr = load_arrangement(args.terrace, g)
    echo = ["orbit", "--terrace", str(args.terrace)]
    if args.group:
        echo = ["orbit", "--group", args.group, "--terrace", str(args.terrace)]
    if args.find:
        if args.find != "extendable":
            raise ValueError(f"unknown predicate {args.find!r}; only 'extendable' is available")
        witness, visited = explore_chain(arr, args.limit, lambda r: is_extendable(r)[0])
        result: dict = {"group": arr.group.spec, "find": args.find,
                        "limit": args.limit, "visited": visited,
                        "found": witness is not None}
        extra = None
        if witness is not None:
            result["elements"] = list(witness.seq)
            result["words"] = list(witness.words())
            extra = {".terrace.json": json.dumps(arrangement_to_json(witness), indent=2) + "\n"}
        echo += ["--find", args.find, "--limit", str(args.limit)]
        payload = _emit("orbit", echo, cfg, result, extra)
        _print(payload, time.perf_counter() - t0)
        return 0 if witness is not None else 1
    ts = orbit_of(arr)
    result = {
        "group": arr.group.spec,
        "orbit_size": len(ts),
        "members": [list(seq) for seq in sorted(ts.members)],
    }
    payload = _emit("orbit", echo, cfg, result)
    _print(payload, time.perf_counter() - t0)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="terraces", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help=f"key=value config file (default ${CONFIG_ENV})")
    common.add_argument("--outdir", help="run directory for result JSON files")
    common.add_argument("--threads", type=int, help="worker processes for splittable work")
    sub = top.add_subparsers(dest="cmd", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("group", help="build a group and print its structure")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_group)

    p = add_parser("climb", help="hill-climb for a (directed) terrace")
    p.add_argument("--group", required=True)
    p.add_argument("--mode", choices=["directed", "terrace"], default="directed")
    p.add_argument("--seed", type=int)
    p.add_argument("--seeds", help="comma-separated seed list; first found wins")
    p.add_argument("--max-cuts", type=int, choices=[1, 2], default=2)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--max-restarts", dest="max_restarts", type=int)
    p.add_argument("--restart-policy", dest="restart_policy",
                   choices=["teleport-only", "fresh-random"])
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_climb)

    p = add_parser("enumerate", help="count/stream basic terraces by backtracking")
    p.add_argument("--group", required=True)
    p.add_argument("--mode", choices=sorted(_CLI_KINDS), default="terrace")
    p.add_argument("--k", type=int, help="T_k depth for --mode tk")
    p.add_argument("--essential", action="store_true",
                   help="count essentially different terraces (canonical forms)")
    p.add_argument("--witnesses", type=int,
                   help="collect and print up to N witnesses")
    p.add_argument("--cap", type=int, help="override the group-order cap")
    p.set_defaults(func=cmd_enumerate)

    p = add_parser("search", help="first witness in DFS order, or a nonexistence certificate")
    p.add_argument("--group", required=True)
    p.add_argument("--mode", choices=sorted(_CLI_KINDS), default="directed")
    p.add_argument("--k", type=int)
    p.add_argument("--max-nodes", dest="max_nodes", type=int)
    p.set_defaults(func=cmd_search)

    p = add_parser("verify", help="classify a terrace file and check properties")
    p.add_argument("--group")
    p.add_argument("--terrace", required=True)
    p.add_argument("--property", dest="properties", action="append",
                   help="basic|terrace|directed|symmetric|extendable|half-and-half|narcissistic|t<k>")
    p.set_defaults(func=cmd_verify)

    p = add_parser("square", help="build the a_i^-1 a_j square and certify it")
    p.add_argument("--group")
    p.add_argument("--terrace", required=True)
    p.add_argument("--check", help="complete | quasi | roman:<k>")
    p.add_argument("--out", choices=["csv", "json"], default="json")
    p.set_defaults(func=cmd_square)

    p = add_parser("orbit", help="orbit closure or chain exploration from a terrace")
    p.add_argument("--group")
    p.add_argument("--terrace", required=True)
    p.add_argument("--find", help="predicate to hunt for (extendable)")
    p.add_argument("--limit", type=int, default=100_000)
    p.set_defaults(func=cmd_orbit)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective(load_config(args.config), args)
        return args.func(args, cfg)
    except BudgetExceeded as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
