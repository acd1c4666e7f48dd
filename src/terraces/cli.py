"""Command-line surface: group info, climbing, enumeration, verification,
square emission and orbit exploration.

Every invocation writes one JSON result file into the run directory plus a
line in an append-only index.  The result file contains only deterministic
content: the command echo, the effective configuration and the result, but
no timings.  The echo is built from the parsed flags and shell-quoted, so
re-running it with the same config file reproduces the file byte for byte;
timing and timestamps live on stdout and in the index only.

Exit codes: 0 success, 1 property or search goal not satisfied, 2 usage or
input error (a climb for an arrangement the group provably lacks included),
3 climb or search budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
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
CHAIN_LIMIT = 100_000  # forms an `orbit --find` chain walk visits by default


@dataclass
class RunConfig:
    """Built-in defaults, overridden by the config file, overridden by flags."""

    outdir: str = "runs"
    threads: int = 1
    seed: int = 0
    max_steps: int = ClimbParams.max_steps
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
    if "threads" not in args or getattr(args, "witnesses", None) is not None:
        out.threads = 1  # this command runs in one process
    return out


# ---------------------------------------------------------------------------
# Result emission


def _echo(args: argparse.Namespace) -> str:
    """The shell-quoted command line that replays this run: every flag that
    has a value, in dest order (each dest `x_y` is the flag `--x-y`)."""
    words = ["terraces", args.cmd]
    for dest, value in sorted(vars(args).items()):
        if dest in ("cmd", "func") or value is None or value is False:
            continue
        flag = "--" + dest.replace("_", "-")
        if value is True:
            words.append(flag)
            continue
        for item in value if isinstance(value, list) else [value]:
            words += [flag, str(item)]
    return shlex.join(words)


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temp file in the same directory and rename it over
    `path`, so a reader sees the old file or the new one, never a part."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _emit(args: argparse.Namespace, cfg: RunConfig, result: dict, side_files: dict) -> dict:
    """Write the deterministic result file, its side files and an index
    line into the existing run directory; return the payload."""
    payload = {
        "command": args.cmd,
        "echo": _echo(args),
        "version": __version__,
        "config": asdict(cfg),
        "result": result,
    }
    blob = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
    outdir = Path(cfg.outdir)
    path = outdir / f"{args.cmd}-{digest}.json"
    _write_atomic(path, blob)
    for suffix, text in side_files.items():
        _write_atomic(outdir / f"{args.cmd}-{digest}{suffix}", text)
    stamp = datetime.now(timezone.utc).isoformat()
    with (outdir / "runs.index").open("a", encoding="utf-8") as fh:
        fh.write(f"{stamp}\t{path.name}\t{payload['echo']}\n")
    payload["file"] = str(path)
    return payload


def _found(result: dict, arr) -> dict:
    """Record a found arrangement (or None) in `result`; return the side
    files that hold it."""
    if arr is None:
        return {}
    result["elements"] = list(arr.seq)
    result["words"] = list(arr.words())
    return {".terrace.json": json.dumps(arrangement_to_json(arr), indent=2) + "\n"}


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (result, side files, exit code); `main` emits.


def cmd_group(args, cfg: RunConfig):
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
    return result, {}, 0


def _climb_obstruction(g, mode: str) -> str | None:
    """Why `g` provably has no arrangement of this kind, or None."""
    n = g.order
    if mode == "terrace" and n >= 4 and len(involutions(g)) == n - 1:
        return f"{g.spec} has no terrace: every non-identity element is an involution"
    if mode == "directed" and n > 1 and is_abelian(g) and len(involutions(g)) != 1:
        return (f"{g.spec} has no directed terrace: an abelian group has one only "
                "with exactly one involution (Gordon 1961)")
    if mode == "directed" and n in (6, 8) and not is_abelian(g):
        return f"{g.spec} has no directed terrace: no non-abelian group of order 6 or 8 has one"
    return None


def cmd_climb(args, cfg: RunConfig):
    g = parse_group_spec(args.group)
    why = _climb_obstruction(g, args.mode)
    if why:
        raise ValueError(why)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [cfg.seed]
    params = ClimbParams(mode=args.mode, max_cuts=args.max_cuts, seed=seeds[0],
                         max_steps=cfg.max_steps, record_trace=args.trace)
    res = climb_seeds(g, params, seeds, threads=cfg.threads)
    result = {
        "group": g.spec,
        "mode": args.mode,
        "max_cuts": args.max_cuts,
        "seeds": seeds,
        **res.to_dict(),
    }
    return result, _found(result, res.arrangement), 0 if res.outcome == "found" else 3


_CLI_KINDS = {
    "directed": "directed",
    "terrace": "terrace",
    "half-and-half": "half_and_half",
    "narcissistic": "narcissistic",
    "directed-half-and-half": "directed_half_and_half",
    "tk": "directed_tk",
}


def _cli_mode(args) -> EnumMode:
    if (args.mode == "tk") != (args.k is not None):
        raise ValueError("--mode tk requires --k, and --k goes only with --mode tk")
    return EnumMode(_CLI_KINDS[args.mode], k=1 if args.k is None else args.k,
                    count_only=getattr(args, "witnesses", None) is None,
                    essentially_different=getattr(args, "essential", False))


def cmd_enumerate(args, cfg: RunConfig):
    if args.witnesses is not None and (args.threads or 1) > 1:
        raise ValueError("--witnesses collects in one process; --threads goes only with counts")
    g = parse_group_spec(args.group)
    mode = _cli_mode(args)
    res = enumerate_basic(g, mode, cap=args.cap, threads=cfg.threads,
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
    return result, {}, 0


def cmd_search(args, cfg: RunConfig):
    g = parse_group_spec(args.group)
    mode = _cli_mode(args)
    witness = search_first(g, mode, cap=cfg.search_cap, max_nodes=args.max_nodes)
    result = {"group": g.spec, "mode": mode.label(), "found": witness is not None}
    return result, _found(result, witness), 0 if witness is not None else 1


def _load_terrace(args):
    g = parse_group_spec(args.group) if args.group else None
    return load_arrangement(args.terrace, g)


# --property name -> classify() key; t<k>, k >= 1, is read separately.
_PROPERTIES = {
    "basic": "basic",
    "terrace": "terrace",
    "directed": "directed_terrace",
    "symmetric": "symmetric_sequencing",
    "extendable": "extendable",
    "half-and-half": "half_and_half",
    "narcissistic": "narcissistic",
}


def cmd_verify(args, cfg: RunConfig):
    arr = _load_terrace(args)
    report = classify(arr)
    checks = {}
    for prop in args.property or []:
        if prop in _PROPERTIES:
            checks[prop] = report[_PROPERTIES[prop]] is True
        elif prop[:1] == "t" and prop[1:].isdecimal() and int(prop[1:]) >= 1:
            checks[prop] = report["max_k_directed_tk"] >= int(prop[1:])
        else:
            raise ValueError(f"unknown property {prop!r}; choose from "
                             f"{tuple(_PROPERTIES)} or t<k> with k >= 1")
    result = {
        "group": arr.group.spec,
        "terrace": list(arr.seq),
        "report": report,
        "checks": checks,
    }
    return result, {}, 0 if all(checks.values()) else 1


def cmd_square(args, cfg: RunConfig):
    # roman:<k> takes k >= 1 in decimal digits, as verify's t<k> does.
    k = args.check[len("roman:"):] if (args.check or "").startswith("roman:") else ""
    if args.check not in (None, "complete", "quasi") and not (k.isdecimal() and int(k) >= 1):
        raise ValueError(f"unknown check {args.check!r}; use complete, quasi or roman:<k> with k >= 1")
    arr = _load_terrace(args)
    sq = square_from(arr)
    cert = certify(sq)
    if k:
        passed = cert.roman_k_max >= int(k)
    else:
        passed = {None: None, "complete": cert.complete, "quasi": cert.quasi_complete}[args.check]
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
    return result, rendered, 0 if passed in (None, True) else 1


def cmd_orbit(args, cfg: RunConfig):
    if args.find is None and args.limit is not None:
        raise ValueError("--limit goes only with --find")
    arr = _load_terrace(args)
    if args.find is None:
        forms = orbit_of(arr)
        result = {
            "group": arr.group.spec,
            "orbit_size": len(forms),
            "members": [list(seq) for seq in sorted(forms)],
        }
        return result, {}, 0
    limit = CHAIN_LIMIT if args.limit is None else args.limit
    witness, visited = explore_chain(arr, limit, lambda r: is_extendable(r)[0])
    result = {"group": arr.group.spec, "find": args.find, "limit": limit,
              "visited": visited, "found": witness is not None}
    return result, _found(result, witness), 0 if witness is not None else 1


# ---------------------------------------------------------------------------
# Parser and runner


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="terraces", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help=f"key=value config file (default ${CONFIG_ENV})")
    common.add_argument("--outdir", help="run directory for result JSON files")
    sub = top.add_subparsers(dest="cmd", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("group", help="build a group and print its structure")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_group)

    p = add_parser("climb", help="hill-climb for a (directed) terrace")
    p.add_argument("--group", required=True)
    p.add_argument("--mode", choices=["directed", "terrace"], default="directed")
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int)
    seeds.add_argument("--seeds", help="comma-separated seed list; first found wins")
    p.add_argument("--max-cuts", type=int, choices=[1, 2], default=2)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--threads", type=int, help="worker processes for a --seeds list")
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
    p.add_argument("--threads", type=int, help="worker processes for a count")
    p.set_defaults(func=cmd_enumerate)

    p = add_parser("search", help="first witness in DFS order, or a nonexistence certificate")
    p.add_argument("--group", required=True)
    p.add_argument("--mode", choices=sorted(_CLI_KINDS), default="directed")
    p.add_argument("--k", type=int, help="T_k depth for --mode tk")
    p.add_argument("--max-nodes", type=int)
    p.set_defaults(func=cmd_search)

    p = add_parser("verify", help="classify a terrace file and check properties")
    p.add_argument("--group")
    p.add_argument("--terrace", required=True)
    p.add_argument("--property", action="append",
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
    p.add_argument("--find", choices=["extendable"], help="predicate to hunt for")
    p.add_argument("--limit", type=int,
                   help=f"chain forms to visit with --find (default {CHAIN_LIMIT})")
    p.set_defaults(func=cmd_orbit)
    return top


def main(argv=None) -> int:
    """Load the config, run one command, emit its result file and print the
    payload with the run's seconds."""
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = _effective(load_config(args.config), args)
        Path(cfg.outdir).mkdir(parents=True, exist_ok=True)
        result, side_files, code = args.func(args, cfg)
    except BudgetExceeded as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    payload = _emit(args, cfg, result, side_files)
    payload["seconds"] = round(time.perf_counter() - t0, 3)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
