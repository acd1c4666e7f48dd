from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

import terraces
from terraces import cli
from terraces import props as P
from terraces.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out.splitlines()[-1]) if out.strip().startswith("{") else out)


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    # stdout may carry streamed witness lines before the final record
    decoder = json.JSONDecoder()
    idx = out.index("{\n") if "{\n" in out else 0
    payload, _ = decoder.raw_decode(out[idx:])
    return code, payload


def test_group_command(tmp_path, capsys):
    code, payload = run_json(capsys, "group", "--group", "Q12", "--outdir", str(tmp_path))
    assert code == 0
    assert payload["result"]["order"] == 12
    assert payload["result"]["involutions"] == [6]


def test_climb_found_and_witness_file(tmp_path, capsys):
    code, payload = run_json(
        capsys, "climb", "--group", "Q12", "--mode", "directed", "--seed", "1",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    assert payload["result"]["outcome"] == "found"
    terrace_files = list(tmp_path.glob("climb-*.terrace.json"))
    assert len(terrace_files) == 1
    arr = P.load_arrangement(terrace_files[0])
    assert P.is_directed_terrace(arr)


def test_climb_exhausts_with_exit_3(tmp_path, capsys):
    code, payload = run_json(
        capsys, "climb", "--group", "Q12", "--mode", "directed", "--seed", "1",
        "--max-steps", "1", "--outdir", str(tmp_path),
    )
    assert code == 3
    assert payload["result"]["outcome"] == "exhausted"


def test_climb_with_a_budget_past_2_31_finds(tmp_path, capsys):
    code, payload = run_json(
        capsys, "climb", "--group", "Q12", "--seed", "1", "--max-steps", "3000000000",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    assert payload["result"]["outcome"] == "found"


@pytest.mark.parametrize("spec, mode", [
    ("E8", "terrace"), ("Z4xZ2", "directed"), ("Z9", "directed"), ("Q8", "directed"),
])
def test_climb_without_arrangement_exits_2(tmp_path, capsys, spec, mode):
    code = main(["climb", "--group", spec, "--mode", mode, "--outdir", str(tmp_path)])
    assert code == 2 and f"{spec} has no" in capsys.readouterr().err
    assert not tmp_path.exists() or not list(tmp_path.iterdir())


def test_seed_and_seeds_together_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["climb", "--group", "Z10", "--seed", "3", "--seeds", "1,2", "--outdir", str(tmp_path)])
    assert exc.value.code == 2 and "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["enumerate", "search"])
def test_k_without_tk_mode_exits_2(tmp_path, capsys, cmd):
    code = main([cmd, "--group", "Z5", "--mode", "terrace", "--k", "5", "--outdir", str(tmp_path)])
    assert code == 2 and "--k" in capsys.readouterr().err
    code = main([cmd, "--group", "Z5", "--mode", "tk", "--outdir", str(tmp_path)])
    assert code == 2 and "--k" in capsys.readouterr().err


def test_enumerate_examples(tmp_path, capsys):
    code, payload = run_json(
        capsys, "enumerate", "--group", "Z9", "--mode", "terrace", "--essential",
        "--outdir", str(tmp_path),
    )
    assert code == 0 and payload["result"]["essential"] == 234
    code, payload = run_json(
        capsys, "enumerate", "--group", "Z11", "--mode", "directed", "--essential",
        "--outdir", str(tmp_path),
    )
    assert code == 0 and payload["result"]["essential"] == 0
    code, payload = run_json(
        capsys, "enumerate", "--group", "D10", "--mode", "directed", "--essential",
        "--outdir", str(tmp_path),
    )
    assert code == 0 and payload["result"]["essential"] == 16


def test_enumerate_witness_stream(tmp_path, capsys):
    code = main([
        "enumerate", "--group", "Z8", "--mode", "directed", "--witnesses", "3",
        "--outdir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith('{"')]
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert P.is_directed_terrace(P.arrangement_from_json(first))


@pytest.mark.parametrize("value", ["0", "-2"])
def test_enumerate_witnesses_below_one_exit_2(tmp_path, capsys, value):
    code = main(["enumerate", "--group", "Z8", "--witnesses", value, "--outdir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and "max_witnesses" in captured.err and not captured.out


def test_verify_fixtures_pass(tmp_path, capsys):
    for name, props in [
        ("g21_1_t2", ["t2", "directed", "terrace"]),
        ("a4_t2", ["t2"]),
        ("g27_4_narcissistic", ["narcissistic", "half-and-half", "terrace"]),
        ("g27_4_directed_half_and_half", ["directed", "half-and-half"]),
    ]:
        argv = ["verify", "--terrace", str(terraces.fixture_path(name)), "--outdir", str(tmp_path)]
        for prop in props:
            argv += ["--property", prop]
        code, payload = run_json(capsys, *argv)
        assert code == 0, name
        assert all(payload["result"]["checks"].values())


def test_verify_walecki_directed(tmp_path, capsys):
    path = tmp_path / "w10.json"
    P.save_arrangement(P.walecki(10), path)
    code, payload = run_json(
        capsys, "verify", "--group", "Z10", "--terrace", str(path),
        "--property", "directed", "--outdir", str(tmp_path),
    )
    assert code == 0


def test_verify_failed_property_exits_1(tmp_path, capsys):
    path = tmp_path / "w9.json"
    P.save_arrangement(P.walecki(9), path)
    code, payload = run_json(
        capsys, "verify", "--terrace", str(path), "--property", "directed",
        "--outdir", str(tmp_path),
    )
    assert code == 1
    assert payload["result"]["checks"]["directed"] is False


@pytest.mark.parametrize("prop", ["t0", "t00", "t", "t\u00b2"])
def test_verify_t0_is_an_unknown_property(tmp_path, capsys, prop):
    """t<k> takes k >= 1 in decimal digits: t0, which every arrangement
    would pass, exits 2, while t1 still checks a directed terrace."""
    path = tmp_path / "z4.json"
    path.write_text('{"group": "Z4", "elements": [0, 1, 2, 3]}')
    argv = ["verify", "--terrace", str(path), "--outdir", str(tmp_path), "--property"]
    code = main([*argv, prop])
    captured = capsys.readouterr()
    assert code == 2 and "unknown property" in captured.err and not captured.out
    code, payload = run_json(capsys, *argv, "t1")
    assert code == 1 and payload["result"]["checks"] == {"t1": False}


def test_verify_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in [
        '{"group": "Z4", "elements": [0, 1, 1, 2]}',
        '{"group": "Z4", "elements": [0, 1.9, 3, 2]}',
        '{"group": "Z4", "elements": [0, true, 3, 2]}',
        '{"group": "Z5", "elements": "01423"}',
        '{"group": 5, "elements": [0, 1, 4, 2, 3]}',
        '{"group": "Z4", "words": [0, 1, 3, 2]}',
        '{"group": "Z1", "words": "e"}',
        '[0, 1, 3, 2]',
    ]:
        bad.write_text(text)
        code = main(["verify", "--terrace", str(bad), "--outdir", str(tmp_path)])
        assert code == 2 and "error" in capsys.readouterr().err, text
    code = main(["verify", "--terrace", str(tmp_path / "missing.json"), "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert code == 2


def test_a_deeply_nested_terrace_file_exits_2(tmp_path, capsys):
    """A file nested past the JSON decoder's recursion limit is bad input:
    verify, square and orbit each exit 2 with a one-line JSON error."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    for command in ["verify", "square", "orbit"]:
        code = main([command, "--terrace", str(deep), "--outdir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out, command
        assert len(captured.err.splitlines()) == 1 and "nests too deeply" in json.loads(captured.err)["error"]


def test_bad_group_spec_exits_2(tmp_path, capsys):
    for spec in ["Z4xW9", "Z100000"]:
        code = main(["group", "--group", spec, "--outdir", str(tmp_path)])
        capsys.readouterr()
        assert code == 2, spec


def test_bad_paths_exit_2(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the climb ran")

    monkeypatch.setattr(cli, "climb_seeds", refuse)  # a bad outdir is refused before the work
    monkeypatch.delenv("TERRACE_CONFIG", raising=False)
    afile = tmp_path / "a-file"
    afile.write_text("")
    runs = str(tmp_path / "runs")
    for argv in [
        ["verify", "--terrace", str(tmp_path), "--outdir", runs],
        ["group", "--group", "Z4", "--config", str(tmp_path), "--outdir", runs],
        ["climb", "--group", "Z10", "--outdir", str(afile)],
        ["group", "--group", "Z4", "--outdir", str(afile / "sub")],
    ]:
        assert main(argv) == 2, argv
        assert "error" in capsys.readouterr().err, argv


@pytest.mark.parametrize("argv, config", [
    (["climb", "--group", "Z10", "--max-steps", "-1"], ""),
    (["climb", "--group", "Z10"], "max_steps = -1\n"),
    (["search", "--group", "Z11", "--max-nodes", "-5"], ""),
])
def test_negative_budgets_exit_2(tmp_path, capsys, monkeypatch, argv, config):
    cfg = tmp_path / "budget.cfg"
    cfg.write_text(config)
    monkeypatch.setenv("TERRACE_CONFIG", str(cfg))
    assert main([*argv, "--outdir", str(tmp_path)]) == 2
    assert "at least 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("*-*.json"))


def test_square_roman_check(tmp_path, capsys):
    code, payload = run_json(
        capsys, "square", "--group", "SD(7,3,4)",
        "--terrace", str(terraces.fixture_path("g21_1_t2")),
        "--check", "roman:2", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert payload["result"]["check_passed"] is True
    assert payload["result"]["certificate"]["roman_k_max"] >= 2
    squares = list(tmp_path.glob("square-*.square.json"))
    assert squares, "square file should be written"


@pytest.mark.parametrize("check", ["roman:0", "roman:-2", "roman:\u00b2"])
def test_square_roman_k_below_1_is_an_unknown_check(tmp_path, capsys, check):
    """roman:<k> takes k >= 1 in decimal digits: roman:0 and roman:-2, which
    every square would pass, and roman:², which int() refuses, exit 2 as an
    unknown check, while roman:1 still checks the square."""
    path = tmp_path / "z4.json"
    path.write_text('{"group": "Z4", "elements": [0, 1, 2, 3]}')
    argv = ["square", "--terrace", str(path), "--outdir", str(tmp_path), "--check"]
    code = main([*argv, check])
    captured = capsys.readouterr()
    assert code == 2 and "unknown check" in captured.err and not captured.out
    assert not list(tmp_path.glob("square-*"))
    code, payload = run_json(capsys, *argv, "roman:1")
    assert code == 1 and payload["result"]["check_passed"] is False


def test_square_csv_output_and_failing_check(tmp_path, capsys):
    path = tmp_path / "straight.json"
    P.save_arrangement(P.Arrangement(P.walecki(6).group, (0, 1, 2, 3, 4, 5)), path)
    code, payload = run_json(
        capsys, "square", "--terrace", str(path), "--check", "complete",
        "--out", "csv", "--outdir", str(tmp_path),
    )
    assert code == 1 and payload["result"]["check_passed"] is False
    csvs = list(tmp_path.glob("square-*.square.csv"))
    assert csvs and csvs[0].read_text().splitlines()[0] == "0,1,2,3,4,5"


def test_square_non_arrangement_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": "Z4", "elements": [0, 0, 1, 2]}')
    code = main(["square", "--terrace", str(bad), "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert code == 2


def test_orbit_find_extendable(tmp_path, capsys):
    path = tmp_path / "w12.json"
    P.save_arrangement(P.walecki(12), path)
    code, payload = run_json(
        capsys, "orbit", "--group", "Z12", "--terrace", str(path),
        "--find", "extendable", "--limit", "100000", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert payload["result"]["found"] is True
    witness = P.arrangement_from_json(
        {"group": "Z12", "elements": payload["result"]["elements"]}
    )
    assert P.is_extendable(witness)[0]


def test_orbit_find_not_found_exits_1(tmp_path, capsys):
    path = tmp_path / "w10.json"
    P.save_arrangement(P.walecki(10), path)
    code, payload = run_json(
        capsys, "orbit", "--group", "Z10", "--terrace", str(path),
        "--find", "extendable", "--limit", "3000", "--outdir", str(tmp_path),
    )
    assert code == 1 and payload["result"]["found"] is False


def test_orbit_plain_closure(tmp_path, capsys):
    path = tmp_path / "w5.json"
    P.save_arrangement(P.walecki(5), path)
    code, payload = run_json(capsys, "orbit", "--terrace", str(path), "--outdir", str(tmp_path))
    assert code == 0
    assert payload["result"]["orbit_size"] in {1, 2, 3, 4, 6}
    assert "--limit" not in payload["echo"]


def test_orbit_limit_defaults_only_under_find(tmp_path, capsys):
    path = tmp_path / "w5.json"
    P.save_arrangement(P.walecki(5), path)
    argv = ["orbit", "--terrace", str(path), "--outdir", str(tmp_path)]
    code, payload = run_json(capsys, *argv, "--find", "extendable")
    assert payload["result"]["limit"] == cli.CHAIN_LIMIT and "--limit" not in payload["echo"]
    before = sorted(tmp_path.iterdir())
    assert main([*argv, "--limit", "5"]) == 2
    assert "--find" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_search_nonexistence_exits_1(tmp_path, capsys):
    code, payload = run_json(
        capsys, "search", "--group", "Q8", "--mode", "directed", "--outdir", str(tmp_path)
    )
    assert code == 1 and payload["result"]["found"] is False


def test_search_budget_exhaustion_exits_3(tmp_path, capsys):
    code = main([
        "search", "--group", "Z11", "--mode", "directed", "--max-nodes", "5",
        "--outdir", str(tmp_path),
    ])
    err = capsys.readouterr().err
    assert code == 3 and "budget" in err


def test_search_finds_t2_witness(tmp_path, capsys):
    code, payload = run_json(
        capsys, "search", "--group", "A4", "--mode", "tk", "--k", "2",
        "--outdir", str(tmp_path),
    )
    assert code == 0 and payload["result"]["found"] is True
    arr = P.arrangement_from_json({"group": "A4", "elements": payload["result"]["elements"]})
    assert P.is_directed_tk(arr, 2)


def test_result_files_replay_byte_identical(tmp_path, capsys):
    argv = ["enumerate", "--group", "Z8", "--mode", "terrace", "--essential",
            "--outdir", str(tmp_path)]
    code, payload = run_json(capsys, *argv)
    assert code == 0
    path = tmp_path / json.loads(json.dumps(payload))["file"].split("/")[-1]
    first = path.read_bytes()
    code, _ = run_json(capsys, *argv)
    assert code == 0
    assert path.read_bytes() == first
    index_lines = (tmp_path / "runs.index").read_text().splitlines()
    assert len(index_lines) == 2
    assert index_lines[0].split("\t")[1] == path.name


def test_echo_replays_every_command(tmp_path, capsys):
    """Each echo is shell-quoted, re-parses to the run's namespace, and
    rewrites the same result file when run again."""
    w10, g21 = tmp_path / "w10.json", str(terraces.fixture_path("g21_1_t2"))
    P.save_arrangement(P.walecki(10), w10)
    out = ["--outdir", str(tmp_path / "runs")]
    runs = [
        ["group", "--group", "Z3xA4", *out],
        ["climb", "--group", "Q12", "--seed", "1", "--max-steps", "200", "--threads", "2", "--trace", *out],
        ["climb", "--group", "D10", "--mode", "terrace", "--seeds", "3,1", "--max-cuts", "1", *out],
        ["enumerate", "--group", "Z8", "--mode", "directed", "--essential", "--witnesses", "2", *out],
        ["search", "--group", "A4", "--mode", "tk", "--k", "2", "--max-nodes", "100000", *out],
        ["verify", "--terrace", g21, "--property", "t2", "--property", "directed", *out],
        ["square", "--group", "SD(7,3,4)", "--terrace", g21, "--check", "roman:2", "--out", "csv", *out],
        ["orbit", "--group", "Z10", "--terrace", str(w10), "--find", "extendable", "--limit", "300", *out],
    ]
    parse = cli._build_parser().parse_args
    echoes = []
    for argv in runs:
        code, payload = run_json(capsys, *argv)
        echo, path = payload["echo"], Path(payload["file"])
        first = path.read_bytes()
        assert shlex.join(shlex.split(echo)) == echo
        words = shlex.split(echo)
        assert words[0] == "terraces" and parse(words[1:]) == parse(argv), echo
        replay_code, replay = run_json(capsys, *words[1:])
        assert (replay_code, replay["file"]) == (code, payload["file"]), echo
        assert path.read_bytes() == first
        echoes.append(echo)
    assert "--max-steps 200" in echoes[1] and "--threads 2" in echoes[1]
    assert "--group 'SD(7,3,4)'" in echoes[6]


def test_side_files_replay_byte_identical_without_temp_files(tmp_path, capsys):
    argv = ["climb", "--group", "Q12", "--mode", "directed", "--seed", "1",
            "--outdir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 3 and any(n.endswith(".terrace.json") for n in names)
    first = {n: (tmp_path / n).read_bytes() for n in names if n != "runs.index"}
    assert main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert {n: (tmp_path / n).read_bytes() for n in first} == first


def test_failed_rename_keeps_the_old_result(tmp_path, capsys, monkeypatch):
    argv = ["enumerate", "--group", "Z6", "--mode", "terrace", "--outdir", str(tmp_path)]
    code, payload = run_json(capsys, *argv)
    assert code == 0
    (tmp_path / payload["file"].split("/")[-1]).write_bytes(b"old\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("terraces.cli.os.replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        main(argv)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_config_file_and_flag_precedence(tmp_path, capsys, monkeypatch):
    cfgdir = tmp_path / "from-config"
    cfg = tmp_path / "terraces.cfg"
    cfg.write_text(f"outdir = {cfgdir}\nseed = 9  # comment\n")
    monkeypatch.setenv("TERRACE_CONFIG", str(cfg))
    code, payload = run_json(capsys, "climb", "--group", "Z10", "--mode", "directed")
    assert code == 0
    assert payload["result"]["seed"] == 9
    assert cfgdir.exists() and list(cfgdir.glob("climb-*.json"))
    # flags beat the config file
    flagdir = tmp_path / "from-flag"
    code, payload = run_json(
        capsys, "climb", "--group", "Z10", "--mode", "directed",
        "--seed", "4", "--outdir", str(flagdir),
    )
    assert code == 0
    assert payload["result"]["seed"] == 4
    assert flagdir.exists() and list(flagdir.glob("climb-*.json"))


def test_config_rejects_unknown_keys(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("does_not_exist = 1\n")
    monkeypatch.setenv("TERRACE_CONFIG", str(cfg))
    code = main(["group", "--group", "Z4", "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_exit_2(tmp_path, capsys, monkeypatch, value):
    code = main(["enumerate", "--group", "Z5", "--outdir", str(tmp_path), "--threads", value])
    assert code == 2 and "threads" in capsys.readouterr().err
    cfg = tmp_path / "threads.cfg"
    cfg.write_text(f"threads = {value}\n")
    monkeypatch.setenv("TERRACE_CONFIG", str(cfg))
    code = main(["enumerate", "--group", "Z5", "--outdir", str(tmp_path)])
    assert code == 2 and "threads" in capsys.readouterr().err
    assert not list(tmp_path.glob("enumerate-*.json"))


def test_effective_config_echoed(tmp_path, capsys):
    code, payload = run_json(
        capsys, "enumerate", "--group", "Z5", "--outdir", str(tmp_path), "--threads", "2"
    )
    assert code == 0
    assert payload["config"]["threads"] == 2
    assert payload["config"]["outdir"] == str(tmp_path)


@pytest.mark.parametrize("argv", [
    ["group", "--group", "Z4"],
    ["search", "--group", "Z5", "--mode", "terrace"],
    ["verify", "--terrace", "w5.json"],
    ["square", "--terrace", "w5.json"],
    ["orbit", "--terrace", "w5.json"],
])
def test_threads_only_where_it_is_read(tmp_path, capsys, argv):
    """The parser refuses --threads before any input file is read."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "2", "--outdir", str(tmp_path)])
    assert exc.value.code == 2 and "--threads" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["group", "--group", "Z3"],
    ["search", "--group", "Z5", "--mode", "terrace"],
    ["verify", "--terrace", "w5.json"],
    ["square", "--terrace", "w5.json"],
    ["orbit", "--terrace", "w5.json"],
    ["enumerate", "--group", "Z5", "--witnesses", "1"],
])
def test_one_process_commands_record_one_thread(tmp_path, capsys, monkeypatch, argv):
    """A config file's threads applies only where a second process runs."""
    P.save_arrangement(P.walecki(5), tmp_path / "w5.json")
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("threads = 2\n")
    monkeypatch.setenv("TERRACE_CONFIG", str(cfg))
    monkeypatch.chdir(tmp_path)
    code, payload = run_json(capsys, *argv, "--outdir", str(tmp_path / "out"))
    assert code == 0 and payload["config"]["threads"] == 1
    code, payload = run_json(capsys, "enumerate", "--group", "Z5", "--outdir", str(tmp_path / "out"))
    assert code == 0 and payload["config"]["threads"] == 2


def test_witness_collection_with_threads_exits_2(tmp_path, capsys):
    argv = ["enumerate", "--group", "Z5", "--witnesses", "1", "--outdir", str(tmp_path)]
    assert main([*argv, "--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not list(tmp_path.glob("enumerate-*.json"))
    code, payload = run_json(capsys, *argv, "--threads", "1")
    assert code == 0 and payload["result"]["witnesses"]


def test_console_script_runs(tmp_path):
    """The `terraces` script declared in pyproject.toml runs `group` end to end.

    The declared target is called the way a pip-generated wrapper calls it, in
    a fresh interpreter that imports the same package as this process, so the
    test needs no install and no `terraces` on PATH.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")

    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["terraces"]
    module, func = target.split(":")
    src = str(Path(terraces.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outdir = tmp_path / "out"

    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())",
         "group", "--group", "Z6", "--outdir", str(outdir)],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["result"]["order"] == 6
    assert Path(record["file"]).parent == outdir
    assert Path(record["file"]).is_file()


@pytest.mark.parametrize("argv, code, name", [
    (["verify", "--terrace", "w6.json"], 0, "verify-8b022edd0cd7"),
    (["verify", "--terrace", "w5.json", "--property", "narcissistic"], 0, "verify-a89e36b680fe"),
    (["verify", "--terrace", "g21.json", "--property", "t2"], 0, "verify-ac7e76983ee1"),
    (["square", "--terrace", "g21.json", "--check", "roman:2"], 0, "square-206af6f0e2a3"),
    (["square", "--terrace", "w5.json", "--check", "quasi"], 0, "square-a646d21dba48"),
    (["orbit", "--terrace", "w5.json"], 0, "orbit-17e8a0c709cc"),
    (["orbit", "--terrace", "w10.json", "--find", "extendable", "--limit", "300"], 1,
     "orbit-b3fc1f36f65c"),
])
def test_result_files_are_pinned(tmp_path, capsys, monkeypatch, argv, code, name):
    """A result file's name carries the sha256 of its bytes, so these names
    pin the files `verify`, `square` and `orbit` write."""
    monkeypatch.delenv("TERRACE_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    for n in (5, 6, 10):
        P.save_arrangement(P.walecki(n), f"w{n}.json")
    Path("g21.json").write_bytes(terraces.fixture_path("g21_1_t2").read_bytes())
    assert main([*argv, "--outdir", "runs"]) == code
    capsys.readouterr()
    assert [p.name for p in Path("runs").glob("*-????????????.json")] == [f"{name}.json"]
