"""Checks on the package surface and the README, outside any one module."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import terraces
from terraces import _ckernel
from terraces import groups as G

README = Path(__file__).resolve().parents[1] / "README.md"
KERNEL_C = Path(_ckernel.__file__).with_name(_ckernel._SOURCE)


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(terraces.__path__)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"terraces.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_readme_quick_tour_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    counts, roman, narcissistic = capsys.readouterr().out.splitlines()
    assert counts == "(13470, 372)"
    assert int(roman) >= 2
    assert narcissistic == "True"


def test_readme_grammar_matches_the_parser():
    text = README.read_text(encoding="utf-8")
    names = text[text.index("Catalogue names:"):]
    names = names[:names.index("\n\n")]
    listed = {w for quoted in re.findall(r"`([^`]*)`", names) for w in quoted.split()
              if re.fullmatch(r"\w+", w)}
    assert sorted(listed) == sorted(G.CATALOGUE_NAMES)
    letters = re.findall(r"^\| `([A-Z]+)[<(]", text, re.M)
    assert sorted(letters) == sorted([*G._FAMILIES, "SD"])


def test_import_and_group_set_up_start_no_compiler():
    """Importing the package and building a group, with its automorphisms
    and left-division table, neither starts a process nor loads a shared
    object: the kernels are built at the first count, search, climb or
    closure, not at set-up."""
    code = (
        "import json, sys\n"
        "seen = []\n"
        "watch = ('subprocess.Popen', 'os.posix_spawn', 'os.exec', 'os.fork', 'ctypes.dlopen')\n"
        "sys.addaudithook(lambda event, args: seen.append(event) if event in watch else None)\n"
        "import terraces\n"
        "from terraces import _ckernel, cli, enumerate, hillclimb, latin, orbit\n"
        "g = terraces.parse_group_spec('D10'); terraces.automorphisms(g); g.ldiv\n"
        "print(json.dumps([seen, _ckernel._KERNEL is None]))\n"
    )
    src = str(Path(terraces.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=60)
    assert json.loads(out.stdout) == [[], True], out.stdout


def test_the_kernel_source_exports_exactly_the_bound_functions():
    """The C functions the source exports (not static), in source order,
    are the kernels `Kernel` binds, in its order: no export without a
    wrapper, and no binding of a function the source no longer exports."""
    exported = re.findall(r"^(?!static)[a-z][\w ]*\bterraces_(\w+)\(", KERNEL_C.read_text(), re.M)
    assert tuple(exported) == _ckernel.Kernel._fields == ("dfs", "climb", "closure", "square", "latin",
                                                         "certify")


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")
def test_the_kernel_source_compiles_clean_under_warnings():
    """The C source compiles with every -Wall -Wextra warning an error."""
    out = subprocess.run(["gcc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(KERNEL_C)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("spec", ["Z5", "D10", "Q12"])
def test_the_kernel_tables_are_built_at_exact_size(spec):
    """Every table the kernels read ends where its buffer does, so that the
    sanitizers report a read one int past it."""
    g = G.parse_group_spec(spec)
    empty = sys.getsizeof(array("i"))
    for name, table in zip(_ckernel._TABLES, _ckernel._flat(g, *_ckernel._TABLES)):
        assert sys.getsizeof(table) == empty + len(table) * table.itemsize, name
