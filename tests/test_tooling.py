"""Checks on the package surface and the README, outside any one module."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import terraces
from terraces import groups as G

README = Path(__file__).resolve().parents[1] / "README.md"


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
