"""No module of `windsed` reaches into another's private names: a name with
a leading underscore is neither imported from a sibling module nor taken
as an attribute of anything but `self` or `cls`.  Dunder names are public."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "windsed"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(source: str) -> list[str]:
    """Each `line: name` where `source` imports a private name from a
    windsed module or takes a private attribute of another object."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "windsed"):
            found += [f"{node.lineno}: {alias.name}" for alias in node.names
                      if _private(alias.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr) and not (
                isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
            found.append(f"{node.lineno}: {node.attr}")
    return found


def test_the_scan_finds_each_kind_of_reach():
    source = ("from .lp_solver import _Factors, RepeatSolver\n"
              "from windsed.forecast import _pooled_lag_data\n"
              "def f(self, other):\n"
              "    self._solver._sim.x = other._cache\n"
              "    return self._own, cls._also, other.__dict__, type(self).__name__\n")
    assert sorted(private_reaches(source)) == ["1: _Factors", "2: _pooled_lag_data",
                                               "4: _cache", "4: _sim"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reaches_into_private_names(path):
    assert private_reaches(path.read_text(encoding="utf-8")) == []
