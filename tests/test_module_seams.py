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


# -- every public name has a caller ----------------------------------------------

ROOT = SRC.parent.parent
CALLER_DIRS = ("src", "scripts", "perfbench")


def public_definitions(tree: ast.Module, module: str):
    """(qualified name, name, first line, last line) of each public
    module-level function and class, and of each public method of a public
    class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((f"{module}.{node.name}", node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                out += [(f"{module}.{node.name}.{item.name}", item.name,
                         item.lineno, item.end_lineno)
                        for item in node.body if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")]
    return out


def reaches(tree: ast.Module):
    """(name, line) of each name, attribute, and dotted part of a string
    constant in `tree`: a string counts, since `getattr(model, "f")` and a
    tracer's "Class.method" reach a definition by its name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out += [(part, node.lineno) for part in node.value.split(".")]
    return out


def unreached(sources: dict) -> set[str]:
    """Qualified names of the public definitions in `sources` (path ->
    source, `windsed` modules under a `windsed` directory) that nothing
    reaches outside their own definition."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    names = {path: {} for path in trees}  # path -> name -> lines reached
    for path, tree in trees.items():
        for name, line in reaches(tree):
            names[path].setdefault(name, []).append(line)
    found = set()
    for path, tree in trees.items():
        if Path(path).parent.name != "windsed":
            continue
        for qual, name, first, last in public_definitions(tree, Path(path).stem):
            outside = any(name in names[other] for other in trees if other != path)
            inside = any(not first <= line <= last for line in names[path].get(name, ()))
            if not (outside or inside):
                found.add(qual)
    return found


def test_the_caller_scan_sees_each_kind_of_reach():
    sources = {
        "src/windsed/m.py": ("def called(): return 1\n"
                             "def by_string(): pass\n"
                             "def recursive(n): return recursive(n - 1)\n"
                             "class Kept:\n"
                             "    def used(self): return self.used()\n"
                             "    def by_tracer(self): pass\n"
                             "    def idle(self): pass\n"
                             "    def _private(self): pass\n"
                             "def _helper(): return Kept().used()\n"),
        "scripts/s.py": ("from windsed.m import called\n"
                         "called(); getattr(object, 'by_string')\n"
                         "TARGETS = ['Kept.by_tracer']\n"),
    }
    assert unreached(sources) == {"m.recursive", "m.Kept.idle"}


def test_every_public_definition_has_a_caller():
    """Each public function, class and method of `windsed` is reached from
    src/, scripts/ or perfbench/ outside its own definition."""
    sources = {str(path): path.read_text(encoding="utf-8")
               for top in CALLER_DIRS for path in sorted((ROOT / top).rglob("*.py"))
               if "tests" not in path.relative_to(ROOT).parts}
    assert unreached(sources) == set()
