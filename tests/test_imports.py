"""Every library module, test file and demo uses each name it imports, and
every private library function or class serves the library.

A stdlib stand-in for a linter's unused-import rule, so that deleting code
leaves no dead imports behind.  ``__init__.py`` is exempt: its imports are
the package's re-exports.  The second rule keeps private names that only
tests call out of the library: a module-level ``_name`` function or class
must be referenced by library code outside its own definition.
"""

import ast
from pathlib import Path

import pytest

import minvan

MODULES = sorted(p for p in Path(minvan.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\nprint(gcd(4, 6))\n"
    assert unused_imports(source) == ["line 1: os", "line 2: lcm"]


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """`module._name` for each module-level private function or class of
    sources (module name -> text) that no other top-level statement of any
    of them names, as a bare name or an attribute."""
    defined, named = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            named.append((node, names))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined.append((module, node))
    return [
        f"{module}.{d.name}"
        for module, d in defined
        if not any(d.name in names for node, names in named if node is not d)
    ]


def test_detects_a_private_only_its_own_definition_names():
    sources = {
        "a": "def _helper():\n    pass\n"
        "def _loop(n):\n    return _loop(n - 1)\n"
        "class _Unused:\n    pass\n",
        "b": "from a import _helper\n\ndef g():\n    return _helper()\n",
    }
    assert unreferenced_privates(sources) == ["a._loop", "a._Unused"]


def test_library_privates_serve_the_library():
    sources = {p.stem: p.read_text() for p in Path(minvan.__file__).parent.glob("*.py")}
    assert unreferenced_privates(sources) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []
