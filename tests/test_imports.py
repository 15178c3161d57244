"""Every library module, test file and demo uses each name it imports, and
every library function or class has a user.

A stdlib stand-in for a linter's unused-import rule, so that deleting code
leaves no dead imports behind.  ``__init__.py`` is exempt: its imports are
the package's re-exports.  Two more rules keep dead code out of the
library: a module-level ``_name`` function or class must be referenced by
library code outside its own definition, and a public one by library code
outside its own definition or by a test, demo or benchmark script (a
re-export does not count).  The ``cli.cmd_*`` handlers are exempt, because
``main`` looks them up by name.  A last test keeps the modules that only
a statistics fan-out needs out of a plain ``import minvan.cli``, and one
checks the code-line counter (``tests/code_lines.py``) that library sizes
are reported with.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minvan

from code_lines import code_lines

MODULES = sorted(p for p in Path(minvan.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))
BENCHMARK_SCRIPTS = sorted(ROOT.glob("perfbench/*.py"))


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


def test_counts_code_lines_only():
    source = (
        '"""Module\ndocstring."""\n\n# a comment\nimport os  # trailing\n\n\n'
        'def f():\n    """Doc."""\n    x = """not a\n    docstring"""\n    return (x,\n            os)\n'
    )
    assert code_lines(source) == 6


def _names(node: ast.AST, strings: bool = False) -> set[str]:
    """The bare names and attributes node mentions; with strings, also its
    string constants (a monkeypatch target or a tracer's name table)."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.value
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
        or (strings and isinstance(n, ast.Constant) and isinstance(n.value, str))
    }


def unreferenced(sources: dict[str, str], scripts=()) -> list[str]:
    """`module.name` for each module-level function or class of sources
    (module name -> text) that no other top-level statement of any of them
    names, as a bare name or an attribute, and no script names anywhere,
    as a bare name, an attribute or a string."""
    defined, named = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            named.append((node, _names(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node))
    used = set().union(*(_names(ast.parse(source), strings=True) for source in scripts))
    return [
        f"{module}.{d.name}"
        for module, d in defined
        if d.name not in used and not any(d.name in names for node, names in named if node is not d)
    ]


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    return [name for name in unreferenced(sources) if name.split(".")[1].startswith("_")]


def unreferenced_publics(sources: dict[str, str], scripts: list[str]) -> list[str]:
    return [
        name
        for name in unreferenced(sources, scripts)
        if not name.split(".")[1].startswith("_") and not name.startswith("cli.cmd_")
    ]


def test_detects_a_private_only_its_own_definition_names():
    sources = {
        "a": "def _helper():\n    pass\n"
        "def _loop(n):\n    return _loop(n - 1)\n"
        "class _Unused:\n    pass\n",
        "b": "from a import _helper\n\ndef g():\n    return _helper()\n",
    }
    assert unreferenced_privates(sources) == ["a._loop", "a._Unused"]


def test_detects_a_public_name_only_its_definition_or_a_re_export_names():
    sources = {
        "__init__": "from a import exported, tested, unused\n",
        "a": "def unused():\n    return unused()\n"
        "def exported():\n    pass\n"
        "def tested():\n    pass\n"
        "class Patched:\n    pass\n"
        "def helper():\n    pass\n",
        "b": "import a\n\ndef g():\n    return a.helper()\n",
        "cli": "def cmd_run(args):\n    pass\n",
    }
    scripts = [
        "from a import tested\nfrom b import g\nassert tested() is g() is None\n",
        'def test_patch(monkeypatch):\n    monkeypatch.setattr(a, "Patched", object)\n',
    ]
    assert unreferenced_publics(sources, scripts) == ["a.unused", "a.exported"]


def _library_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in Path(minvan.__file__).parent.glob("*.py")}


def test_library_privates_serve_the_library():
    assert unreferenced_privates(_library_sources()) == []


def test_library_publics_have_a_user():
    scripts = [p.read_text() for p in SCRIPTS + BENCHMARK_SCRIPTS]
    assert unreferenced_publics(_library_sources(), scripts) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def test_importing_the_cli_loads_no_process_machinery():
    # pickle and signal are imported by the fan-out when it forks, so a
    # command that forks no worker never pays for them.
    script = (
        "import sys, minvan.cli\n"
        "print(sorted({'pickle', 'signal', 'multiprocessing', 'subprocess'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(minvan.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out == "[]\n"
