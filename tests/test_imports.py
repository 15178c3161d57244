"""Every library module, test file and demo uses each name it imports, and
every library function or class has a user.

A stdlib stand-in for a linter's unused-import rule, so that deleting code
leaves no dead imports behind.  ``__init__.py`` is exempt: its imports are
the package's re-exports.  Two more rules keep dead code out of the
library: a module-level ``_name`` function or class must be referenced by
library code outside its own definition, and a public one by library code
outside its own definition or by a test, demo or benchmark script (a
re-export does not count).  The ``cli.cmd_*`` handlers are exempt, because
``main`` looks them up by name.  A module-level ``_name`` (not a dunder)
may not be bound to a mutable container, so that a memo is a ``functools``
cache, whose policy shows where it is defined.  The library runs in one
process: it names no ``os.fork``, ``multiprocessing`` or
``concurrent.futures``, and a plain ``import minvan.cli`` loads no process
machinery.  One test checks the code-line counter (``tests/code_lines.py``)
that library sizes are reported with.
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


MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "Counter"}


def mutable_private_globals(source: str) -> list[str]:
    """`line N: name` for each module-level single-underscore name bound to
    a dict, list or set display or comprehension, or to a call of one of
    MUTABLE_CALLS."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        value = node.value
        called = isinstance(value, ast.Call) and (_names(value.func) & MUTABLE_CALLS)
        if isinstance(value, MUTABLE_DISPLAYS) or called:
            found += [
                f"line {node.lineno}: {t.id}"
                for t in targets
                if isinstance(t, ast.Name) and t.id.startswith("_") and not t.id.startswith("__")
            ]
    return found


def test_detects_a_private_mutable_global():
    source = (
        "import collections\n"
        "_MEMO: dict[str, int] = {}\n"
        "_seen = _order = []\n"
        "_squares = {n: n * n for n in range(4)}\n"
        "_counts = collections.Counter()\n"
        "_table = dict(a=1)\n"
        "_BOUND = 64\n"
        "_PRIMES = (2, 3)\n"
        "_pending: list[int]\n"
        "TABLE = {}\n"
        "__all__ = ['TABLE']\n"
    )
    assert mutable_private_globals(source) == [
        "line 2: _MEMO",
        "line 3: _seen",
        "line 3: _order",
        "line 4: _squares",
        "line 5: _counts",
        "line 6: _table",
    ]


def test_library_keeps_no_private_mutable_global():
    found = {module: mutable_private_globals(source) for module, source in _library_sources().items()}
    assert {module: names for module, names in found.items() if names} == {}


REFUSED_PROCESS_NAMES = ("os.fork", "multiprocessing", "concurrent.futures")


def _dotted(node: ast.AST) -> str | None:
    """`a.b.c` for a chain of attributes on a bare name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    base = _dotted(node.value) if isinstance(node, ast.Attribute) else None
    return base and f"{base}.{node.attr}"


def process_machinery(source: str) -> list[str]:
    """`line N: name`, in line order, for each line of source that imports
    or names one of REFUSED_PROCESS_NAMES, or something within it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [_dotted(node)]
        else:
            continue
        found |= {
            (node.lineno, refused)
            for name in names
            for refused in REFUSED_PROCESS_NAMES
            if name and (name == refused or name.startswith(refused + "."))
        }
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detects_process_machinery():
    source = (
        "import os\n"
        "import multiprocessing.pool\n"
        "from concurrent import futures\n"
        "from os import fork\n"
        "pid = os.fork()\n"
        "pool = concurrent.futures.ProcessPoolExecutor\n"
        "print(os.forkpty, os.getpid(), futures, fork, multiprocessing)\n"
    )
    assert process_machinery(source) == [
        "line 2: multiprocessing",
        "line 3: concurrent.futures",
        "line 4: os.fork",
        "line 5: os.fork",
        "line 6: concurrent.futures",
    ]


def test_library_runs_in_one_process():
    found = {module: process_machinery(source) for module, source in _library_sources().items()}
    assert {module: names for module, names in found.items() if names} == {}


def test_importing_the_cli_loads_no_process_machinery():
    # `extend` runs in one process, so no command pays for these.
    script = (
        "import sys, minvan.cli\n"
        "print(sorted({'pickle', 'signal', 'multiprocessing', 'subprocess'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(minvan.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out == "[]\n"
