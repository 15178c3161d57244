"""The benchmark's tracer names functions of the library it wraps.

`perfbench/spans.py` looks up each name in PRIMITIVES with
`vars(module)[name]` when it installs, so a primitive renamed or deleted in
`minvan` would crash a traced benchmark run with a KeyError.  The other
names it and `perfbench/run.py` use fail silently instead: a hook, private
function or builder that no longer exists is never wrapped, and a metric
read from a name that is never traced reads 0.  This reads the tracer's
tables and the runner's source without installing or running either.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
RUN = PERFBENCH / "run.py"

# Names the benchmark still reads although the library no longer defines
# them; each metric built on them reads 0 (reported in CHANGES.md).
KNOWN_MISSING = {"cyclotomic.residue", "cyclotomic._monomial_rows"}
READERS = ("calls", "self_s", "incl")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_and_primitives_exist():
    spans = load_spans()
    assert set(spans.PRIMITIVES) <= set(spans.LAYERS)
    for layer in spans.LAYERS:
        module = vars(importlib.import_module(f"minvan.{layer}"))
        missing = [name for name in spans.PRIMITIVES.get(layer, ()) if name not in module]
        assert missing == [], f"minvan.{layer} lacks {missing}"


def _is_read(node) -> bool:
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id in READERS
    )


def names_read_by_run() -> set[str]:
    """The span names `run.py` reads through calls, self_s or incl: string
    subscripts, and the strings a comprehension subscripts them with."""
    names = set()
    for node in ast.walk(ast.parse(RUN.read_text())):
        if _is_read(node) and isinstance(node.slice, ast.Constant):
            names.add(node.slice.value)
        elif isinstance(node, ast.GeneratorExp) and _is_read(node.elt):
            for gen in node.generators:
                names.update(
                    c.value for c in ast.walk(gen.iter) if isinstance(c, ast.Constant)
                )
    return names


def hook_names() -> set[str]:
    """The keys of the `hooks` dict in `Tracer.install`."""
    for node in ast.walk(ast.parse(SPANS.read_text())):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["hooks"]:
            return {key.value for key in node.value.keys}
    raise AssertionError("no hooks dict in spans.py")


def test_names_the_benchmark_reads_exist():
    spans = load_spans()
    read = names_read_by_run()
    assert "typegen._certify" in read and "enumeration.sorou_of_typesum_anchored" in read
    names = (
        read
        | hook_names()
        | {f"{layer}.{attr}" for layer, attrs in spans.PRIVATE.items() for attr in attrs}
        | set(spans.BUILDERS)
    )
    missing = set()
    for name in names:
        layer, attr = name.split(".", 1)
        assert layer in spans.LAYERS, name
        if attr not in vars(importlib.import_module(f"minvan.{layer}")):
            missing.add(name)
    assert missing - KNOWN_MISSING == set()
    # The allowlist shrinks when the benchmark stops reading a name.
    assert KNOWN_MISSING <= names and KNOWN_MISSING <= missing
