"""The benchmark's tracer names functions of the library it wraps.

`perfbench/spans.py` looks up each name in PRIMITIVES with
`vars(module)[name]` when it installs, so a primitive renamed or deleted in
`minvan` would crash a traced benchmark run with a KeyError.  The other
names it and `perfbench/run.py` use fail silently instead: a hook, private
function or builder that no longer exists is never wrapped, and a metric
read from a name that is never traced reads 0.  This reads the tracer's
tables and the runner's source without installing or running either.

The verify-mix query stream (`perfbench/mix.py`) also pins `minvan verify`:
the output on three passes is compared with a pinned hash.
"""

import ast
import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

from minvan import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
RUN = PERFBENCH / "run.py"
MIX = PERFBENCH / "mix.py"

# Names the benchmark still reads although the library no longer defines
# them; each metric built on them reads 0 (reported in CHANGES.md).
KNOWN_MISSING = {"cyclotomic.residue", "cyclotomic._monomial_rows"}
READERS = ("calls", "self_s", "incl")


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_layers_and_primitives_exist():
    spans = load(SPANS)
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
    spans = load(SPANS)
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


# sha256 over every query of verify-mix passes 0-2 at seed 1 (1,704
# queries): its text, `minvan verify`'s exit code and its stdout.  Any
# change to a verdict, a failing condition or an inferred type changes it.
VERIFY_MIX_SHA256 = "d706b9de4efe9bb0bb83c06e87845f31a51b964183a6697ce6d287f18a22eb59"


def test_verify_output_on_the_mix_is_pinned(capsys):
    mix = load(MIX)
    reps = mix.representatives(str(PERFBENCH / "fixtures" / "w19.db"))
    digest = hashlib.sha256()
    count = 0
    for pass_index in range(3):
        for q in mix.stream(reps, 1, pass_index):
            code = cli.main(["verify", q.text])
            digest.update(f"{q.text}\n{code}\n{capsys.readouterr().out}\0".encode())
            count += 1
    assert count == 1704
    assert digest.hexdigest() == VERIFY_MIX_SHA256
