"""The benchmark's tracer names functions of the library it wraps.

`perfbench/spans.py` looks up each name in PRIMITIVES with
`vars(module)[name]` when it installs, so a primitive renamed or deleted in
`minvan` would crash a traced benchmark run with a KeyError.  The other
names it and `perfbench/run.py` use fail silently instead: a hook, private
function or builder that no longer exists is never wrapped, and a metric
read from a name that is never traced reads 0.  This reads the tracer's
tables and the runner's source without installing or running either.

The verify-mix query stream (`perfbench/mix.py`) also pins `minvan verify`:
the output on three passes is compared with a pinned hash, with its memos
warm and cleared before each query, and every sum it decomposes is
decomposed by the root oracle too.
"""

import ast
import hashlib
import importlib
import sys

import pytest

from minvan import cli
from minvan.sorou import render_sorou, to_subsidiary

from helpers import (
    PERFBENCH,
    clear_verify_memos,
    load_perfbench,
    to_subsidiary_by_roots,
    verify_mix_texts,
)

SPANS = PERFBENCH / "spans.py"
RUN = PERFBENCH / "run.py"

# Names the benchmark still reads although the library no longer defines
# them; each metric built on them reads 0 (reported in CHANGES.md).
KNOWN_MISSING = {"cyclotomic.residue", "cyclotomic._monomial_rows", "store.load_cache"}
READERS = ("calls", "self_s", "incl")


def test_traced_layers_and_primitives_exist():
    spans = load_perfbench("spans")
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
    spans = load_perfbench("spans")
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


@pytest.fixture(scope="module")
def mix_queries():
    """The texts of verify-mix passes 0-2 at seed 1, in stream order."""
    return verify_mix_texts(1, range(3))


def mix_digest(queries, capsys, before_each=lambda: None) -> str:
    digest = hashlib.sha256()
    for text in queries:
        before_each()
        code = cli.main(["verify", text])
        digest.update(f"{text}\n{code}\n{capsys.readouterr().out}\0".encode())
    return digest.hexdigest()


def test_verify_output_on_the_mix_is_pinned(mix_queries, capsys):
    assert len(mix_queries) == 1704
    assert mix_digest(mix_queries, capsys) == VERIFY_MIX_SHA256


def test_verify_memos_change_no_output(mix_queries, capsys):
    """Every memo that `verify` reads, cleared before each query, then warm
    from the first run: the same pinned output."""
    assert mix_digest(mix_queries, capsys, clear_verify_memos) == VERIFY_MIX_SHA256
    assert mix_digest(mix_queries, capsys) == VERIFY_MIX_SHA256


def test_decomposition_matches_the_root_oracle_on_the_mix(mix_queries, monkeypatch, capsys):
    """Every sorou that `verify` decomposes on the mix, decomposed on root
    tuples as well.  The memos are cleared first, so that every argument a
    run makes reaches `to_subsidiary`."""
    seen = set()

    def recording(s):
        seen.add(s)
        return to_subsidiary(s)

    for name, module in list(sys.modules.items()):
        if name.startswith("minvan") and vars(module).get("to_subsidiary") is to_subsidiary:
            monkeypatch.setattr(module, "to_subsidiary", recording)
    clear_verify_memos()
    for text in mix_queries:
        cli.main(["verify", text])
    capsys.readouterr()
    assert len(seen) > 1000
    for s in seen:
        assert to_subsidiary(s) == to_subsidiary_by_roots(s), render_sorou(s)
