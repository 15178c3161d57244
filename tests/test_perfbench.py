"""The benchmark's tracer names functions of the library it wraps.

`perfbench/spans.py` looks up each name in PRIMITIVES with
`vars(module)[name]` when it installs, so a primitive renamed or deleted in
`minvan` would crash a traced benchmark run with a KeyError.  This reads
the tracer's tables without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
