"""Tracing of minvan from outside the library.

`install` wraps the public functions of the eight layers (plus a few named
private ones) so that every call, and every resumption of a wrapped
generator, records a span: name, parent span, start and end.  Spans are kept
in memory in flat arrays and written out by `dump` when the traced process
ends; `summarize` reads them back and computes per-name call counts, self
times and outermost inclusive times.

The wrapper is patched into every `minvan.*` namespace that binds the
function, because `from x import f` copies the binding.  Modules are reached
through `sys.modules`: the package attribute `minvan.sorou` is the function
`sorou`, not the module.

The sorou algebra's primitives are not wrapped.  They run millions of times
per classification (`make_root` 2.2 M calls through weight 16), so a span each
would cost more than the work; their time is self time of the wrapped caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "store", "typegen", "enumeration", "sorou", "minimality", "cyclotomic", "types")
PRIVATE = {
    "cyclotomic": ("_monomial_rows",),
    "typegen": ("_certify",),
    "enumeration": ("_iter_assembled",),
}
PRIMITIVES = {
    "sorou": (
        "make_root", "root_mul", "root_inv", "root_neg", "rotate", "weight", "order",
        "split_root", "sub_multisets_of_size", "proper_nonempty_subsorous",
    ),
    "types": ("minvan_weight", "type_weight", "minvan_key", "sum_key", "render_minvan"),
}
# Memoised builders: a span is recorded only for the first call per argument.
BUILDERS = ("cyclotomic.cyclotomic_poly", "cyclotomic._monomial_rows")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_top = array("b")  # 1 when no enclosing span of the same group
        self.stack = [-1]
        self.active: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[int, int] = {}  # creator span -> distinct assemblies
        self.fell_back: set[int] = set()  # _certify spans that called the fallback
        self.built: dict[str, set] = {name: set() for name in BUILDERS}
        self.poly_misses_at_install = 0
        self.poly_cache_info = None

    def _intern(self, name: str) -> int:
        self.names.append(name)
        self.active.append(0)
        return len(self.names) - 1

    def _spanner(self, name: str, group: int | None = None):
        """(open, close) functions recording spans named `name`."""
        nid = self._intern(name)
        gid = nid if group is None else group
        names, parents, starts, ends, tops = (
            self.span_name.append, self.span_parent.append, self.span_start.append,
            self.span_end, self.span_top.append,
        )
        end_append = ends.append
        stack, active = self.stack, self.active

        def open_span() -> int:
            i = len(ends)
            names(nid)
            parents(stack[-1])
            tops(active[gid] == 0)
            active[gid] += 1
            end_append(0.0)
            stack.append(i)
            starts(perf_counter())
            return i

        def close_span(i: int) -> None:
            ends[i] = perf_counter()
            stack.pop()
            active[gid] -= 1

        return open_span, close_span

    def wrap(self, name: str, fn, on_return=None, group: int | None = None):
        open_span, close_span = self._spanner(name, group)

        def wrapper(*args, **kwargs):
            i = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(i)
            if on_return is not None:
                on_return(i, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name: str, fn):
        """One span per resumption; counts yields and repeated items."""
        open_span, close_span = self._spanner(name)
        counts, distinct, stack = self.counts, self.distinct, self.stack

        def resumptions(gen, creator):
            seen = set()
            try:
                while True:
                    i = open_span()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_span(i)
                    counts[name + ".yields"] += 1
                    if item in seen:
                        counts[name + ".repeats"] += 1
                    seen.add(item)
                    yield item
            finally:
                gen.close()
                distinct[creator] = distinct.get(creator, 0) + len(seen)

        def wrapper(*args, **kwargs):
            return resumptions(fn(*args, **kwargs), stack[-1])

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_builder(self, name: str, fn, group: int):
        built = self.built[name]
        traced = self.wrap(name, fn, group=group)

        def wrapper(n):
            if n in built:
                return fn(n)
            built.add(n)
            return traced(n)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that read return values -------------------------------------

    def _parent_name(self, i: int) -> str | None:
        p = self.span_parent[i]
        return self.names[self.span_name[p]] if p >= 0 else None

    def _on_certify(self, i: int, ok: bool) -> None:
        self.counts["typegen.survivors"] += bool(ok)
        if i in self.fell_back:
            self.fell_back.discard(i)
        else:
            self.counts["typegen.fast_path" if ok else "typegen.early_rejects"] += 1

    def _on_fallback(self, i: int, ok: bool) -> None:
        if self._parent_name(i) == "typegen._certify":
            self.counts["typegen.fallbacks"] += 1
            self.counts["typegen.fallback_s"] += self.span_end[i] - self.span_start[i]
            self.fell_back.add(self.span_parent[i])

    def _on_verdict(self, i: int, verdict) -> None:
        self.counts["minimality.minimal" if verdict.minimal else "minimality.rejected"] += 1
        if self._parent_name(i) == "enumeration.type_statistics":
            self.counts["minimality.stat_calls"] += 1
            self.counts["minimality.stat_minimal"] += verdict.minimal

    def _on_classes(self, i: int, classes) -> None:
        made = self.distinct.pop(i, None)
        if made is not None and made != len(classes):
            self.counts["trace.mismatches"] += 1

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "typegen._certify": self._on_certify,
            "enumeration.has_minimal_realization": self._on_fallback,
            "minimality.is_minimal_vanishing": self._on_verdict,
            "enumeration.sorou_of_minvan_type": self._on_classes,
        }
        build_group = self._intern("cyclotomic.build")
        for layer in LAYERS:
            module = importlib.import_module(f"minvan.{layer}")
            primitives = {id(vars(module)[attr]) for attr in PRIMITIVES.get(layer, ())}
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                if inspect.isclass(fn) or not callable(fn) or id(fn) in primitives:
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in BUILDERS:
                    wrapped = self.wrap_builder(name, fn, build_group)
                elif inspect.isgeneratorfunction(fn):
                    wrapped = self.wrap_generator(name, fn)
                else:
                    wrapped = self.wrap(name, fn, hooks.get(name))
                _rebind(fn, wrapped)
                if name == "cyclotomic.cyclotomic_poly":
                    self.poly_cache_info = fn.cache_info
        self.poly_misses_at_install = self.poly_cache_info().misses
        cache_cls = sys.modules["minvan.enumeration"].SorouCache
        get = cache_cls.get
        counts = self.counts

        def counted_get(cache, key):
            hit = get(cache, key)
            counts["enumeration.cache_hits" if hit is not None else "enumeration.cache_misses"] += 1
            return hit

        cache_cls.get = counted_get

    def dump(self, path: str) -> None:
        """Write the spans (binary arrays) and the counters (JSON) to path."""
        counts = dict(self.counts)
        counts["cyclotomic.poly_builds"] = self.poly_cache_info().misses - self.poly_misses_at_install
        rows = self.built["cyclotomic._monomial_rows"]
        counts["cyclotomic.max_order"] = max(rows, default=0)
        meta = {"names": self.names, "spans": len(self.span_end), "counts": counts}
        with open(path, "wb") as fh:
            header = json.dumps(meta).encode()
            fh.write(len(header).to_bytes(8, "little") + header)
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end, self.span_top):
                arr.tofile(fh)


def _rebind(fn, wrapped) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "minvan" or name.startswith("minvan.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)


def summarize(path: str) -> dict:
    """Per-name calls, self seconds and outermost inclusive seconds."""
    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(8), "little")
        meta = json.loads(fh.read(size))
        n = meta["spans"]
        arrays = []
        for code in ("i", "i", "d", "d", "b"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    names, (span_name, span_parent, start, end, top) = meta["names"], arrays
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * n
    for i, p in enumerate(span_parent):
        if p >= 0:
            child[p] += dur[i]
    calls = Counter()
    self_s = Counter()
    incl_s = Counter()
    for i in range(n):
        name = names[span_name[i]]
        calls[name] += 1
        self_s[name] += dur[i] - child[i]
        if top[i]:
            incl_s[name] += dur[i]
    return {"spans": n, "calls": calls, "self_s": self_s, "incl_s": incl_s,
            "counts": Counter(meta["counts"])}


def merge(summaries: list[dict]) -> dict:
    out = {"spans": 0, "calls": Counter(), "self_s": Counter(), "incl_s": Counter(), "counts": Counter()}
    for s in summaries:
        out["spans"] += s["spans"]
        for key in ("calls", "self_s", "incl_s"):
            out[key].update(s[key])
        for k, v in s["counts"].items():
            out["counts"][k] = max(out["counts"][k], v) if k == "cyclotomic.max_order" else out["counts"][k] + v
    return out
