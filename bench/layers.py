"""Per-layer tracing from outside the program.

Wrappers go around calls into each yflow module: a span (name, start,
end, parent) on coarse boundaries, a bare counter on the hot methods.
A wrapper replaces a function under every name that binds it, since
``from .terms import type_of`` makes a separate binding in each
importing module; methods are replaced on their class.  Spans are kept
in memory; ``summary`` turns them into per-function totals and
per-module self time (span time minus the time its child spans cover).
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

MODULES = ("semantics", "terms", "reduction", "analysis", "harness",
           "parser", "printer", "cli")

# (module, function) pairs that get a span.
SPANS = [
    ("semantics", "eval_term"), ("semantics", "lfp"), ("semantics", "enumerate_domain"),
    ("terms", "type_of"), ("terms", "y_truncate"), ("terms", "tilde_omega_map"),
    ("reduction", "normalize"), ("reduction", "assured_normalize"),
    ("reduction", "long_normal_form"), ("reduction", "eliminate_omega"),
    ("analysis", "has_normal_form"), ("analysis", "has_head_normal_form"),
    ("analysis", "certified_normalize"), ("analysis", "tilde_Y"),
    ("harness", "check_defines"), ("harness", "conservativity_pipeline"),
    ("parser", "parse_term"), ("printer", "term_to_str"),
]
# (module, class, method) triples that get a span or only a counter.
METHOD_SPANS = [("semantics", "Domain", "covers")]
METHOD_COUNTERS = [("semantics", "Element", "apply"), ("semantics", "Element", "table")]
# Functions counted without a span when called from these modules.
COUNT_ONLY_IN = {("terms", "type_of"): {"semantics"}}


def _term_nodes(t) -> int:
    """Node count of a yflow term, read through its public fields."""
    n, stack = 0, [t]
    while stack:
        s = stack.pop()
        n += 1
        for attr in ("body", "fun", "arg"):
            child = getattr(s, attr, None)
            if child is not None:
                stack.append(child)
    return n


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._seen_errors: set[int] = set()
        self._domains: dict = {}  # type -> Domain returned since the last clear
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def span(self, name: str):
        tracer = self

        class _Span:
            def __enter__(self):
                self.idx = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append([name, time.perf_counter(), None, parent])
                tracer._stack.append(self.idx)
                return self

            def __exit__(self, exc_type, exc, tb):
                tracer.spans[self.idx][2] = time.perf_counter()
                tracer._stack.pop()
                if exc is not None and id(exc) not in tracer._seen_errors:
                    tracer._seen_errors.add(id(exc))
                    tracer.errors[(name.split(".")[0], type(exc).__name__)] += 1
                return False

        return _Span()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, post=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if post is not None:
                post(out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _enumerate_wrapper(self, fn):
        tracer = self
        name = "semantics.enumerate_domain"

        def wrapper(ty, *args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            known = tracer._domains.get(ty)
            if known is not None:
                out = fn(ty, *args, **kwargs)
                if out is known:
                    tracer.counts[name + ".hits"] += 1
                    return out
            else:
                with tracer.span(name):
                    out = fn(ty, *args, **kwargs)
            tracer._domains[ty] = out
            return out

        return wrapper

    def _post(self, name):
        if name == "reduction.normalize":
            return lambda out: self.counts.update(
                {"reduction.normalize.steps": getattr(out, "steps", 0)})
        if name == "terms.y_truncate":
            return lambda out: self.counts.update(
                {"terms.y_truncate.out_nodes": _term_nodes(out)})
        if name == "printer.term_to_str":
            return lambda out: self.counts.update({"printer.term_to_str.chars": len(out)})
        if name == "harness.check_defines":
            return lambda out: self.counts.update(
                {"harness.check_defines.rows": len(out.rows)})
        return None

    def _replace(self, obj, attr, new):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "yflow" or name.startswith("yflow.")}
        for module, fn_name in SPANS:
            original = getattr(mods[f"yflow.{module}"], fn_name)
            name = f"{module}.{fn_name}"
            if name == "semantics.enumerate_domain":
                spanned = self._enumerate_wrapper(original)
            else:
                spanned = self._span_wrapper(name, original, self._post(name))
            counted = self._count_wrapper(name, original)
            for mod_name, mod in mods.items():
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        short = mod_name.rpartition(".")[2]
                        use = counted if short in COUNT_ONLY_IN.get(
                            (module, fn_name), ()) else spanned
                        self._replace(mod, attr, use)
        for module, cls_name, meth in METHOD_SPANS:
            cls = getattr(mods[f"yflow.{module}"], cls_name)
            name = f"{module}.{cls_name}.{meth}"
            self._replace(cls, meth, self._span_wrapper(name, getattr(cls, meth)))
        for module, cls_name, meth in METHOD_COUNTERS:
            cls = getattr(mods[f"yflow.{module}"], cls_name)
            name = f"{module}.{cls_name}.{meth}"
            self._replace(cls, meth, self._count_wrapper(name, getattr(cls, meth)))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    def domain_cache_cleared(self) -> None:
        self._domains.clear()

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Totals per function (nested calls of the same function counted
        once) and self time per module."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {f"{m}.self_s": 0.0 for m in MODULES}
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name.split(".")[0] + ".self_s"] += (end - start) - child_time[i]
            ancestor, nested = parent, False
            while ancestor >= 0:
                if self.spans[ancestor][0] == name:
                    nested = True
                    break
                ancestor = self.spans[ancestor][3]
            if not nested:
                out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
        out.update({k: float(v) for k, v in self.counts.items()})
        for m in MODULES:
            out[f"{m}.errors"] = float(sum(v for (mod, _), v in self.errors.items()
                                           if mod == m))
        calls = self.counts["semantics.enumerate_domain.calls"]
        out["semantics.enumerate_domain.hit_ratio"] = (
            self.counts["semantics.enumerate_domain.hits"] / calls if calls else 0.0)
        return out
