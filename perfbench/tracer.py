"""Span tracing of the nrcodes layers, installed from outside the package.

Every public function of the traced modules is replaced, in each nrcodes
namespace that holds it, by a wrapper that records a span: name, start,
end, parent span and op id.  `report` and `cli` import names directly
(`from .symmetry import find_equivalence`), so patching only the defining
module would miss their calls.  Spans stay in memory and are written out
by `Tracer.write` when the traced pass ends.

Two private hooks give the search counters.  `symmetry._Budget.charge` is
called once per backtrack node and is charged to the innermost open span,
so `nodes` is a self count like `self_s`.  `symmetry._search_permutation`
is the search itself; its non-None returns over its calls is the hit ratio.
If a later change renames either one, the metric is reported as
unavailable instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("codes", "spectrum", "symmetry", "report", "cli")

# Public helpers that run once per word or per serialized value.  Wrapping
# them would swamp the trace; their cost shows in their callers' self time.
PER_ELEMENT = {
    "codes.project_word",
    "report.fmt",
    "symmetry.permute_bits",
    "symmetry.unpermute_bits",
}

# Class entry points: the constructor of Code (it runs the minimum-distance
# scan) and the Schreier-Sims order of PermGroup.
METHODS = (("codes", "Code", "__init__", "codes.Code"),
           ("symmetry", "PermGroup", "order", "symmetry.PermGroup.order"))

# Span fields, stored as lists to keep the per-call cost low.
NAME, START, END, PARENT, OP, ERROR, NODES = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = "setup"
        self.nodes_hooked = False
        self.search_calls = 0
        self.search_hits = 0
        self.search_hooked = False
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.op, False, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        """Restore every patched name; `install` may be called again."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def install(self) -> None:
        """Patch the already imported nrcodes modules in place."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "nrcodes" or n.startswith("nrcodes.")]
        for layer in LAYERS:
            module = sys.modules[f"nrcodes.{layer}"]
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in PER_ELEMENT
                        or getattr(obj, "__module__", None) != module.__name__
                        or inspect.isclass(obj) or not callable(obj)):
                    continue
                wrapped = self._wrap(name, obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, key, wrapped)
        for layer, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"nrcodes.{layer}"], cls_name)
            self._patch(cls, method, self._wrap(name, getattr(cls, method)))
        self._hook_search(sys.modules["nrcodes.symmetry"])

    def _hook_search(self, symmetry) -> None:
        spans, stack = self.spans, self.stack
        budget = getattr(symmetry, "_Budget", None)
        charge = getattr(budget, "charge", None)
        if charge is not None:
            def counted_charge(tracker):
                if stack:
                    spans[stack[-1]][NODES] += 1
                return charge(tracker)
            self._patch(budget, "charge", counted_charge)
            self.nodes_hooked = True
        search = getattr(symmetry, "_search_permutation", None)
        if search is not None:
            def counted_search(*args, **kwargs):
                self.search_calls += 1
                result = search(*args, **kwargs)
                if result is not None:
                    self.search_hits += 1
                return result
            self._patch(symmetry, "_search_permutation", counted_search)
            self.search_hooked = True

    def summary(self, pass_start: float, pass_end: float) -> dict:
        """Per-function calls, self time, errors and self nodes.

        Self time is a span's duration minus its wrapped children's; calls
        are single-threaded and properly nested, so children never
        overlap.  `uncovered_s` is the part of the timed pass that no
        top-level span covers.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        layers: dict[str, dict] = {}
        covered = 0.0
        for span, inner in zip(self.spans, child_s):
            duration = span[END] - span[START]
            stats = layers.setdefault(
                span[NAME], {"calls": 0, "self_s": 0.0, "errors": 0, "nodes": 0})
            stats["calls"] += 1
            stats["self_s"] += duration - inner
            stats["errors"] += span[ERROR]
            stats["nodes"] += span[NODES]
            if span[PARENT] < 0 and span[OP] != "setup":
                covered += duration
        return {
            "layers": layers,
            "nodes_available": self.nodes_hooked,
            "search_available": self.search_hooked,
            "search_calls": self.search_calls,
            "search_hits": self.search_hits,
            "uncovered_s": (pass_end - pass_start) - covered,
        }

    def write(self, path) -> None:
        fields = ("name", "start", "end", "parent", "op", "error", "nodes")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
