"""Span tracing and field-operation counting installed from outside the
library.

install() wraps the public functions of each discarr module, plus
Lattice.closure, and rebinds every discarr module attribute that holds
an original function, so calls through a name imported elsewhere (cli
imports quadral_points, discriminantal imports det) are traced too.
In cli only main is wrapped: the rest of cli is argument parsing and
report emission, which then shows as cli.main's self time.

Each call of a wrapped function is a span with a parent (the enclosing
span).  Spans are folded into per-name aggregates as they end: calls,
total time (outermost calls only, so recursion is not counted twice)
and self time (duration minus the time of child spans), plus a count of
every parent -> child edge.  Field multiplications and inversions are
counted at the descriptor payload hooks, per field kind; element and
descriptor equality tests are counted too.  All counts are attributed
to the span enclosing them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

MODULES = ("exactfield", "linalg", "arrangement", "discriminantal",
           "detectors", "permtype", "gallery", "cli")
METHODS = (("discriminantal", "Lattice", "closure"),)
ROOT = "<bench>"

# wrapped-name -> function computing a count from its return value
RESULT_COUNTERS = {
    "discriminantal.intersection_lattice":
        ("discriminantal.intersection_lattice.flats",
         lambda lat: sum(lat.counts().values())),
}


class Tracer:
    def __init__(self):
        self.stack = [[ROOT, 0.0]]  # frames: [name, child seconds]
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.edges = Counter()  # (parent name, child name) -> calls
        self.ops = Counter()  # (span name, op) -> count
        self.results = Counter()
        self.installed = set()  # wrapped names
        self._depth = Counter()
        self._undo = []  # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------
    def _span(self, name, fn):
        stack, depth = self.stack, self._depth
        calls, total_s, self_s, edges = self.calls, self.total_s, self.self_s, self.edges
        result_counter = RESULT_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if not depth[name]:
                    total_s[name] += dur
                edges[(parent[0], name)] += 1
                parent[1] += dur
            if result_counter is not None:
                self.results[result_counter[0]] += result_counter[1](result)
            return result

        return wrapper

    def _count(self, op, fn):
        stack, ops = self.stack, self.ops

        @functools.wraps(fn)
        def wrapper(*args):
            ops[(stack[-1][0], op)] += 1
            return fn(*args)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- installation -------------------------------------------------------
    def install(self, package) -> None:
        """Wrap discarr's public functions and count its field operations.
        package is the imported discarr package."""
        mods = {short: importlib.import_module(f"{package.__name__}.{short}")
                for short in MODULES}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        wrappers = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)
                        or (short == "cli" and attr != "main")):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(fn)] = self._span(name, fn)
                self.installed.add(name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._set(mod, attr, w)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name, None)
            if cls is not None and meth in vars(cls):
                name = f"{short}.{cls_name}.{meth}"
                self._set(cls, meth, self._span(name, vars(cls)[meth]))
                self.installed.add(name)

        ef = mods["exactfield"]
        for cls in vars(ef).values():
            if (inspect.isclass(cls) and issubclass(cls, ef.FieldDescriptor)
                    and cls is not ef.FieldDescriptor):
                for hook, op in (("_mul", "mul"), ("_inv", "inv")):
                    if hook in vars(cls):
                        self._set(cls, hook, self._count(f"{op}.{cls.kind}", vars(cls)[hook]))
        self._set(ef.FieldElement, "__eq__", self._count("eq", ef.FieldElement.__eq__))
        self._set(ef.FieldDescriptor, "__eq__",
                  self._count("descriptor_eq", ef.FieldDescriptor.__eq__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def summary(self) -> dict:
        """Aggregates as plain JSON-able data."""
        names = sorted(set(self.calls) | self.installed)
        op_totals = Counter()
        for (_, op), n in self.ops.items():
            op_totals[op] += n
        return {
            "installed": sorted(self.installed),
            "spans": {n: {"calls": self.calls[n], "total_s": self.total_s[n],
                          "self_s": self.self_s[n]} for n in names},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "ops": dict(sorted(op_totals.items())),
            "ops_by_span": [[s, op, n] for (s, op), n in sorted(self.ops.items())],
            "results": dict(sorted(self.results.items())),
        }


def merge(summaries) -> dict:
    """Sum several summaries (one per traced process)."""
    installed, spans, edges, ops, by_span, results = set(), {}, Counter(), Counter(), Counter(), Counter()
    for s in summaries:
        installed.update(s["installed"])
        for n, v in s["spans"].items():
            acc = spans.setdefault(n, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += v[key]
        for p, c, n in s["edges"]:
            edges[(p, c)] += n
        ops.update(s["ops"])
        for sp, op, n in s["ops_by_span"]:
            by_span[(sp, op)] += n
        results.update(s["results"])
    return {
        "installed": sorted(installed),
        "spans": dict(sorted(spans.items())),
        "edges": [[p, c, n] for (p, c), n in sorted(edges.items())],
        "ops": dict(sorted(ops.items())),
        "ops_by_span": [[s, op, n] for (s, op), n in sorted(by_span.items())],
        "results": dict(sorted(results.items())),
    }
