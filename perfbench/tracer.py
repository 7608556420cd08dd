"""Spans and counters around the public functions of `tltt`, installed from
outside the package.

A span wraps a function where its callers look it up: the wrapper replaces
the function in every `tltt` module that holds it under that name (so
`corpus.parse` and `syntax.parse` are wrapped together), or on the class for
a method.  A span records name, start, end, parent span and item id, and is
kept in memory until the run writes it out.  The hot recursive kernel
methods and the `shift`/`subst` the kernel calls are counted, not spanned:
one span per call would swamp the timing.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter
from time import perf_counter

# (module, attribute, extra count taken from the result).  "Class.method"
# attributes are wrapped on the class.
SPANNED = (
    ("syntax", "tokenize", ("syntax.tokens", len)),
    ("syntax", "parse", None),
    ("syntax", "resolve", None),
    ("kernel", "check_module", None),
    ("corpus", "run_corpus", None),
    ("categories", "limit_direct", ("categories.limit_direct.solutions", len)),
    ("categories", "limit_recursive", None),
    ("categories", "diagram_nat_transforms",
     ("categories.diagram_nat_transforms.solutions", len)),
    ("categories", "exponential_diagram", None),
    ("categories", "matching_object", None),
    ("categories", "reduced_coslice", None),
    ("categories", "FinCat.validate", None),
    ("categories", "SetDiagram.validate", None),
    ("simplex", "factor_spine_to_horn", None),
    ("simplex", "Factorization.sieves", None),
    ("simplex", "nat_transforms", ("simplex.nat_transforms.solutions", len)),
    ("simplex", "yoneda_bijection", None),
    ("nerve", "nerve", None),
    ("nerve", "segal_report", None),
    ("nerve", "compare_pointed_nerves", None),
    ("classifier", "classifier_elements",
     ("classifier.classifier_elements.elements", len)),
    ("classifier", "round_trip", None),
    ("fixtures", "load_fixture", None),
    ("cli", "main", None),
)

# Counted only.  `shift`/`subst` are counted where the kernel looks them up,
# so their own recursion inside `syntax` is not counted.
COUNTED = (
    ("kernel", "Checker.check_decl", "kernel.check_decl.calls"),
    ("kernel", "Checker.whnf", "kernel.whnf.calls"),
    ("kernel", "Checker.convert", "kernel.convert.calls"),
    ("kernel", "Checker.infer", "kernel.infer.calls"),
    ("kernel", "Checker.check", "kernel.check.calls"),
    ("kernel", "subst", "syntax.subst.calls"),
    ("kernel", "shift", "syntax.shift.calls"),
)


class Tracer:
    """Records spans and counts while installed on a set of modules."""

    def __init__(self, modules: dict):
        self.modules = modules          # short name -> imported tltt module
        self.spans: list[list] = []     # [name, start, end, parent, item]
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, extra):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else -1, self.item])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            counts[calls] += 1
            if extra is not None:
                counts[extra[0]] += extra[1](result)
            return result

        return wrapped

    def _counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / uninstall ----------------------------------------------

    def _patch(self, module: str, attr: str, make, everywhere=True) -> None:
        """Replace `module.attr` by `make(original)`: on the class for a
        method; otherwise in every module that holds the same function, or
        only in `module` when `everywhere` is false."""
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(self.modules[module], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        owner = self.modules[module]
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod in self.modules.values() if everywhere else (owner,):
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self) -> None:
        for module, attr, extra in SPANNED:
            name = f"{module}.{attr}"
            self._patch(module, attr,
                        lambda fn, name=name, extra=extra:
                        self._span(name, fn, extra))
        for module, attr, key in COUNTED:
            self._patch(module, attr,
                        lambda fn, key=key: self._counter(key, fn),
                        everywhere=False)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> Counter:
        """Span name -> summed self time (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name + ".self_s"] += (end - start) - child[i]
        return out

    def write(self, path: pathlib.Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header,
                   counts=dict(sorted(self.counts.items())),
                   fields=["name", "start", "end", "parent", "item"],
                   spans=self.spans)
        path.write_text(json.dumps(doc))
