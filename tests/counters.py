"""In-process counters of the kernel, printer and front-end work that
perfbench's tracer does not see: it counts calls of the public walkers
(`whnf`, `convert`, `subst`, ...), not the spines they split, the ι steps
they try, the naming walks the printer runs, the term nodes they build or
the source positions the front end works out.

`counting()` counts, while its block runs,

- `spine`: calls of `syntax.spine` where the kernel looks it up
  (`kernel.spine`);
- `whnf`: calls of `kernel.Checker.whnf`;
- `_iota`: calls of `kernel.Checker._iota`;
- `_nodes`: calls of `syntax._nodes`, the printer's naming walk;
- `App.__init__`: application nodes built, by anyone;
- `place`: positions worked out, the calls of `syntax.Tokens.place` (of
  `syntax.Parser.place` at an older checkout, where the parser placed);
- `tokens`: tokens lexed, EOF included (the tracer's `syntax.tokens`);
- `refs`: names not bound by a binder that the parser recorded, over the
  modules it parsed.

A name that the checkout lacks (an older parent) is not counted, and reads
`null` in the script's JSON.

`count_pass` counts one pass over a perfbench workload's items, each called
once (set-up, and each item's check of its answer, are not counted).  Run
as a script, it prints those counts as JSON, for the checkout at `--root`
(default: this one), so a before/after pair is two commands:

    python3 tests/counters.py numerals --seed 5
    python3 tests/counters.py numerals --seed 5 --root PARENT_CHECKOUT
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import json
import pathlib
import sys
from collections import Counter
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parents[1]
# The `tltt` modules a perfbench workload reads, as `perfbench/run.py` lists
TLTT_MODULES = ("syntax", "kernel", "corpus", "categories", "simplex",
                "nerve", "classifier", "fixtures", "cli")
COUNTED = ("spine", "whnf", "_iota", "_nodes", "App.__init__",
           "place", "tokens", "refs")


def _refs(mod) -> int:
    """The names `mod`'s parser recorded, counted by their tokens (placing
    them would count as positions), or, at an older checkout that placed
    each as it parsed, by their positions."""
    return sum(len(d.ref_tokens) if hasattr(d, "ref_tokens") else len(d.refs)
               for d in mod.decls)


@contextlib.contextmanager
def counting():
    """A `Counter` of each of `COUNTED` that the checkout has, while the
    block runs."""
    from tltt import kernel, syntax
    counts = Counter()
    tokens = getattr(syntax, "Tokens", None)
    placer = tokens if hasattr(tokens, "place") else syntax.Parser
    # (owner, attribute, name, what a call adds: 1, or a function of its result)
    targets = [(kernel, "spine", "spine", None),
               (kernel.Checker, "whnf", "whnf", None),
               (kernel.Checker, "_iota", "_iota", None),
               (syntax, "_nodes", "_nodes", None),
               (syntax.App, "__init__", "App.__init__", None),
               (placer, "place", "place", None),
               (syntax, "tokenize", "tokens", len),
               (syntax.Parser, "module", "refs", _refs)]
    targets = [t for t in targets if hasattr(t[0], t[1])]

    def counted(name, fn, measure):
        def call(*args):
            out = fn(*args)
            counts[name] += 1 if measure is None else measure(out)
            return out
        return call

    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, measure in targets:
            counts[name] = 0
            setattr(owner, attr, counted(name, getattr(owner, attr), measure))
        yield counts
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def count_pass(workloads, workload: str, seed: int) -> Counter:
    """The counts over one pass of the items of `workload` at `seed`, built
    by `workloads` (perfbench's module); every item must be answered
    right."""
    tl = SimpleNamespace(**{m: importlib.import_module(f"tltt.{m}")
                            for m in TLTT_MODULES})
    items = workloads.WORKLOADS[workload](tl, seed).items
    with counting() as counts:
        outs = [item.call() for item in items]
    wrong = [item.label for item, out in zip(items, outs)
             if not item.check(out)]
    if wrong:
        raise AssertionError(f"wrong answers: {wrong}")
    return counts


def load_perfbench(name: str, root: pathlib.Path = ROOT):
    """`perfbench/<name>.py` of the checkout at `root`, loaded from its file
    as the module `perfbench_<name>`.  It is in `sys.modules` only while it
    runs, where its dataclasses look it up, so a caller finds `sys.modules`
    as it was."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", root / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload")
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--root", type=pathlib.Path, default=ROOT,
                   help="the checkout whose src/ and perfbench/ are counted")
    a = p.parse_args()
    root = a.root.resolve()
    sys.path.insert(0, str(root / "src"))
    import tltt
    if root / "src" not in pathlib.Path(tltt.__file__).resolve().parents:
        sys.exit(f"imported tltt from outside {root}: {tltt.__file__}")
    counts = count_pass(load_perfbench("workloads", root), a.workload, a.seed)
    print(json.dumps({"workload": a.workload, "seed": a.seed,
                      "counts": {name: counts.get(name)
                                 for name in COUNTED}}))


if __name__ == "__main__":
    main()
