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

`reading()` counts, while its block runs, the entries that each validator
reads of its table by key: `FinCat.validate` of `compose`,
`SetDiagram.validate` of `action` (one read per `get` or `[]`, the inner
tables of the action not counted).  `setup_reads` counts them over a
workload's set-up, and `count_pass` over its items.

`count_pass` counts one pass over a perfbench workload's items, each called
once (set-up, and each item's check of its answer, are not counted).  Run
as a script, it prints those counts and the set-up's reads as JSON, for
the checkout at `--root` (default: this one), so a before/after pair is
two commands:

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
from collections.abc import Mapping
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


# The table each validator reads, by the validator's name
READ = {"FinCat.validate": "compose", "SetDiagram.validate": "action"}


class _Reads(Mapping):
    """`table`, adding 1 to `counts[name]` at each entry read by key."""

    def __init__(self, table, counts: Counter, name: str):
        self._table, self._counts, self._name = table, counts, name

    def __getitem__(self, key):
        self._counts[self._name] += 1
        return self._table[key]

    def __iter__(self):
        return iter(self._table)

    def __len__(self):
        return len(self._table)


@contextlib.contextmanager
def reading():
    """A `Counter` of the table entries each validator of `READ` reads
    while the block runs (a subclass's `validate` counts through its
    `super()` call)."""
    from tltt import categories
    counts = Counter({name: 0 for name in READ})

    def reads(name, validate, attr):
        def call(self):
            table = getattr(self, attr)
            setattr(self, attr, _Reads(table, counts, name))
            try:
                return validate(self)
            finally:
                setattr(self, attr, table)
        return call

    owners = {name: getattr(categories, name.split(".")[0]) for name in READ}
    saved = {name: owner.validate for name, owner in owners.items()}
    try:
        for name, owner in owners.items():
            owner.validate = reads(name, saved[name], READ[name])
        yield counts
    finally:
        for name, owner in owners.items():
            owner.validate = saved[name]


def _modules() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"tltt.{m}")
                              for m in TLTT_MODULES})


def setup_reads(workloads, workload: str, seed: int) -> Counter:
    """The validators' table reads (`reading`) while `workloads` (perfbench's
    module) builds the items of `workload` at `seed`."""
    tl = _modules()
    with reading() as reads:
        workloads.WORKLOADS[workload](tl, seed)
    return reads


def count_pass(workloads, workload: str, seed: int) -> Counter:
    """The counts over one pass of the items of `workload` at `seed`, built
    by `workloads` (perfbench's module), the validators' reads among them;
    every item must be answered right."""
    items = workloads.WORKLOADS[workload](_modules(), seed).items
    with counting() as counts, reading() as reads:
        outs = [item.call() for item in items]
    counts.update(reads)
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
    workloads = load_perfbench("workloads", root)
    counts = count_pass(workloads, a.workload, a.seed)
    print(json.dumps({"workload": a.workload, "seed": a.seed,
                      "counts": {name: counts.get(name)
                                 for name in COUNTED + tuple(READ)},
                      "setup_reads": setup_reads(workloads, a.workload,
                                                 a.seed)}))


if __name__ == "__main__":
    main()
