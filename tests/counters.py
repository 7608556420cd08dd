"""In-process counters of the kernel and printer work that perfbench's tracer
does not see: it counts calls of the public walkers (`whnf`, `convert`,
`subst`, ...), not the spines they split, the ι steps they try, the naming
walks the printer runs or the term nodes they build.

`counting()` counts, while its block runs, the calls of

- `spine`: `syntax.spine` where the kernel looks it up (`kernel.spine`);
- `whnf`: `kernel.Checker.whnf`;
- `_iota`: `kernel.Checker._iota`;
- `_nodes`: `syntax._nodes`, the printer's naming walk;
- `App.__init__`: application nodes built, by anyone.

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
COUNTED = ("spine", "whnf", "_iota", "_nodes", "App.__init__")


@contextlib.contextmanager
def counting():
    """A `Counter` of the calls of each of `COUNTED` while the block runs."""
    from tltt import kernel, syntax
    counts = Counter({name: 0 for name in COUNTED})
    targets = [(kernel, "spine", "spine"), (kernel.Checker, "whnf", "whnf"),
               (kernel.Checker, "_iota", "_iota"),
               (syntax, "_nodes", "_nodes"),
               (syntax.App, "__init__", "App.__init__")]

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, counted(name, getattr(owner, attr)))
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
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # dataclasses look it up
    spec.loader.exec_module(workloads)
    counts = count_pass(workloads, a.workload, a.seed)
    print(json.dumps({"workload": a.workload, "seed": a.seed,
                      "counts": dict(counts)}))


if __name__ == "__main__":
    main()
