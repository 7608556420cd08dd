"""Command line interface.

Each command returns a verdict ``(ok, doc, lines)`` or raises; ``main`` alone
turns either into output and an exit code.  For a verdict it prints, under
``--json``, ``doc`` as the one JSON document on stdout with ``"status"``
(``"pass"`` or ``"fail"``) as its first key, and otherwise the human
``lines`` followed by one ``COMMAND: pass|fail`` line; it exits 0 exactly
when ``ok``.  Exit codes: 0 pass, 1 a check failed or the horn is
unsupported, 2 usage, range, dimension, fixture, I/O and memory errors and
interrupts.  An error is printed on stderr and, under ``--json``, as the one
JSON document ``{"status": "error", "error": message}``.  Fixture errors
name the JSON path that failed.  Diagnostics go to stderr, and a closed
stderr is ignored: it never decides the exit code.  When stdout is closed
early, only the error line is printed, on stderr, and the exit code is 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import random
import sys

from . import kernel, simplex
from .categories import (
    constant_diagram, diagram_nat_transforms, exponential_diagram,
    family_key, limit_direct, limit_recursive, matching_object,
    random_diagram, random_inverse_category, semisimplex_category,
)
from .classifier import (count_classifier_elements, iter_classifier_elements,
                         round_trip)
from .corpus import check_file, run_corpus
from .fixtures import FixtureError, load_fixture
from .nerve import nerve, segal_report

# (ok, the JSON document without its status, the human lines)
Verdict = tuple[bool, dict, list[str]]


def _at_least(low: int, name: str, value: int) -> int:
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def _max_dim(args) -> int:
    """The dimension cap: `--max-dim`, else `TLTT_MAX_DIM`, else
    `simplex.MAX_DIM`, which no cap may exceed."""
    name, value = "--max-dim", args.max_dim
    if value is None:
        name, env = "TLTT_MAX_DIM", os.environ.get("TLTT_MAX_DIM",
                                                   str(simplex.MAX_DIM))
        if not env.strip().isdecimal():
            raise ValueError(
                f"TLTT_MAX_DIM must be a non-negative integer, got {env!r}")
        value = int(env)
    if not 0 <= value <= simplex.MAX_DIM:
        raise ValueError(f"{name} must be between 0 and {simplex.MAX_DIM}, "
                         f"got {value}")
    return value


def cmd_check(args) -> Verdict:
    ck = kernel.Checker()
    reports = []
    for name in args.files:
        reports.append(check_file(ck, pathlib.Path(name)))
        if reports[-1].error:
            _write(sys.stderr, reports[-1].error)
    files = [r.to_json() for r in reports]
    return (all(r.ok for r in reports), {"files": files},
            [f"{f['path']}: {f['status']}" for f in files])


def cmd_corpus_run(args) -> Verdict:
    root = pathlib.Path(args.dir) if args.dir else None
    if root is not None and not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")
    report = run_corpus(root=root)
    for err in report.errors:
        _write(sys.stderr, err)
    doc = report.to_json()
    return (doc["status"] == "pass", doc,
            [f"{r.path}: {'pass' if r.ok else 'fail'}" for r in report.reports]
            + [f"coverage gap: {gap}" for gap in doc["coverage_gaps"]])


def cmd_horn_factor(args) -> Verdict:
    n, k = args.n, args.k
    cap = _max_dim(args)
    if n > cap:
        raise simplex.DimensionError(f"dimension {n} exceeds the cap {cap}")
    doc = simplex.factor_spine_to_horn(n, k).to_json()
    return (True, doc,
            [f"spine({n}) -> horn({n},{k}): {doc['length']} removed cells, "
             f"{len(doc['steps'])} pushout steps"]
            + [f"  S={st['S']} h={st['h']} inner={st['inner']}"
               for st in doc["steps"]])


def _fixture_sset(args, depth: int):
    fx = load_fixture(args.fixture)
    if fx.sset is not None:
        return fx.sset
    if fx.category is not None:
        return nerve(fx.category, depth)
    raise FixtureError("top level", "needs an 'sset' or a 'category'")


def cmd_yoneda(args) -> Verdict:
    depth = min(3, _max_dim(args))
    x = _fixture_sset(args, depth)
    checks = []
    ok = True
    top = min(len(x.cat.objects) - 1, depth)
    for n in range(top + 1):
        nats, mapping = simplex.yoneda_bijection(n, x)
        bij = (len(mapping) == len(x.values[n])
               and set(mapping.values()) == set(x.values[n]))
        ok = ok and bij and len(nats) == len(x.values[n])
        bnats = simplex.nat_transforms(simplex.boundary_subfunctor(n), x)
        families, _ = matching_object(x, n)
        ok = ok and len(bnats) == len(families)
        checks.append({"n": n, "nat_full": len(nats),
                       "cells": len(x.values[n]), "yoneda_bijective": bij,
                       "nat_boundary": len(bnats), "matching": len(families)})
    return (ok, {"checks": checks},
            [f"n={c_['n']}: Nat(full)={c_['nat_full']} cells={c_['cells']} "
             f"Nat(boundary)={c_['nat_boundary']} matching={c_['matching']}"
             for c_ in checks])


def cmd_limits(args) -> Verdict:
    _at_least(1, "--seeds", args.seeds)
    base_seed = args.seed or 0
    results = []
    for i in range(args.seeds):
        rng = random.Random(base_seed + i)
        cat = random_inverse_category(rng)
        diagram = random_diagram(rng, cat)
        direct = {family_key(f) for f in limit_direct(diagram)}
        recursive = {family_key(f) for f in limit_recursive(diagram)}
        results.append({"seed": base_seed + i, "size": len(direct),
                        "agree": direct == recursive})
    return (all(r["agree"] for r in results), {"runs": results},
            [f"seed {r['seed']}: limit size {r['size']} "
             f"{'agree' if r['agree'] else 'DISAGREE'}" for r in results])


def cmd_segal(args) -> Verdict:
    depth = min(_at_least(1, "--levels", args.levels), _max_dim(args))
    x = _fixture_sset(args, depth)
    top = min(depth, len(x.cat.objects) - 1)
    if top < 1:
        raise ValueError(
            f"no level to check: the Segal condition starts at level 1, "
            f"and the levels stop at {top}")
    verdicts = segal_report(x, top)
    return (all(v.bijective for v in verdicts),
            {"levels": [v.to_json() for v in verdicts]},
            [f"n={v.n}: cells={v.cells} spines={v.spines} "
             f"bijective={v.bijective}" for v in verdicts])


_LABELS = "abcdefgh"
# Most elements a classifier stage may have; a larger one is refused.
CLASSIFIER_CAP = 100000


def _universe(max_card: int) -> list[tuple]:
    if not 0 <= max_card <= len(_LABELS):
        raise ValueError(
            f"--max-card must be in 0..{len(_LABELS)}, got {max_card}")
    return [tuple(_LABELS[:c]) for c in range(max_card + 1)]


def cmd_classifier(args) -> Verdict:
    n = args.n
    if n < 0 or n > _max_dim(args):
        raise ValueError(f"stage {n} out of range")
    # stage n reads only the ranks below n
    c = semisimplex_category(n - 1)
    base = constant_diagram(c, ("*",))
    universe = _universe(args.max_card)
    count = count_classifier_elements(c, n, base, universe, CLASSIFIER_CAP)
    if count > CLASSIFIER_CAP:
        raise ValueError("enumeration size cap exceeded")
    trips = (round_trip(c, x, base)
             for x in iter_classifier_elements(c, n, base, universe))
    failures = [rt.to_json() for rt in trips if not rt.ok]
    return (not failures,
            {"n": n, "count": count, "round_trip_failures": failures},
            [f"stage {n}: {count} elements, "
             f"{len(failures)} round-trip failures"])


def cmd_exponential(args) -> Verdict:
    fx = load_fixture(args.fixture)
    if "F" not in fx.diagrams or "G" not in fx.diagrams:
        raise FixtureError("diagrams", "must define diagrams F and G")
    f, g = fx.diagrams["F"], fx.diagrams["G"]
    exp = exponential_diagram(f, g)
    lim = limit_direct(exp)
    nats = diagram_nat_transforms(f, g)
    cat = f.cat
    image = set()
    for fam in lim:
        out = {}
        for d in cat.objects:
            table = dict(fam[d])
            for u in f.values[d]:
                out[(d, u)] = table[(d, (u, cat.identity[d]))]
        image.add(family_key(out))
    return (len(lim) == len(nats) == len(image)
            and image == {family_key(t) for t in nats},
            {"limit": len(lim), "nat": len(nats),
             "exponential_sizes": {str(d): len(v)
                                   for d, v in exp.values.items()}},
            [f"lim [F,G] = {len(lim)}, Nat(F,G) = {len(nats)}"])


def build_parser() -> argparse.ArgumentParser:
    # the global flags are accepted before and after the subcommand; main
    # supplies their defaults
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit one JSON document on stdout")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="base seed for randomized labs")
    common.add_argument("--max-dim", type=int, default=argparse.SUPPRESS,
                        help="dimension cap (default: TLTT_MAX_DIM or 12)")
    p = argparse.ArgumentParser(
        prog="tltt", parents=[common],
        description="Two-level type theory reference checker and labs")
    sub = p.add_subparsers(dest="command", required=True)

    ck = sub.add_parser("check", parents=[common],
                        help="typecheck .tltt files in order")
    ck.add_argument("files", nargs="+")
    ck.set_defaults(func=cmd_check)

    co = sub.add_parser("corpus", help="corpus operations")
    cosub = co.add_subparsers(dest="corpus_command", required=True)
    run = cosub.add_parser("run", parents=[common],
                           help="check the shipped corpus")
    run.add_argument("dir", nargs="?", default=None)
    run.set_defaults(func=cmd_corpus_run)

    lab = sub.add_parser("lab", help="combinatorial labs")
    labsub = lab.add_subparsers(dest="lab_command", required=True)

    hf = labsub.add_parser("horn-factor", parents=[common],
                           help="factor the spine through horn pushouts")
    hf.add_argument("--n", type=int, required=True)
    hf.add_argument("--k", type=int, required=True)
    hf.set_defaults(func=cmd_horn_factor)

    yo = labsub.add_parser("yoneda", parents=[common],
                           help="representable and boundary counts")
    yo.add_argument("--fixture", default="poset012.json")
    yo.set_defaults(func=cmd_yoneda)

    li = labsub.add_parser("limits", parents=[common],
                           help="compare the two limit oracles")
    li.add_argument("--seeds", type=int, default=50)
    li.set_defaults(func=cmd_limits)

    se = labsub.add_parser("segal", parents=[common],
                           help="Segal condition on a fixture")
    se.add_argument("--fixture", default="poset012.json")
    se.add_argument("--levels", type=int, default=4)
    se.set_defaults(func=cmd_segal)

    cl = labsub.add_parser("classifier", parents=[common],
                           help="enumerate the diagram classifier")
    cl.add_argument("--n", type=int, default=2)
    cl.add_argument("--max-card", type=int, default=2)
    cl.set_defaults(func=cmd_classifier)

    ex = labsub.add_parser("exponential", parents=[common],
                           help="limit of the exponential vs Nat(F,G)")
    ex.add_argument("--fixture", default="spine_nerve.json")
    ex.set_defaults(func=cmd_exponential)

    return p


def _write(stream, text: str) -> OSError | None:
    """Print text on stream, or return the error when the stream is closed;
    then its file is the null device, where what is still buffered goes at
    exit, quietly.  Every output of `main` goes through here."""
    try:
        # print writes the newline on its own: when the stream is
        # unbuffered, a write that a closed pipe cuts short returns quietly,
        # the next fails
        print(text, file=stream, flush=True)
    except OSError as e:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return e
    return None


def _print(text: str, code: int) -> int:
    """Print text on stdout and return code, or, when stdout is closed, say
    so on stderr and return 2."""
    error = _write(sys.stdout, text)
    if error is not None:
        _write(sys.stderr, str(error))
        return 2
    return code


def _fail(as_json: bool, message: str, code: int) -> int:
    _write(sys.stderr, message)
    if as_json:
        return _print(json.dumps({"status": "error", "error": message}), code)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = argparse.Namespace(json=False, seed=None, max_dim=None)
    usage, help_text = io.StringIO(), io.StringIO()
    try:
        with (contextlib.redirect_stderr(usage),
              contextlib.redirect_stdout(help_text)):
            build_parser().parse_args(argv, namespace=args)
    except SystemExit as e:
        if not e.code:
            # `--help` printed its text; under --json it goes to stderr
            text = help_text.getvalue()
            if "--json" in argv:
                _write(sys.stderr, text.removesuffix("\n"))
                text = json.dumps({"status": "pass", "help": text})
            else:
                text = text.removesuffix("\n")     # print adds it back
            return _print(text, 0)
        # argparse printed its usage, then "tltt: error: MESSAGE"
        head, _, message = usage.getvalue().rstrip().rpartition("\n")
        _write(sys.stderr, head)
        return _fail("--json" in argv, message, 2)
    try:
        ok, doc, lines = args.func(args)
        status = "pass" if ok else "fail"
        if args.json:
            text = json.dumps({"status": status, **doc}, indent=2, default=str)
        else:
            command = getattr(args, "lab_command", args.command)
            text = "\n".join([*lines, f"{command}: {status}"])
    except (OSError, ValueError) as e:
        return _fail(args.json, str(e),
                     1 if isinstance(e, simplex.UnsupportedHorn) else 2)
    except (KeyboardInterrupt, MemoryError) as e:
        return _fail(args.json, "out of memory" if isinstance(e, MemoryError)
                     else "interrupted", 2)
    return _print(text, 0 if ok else 1)


if __name__ == "__main__":
    sys.exit(main())
