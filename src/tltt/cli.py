"""Command line interface.

Exit codes: 0 all checks pass, 1 a check or verification failed, 2 usage,
dimension, or I/O errors.  With ``--json`` exactly one JSON document is
printed on standard output; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import random
import sys

from . import kernel, simplex
from .categories import (
    constant_diagram, diagram_nat_transforms, exponential_diagram,
    family_key, limit_direct, limit_recursive, nat_key,
    random_diagram, random_inverse_category, semisimplex_category,
    sset_to_diagram,
)
from .classifier import iter_classifier_elements, round_trip
from .corpus import run_corpus
from .fixtures import load_fixture
from .nerve import nerve, segal_report
from .syntax import ResolveError, SyntaxError_, parse, resolve


def _emit(args, doc: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, default=str))
    else:
        for line in human_lines:
            print(line)


def _max_dim(args) -> int:
    if args.max_dim is not None:
        return args.max_dim
    env = os.environ.get("TLTT_MAX_DIM")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(2)
    return simplex.MAX_DIM


def cmd_check(args) -> int:
    ck = kernel.Checker()
    reports = []
    status = 0
    for name in args.files:
        path = pathlib.Path(name)
        try:
            mod = resolve(parse(path.read_text(), str(path)), set(ck.env))
        except OSError as e:
            print(str(e), file=sys.stderr)
            return 2
        except (SyntaxError_, ResolveError) as e:
            print(str(e), file=sys.stderr)
            reports.append({"path": str(path), "status": "fail",
                            "error": str(e)})
            status = 1
            continue
        rep = kernel.check_module(ck, mod)
        reports.append(rep.to_json())
        if not rep.ok:
            if rep.error:
                print(rep.error, file=sys.stderr)
            status = 1
    _emit(args, {"status": "pass" if status == 0 else "fail",
                 "files": reports},
          [f"{r['path']}: {r['status']}" for r in reports])
    return status


def cmd_corpus_run(args) -> int:
    root = pathlib.Path(args.dir) if args.dir else None
    if root is not None and not root.is_dir():
        print(f"not a directory: {root}", file=sys.stderr)
        return 2
    report = run_corpus(root=root)
    ok = report.ok and not report.coverage_gaps()
    lines = [f"{r.path}: {'pass' if r.ok else 'fail'}"
             for r in report.reports]
    for err in report.errors:
        print(err, file=sys.stderr)
    for gap in report.coverage_gaps():
        lines.append(f"coverage gap: {gap}")
    lines.append(f"corpus: {'pass' if ok else 'fail'}")
    _emit(args, report.to_json(), lines)
    return 0 if ok else 1


def cmd_horn_factor(args) -> int:
    n, k = args.n, args.k
    if n < 1 or not 0 <= k <= n:
        print(f"horn index {k} out of range for [{n}]", file=sys.stderr)
        return 2
    if n > _max_dim(args):
        print(f"dimension {n} exceeds the cap {_max_dim(args)}",
              file=sys.stderr)
        return 2
    try:
        fac = simplex.factor_spine_to_horn(n, k)
    except simplex.UnsupportedHorn as e:
        print(str(e), file=sys.stderr)
        return 1
    except simplex.DimensionError as e:
        print(str(e), file=sys.stderr)
        return 2
    doc = fac.to_json()
    _emit(args, doc,
          [f"spine({n}) -> horn({n},{k}): {doc['length']} removed cells, "
           f"{len(doc['steps'])} pushout steps"]
          + [f"  S={st['S']} h={st['h']} inner={st['inner']}"
             for st in doc["steps"]])
    return 0


def _fixture_sset(args, depth: int):
    fx = load_fixture(args.fixture)
    if fx.sset is not None:
        return fx.sset
    if fx.category is not None:
        return nerve(fx.category, depth)
    raise SystemExit(2)


def cmd_yoneda(args) -> int:
    depth = min(3, _max_dim(args))
    try:
        x = _fixture_sset(args, depth)
    except (OSError, ValueError) as e:
        print(str(e), file=sys.stderr)
        return 2
    checks = []
    ok = True
    top = min(x.truncation, depth)
    c = semisimplex_category(x.truncation)
    diagram = sset_to_diagram(x, c)
    from .categories import matching_object
    for n in range(top + 1):
        nats, mapping = simplex.yoneda_bijection(n, x)
        bij = sorted(map(str, mapping.values())) == sorted(
            map(str, x.levels[n]))
        ok = ok and bij and len(nats) == len(x.levels[n])
        entry = {"n": n, "nat_full": len(nats), "cells": len(x.levels[n]),
                 "yoneda_bijective": bij}
        bnats = simplex.nat_transforms(simplex.boundary_subfunctor(n), x)
        families, _ = matching_object(diagram, n, ambient=c)
        entry["nat_boundary"] = len(bnats)
        entry["matching"] = len(families)
        ok = ok and len(bnats) == len(families)
        checks.append(entry)
    _emit(args, {"status": "pass" if ok else "fail", "checks": checks},
          [f"n={c_['n']}: Nat(full)={c_['nat_full']} cells={c_['cells']} "
           f"Nat(boundary)={c_['nat_boundary']} matching={c_['matching']}"
           for c_ in checks] + [f"yoneda: {'pass' if ok else 'fail'}"])
    return 0 if ok else 1


def cmd_limits(args) -> int:
    base_seed = args.seed or 0
    ok = True
    results = []
    for i in range(args.seeds):
        rng = random.Random(base_seed + i)
        cat = random_inverse_category(rng)
        diagram = random_diagram(rng, cat)
        direct = {family_key(f) for f in limit_direct(diagram)}
        recursive = {family_key(f) for f in limit_recursive(diagram)}
        same = direct == recursive
        ok = ok and same
        results.append({"seed": base_seed + i, "size": len(direct),
                        "agree": same})
    _emit(args, {"status": "pass" if ok else "fail", "runs": results},
          [f"seed {r['seed']}: limit size {r['size']} "
           f"{'agree' if r['agree'] else 'DISAGREE'}" for r in results]
          + [f"limits: {'pass' if ok else 'fail'}"])
    return 0 if ok else 1


def cmd_segal(args) -> int:
    depth = min(args.levels, _max_dim(args))
    try:
        x = _fixture_sset(args, depth)
    except (OSError, ValueError) as e:
        print(str(e), file=sys.stderr)
        return 2
    top = min(depth, x.truncation)
    verdicts = segal_report(x, top)
    ok = all(v.bijective for v in verdicts)
    _emit(args, {"status": "pass" if ok else "fail",
                 "levels": [v.to_json() for v in verdicts]},
          [f"n={v.n}: cells={v.cells} spines={v.spines} "
           f"bijective={v.bijective}" for v in verdicts]
          + [f"segal: {'pass' if ok else 'fail'}"])
    return 0 if ok else 1


_LABELS = "abcdefgh"
# Most classifier elements a run enumerates; the count stops one past it.
CLASSIFIER_CAP = 100000


def _universe(max_card: int) -> list[tuple]:
    return [tuple(_LABELS[:c]) for c in range(max_card + 1)]


def cmd_classifier(args) -> int:
    n = args.n
    if n < 0 or n > _max_dim(args):
        print(f"stage {n} out of range", file=sys.stderr)
        return 2
    ambient = semisimplex_category(max(n, 1))
    base = constant_diagram(ambient.truncate_below(n), ("*",))
    universe = _universe(args.max_card)
    count = sum(1 for _ in itertools.islice(
        iter_classifier_elements(ambient, n, base, universe),
        CLASSIFIER_CAP + 1))
    if count > CLASSIFIER_CAP:
        message = "enumeration size cap exceeded"
        print(message, file=sys.stderr)
        if args.json:
            print(json.dumps({"status": "error", "error": message}))
        return 2
    ok = True
    failures = []
    for x in iter_classifier_elements(ambient, n, base, universe):
        rt = round_trip(ambient, x, base)
        if not rt.ok:
            ok = False
            failures.append(rt.to_json())
    _emit(args, {"status": "pass" if ok else "fail", "n": n,
                 "count": count, "round_trip_failures": failures},
          [f"stage {n}: {count} elements",
           f"round trips: {'pass' if ok else 'fail'}"])
    return 0 if ok else 1


def cmd_exponential(args) -> int:
    try:
        fx = load_fixture(args.fixture)
    except (OSError, ValueError) as e:
        print(str(e), file=sys.stderr)
        return 2
    if "F" not in fx.diagrams or "G" not in fx.diagrams:
        print("fixture must define diagrams F and G", file=sys.stderr)
        return 2
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
        image.add(nat_key(out))
    ok = (len(lim) == len(nats) == len(image)
          and image == {nat_key(t) for t in nats})
    _emit(args, {"status": "pass" if ok else "fail",
                 "limit": len(lim), "nat": len(nats),
                 "exponential_sizes": {str(d): len(v)
                                       for d, v in exp.values.items()}},
          [f"lim [F,G] = {len(lim)}, Nat(F,G) = {len(nats)}",
           f"exponential: {'pass' if ok else 'fail'}"])
    return 0 if ok else 1


_GLOBAL_DEFAULTS = {"json": False, "seed": None, "max_dim": None}


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit one JSON document on stdout")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="base seed for randomized labs")
    common.add_argument("--max-dim", type=int, default=argparse.SUPPRESS,
                        help="dimension cap (default: TLTT_MAX_DIM or 12)")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    for attr, default in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, attr):
            setattr(args, attr, default)
    try:
        return args.func(args)
    except simplex.DimensionError as e:
        print(str(e), file=sys.stderr)
        return 2
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
