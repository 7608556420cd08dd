"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Each criterion is checked end to end with its runtime budget; the printed
line appears in the captured output section (run with ``-s`` or ``-rA`` to
see all lines).
"""

import itertools
import math
import random
import time

import pytest

from tltt.categories import (
    constant_diagram, diagram_nat_transforms, exponential_diagram,
    family_key, limit_direct, limit_recursive, matching_object, nat_key,
    random_diagram, random_inverse_category, semisimplex_category,
)
from tltt.classifier import ClassifierElement, classifier_elements, round_trip
from tltt.corpus import run_corpus
from tltt.fixtures import load_fixture
from tltt.kernel import KernelOptions, RESTRICTED_RULES, RULES
from tltt.nerve import (
    compare_pointed_nerves, nerve, segal_check, segal_report,
)
from tltt.simplex import (
    UnsupportedHorn, boundary_subfunctor, factor_spine_to_horn,
    full_subfunctor, horn_sieve, nat_transforms, yoneda_bijection,
    zigzag_sieve,
)

DEGENERATE = {(1, 0), (1, 1), (2, 0), (2, 2)}


def _report(num, title, ok, budget, elapsed):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"CRITERION {num} ({title}): {status} "
          f"[{elapsed:.1f}s < {budget:.0f}s]")
    assert ok, f"criterion {num}: {title}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_1_rule_coverage():
    t0 = time.monotonic()
    report = run_corpus()
    cov = report.coverage()
    ok = (report.ok
          and all(cov[r]["positive"] for r in RULES)
          and all(cov[r]["negative"] for r in RESTRICTED_RULES)
          and not report.coverage_gaps())
    _report(1, "rule coverage and green corpus", ok, 10,
            time.monotonic() - t0)


def test_criterion_2_fibrant_replacement_theorem():
    t0 = time.monotonic()
    clean = run_corpus()
    theorem_ok = any("02_fibrant_replacement" in r.path and r.ok
                     for r in clean.reports)
    no_beta = run_corpus(options=KernelOptions(js_beta=False))
    no_uip = run_corpus(options=KernelOptions(
        omit_consts=frozenset({"uip"})))
    mutations_fail = (
        not no_beta.ok
        and any("02_fibrant_replacement" in e for e in no_beta.errors)
        and not no_uip.ok
        and any("02_fibrant_replacement" in e for e in no_uip.errors))
    _report(2, "fibrant replacement implies sets, mutation-sensitive",
            clean.ok and theorem_ok and mutations_fail, 5,
            time.monotonic() - t0)


def test_criterion_3_horn_factorization():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 7):
        for k in range(n + 1):
            if (n, k) in DEGENERATE:
                # the spine is not inside these outer horns; the witness
                # must be a genuine counterexample
                try:
                    factor_spine_to_horn(n, k)
                    ok = False
                except UnsupportedHorn as e:
                    ok = ok and (e.witness in zigzag_sieve(n).members
                                 and e.witness not in horn_sieve(n, k).members)
                continue
            fac = factor_spine_to_horn(n, k)
            chain = fac.sieves()   # the chain factor_spine_to_horn validated
            ok = ok and fac.length == 2 ** (n + 1) - 2 * n - 4
            ok = ok and chain[-1] == zigzag_sieve(n)
            if 0 < k < n:
                ok = ok and all(s.inner for s in fac.steps)
    _report(3, "horn factorization length 2^(n+1)-2n-4", ok, 30,
            time.monotonic() - t0)


def test_criterion_4_yoneda_and_boundary():
    t0 = time.monotonic()
    x = nerve(load_fixture("poset012.json").category, 3)
    ok = True
    for n in range(4):
        nats, mapping = yoneda_bijection(n, x)
        ok = ok and len(nats) == len(x.values[n])
        ok = ok and sorted(map(str, mapping.values())) == \
            sorted(map(str, x.values[n]))
        bnats = nat_transforms(boundary_subfunctor(n), x)
        fams, proj = matching_object(x, n)
        ok = ok and len(bnats) == len(fams)
        # explicit bijection: a boundary transformation is exactly a
        # matching family indexed by the non-identity monos into [n]
        keys = {family_key(f) for f in fams}
        for t in bnats:
            fam = {("m", n, g.image): v
                   for (lvl, g), v in t.items()}
            ok = ok and family_key(fam) in keys
    _report(4, "Yoneda and boundary-vs-matching counts", ok, 30,
            time.monotonic() - t0)


def test_criterion_5_limit_oracles_200_seeds():
    t0 = time.monotonic()
    ok = True
    for seed in range(200):
        rng = random.Random(seed)
        cat = random_inverse_category(rng, max_objects=5, max_hom=3)
        diagram = random_diagram(rng, cat, max_card=4)
        direct = {family_key(f) for f in limit_direct(diagram)}
        recursive = {family_key(f) for f in limit_recursive(diagram)}
        ok = ok and direct == recursive
    _report(5, "limitRecursive vs limitDirect on 200 seeds", ok, 60,
            time.monotonic() - t0)


def test_criterion_6_exponential_identity():
    t0 = time.monotonic()
    ok = True
    for seed in range(100):
        rng = random.Random(1000 + seed)
        cat = random_inverse_category(rng, max_objects=3)
        f = random_diagram(rng, cat, max_card=2)
        g = random_diagram(rng, cat, max_card=2)
        lim = limit_direct(exponential_diagram(f, g))
        nats = diagram_nat_transforms(f, g)
        ok = ok and len(lim) == len(nats)
    fx = load_fixture("spine_nerve.json")
    f, g = fx.diagrams["F"], fx.diagrams["G"]
    lim = limit_direct(exponential_diagram(f, g))
    nats = diagram_nat_transforms(f, g)
    ok = ok and len(lim) == len(nats)
    _report(6, "lim [F,G] = Nat(F,G) on 100 seeds plus fixture", ok, 60,
            time.monotonic() - t0)


def test_criterion_7_segal():
    t0 = time.monotonic()
    x = nerve(load_fixture("poset012.json").category, 4)
    sizes = [len(x.values[k]) for k in range(5)]
    ok = sizes[:3] == [3, 6, 10]
    ok = ok and all(v.bijective for v in segal_report(x, 4))
    doctored = load_fixture("non_segal.json").sset
    ok = ok and not segal_check(doctored, 2).bijective
    _report(7, "nerves are Segal, doctored fixture fails at level 2", ok,
            10, time.monotonic() - t0)


def test_criterion_8_pointed_nerve():
    t0 = time.monotonic()
    ok = True
    universes = [[()], [("*",)], [(), ("*",)], [("*",), ("a", "b")],
                 [(), ("*",), ("a", "b")]]
    for universe in universes:
        cmp = compare_pointed_nerves(universe, 3)
        ok = (ok and cmp.pointed_counts == cmp.based_counts
              and cmp.bijective and cmp.natural)
    _report(8, "pointed nerve countA = countB with bijection", ok, 30,
            time.monotonic() - t0)


def test_criterion_9_classifier():
    t0 = time.monotonic()
    universe = [(), ("*",)]
    ambient = semisimplex_category(2)

    base0 = constant_diagram(ambient.truncate_below(0), ("*",))
    d0 = classifier_elements(ambient, 0, base0, universe)
    ok = d0 == [ClassifierElement(0, ())]

    base1 = constant_diagram(ambient.truncate_below(1), ("*",))
    d1 = classifier_elements(ambient, 1, base1, universe)
    ok = ok and len(d1) == 2

    base2 = constant_diagram(ambient.truncate_below(2), ("*",))
    d2 = classifier_elements(ambient, 2, base2, universe)
    for x in d1:
        ok = ok and round_trip(ambient, x, base1).ok
    for x in d2:
        ok = ok and round_trip(ambient, x, base2).ok
    universe3 = [(), ("*",), ("a", "b")]
    for x in classifier_elements(ambient, 2, base2, universe3):
        ok = ok and round_trip(ambient, x, base2).ok
    _report(9, "classifier counts and exhaustive round trips", ok, 60,
            time.monotonic() - t0)
