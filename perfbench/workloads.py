"""The benchmark's workloads: seeded item sets with independent known answers.

An item is one verdict a user waits for.  `call` asks `tltt` for the verdict
and is timed; `check` compares it with a known answer that comes from file
annotations, Python arithmetic, or the second oracle of a pair, and is not
timed.  Each `make_*` function receives the imported `tltt` modules and the
seed, and returns a `Plan`; every call looks its `tltt` function up at call
time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass, field
from math import comb
from types import SimpleNamespace
from typing import Any, Callable


@dataclass
class Item:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    depth: int = 0          # deepest numeral, for `numerals` items


@dataclass
class Plan:
    items: list[Item]
    ladder: list[Item] = field(default_factory=list)


def _shuffled(items: list[Item], rng: random.Random) -> list[Item]:
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# corpus: the shipped corpus under the default kernel and two mutations
# ---------------------------------------------------------------------------

CORPUS_CONFIGS_PER_PASS = 34    # 102 items, so 10 lie beyond the p90
_DECL_RE = re.compile(r"^(?:def|axiom|check|fail)\b", re.M)
_EXPECT_RE = re.compile(r"^--!\s*expect:\s*(\S+)", re.M)
THEOREM = "02_fibrant_replacement"


def _file_key(path) -> tuple[str, str]:
    parts = str(path).replace("\\", "/").split("/")
    return parts[-2], parts[-1]


def make_corpus(tl: SimpleNamespace, seed: int) -> Plan:
    root = tl.corpus.CORPUS_ROOT
    # Known answers from the files themselves: how many declarations each
    # holds and which rule each `fail` must be rejected by.
    expected = {}
    for path in sorted(root.rglob("*.tltt")):
        text = path.read_text()
        expected[_file_key(path)] = (len(_DECL_RE.findall(text)),
                                     _EXPECT_RE.findall(text))
    stems = {name[:-len(".tltt")] for _, name in expected}

    def check_default(rep) -> bool:
        if not rep.ok or rep.errors or rep.coverage_gaps():
            return False
        got = {}
        for r in rep.reports:
            fails = [rec.get("rule") for rec in r.records
                     if rec["kind"] == "fail"]
            got[_file_key(r.path)] = (len(r.records), fails)
        return got == expected

    def check_mutant(rep) -> bool:
        if rep.ok or not rep.errors:
            return False
        named = {s for s in stems for e in rep.errors if f"{s}.tltt" in e}
        return named == {THEOREM}

    configs = [
        ("default", None, check_default),
        ("js_beta=False", tl.kernel.KernelOptions(js_beta=False),
         check_mutant),
        ("omit uip", tl.kernel.KernelOptions(omit_consts=frozenset({"uip"})),
         check_mutant),
    ]
    items = []
    for label, options, check in configs:
        for _ in range(CORPUS_CONFIGS_PER_PASS):
            items.append(Item(
                f"corpus[{label}]",
                lambda options=options: tl.corpus.run_corpus(options=options),
                check))
    return Plan(_shuffled(items, random.Random(f"corpus:{seed}")))


# ---------------------------------------------------------------------------
# numerals: generated modules checked on a copy of the prelude environment
# ---------------------------------------------------------------------------

NUMERALS_PER_KIND = 40
DEPTH_RANGE = (20, 180)           # stops below today's parser overflow
LADDER_DEPTHS = (200, 400, 800)   # probes the overflow, untimed
ADD_DEF = ("def add : Nat -> Nat -> Nat\n"
           "  := fun m n => indNat (fun k => Nat) n (fun k r => succ r) m\n")


def _numeral(d: int, zero: str = "zero", succ: str = "succ") -> str:
    return f"{succ} (" * d + zero + ")" * d


def numeral_source(kind: str, depth: int, share: float) -> tuple[str, bool]:
    """Source of one generated module whose deepest numeral has `depth`
    successors, and whether it must be accepted (from Python arithmetic).
    `add` kinds put the `share` of the sum in their first argument."""
    if kind == "toNat":
        stated = f"toNat ({_numeral(depth, 'zeroS', 'succS')})"
        return (f"check refl ({_numeral(depth)}) : "
                f"{stated} = {_numeral(depth)}\n", True)
    total = depth if kind == "add" else depth - 1     # `add+1` states m+n+1
    m = round(share * total)
    n = total - m
    accept = m + n == depth
    decl = "check" if accept else "--! expect: CONV\nfail"
    return (f"{ADD_DEF}{decl} refl ({_numeral(depth)}) : "
            f"add ({_numeral(m)}) ({_numeral(n)}) = {_numeral(depth)}\n",
            accept)


def make_numerals(tl: SimpleNamespace, seed: int) -> Plan:
    prelude, reports = tl.corpus.prelude_checker()
    if not all(r.ok for r in reports):
        raise RuntimeError("prelude does not check")
    env = prelude.env

    def item(i: int, kind: str, depth: int, share: float) -> Item:
        src, accept = numeral_source(kind, depth, share)
        path = f"numerals/{i}-{kind}-{depth}.tltt"

        def call():
            ck = tl.kernel.Checker(env=env)
            mod = tl.syntax.resolve(tl.syntax.parse(src, path), set(ck.env))
            return tl.kernel.check_module(ck, mod)

        def check(rep) -> bool:
            last = rep.records[-1] if rep.records else {}
            if accept:
                return rep.ok and last.get("kind") == "check"
            return (rep.ok and last.get("kind") == "fail"
                    and last.get("rule") == "CONV")

        return Item(f"numerals[{kind},{depth}]", call, check, depth)

    rng = random.Random(f"numerals:{seed}")
    kinds = ("add", "add+1", "toNat")
    # One depth per kind from each of NUMERALS_PER_KIND equal strata of
    # DEPTH_RANGE, and one split of each `add` from each of as many equal
    # strata of [0, 1], paired at random: every seed spreads its depths and
    # splits over their whole ranges, which keeps its cost near the others'.
    lo, hi = DEPTH_RANGE
    width = (hi - lo + 1) / NUMERALS_PER_KIND
    strata = {kind: rng.sample(range(NUMERALS_PER_KIND), NUMERALS_PER_KIND)
              for kind in kinds}
    items = [item(i, kind,
                  rng.randint(lo + int(i * width),
                              lo + int((i + 1) * width) - 1),
                  (strata[kind][i] + rng.random()) / NUMERALS_PER_KIND)
             for i in range(NUMERALS_PER_KIND) for kind in kinds]
    ladder = [item(len(items) + i, kind, depth, rng.random())
              for i, (depth, kind) in enumerate(
                  (d, k) for d in LADDER_DEPTHS for k in kinds)]
    return Plan(_shuffled(items, rng), ladder)


# ---------------------------------------------------------------------------
# diagrams: the `categories` solvers against their second oracles
# ---------------------------------------------------------------------------

LIMIT_INSTANCES = 1000          # five rounds of criterion 5's 200
EXPONENTIAL_INSTANCES = 500     # five rounds of criterion 6's 100
# The spine_nerve.json exponential restricted to ranks < 2: the full one is
# one 11 s item, which would leave a run two samples of it.
SPINE_RANKS = 2
SPINE_SIZES = {0: 27, 1: 324}
SPINE_LIMIT = 10


def _exponential_ok(tl: SimpleNamespace, f, lim, nats) -> bool:
    """|lim [F,G]| = |Nat(F,G)| with equal images, read off at identities."""
    cat = f.cat
    image = set()
    for fam in lim:
        out = {}
        for d in cat.objects:
            table = dict(fam[d])
            for u in f.values[d]:
                out[(d, u)] = table[(d, (u, cat.identity[d]))]
        image.add(tl.categories.nat_key(out))
    return (len(lim) == len(nats) == len(image)
            and image == {tl.categories.nat_key(t) for t in nats})


def make_diagrams(tl: SimpleNamespace, seed: int) -> Plan:
    cats = tl.categories
    items = []

    def family_set(fams):
        return {cats.family_key(f) for f in fams}

    def check_limits(out) -> bool:
        direct, recursive = out
        return (len(direct) == len(recursive)
                and family_set(direct) == family_set(recursive))

    for i in range(LIMIT_INSTANCES):
        rng = random.Random(f"diagrams:{seed}:limit:{i}")
        cat = cats.random_inverse_category(rng, max_objects=5, max_hom=3)
        x = cats.random_diagram(rng, cat, max_card=4)
        cat.validate()
        x.validate()
        items.append(Item(
            "limit",
            lambda x=x: (cats.limit_direct(x), cats.limit_recursive(x)),
            check_limits))

    def exponential(f, g):
        lim = cats.limit_direct(cats.exponential_diagram(f, g))
        return f, lim, cats.diagram_nat_transforms(f, g)

    def check_exponential(out) -> bool:
        return _exponential_ok(tl, *out)

    for i in range(EXPONENTIAL_INSTANCES):
        rng = random.Random(f"diagrams:{seed}:exponential:{i}")
        cat = cats.random_inverse_category(rng, max_objects=3)
        f = cats.random_diagram(rng, cat, max_card=2)
        g = cats.random_diagram(rng, cat, max_card=2)
        cat.validate()
        f.validate()
        g.validate()
        items.append(Item("exponential", lambda f=f, g=g: exponential(f, g),
                          check_exponential))

    x = tl.nerve.nerve(tl.fixtures.load_fixture("poset012.json").category, 3)
    ambient = cats.semisimplex_category(3)
    d = cats.sset_to_diagram(x, ambient)
    for n in range(4):
        def check_yoneda(out, n=n) -> bool:
            nats, mapping = out
            return (len(nats) == len(x.levels[n])
                    and sorted(map(str, mapping.values()))
                    == sorted(map(str, x.levels[n])))

        def boundary(n=n):
            return (tl.simplex.nat_transforms(
                        tl.simplex.boundary_subfunctor(n), x),
                    cats.matching_object(d, n, ambient=ambient))

        def check_boundary(out, n=n) -> bool:
            bnats, (fams, _) = out
            keys = {cats.family_key(f) for f in fams}
            return len(bnats) == len(fams) and all(
                cats.family_key({("m", n, g.image): v
                                 for (_, g), v in t.items()}) in keys
                for t in bnats)

        items.append(Item(f"yoneda[{n}]",
                          lambda n=n: tl.simplex.yoneda_bijection(n, x),
                          check_yoneda))
        items.append(Item(f"boundary[{n}]", boundary, check_boundary))

    spine = tl.fixtures.load_fixture("spine_nerve.json")
    below = spine.category.truncate_below(SPINE_RANKS)
    f = spine.diagrams["F"].restrict(below)
    g = spine.diagrams["G"].restrict(below)

    def spine_exponential():
        exp = cats.exponential_diagram(f, g)
        return exp, cats.limit_direct(exp), cats.diagram_nat_transforms(f, g)

    def check_spine(out) -> bool:
        exp, lim, nats = out
        sizes = {o: len(v) for o, v in exp.values.items()}
        return (sizes == SPINE_SIZES and len(lim) == SPINE_LIMIT
                and _exponential_ok(tl, f, lim, nats))

    items.append(Item("spine_exponential", spine_exponential, check_spine))
    return Plan(_shuffled(items, random.Random(f"diagrams:{seed}")))


# ---------------------------------------------------------------------------
# simplices: horn factorization, nerves, pointed nerves, the classifier
# ---------------------------------------------------------------------------

HORN_MAX_N = 8
DEGENERATE_HORNS = {(1, 0), (1, 1), (2, 0), (2, 2)}
POINTED_UNIVERSES = ([()], [("*",)], [(), ("*",)], [("*",), ("a", "b")],
                     [(), ("*",), ("a", "b")])
NERVE_LEVELS = 4
# Level sizes of the nerves: weakly increasing chains in 0 < 1 < 2, and the
# constant chains plus one non-identity arrow of the cospan at each position.
NERVE_SIZES = {"poset012.json": lambda k: comb(k + 3, 2),
               "cospan.json": lambda k: 2 * k + 3}
CLASSIFIER_CAP = 100000
_LABELS = "abcdefgh"


def _universe(max_card: int) -> list[tuple]:
    return [tuple(_LABELS[:c]) for c in range(max_card + 1)]


def classifier_count(n: int, universe: list[tuple]) -> int:
    """Elements at stage n over the constant one-point base of the
    semi-simplex category: one key at rank 0; at rank 1 a key per matching
    family, i.e. per pair of points of the rank-0 fibre."""
    if n == 1:
        return len(universe)
    if n == 2:
        return sum(len(universe) ** (len(s) ** 2) for s in universe)
    raise ValueError(n)


def make_simplices(tl: SimpleNamespace, seed: int) -> Plan:
    sx = tl.simplex
    items = []

    for n in range(1, HORN_MAX_N + 1):
        for k in range(n + 1):
            def horn(n=n, k=k):
                try:
                    fac = sx.factor_spine_to_horn(n, k)
                except sx.UnsupportedHorn as e:
                    return None, e.witness
                return fac, fac.sieves()

            def check_horn(out, n=n, k=k) -> bool:
                fac, chain = out
                if (n, k) in DEGENERATE_HORNS:
                    return (fac is None
                            and chain in sx.zigzag_sieve(n).members
                            and chain not in sx.horn_sieve(n, k).members)
                return (fac is not None
                        and fac.length == 2 ** (n + 1) - 2 * n - 4
                        and chain[-1] == sx.zigzag_sieve(n)
                        and (not 0 < k < n
                             or all(s.inner for s in fac.steps)))

            items.append(Item(f"horn[{n},{k}]", horn, check_horn))

    for name, size in NERVE_SIZES.items():
        cat = tl.fixtures.load_fixture(name).category

        def nerve_segal(cat=cat):
            x = tl.nerve.nerve(cat, NERVE_LEVELS)
            return x, tl.nerve.segal_report(x, NERVE_LEVELS)

        def check_nerve(out, size=size) -> bool:
            x, verdicts = out
            return ([len(level) for level in x.levels]
                    == [size(k) for k in range(NERVE_LEVELS + 1)]
                    and all(v.bijective for v in verdicts))

        items.append(Item(f"segal[{name}]", nerve_segal, check_nerve))

    doctored = tl.fixtures.load_fixture("non_segal.json").sset
    items.append(Item("segal[non_segal.json]",
                      lambda: tl.nerve.segal_check(doctored, 2),
                      lambda v: not v.bijective))

    for universe in POINTED_UNIVERSES:
        items.append(Item(
            f"pointed[{len(universe)}]",
            lambda universe=universe: tl.nerve.compare_pointed_nerves(
                universe, 3),
            lambda cmp: (cmp.pointed_counts == cmp.based_counts
                         and cmp.bijective and cmp.natural)))

    ambient = tl.categories.semisimplex_category(2)
    for n in (1, 2):
        base = tl.categories.constant_diagram(ambient.truncate_below(n),
                                              ("*",))
        for max_card in (1, 2):
            universe = _universe(max_card)
            want = classifier_count(n, universe)

            def enumerate_(n=n, base=base, universe=universe):
                return tl.classifier.classifier_elements(
                    ambient, n, base, universe)

            items.append(Item(
                f"classifier[{n},{max_card}]", enumerate_,
                lambda els, want=want: (len(els) == want
                                        and len(set(els)) == want)))
            for x in enumerate_():
                items.append(Item(
                    f"round_trip[{n},{max_card}]",
                    lambda x=x, base=base: tl.classifier.round_trip(
                        ambient, x, base),
                    lambda rt: rt.ok))

    cap_argv = ["lab", "classifier", "--n", "2", "--max-card", "3", "--json"]
    over_cap = classifier_count(2, _universe(3)) > CLASSIFIER_CAP

    def cli_cap():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tl.cli.main(cap_argv)
        return code, err.getvalue()

    def check_cap(out) -> bool:
        code, err = out
        if over_cap:
            return code == 2 and "enumeration size cap exceeded" in err
        return code == 0

    items.append(Item("cli[classifier cap]", cli_cap, check_cap))
    return Plan(_shuffled(items, random.Random(f"simplices:{seed}")))


WORKLOADS = {
    "corpus": make_corpus,
    "numerals": make_numerals,
    "diagrams": make_diagrams,
    "simplices": make_simplices,
}
