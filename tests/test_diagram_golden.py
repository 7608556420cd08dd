"""Golden diagram tables: the value tuples and action tables of every kind
of diagram the package builds, on seeded instances, are pinned as digests
in `golden/diagram_outcomes.json`.  A refactor of how diagrams are built
that claims to change nothing must leave every value tuple, every action
table and the order of every dict identical, so the solvers, both limit
oracles and the labs see the same tables.

The constructions covered: `random_diagram` on `random_inverse_category`
instances, exponentials, products, pullbacks along random natural maps,
representables, constants, the semi-simplicial bridge on the `poset012`
nerve, the `spine_nerve` diagrams restricted below rank 2 (and their
exponential), and every classifier interpretation at stages 1 and 2 with
fibres of at most two elements, projections included.

A frozenset is written as its sorted item texts, so no digest follows the
string hash seed.  Regenerate the file (only when a change to the tables is
intended, and say so) with ``PYTHONPATH=src python tests/test_diagram_golden.py``.
"""

import hashlib
import json
import pathlib
import random

import pytest

from oracles import product_diagram, pullback_diagram, representable
from tltt.categories import (
    DiagramMap, constant_diagram, diagram_nat_transforms, exponential_diagram,
    random_diagram, random_inverse_category, semisimplex_category,
    sset_to_diagram,
)
from tltt.classifier import classifier_elements, interpret
from tltt.fixtures import load_fixture
from tltt.nerve import nerve

GOLDEN = pathlib.Path(__file__).parent / "golden" / "diagram_outcomes.json"
SEED = 23
RANDOM_POOL = 100
PAIR_POOL = 20
CLASSIFIER_UNIVERSE = [(), ("a",), ("a", "b")]


def text(v) -> str:
    """`repr`, with a frozenset's items sorted at every depth."""
    if isinstance(v, frozenset):
        return "frozenset({" + ", ".join(sorted(map(text, v))) + "})"
    if isinstance(v, tuple):
        return "(" + "".join(text(u) + ", " for u in v) + ")"
    return repr(v)


def digest_tables(tables: dict) -> str:
    """A digest of a dict of dicts (arrow -> element -> element), in the
    order of both."""
    h = hashlib.sha256()
    for key, table in tables.items():
        h.update(f"{text(key)}:".encode())
        for k, v in table.items():
            h.update(f"{text(k)}->{text(v)};".encode())
        h.update(b"\n")
    return h.hexdigest()[:20]


def digest(x) -> list[str]:
    """The digests of a diagram's values (in order) and of its action."""
    h = hashlib.sha256()
    for o, vs in x.values.items():
        h.update(f"{text(o)}={text(vs)}\n".encode())
    return [h.hexdigest()[:20], digest_tables(x.action)]


def random_map(rng: random.Random, src, dst):
    """A random natural transformation src -> dst, or None if none exists."""
    nats = diagram_nat_transforms(src, dst)
    if not nats:
        return None
    t = rng.choice(nats)
    return DiagramMap(src, dst, {o: {u: t[(o, u)] for u in src.values[o]}
                                 for o in src.cat.objects})


def random_outcomes() -> dict:
    """`random_diagram`s, with the representables and a constant over their
    categories."""
    out = {}
    for i in range(RANDOM_POOL):
        rng = random.Random(f"{SEED}:random:{i}")
        cat = random_inverse_category(rng, max_objects=5, max_hom=3)
        out[f"{i}"] = digest(random_diagram(rng, cat, max_card=4))
        if i < PAIR_POOL:
            out[f"{i} const"] = digest(constant_diagram(cat, ("a", "b")))
            for d in cat.objects:
                out[f"{i} y_{d}"] = digest(representable(cat, d))
    return out


def pair_outcomes() -> dict:
    """Products and exponentials of pairs of small random diagrams."""
    out = {}
    for i in range(PAIR_POOL):
        rng = random.Random(f"{SEED}:pair:{i}")
        cat = random_inverse_category(rng, max_objects=3)
        f = random_diagram(rng, cat, max_card=2)
        g = random_diagram(rng, cat, max_card=2)
        out[f"{i} product"] = digest(product_diagram(f, g))
        out[f"{i} exponential"] = digest(exponential_diagram(f, g))
    return out


def pullback_outcomes() -> dict:
    """Pullbacks of random natural maps into a common diagram, with their
    projections (None where no such map exists)."""
    out = {}
    for i in range(2 * PAIR_POOL):
        rng = random.Random(f"{SEED}:pullback:{i}")
        cat = random_inverse_category(rng, max_objects=4)
        z, x, y = (random_diagram(rng, cat, max_card=3) for _ in range(3))
        p, q = random_map(rng, x, z), random_map(rng, y, z)
        if p is None or q is None:
            out[f"{i}"] = None
            continue
        w, pr1, pr2 = pullback_diagram(p, q)
        out[f"{i}"] = digest(w) + [digest_tables(pr1.components),
                                   digest_tables(pr2.components)]
    return out


def fixture_outcomes() -> dict:
    """The semi-simplicial bridge on the `poset012` nerve, and the
    `spine_nerve` diagrams restricted below rank 2 with their exponential."""
    poset = load_fixture("poset012.json").category
    spine = load_fixture("spine_nerve.json")
    below = spine.category.truncate_below(2)
    f = spine.diagrams["F"].restrict(below)
    g = spine.diagrams["G"].restrict(below)
    return {
        "poset012 nerve 2": digest(sset_to_diagram(nerve(poset, 2))),
        "poset012 nerve 3 in ambient 3": digest(sset_to_diagram(
            nerve(poset, 3), semisimplex_category(3))),
        "spine F below 2": digest(f),
        "spine G below 2": digest(g),
        "spine exponential below 2": digest(exponential_diagram(f, g)),
    }


def classifier_outcomes() -> dict:
    """Every interpretation, and its projection, at stages 1 and 2 over the
    constant one-point base, as `tltt lab classifier --n N` builds them."""
    out = {}
    for n in (1, 2):
        c = semisimplex_category(n - 1)
        base = constant_diagram(c, ("*",))
        for i, x in enumerate(classifier_elements(c, n, base,
                                                  CLASSIFIER_UNIVERSE)):
            diagram, p = interpret(c, x, base)
            out[f"{n}:{i}"] = digest(diagram) + [digest_tables(p.components)]
    return out


GROUPS = {"random": random_outcomes, "pair": pair_outcomes,
          "pullback": pullback_outcomes, "fixture": fixture_outcomes,
          "classifier": classifier_outcomes}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("group", GROUPS)
def test_diagram_tables_are_unchanged(golden, group):
    want, got = golden[group], GROUPS[group]()
    assert list(got) == list(want), "instances differ"
    bad = [case for case, w in want.items() if got[case] != w]
    assert bad == []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({name: make() for name, make in GROUPS.items()},
                                 indent=1) + "\n")
