"""Golden printer outputs: `print_term` of every shipped corpus
declaration's type and body, and of a seeded pool of random terms printed
under zero to two context names, is pinned in clear in
`golden/print_outcomes.json`.  A printer rewrite that claims to change
nothing must leave every string identical.

The random terms name their binders from `HINTS`, which collide with the
context names, the globals they mention, a built-in and a keyword, so every
renaming path of the printer is taken.

Regenerate the file (only when a change to the outputs is intended, and say
so) with ``PYTHONPATH=src python tests/test_print_golden.py``.
"""

import json
import pathlib
import random

import pytest

from tltt.corpus import CORPUS_ROOT, corpus_files
from tltt.syntax import (
    Ann, App, Const, Eq, Lam, Pi, Ref, Sig, Univ, Var, parse, print_term,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "print_outcomes.json"
POOL = 1000
SEED = 22
HINTS = ("x", "x1", "f", "P", "succ", "fun", "_")
CONTEXT = ("x", "x1", "f", "P")
GLOBALS = ("f", "P", "x", "g")
CONSTS = ("succ", "zero", "Nat", "pair")


def corpus_outcomes() -> dict:
    """Per corpus file, keyed `<line>:<col>`, the printed type and body
    (None for an axiom) of each declaration."""
    out = {}
    for path in corpus_files():
        mod = parse(path.read_text(), str(path))
        out[str(path.relative_to(CORPUS_ROOT))] = {
            f"{d.line}:{d.col}": [print_term(d.ty),
                                  None if d.body is None else print_term(d.body)]
            for d in mod.decls}
    return out


def random_term(rng: random.Random, bound: int, depth: int = 0):
    """A term with at most `bound` free variables, mostly variables at the
    leaves so that a Π's codomain often does and often does not use it."""
    if depth >= 4 or rng.random() < 0.3:
        leaf = rng.randrange(4) if bound else rng.randrange(1, 4)
        if leaf == 0:
            return Var(rng.randrange(bound))
        if leaf == 1:
            return Ref(rng.choice(GLOBALS))
        if leaf == 2:
            return Const(rng.choice(CONSTS))
        return Univ(rng.random() < 0.5, rng.randrange(2))
    kind = rng.randrange(7)
    if kind <= 1:
        return (Pi, Sig)[kind](rng.choice(HINTS),
                               random_term(rng, bound, depth + 1),
                               random_term(rng, bound + 1, depth + 1))
    if kind == 2:
        return Lam(rng.choice(HINTS), random_term(rng, bound + 1, depth + 1))
    a = random_term(rng, bound, depth + 1)
    b = random_term(rng, bound, depth + 1)
    if kind == 3:
        return App(a, b)
    if kind == 4:
        return Eq(rng.random() < 0.5, a, b)
    if kind == 5:
        return Ann(a, b)
    return Pi(rng.choice(HINTS), a, random_term(rng, bound + 1, depth + 1))


def random_outcomes() -> dict:
    """Keyed `<i> [<context names>]`, the printed random term `i`."""
    rng = random.Random(SEED)
    out = {}
    for i in range(POOL):
        names = [rng.choice(CONTEXT) for _ in range(rng.randrange(3))]
        t = random_term(rng, len(names))
        out[f"{i} [{' '.join(names)}]"] = print_term(t, names)
    return out


def all_outcomes() -> dict:
    return {"corpus": corpus_outcomes(), "random": random_outcomes()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_prints_are_unchanged(golden):
    want, got = golden["corpus"], corpus_outcomes()
    assert list(got) == list(want), "files differ"
    for path, decls in want.items():
        assert got[path] == decls, path


def test_random_prints_are_unchanged(golden):
    want, got = golden["random"], random_outcomes()
    assert list(got) == list(want), "pool differs"
    for case, w in want.items():
        if got[case] != w:
            pytest.fail(f"{case}: got {got[case]!r}, want {w!r}")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_outcomes(), indent=1) + "\n")
