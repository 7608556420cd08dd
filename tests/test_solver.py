"""The natural-family solver against a brute-force filter of the product.

Limits, matching objects, Nat(F, G) and the simplicial transformations all
run through ``solve``, so both sides of each oracle pair in the acceptance
criteria rest on it; this is the check that does not.
"""

import itertools
import random

import pytest

from tltt.solver import solve


def brute_force(cells, domains, constraints):
    out = []
    for values in itertools.product(*domains):
        value = dict(zip(cells, values))
        if all(table[value[s]] == value[d] for s, d, table in constraints):
            out.append(value)
    return out


def random_instance(rng: random.Random):
    n = rng.randint(0, 5)
    cells = [f"c{i}" for i in rng.sample(range(10), n)]
    domains = []
    for _ in cells:
        smallest = 0 if rng.random() < 0.1 else 1     # some empty domains
        dom = rng.sample(range(4), rng.randint(smallest, 3))
        if dom and rng.random() < 0.1:
            dom.append(rng.choice(dom))     # a repeated value
        domains.append(tuple(dom))
    constraints = []
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        table = {v: rng.randrange(4) for v in domains[i]}
        constraints.append((cells[i], cells[j], table))
    return cells, domains, constraints


CASES = {
    "zero cells": ([], [], []),
    "empty domain": (["a", "b"], [(0, 1), ()], [("a", "b", {0: 0, 1: 1})]),
    "identity self-loop": (["a"], [(0, 1, 2)], [("a", "a", {0: 0, 1: 1, 2: 2})]),
    "self-loop with one fixed point": (
        ["a", "b"], [(0, 1, 2), (0, 1)],
        [("a", "a", {0: 1, 1: 0, 2: 2}), ("b", "b", {0: 0, 1: 1})]),
    "src after dst": (
        ["v0", "v1", "e"], [(0, 1), (0, 1), ("x", "y", "z")],
        [("e", "v0", {"x": 0, "y": 0, "z": 1}),
         ("e", "v1", {"x": 1, "y": 0, "z": 1})]),
    "forced then checked": (
        ["a", "b", "c"], [(0, 1, 2), (0, 1, 2), (0, 1)],
        [("a", "b", {0: 1, 1: 2, 2: 0}), ("a", "c", {0: 0, 1: 1, 2: 1}),
         ("b", "c", {0: 1, 1: 0, 2: 1})]),
    "forced outside the domain": (
        ["a", "b"], [(0, 1), (0,)], [("a", "b", {0: 0, 1: 5})]),
    "repeated domain value": (
        ["a", "b"], [(0, 1), (1, 0, 1)], [("a", "b", {0: 1, 1: 0})]),
    "unconstrained": (["a", "b"], [(0, 1), ("x", "y")], []),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_cases_match_brute_force(name):
    cells, domains, constraints = CASES[name]
    assert solve(cells, domains, constraints) == \
        brute_force(cells, domains, constraints)


@pytest.mark.parametrize("seed", range(10))
def test_random_instances_match_brute_force(seed):
    rng = random.Random(f"solver:{seed}")
    for _ in range(100):
        cells, domains, constraints = random_instance(rng)
        got = solve(cells, domains, constraints)
        assert got == brute_force(cells, domains, constraints)
        assert all(list(sol) == cells for sol in got)
