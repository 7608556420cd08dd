"""Nerves of finite categories, weak spines, Segal checks, pointed nerves.

A semi-simplicial set is a ``SetDiagram`` over the semi-simplex category
(``categories.semisimplex_category``): level k is its value set at k, and
the arrow ``("m", k, image)`` restricts a level-k cell to the vertices in
the image.  The nerve of a category has, at level k, the composable chains
(x_0, f_1 : x_0 -> x_1, ..., f_k); restricting a chain keeps the vertices
in the image and composes the arrows between consecutive kept vertices.
The Segal condition compares level n against chains of n composable edges
via the canonical restriction map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .categories import FinCat, SetDiagram, semisimplex_category, tabulate


def nerve(c: FinCat, depth: int) -> SetDiagram:
    """The nerve of c, truncated at the given depth.

    A level-k cell is ``(x0, (f1, ..., fk))`` with each f_i an arrow
    x_{i-1} -> x_i (identities allowed).  Along ``("m", k, image)`` a cell
    keeps the vertices in the image and composes the arrows between each
    pair of consecutive kept vertices, in one step.  Each arrow's table is
    tabulated when it is first read: a Segal check at level k reads k of
    the 2^(k+1) - 1 arrows out of level k, and two out of level 1.
    """
    levels: list[list] = [[(x, ()) for x in c.objects]]
    for k in range(1, depth + 1):
        level = []
        for (x0, chain) in levels[k - 1]:
            tail = c.dst[chain[-1]] if chain else x0
            for y in c.objects:
                for f in c.hom(tail, y):
                    level.append((x0, chain + (f,)))
        levels.append(level)
    compose, dst = c.compose, c.dst

    def act(a, cell):
        x0, chain = cell
        image = a[2]
        kept = []
        for lo, hi in zip(image, image[1:]):
            f = chain[lo]
            for g in chain[lo + 1:hi]:
                f = compose[(g, f)]
            kept.append(f)
        return (dst[chain[image[0] - 1]] if image[0] else x0, tuple(kept))
    return tabulate(semisimplex_category(depth),
                    {k: tuple(level) for k, level in enumerate(levels)}, act,
                    on_read=True)


def weak_spines(x: SetDiagram, n: int) -> list[tuple]:
    """Chains of n edges (e_1, ..., e_n) with target(e_i) = source(e_{i+1}),
    where source is the 1-face (vertex 0) and target the 0-face (vertex 1)."""
    if n < 1:
        raise ValueError("weak spines need n >= 1")
    source, target = x.action[("m", 1, (0,))], x.action[("m", 1, (1,))]
    chains = [(e,) for e in x.values[1]]
    for _ in range(n - 1):
        chains = [ch + (e,)
                  for ch in chains for e in x.values[1]
                  if target[ch[-1]] == source[e]]
    return chains


def spine_restriction(x: SetDiagram, n: int, cell) -> tuple:
    """The chain of edges obtained by restricting a level-n cell along the
    n vertex-pair inclusions [1] -> [n] hitting {i-1, i}."""
    return tuple(x.action[("m", n, (i - 1, i))][cell] for i in range(1, n + 1))


@dataclass
class SegalVerdict:
    """Whether the restriction of the n-cells to their spines is
    injective and surjective, with the counts of both."""

    n: int
    cells: int
    spines: int
    injective: bool
    surjective: bool

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "cells": self.cells,
            "spines": self.spines,
            "injective": self.injective,
            "surjective": self.surjective,
            "bijective": self.bijective,
        }


def segal_check(x: SetDiagram, n: int) -> SegalVerdict:
    """Is the restriction map X_n -> (weak spines of length n) a bijection?"""
    spines = set(weak_spines(x, n))
    image = [spine_restriction(x, n, cell) for cell in x.values[n]]
    return SegalVerdict(
        n=n,
        cells=len(x.values[n]),
        spines=len(spines),
        injective=len(set(image)) == len(image),
        surjective=set(image) == spines,
    )


def segal_report(x: SetDiagram, up_to: int) -> list[SegalVerdict]:
    return [segal_check(x, n) for n in range(1, up_to + 1)]


# ---------------------------------------------------------------------------
# Pointed nerves over a finite universe of sets
# ---------------------------------------------------------------------------

def _functions(dom: tuple, cod: tuple) -> list[tuple]:
    """All functions dom -> cod, each as a tuple of images in dom order."""
    return [tuple(imgs) for imgs in itertools.product(cod, repeat=len(dom))]


def pointed_nerve_level(universe: list[tuple], n: int) -> list[tuple]:
    """Level n of the nerve of pointed sets drawn from the universe:
    chains of sets with a chosen point in each and point-preserving maps.

    A cell is ``(sets, points, maps)`` where sets are indices into the
    universe, maps are image tuples, and maps[i](points[i]) = points[i+1].
    The maps are generated, not filtered: for each chain of sets and each
    choice of points, map i ranges over the functions that send points[i]
    (at its first position in its set) to points[i+1], from a table built
    once per call.  Each table entry keeps ``_functions`` order, so the
    cells come in the order of filtering sets x points x maps.
    """
    preserving = {}
    for s, dom in enumerate(universe):
        for t, cod in enumerate(universe):
            functions = _functions(dom, cod)
            for p in dom:
                j = dom.index(p)
                for q in cod:
                    preserving[s, t, p, q] = [f for f in functions
                                              if f[j] == q]
    cells = []
    for sets in itertools.product(range(len(universe)), repeat=n + 1):
        steps = tuple(zip(sets, sets[1:]))
        for points in itertools.product(*(universe[s] for s in sets)):
            for maps in itertools.product(*(
                    preserving[s, t, points[i], points[i + 1]]
                    for i, (s, t) in enumerate(steps))):
                cells.append((sets, points, maps))
    return cells


def based_nerve_level(universe: list[tuple], n: int) -> list[tuple]:
    """Level n of the equivalent presentation: chains of plain sets with a
    single point in the first set and arbitrary maps.

    A cell is ``(sets, point, maps)``.
    """
    functions = {(s, t): _functions(dom, cod)
                 for s, dom in enumerate(universe)
                 for t, cod in enumerate(universe)}
    cells = []
    for sets in itertools.product(range(len(universe)), repeat=n + 1):
        map_space = list(itertools.product(*(
            functions[step] for step in zip(sets, sets[1:]))))
        for point in universe[sets[0]]:
            for maps in map_space:
                cells.append((sets, point, maps))
    return cells


def pointed_to_based(cell: tuple) -> tuple:
    """Forget all points except the first one."""
    sets, points, maps = cell
    return (sets, points[0], maps)


def based_to_pointed(universe: list[tuple], cell: tuple) -> tuple:
    """Push the base point forward along the chain."""
    sets, point, maps = cell
    points = [point]
    for s, f in zip(sets, maps):
        point = f[universe[s].index(point)]
        points.append(point)
    return (sets, tuple(points), maps)


def _chain_face(universe: list[tuple], sets: tuple, maps: tuple,
                i: int) -> tuple:
    """The i-th face of a chain of sets and maps, as (sets, maps): the end
    sets drop with their maps, an inner set composes the maps around it."""
    if i == 0:
        return sets[1:], maps[1:]
    if i == len(maps):
        return sets[:-1], maps[:-1]
    left, right = maps[i - 1], maps[i]
    mid = universe[sets[i]]
    composed = tuple([right[mid.index(x)] for x in left])
    return sets[:i] + sets[i + 1:], maps[:i - 1] + (composed,) + maps[i + 1:]


def pointed_face(universe: list[tuple], cell: tuple, i: int) -> tuple:
    """The i-th face on the pointed-chain presentation."""
    sets, points, maps = cell
    faced_sets, faced_maps = _chain_face(universe, sets, maps, i)
    return (faced_sets, points[:i] + points[i + 1:], faced_maps)


def based_face(universe: list[tuple], cell: tuple, i: int) -> tuple:
    """The i-th face on the based presentation; dropping the first set
    pushes the point forward along the first map."""
    sets, point, maps = cell
    if i == 0:
        point = maps[0][universe[sets[0]].index(point)]
    faced_sets, faced_maps = _chain_face(universe, sets, maps, i)
    return (faced_sets, point, faced_maps)


@dataclass
class PointedNerveComparison:
    """The cell counts of both nerves up to level n, and whether
    forgetting the points is a levelwise bijection that commutes with the
    faces."""

    n: int
    pointed_counts: list[int]
    based_counts: list[int]
    bijective: bool
    natural: bool


def compare_pointed_nerves(universe: list[tuple],
                           up_to: int) -> PointedNerveComparison:
    """Check that forgetting the non-initial points is a levelwise bijection
    commuting with all face maps, one level at a time."""
    pointed_counts, based_counts = [], []
    bij = natural = True
    for n in range(up_to + 1):
        pointed = pointed_nerve_level(universe, n)
        based = based_nerve_level(universe, n)
        pointed_counts.append(len(pointed))
        based_counts.append(len(based))
        # each pointed cell is forgotten once; the faces are still taken on
        # both sides, so naturality compares two independent computations
        forgotten = [pointed_to_based(c) for c in pointed]
        image = set(forgotten)
        if len(image) != len(forgotten) or image != set(based):
            bij = False
        if any(based_to_pointed(universe, b) != c
               for c, b in zip(pointed, forgotten)):
            bij = False
        for c, b in zip(pointed, forgotten):
            for i in range(n + 1 if n else 0):    # a vertex has no faces
                lhs = pointed_to_based(pointed_face(universe, c, i))
                rhs = based_face(universe, b, i)
                if lhs != rhs:
                    natural = False
    return PointedNerveComparison(
        n=up_to,
        pointed_counts=pointed_counts,
        based_counts=based_counts,
        bijective=bij,
        natural=natural,
    )
