"""A classifier for diagrams fibred over a base diagram on an inverse category.

Over a finite inverse category with objects of rank < n and a base diagram B,
the classifier is built by recursion on rank: a stage-0 element is trivial,
and a stage-(r+1) element extends a stage-r element X with a choice, for
every rank-r object i, every b in B_i, and every matching family m of the
interpretation of X at i whose boundary agrees (p applied componentwise to m
equals the boundary of b), of a value set drawn from a declared finite
universe.

``interpret`` turns such an element back into an honest diagram with a map
to B: the fibre over (b, m) is the chosen set, and the action evaluates the
stored matching family.  ``round_trip`` re-extracts the fibres of the
interpreted diagram and checks that interpreting those again gives a
levelwise bijective, natural correspondence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .categories import (
    CategoryError, DiagramMap, FinInvCat, SetDiagram, boundary, family_key,
    matching_object, tabulate,
)


@dataclass(frozen=True)
class ClassifierElement:
    """One element of the classifier at stage n.

    ``choices[r]`` maps keys (object i of rank r, b in B_i, canonical
    matching family) to the chosen value set (a tuple).  It is a tuple of
    (key, value set) pairs in the order the keys were found: the order of a
    frozenset would follow the string hash seed and, through ``interpret``,
    reorder the values and the next stage's keys.
    """

    n: int
    choices: tuple   # tuple of tuples of (key, value-set) pairs


def _stage_keys(c: FinInvCat, x: ClassifierElement, base: SetDiagram,
                r: int) -> list[tuple]:
    """The keys (i, b, canonical matching family) that extend x at rank r:
    every rank-r object i, every b in B_i, and every matching family of the
    interpretation of x at i whose boundary agrees with that of b.  An
    element of the interpretation lies over its first component."""
    diagram, _ = interpret(c, x, base)
    keys = []
    for i in base.cat.objects:
        if c.rank[i] != r:
            continue
        families, _ = matching_object(diagram, i)
        for b in base.values[i]:
            b_family = boundary(base, i, b)
            for m in families:
                if {f: e[0] for f, e in m.items()} == b_family:
                    keys.append((i, b, family_key(m)))
    return keys


def _extend(c: FinInvCat, base: SetDiagram, universe: list[tuple], r: int,
            elements: Iterator[ClassifierElement]
            ) -> Iterator[ClassifierElement]:
    """Stage r+1 streamed from a stream of stage-r elements."""
    for x in elements:
        keys = _stage_keys(c, x, base, r)
        for assignment in itertools.product(universe, repeat=len(keys)):
            yield ClassifierElement(
                x.n + 1, x.choices + (tuple(zip(keys, assignment)),))


def _stream(c: FinInvCat, n: int, base: SetDiagram, universe: list[tuple],
            stages: int) -> Iterator[ClassifierElement]:
    """Stage ``stages`` (at most n) of the classifier built for stage n, one
    element at a time; ``base`` is checked to live over the rank < n part
    of c before the first element is drawn."""
    if any(c.rank[o] >= n for o in base.cat.objects):
        raise CategoryError("base diagram has objects of rank >= stage")
    elements: Iterator[ClassifierElement] = iter([ClassifierElement(0, ())])
    for r in range(stages):
        elements = _extend(c, base, universe, r, elements)
    return elements


def iter_classifier_elements(c: FinInvCat, n: int, base: SetDiagram,
                             universe: list[tuple]
                             ) -> Iterator[ClassifierElement]:
    """The classifier elements at stage n over the given base diagram, one
    at a time, in the order of ``classifier_elements``.

    ``base`` must live over the rank < n part of c (checked before the
    first element is drawn); ``universe`` is the declared finite
    collection of allowed fibre sets.
    """
    return _stream(c, n, base, universe, n)


def count_classifier_elements(c: FinInvCat, n: int, base: SetDiagram,
                              universe: list[tuple], stop_above: int) -> int:
    """The number of classifier elements at stage n, counted without drawing
    any of them: a stage-(n-1) element x extends in |universe| ** #keys(x)
    ways.  The sum returns as soon as it passes ``stop_above``; each term is
    at least 1, so at most ``stop_above + 1`` elements of stage n-1 are
    drawn."""
    previous = _stream(c, n, base, universe, max(n - 1, 0))
    if n == 0:
        return 1
    total = 0
    for x in previous:
        total += len(universe) ** len(_stage_keys(c, x, base, n - 1))
        if total > stop_above:
            break
    return total


def classifier_elements(c: FinInvCat, n: int, base: SetDiagram,
                        universe: list[tuple]) -> list[ClassifierElement]:
    """All classifier elements at stage n over the given base diagram."""
    return list(iter_classifier_elements(c, n, base, universe))


def interpret(c: FinInvCat, x: ClassifierElement, base: SetDiagram
              ) -> tuple[SetDiagram, DiagramMap]:
    """The diagram classified by x, with its projection to base.

    An element over i is a triple (b, canonical matching family, y) with y
    in the chosen fibre; the action along f out of i evaluates the family
    at f, and the projection returns b.
    """
    sub = base.cat
    levels: dict = {i: [] for i in sorted(
        sub.objects, key=lambda o: (c.rank[o], str(o)))}
    components: dict = {i: {} for i in levels}
    for stage in x.choices:
        for (i, b, mkey), fibre in stage:
            level, comp = levels[i], components[i]
            for y in fibre:
                e = (b, mkey, y)
                level.append(e)
                comp[e] = b
    values = {i: tuple(level) for i, level in levels.items()}
    diagram = tabulate(sub, values, lambda a, e: (
        e if sub.identity[sub.src[a]] == a else dict(e[1])[a]))
    return diagram, DiagramMap(diagram, base, components)


def extract(c: FinInvCat, n: int, diagram: SetDiagram, p: DiagramMap,
            base: SetDiagram) -> tuple[ClassifierElement, dict]:
    """Recover a classifier element from a diagram over base by taking
    literal fibres, together with the levelwise correspondence eta mapping
    each diagram element to its re-encoded triple."""
    eta: dict = {o: {} for o in base.cat.objects}
    stages = []
    for r in range(n):
        pairs = []
        for i in sorted(base.cat.objects, key=str):
            if c.rank[i] != r:
                continue
            grouped: dict = {}
            for v in diagram.values[i]:
                b = p.components[i][v]
                fam = boundary(diagram, i, v)
                moved = family_key({f: eta[c.dst[f]][u]
                                    for f, u in fam.items()})
                grouped.setdefault((b, moved), []).append(v)
            for (b, mkey), fibre in grouped.items():
                for v in fibre:
                    eta[i][v] = (b, mkey, v)
                pairs.append(((i, b, mkey), tuple(fibre)))
        stages.append(tuple(pairs))
    return ClassifierElement(n, tuple(stages)), eta


@dataclass
class RoundTrip:
    """Whether an element survives interpretation and re-extraction,
    with each object's sizes before and after and why it failed."""

    ok: bool
    sizes: dict
    detail: str

    def to_json(self) -> dict:
        return {"ok": self.ok, "sizes": {str(k): v for k, v in self.sizes.items()},
                "detail": self.detail}


def round_trip(c: FinInvCat, x: ClassifierElement, base: SetDiagram
               ) -> RoundTrip:
    """Interpret x, re-extract fibres, interpret again, and compare: the
    correspondence must be a levelwise bijection commuting with the
    projection, and natural, which ``DiagramMap.validate`` checks."""
    diagram, p = interpret(c, x, base)
    diagram.validate()
    p.validate()
    element2, eta = extract(c, x.n, diagram, p, base)
    diagram2, p2 = interpret(c, element2, base)
    diagram2.validate()
    p2.validate()
    sizes = {o: (len(diagram.values[o]), len(diagram2.values[o]))
             for o in base.cat.objects}
    for o in base.cat.objects:
        image = [eta[o][v] for v in diagram.values[o]]
        if len(set(image)) != len(image) or set(image) != set(diagram2.values[o]):
            return RoundTrip(False, sizes, f"not a bijection at {o!r}")
        for v in diagram.values[o]:
            if p2.components[o][eta[o][v]] != p.components[o][v]:
                return RoundTrip(False, sizes, f"projection mismatch at {o!r}")
    try:
        DiagramMap(diagram, diagram2, eta).validate()
    except CategoryError as err:
        return RoundTrip(False, sizes, str(err))
    return RoundTrip(True, sizes, "levelwise bijection")
