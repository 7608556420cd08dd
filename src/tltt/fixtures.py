"""JSON fixtures for categories, diagrams, and semi-simplicial sets.

Schema: a document may carry a ``category`` (objects with optional ranks,
hom-sets of non-identity arrows, a composition table), named ``diagrams``
over it (values per object, functions per arrow, as arrays of pairs so ids
need not be strings), and/or an ``sset`` (levels plus face maps keyed
"m,i").  Identities may be listed explicitly; otherwise they are generated
as ``("id", object)`` and the unit compositions are filled in.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional, Union

from .categories import FinCat, FinInvCat, SetDiagram
from .simplex import FiniteSemiSimplicialSet, _freeze

FIXTURE_ROOT = pathlib.Path(__file__).parent / "fixture_data"


def fincat_from_json(doc: dict) -> Union[FinCat, FinInvCat]:
    objects = tuple(_freeze(o) for o, _ in doc["objects"])
    rank = {_freeze(o): r for o, r in doc["objects"] if r is not None}
    homs = {}
    for s, d, arrows in doc["homs"]:
        homs[(_freeze(s), _freeze(d))] = tuple(_freeze(a) for a in arrows)
    compose = {(_freeze(g), _freeze(f)): _freeze(h)
               for g, f, h in doc["compose"]}
    if "identities" in doc:
        identity = {_freeze(o): _freeze(a) for o, a in doc["identities"]}
    else:
        identity = {o: ("id", o) for o in objects}
        for o in objects:
            homs[(o, o)] = (identity[o],) + homs.get((o, o), ())
        src = {}
        dst = {}
        for (x, y), arrows in homs.items():
            for a in arrows:
                src[a], dst[a] = x, y
        for arrows in list(homs.values()):
            for a in arrows:
                compose[(identity[dst[a]], a)] = a
                compose[(a, identity[src[a]])] = a
    if len(rank) == len(objects):
        cat: FinCat = FinInvCat(objects, homs, compose, identity, rank=rank)
    else:
        cat = FinCat(objects, homs, compose, identity)
    cat.validate()
    return cat


def diagram_from_json(doc: dict, cat: FinCat) -> SetDiagram:
    values = {_freeze(o): tuple(_freeze(v) for v in vals)
              for o, vals in doc["values"]}
    action = {}
    for a, pairs in doc["functions"]:
        action[_freeze(a)] = {_freeze(x): _freeze(y) for x, y in pairs}
    for o, i in cat.identity.items():
        action.setdefault(i, {v: v for v in values[o]})
    diagram = SetDiagram(cat, values, action)
    diagram.validate()
    return diagram


class Fixture:
    """A loaded fixture document; sections are optional."""

    def __init__(self, doc: dict):
        self.category: Optional[FinCat] = None
        self.diagrams: dict[str, SetDiagram] = {}
        self.sset: Optional[FiniteSemiSimplicialSet] = None
        if "category" in doc:
            self.category = fincat_from_json(doc["category"])
            for name, d in doc.get("diagrams", {}).items():
                self.diagrams[name] = diagram_from_json(d, self.category)
        if "sset" in doc:
            self.sset = FiniteSemiSimplicialSet.from_json(doc["sset"])


def load_fixture(path: Union[str, pathlib.Path]) -> Fixture:
    p = pathlib.Path(path)
    if not p.exists():
        candidate = FIXTURE_ROOT / p.name
        if candidate.exists():
            p = candidate
    return Fixture(json.loads(p.read_text()))

