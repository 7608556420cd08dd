"""JSON fixtures for categories, diagrams, and semi-simplicial sets.

Schema: a document may carry a ``category`` (objects with optional ranks,
hom-sets of non-identity arrows, a composition table), named ``diagrams``
over it (values per object, functions per arrow, as arrays of pairs so ids
need not be strings), and/or an ``sset`` (levels plus face maps keyed
"m,i").  Identities may be listed explicitly; otherwise they are generated
as ``("id", object)`` and the unit compositions are filled in.

The document's shape is checked before any table is built: a malformed
fixture, one that gives an entry twice, or a function or face row whose
source element is not declared raises ``FixtureError`` naming the JSON
path that failed, such as ``category.homs[0][1]``; so does a diagram
function or face map that is not total (at ``diagrams.X.functions[i][1]``
or ``sset.faces.m,i``) or leaves its target (at ``...[r][1]``), and a face
map that is missing (at ``sset.faces``).  An ``sset`` loads as a
``SetDiagram`` over ``categories.semisimplex_category``, the one presheaf
type of the labs.
The category and diagram laws, the simplicial identities among them (as
functoriality), are then checked by the validators of ``categories``.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Optional, Union

from .categories import (FinCat, FinInvCat, SetDiagram, semisimplex_category,
                         tabulate)

FIXTURE_ROOT = pathlib.Path(__file__).parent / "fixture_data"


class FixtureError(ValueError):
    """A fixture document of the wrong shape; ``path`` names the JSON value
    that failed, e.g. ``category.homs[0][1]``, or the file that is not
    UTF-8 JSON."""

    def __init__(self, path: str, message: str):
        super().__init__(f"fixture {path}: {message}")
        self.path = path


def _check(ok: bool, path: str, message: str) -> None:
    if not ok:
        raise FixtureError(path, message)


def _section(doc, path: str, *keys: str) -> dict:
    """doc as a JSON object that has every key in keys."""
    _check(isinstance(doc, dict), path, "expected an object")
    for key in keys:
        _check(key in doc, path, f"missing key {key!r}")
    return doc


def _rows(doc, path: str, width: Optional[int] = None) -> list:
    """doc as a JSON array, each row an array of width entries if given."""
    _check(isinstance(doc, list), path, "expected an array")
    if width is not None:
        for i, row in enumerate(doc):
            _check(isinstance(row, list) and len(row) == width,
                   f"{path}[{i}]", f"expected an array of {width} entries")
    return doc


def _id(x, path: str):
    """An object, arrow or element id: arrays become tuples, JSON objects
    are refused because they cannot serve as ids."""
    _check(not isinstance(x, dict), path, "an id cannot be a JSON object")
    if isinstance(x, list):
        return tuple(_id(y, f"{path}[{i}]") for i, y in enumerate(x))
    return x


def _once(key, seen, path: str, what: str):
    """key, which seen (the keys read so far) must not hold."""
    _check(key not in seen, path, f"{what} {key!r} given twice")
    return key


def _declared(x, path: str, known, what: str):
    x = _id(x, path)
    _check(x in known, path, f"undeclared {what} {x!r}")
    return x


def _ids(doc, path: str, what: str, seen: Optional[set] = None) -> tuple:
    """doc as distinct ids, none of them in seen, which gains them."""
    seen = set() if seen is None else seen
    ids = []
    for i, x in enumerate(_rows(doc, path)):
        ids.append(_once(_id(x, f"{path}[{i}]"), seen, f"{path}[{i}]", what))
        seen.add(ids[-1])
    return tuple(ids)


def _pairs(doc, path: str, known) -> dict:
    """doc as a table on the declared elements known, each given once."""
    pairs = {}
    for i, (x, y) in enumerate(_rows(doc, path, 2)):
        p = f"{path}[{i}][0]"
        x = _once(_declared(x, p, known, "element"), pairs, p, "image of")
        pairs[x] = _id(y, f"{path}[{i}][1]")
    return pairs


def _function(doc, path: str, source, target, what: str, leaves: str) -> dict:
    """doc as a table defined on every element of source, each image in
    target; ``what`` names the table when an element has no row, and
    ``leaves`` is the message for a row whose image is not in target."""
    table = _pairs(doc, path, source)
    for x in source:
        _check(x in table, path, f"{what} undefined on {x!r}")
    for r, y in enumerate(table.values()):
        _check(y in target, f"{path}[{r}][1]", leaves)
    return table


def fincat_from_json(doc, path: str = "category") -> Union[FinCat, FinInvCat]:
    _section(doc, path, "objects", "homs", "compose")
    objects = []
    rank = {}
    for i, (o, r) in enumerate(_rows(doc["objects"], f"{path}.objects", 2)):
        p = f"{path}.objects[{i}][0]"
        o = _once(_id(o, p), objects, p, "object")
        _check(r is None or type(r) is int, f"{path}.objects[{i}][1]",
               "a rank is an integer or null")
        objects.append(o)
        if r is not None:
            rank[o] = r
    objects = tuple(objects)
    homs, listed = {}, set()
    for i, (s, d, arrows) in enumerate(_rows(doc["homs"], f"{path}.homs", 3)):
        p = f"{path}.homs[{i}]"
        key = _once((_declared(s, f"{p}[0]", objects, "object"),
                     _declared(d, f"{p}[1]", objects, "object")),
                    homs, p, "hom-set")
        homs[key] = _ids(arrows, f"{p}[2]", "arrow", listed)
    if "identities" in doc:
        identity = {}
        for i, (o, a) in enumerate(_rows(doc["identities"],
                                         f"{path}.identities", 2)):
            p = f"{path}.identities[{i}]"
            o = _once(_declared(o, f"{p}[0]", objects, "object"), identity,
                      f"{p}[0]", "identity of")
            identity[o] = _id(a, f"{p}[1]")
    else:
        identity = {o: ("id", o) for o in objects}
        for o in objects:
            homs[(o, o)] = (identity[o],) + homs.get((o, o), ())
    arrows = {a: hom for hom, arrow_ids in homs.items() for a in arrow_ids}
    units = {}      # the unit laws of generated identities, given by them
    if "identities" not in doc:
        for a, (x, y) in arrows.items():
            units[(identity[y], a)] = a
            units[(a, identity[x])] = a
    compose = {}
    p = f"{path}.compose"
    for i, row in enumerate(_rows(doc["compose"], p, 3)):
        g, f, h = (_declared(a, f"{p}[{i}][{j}]", arrows, "arrow")
                   for j, a in enumerate(row))
        _once((g, f), units, f"{p}[{i}]", "unit composite")
        compose[_once((g, f), compose, f"{p}[{i}]", "composite of")] = h
    compose.update(units)
    if len(rank) == len(objects):
        cat: FinCat = FinInvCat(objects, homs, compose, identity, rank=rank)
    else:
        cat = FinCat(objects, homs, compose, identity)
    cat.validate()
    return cat


def diagram_from_json(doc, cat: FinCat, path: str) -> SetDiagram:
    _section(doc, path, "values", "functions")
    values = {}
    for i, (o, vals) in enumerate(_rows(doc["values"], f"{path}.values", 2)):
        p = f"{path}.values[{i}]"
        o = _once(_declared(o, f"{p}[0]", cat.objects, "object"), values,
                  f"{p}[0]", "values of")
        values[o] = _ids(vals, f"{p}[1]", "element")
    for o in cat.objects:
        _check(o in values, f"{path}.values", f"no values for object {o!r}")
    action = {}
    p = f"{path}.functions"
    for i, (a, pairs) in enumerate(_rows(doc["functions"], p, 2)):
        a = _once(_declared(a, f"{p}[{i}][0]", cat.src, "arrow"), action,
                  f"{p}[{i}][0]", "function of")
        action[a] = _function(pairs, f"{p}[{i}][1]", values[cat.src[a]],
                              values[cat.dst[a]], f"function for {a!r}",
                              f"function for {a!r} leaves the values of "
                              f"{cat.dst[a]!r}")
    for o, i in cat.identity.items():
        action.setdefault(i, {v: v for v in values[o]})
    for a in cat.arrows():
        _check(a in action, p, f"no function for arrow {a!r}")
    diagram = SetDiagram(cat, values, action)
    diagram.validate()
    return diagram


def sset_from_json(doc, path: str = "sset") -> SetDiagram:
    """The semi-simplicial set as a diagram on the semi-simplex category:
    along ``("m", m, image)`` a cell takes the faces missing from the image,
    highest first.  Every face the levels need must be given, total, and
    land in the level below; ``SetDiagram.validate`` then checks
    functoriality, which holds exactly when the simplicial identities do."""
    _section(doc, path, "levels", "faces")
    levels = [_ids(lvl, f"{path}.levels[{m}]", "element")
              for m, lvl in enumerate(_rows(doc["levels"], f"{path}.levels"))]
    _check(bool(levels), f"{path}.levels", "expected at least level 0")
    faces = {}
    for key, fn in _section(doc["faces"], f"{path}.faces").items():
        p = f"{path}.faces.{key}"
        mi = re.fullmatch(r"(\d+),(\d+)", key)
        _check(mi is not None, p, "a face key is \"m,i\" with integers m, i")
        m, i = _once((int(mi[1]), int(mi[2])), faces, p, "face")
        _check(1 <= m < len(levels) and i <= m, p,
               f"no face ({m},{i}) on levels 0..{len(levels) - 1}")
        faces[(m, i)] = _function(fn, p, levels[m], levels[m - 1], "face",
                                  f"face ({m},{i}) leaves level {m - 1}")
    for m in range(1, len(levels)):
        for i in range(m + 1):
            _check((m, i) in faces, f"{path}.faces",
                   f"missing face map ({m},{i})")

    def act(a, x):
        # dropping vertex j leaves the index of every lower vertex as it was
        _, m, image = a
        for j in reversed(range(m + 1)):
            if j not in image:
                x = faces[(m, j)][x]
                m -= 1
        return x
    out = tabulate(semisimplex_category(len(levels) - 1),
                   dict(enumerate(levels)), act)
    out.validate()
    return out


class Fixture:
    """A loaded fixture document; sections are optional."""

    def __init__(self, doc):
        _section(doc, "top level")
        self.category: Optional[FinCat] = None
        self.diagrams: dict[str, SetDiagram] = {}
        self.sset: Optional[SetDiagram] = None
        if "category" in doc:
            self.category = fincat_from_json(doc["category"])
            diagrams = _section(doc.get("diagrams", {}), "diagrams")
            for name, d in diagrams.items():
                self.diagrams[name] = diagram_from_json(
                    d, self.category, f"diagrams.{name}")
        if "sset" in doc:
            self.sset = sset_from_json(doc["sset"])


def load_fixture(path: Union[str, pathlib.Path]) -> Fixture:
    """The fixture at path, or the shipped one for a bare file name that
    names no file here; a file that is not UTF-8 JSON is refused at it."""
    p = pathlib.Path(path)
    shipped = FIXTURE_ROOT / p.name
    if str(path) == p.name and not p.exists() and shipped.exists():
        p = shipped
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as e:     # UnicodeDecodeError or JSONDecodeError
        raise FixtureError(str(p), str(e)) from None
    return Fixture(doc)
