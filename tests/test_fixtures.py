"""Fixture documents: the shipped ones load, malformed ones raise
FixtureError naming the JSON path that failed."""

import functools
import json
import operator

import pytest

from tltt.categories import CategoryError
from tltt.fixtures import FIXTURE_ROOT, Fixture, FixtureError, load_fixture

DROP = object()


def _edited(name, *keys, value=DROP):
    """The shipped fixture name.json with the value at keys replaced, or
    deleted when no value is given."""
    doc = json.loads((FIXTURE_ROOT / f"{name}.json").read_text())
    *head, last = keys
    parent = functools.reduce(operator.getitem, head, doc)
    if value is DROP:
        del parent[last]
    else:
        parent[last] = value
    return doc


@pytest.mark.parametrize("doc, path", [
    ([1, 2], "top level"),
    (7, "top level"),
    ({"category": []}, "category"),
    (_edited("poset012", "category", "compose"), "category"),
    (_edited("poset012", "category", "objects", 0, value=["p0"]),
     "category.objects[0]"),
    (_edited("poset012", "category", "objects", 0, 1, value="high"),
     "category.objects[0][1]"),
    (_edited("poset012", "category", "objects", 0, 0, value="renamed"),
     "category.homs[0][0]"),
    (_edited("poset012", "category", "homs", 0, 1, value="zz"),
     "category.homs[0][1]"),
    (_edited("poset012", "category", "homs", 1, 2, 0, value={}),
     "category.homs[1][2][0]"),
    (_edited("poset012", "category", "compose", 0, 2, value="le99"),
     "category.compose[0][2]"),
    (_edited("spine_nerve", "category", "identities", 0, 0, value=7),
     "category.identities[0][0]"),
    (_edited("cospan", "diagrams", "X", "values", 2), "diagrams.X.values"),
    (_edited("cospan", "diagrams", "X", "values", 0, 0, value="q"),
     "diagrams.X.values[0][0]"),
    (_edited("cospan", "diagrams", "X", "functions", 1),
     "diagrams.X.functions"),
    (_edited("cospan", "diagrams", "X", "functions", 0, 0, value="h"),
     "diagrams.X.functions[0][0]"),
    (_edited("cospan", "diagrams", "X", value=[]), "diagrams.X"),
    (_edited("non_segal", "sset", "faces", "1;0", value=[]),
     "sset.faces.1;0"),
    (_edited("non_segal", "sset", "faces", "3,0", value=[]),
     "sset.faces.3,0"),
    (_edited("non_segal", "sset", "faces", "1,0", 2), "sset.faces.1,0"),
    (_edited("non_segal", "sset", "levels", value=[]), "sset.levels"),
])
def test_malformed_fixture_names_its_path(doc, path):
    with pytest.raises(FixtureError) as info:
        Fixture(doc)
    assert info.value.path == path
    assert str(info.value).startswith(f"fixture {path}: ")


def test_law_failures_are_category_errors():
    doc = _edited("poset012", "category", "compose", value=[])
    with pytest.raises(CategoryError, match="compose missing"):
        Fixture(doc)


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        FIXTURE_ROOT.glob("*.json")))
def test_shipped_fixtures_load(name):
    fx = load_fixture(name)
    assert fx.category is not None or fx.sset is not None
