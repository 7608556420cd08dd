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


def _appended(name, *keys, row):
    """The shipped fixture name.json with row appended to the array at
    keys."""
    doc = json.loads((FIXTURE_ROOT / f"{name}.json").read_text())
    functools.reduce(operator.getitem, keys, doc).append(row)
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
    # an entry given twice: the last one would silently win
    (_appended("poset012", "category", "objects", row=["p1", None]),
     "category.objects[3][0]"),
    (_appended("poset012", "category", "homs", row=["p0", "p1", ["x"]]),
     "category.homs[3]"),
    (_edited("poset012", "category", "homs", 2, 2, value=["le01"]),
     "category.homs[2][2][0]"),
    (_appended("spine_nerve", "category", "identities",
               row=[0, ["m", 0, [0]]]), "category.identities[3][0]"),
    (_appended("poset012", "category", "compose",
               row=["le12", "le01", "le02"]), "category.compose[1]"),
    (_appended("cospan", "diagrams", "X", "values", row=["a", [0, 1]]),
     "diagrams.X.values[3][0]"),
    (_appended("cospan", "diagrams", "X", "functions",
               row=["f", [[0, "*"], [1, "*"]]]), "diagrams.X.functions[2][0]"),
    (_edited("cospan", "diagrams", "X", "values", 0, 1, value=[1, 1]),
     "diagrams.X.values[0][1][1]"),
    (_edited("non_segal", "sset", "levels", 0, value=["a", "b", "a"]),
     "sset.levels[0][2]"),
    (_appended("non_segal", "sset", "faces", "1,0", row=["f", "c"]),
     "sset.faces.1,0[3][0]"),
    (_appended("cospan", "diagrams", "X", "functions", 0, 1, row=[0, "*"]),
     "diagrams.X.functions[0][1][2][0]"),
    (_edited("non_segal", "sset", "faces", "01,0",
             value=[["f", "b"], ["g", "c"], ["h", "c"]]), "sset.faces.01,0"),
    # a unit law of a generated identity, which the identity already gives
    (_appended("cospan", "category", "compose", row=[["id", "c"], "f", "g"]),
     "category.compose[0]"),
    # a face map the levels need is missing, or one leaves its level
    (_edited("non_segal", "sset", "faces", "2,1"), "sset.faces"),
    (_edited("non_segal", "sset", "faces", "2,1", 1, 1, value="c"),
     "sset.faces.2,1[1][1]"),
])
def test_malformed_fixture_names_its_path(doc, path):
    with pytest.raises(FixtureError) as info:
        Fixture(doc)
    assert info.value.path == path
    assert str(info.value).startswith(f"fixture {path}: ")


@pytest.mark.parametrize("doc, path", [
    (_appended("cospan", "diagrams", "X", "functions", 0, 1, row=["zz", "*"]),
     "diagrams.X.functions[0][1][2][0]"),
    (_appended("non_segal", "sset", "faces", "1,0", row=["zz", "a"]),
     "sset.faces.1,0[3][0]"),
])
def test_a_row_from_an_undeclared_element_is_refused(doc, path):
    """A function or face row names an element of its source object or
    level; otherwise the row would load as an extra table entry."""
    with pytest.raises(FixtureError) as info:
        Fixture(doc)
    assert info.value.path == path
    assert str(info.value) == f"fixture {path}: undeclared element 'zz'"


@pytest.mark.parametrize("doc, path, message", [
    (_edited("cospan", "diagrams", "X", "functions", 0, 1, 1),
     "diagrams.X.functions[0][1]", "function for 'f' undefined on 1"),
    (_edited("cospan", "diagrams", "X", "functions", 1, 1, 1, 1, value="zz"),
     "diagrams.X.functions[1][1][1][1]",
     "function for 'g' leaves the values of 'c'"),
], ids=["not-total", "leaves-target"])
def test_a_diagram_function_is_total_into_its_target(doc, path, message):
    """A function row that misses an element of its source, or sends one
    outside its target, is refused at its path before the diagram laws
    are checked, as a face row is."""
    with pytest.raises(FixtureError) as info:
        Fixture(doc)
    assert info.value.path == path
    assert str(info.value) == f"fixture {path}: {message}"


def test_a_negative_rank_is_a_category_error():
    doc = _edited("cospan", "category", "objects", 0, 1, value=-1)
    with pytest.raises(CategoryError, match="negative rank at 'a'"):
        Fixture(doc)


def test_law_failures_are_category_errors():
    doc = _edited("poset012", "category", "compose", value=[])
    with pytest.raises(CategoryError, match="compose missing"):
        Fixture(doc)


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        FIXTURE_ROOT.glob("*.json")))
def test_shipped_fixtures_load(name):
    fx = load_fixture(name)
    assert fx.category is not None or fx.sset is not None
