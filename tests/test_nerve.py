"""Nerves, Segal checks, and pointed nerves."""

import itertools
import json

import pytest

from tltt.categories import CategoryError, FinCat
from tltt.fixtures import FIXTURE_ROOT, Fixture, FixtureError, load_fixture
from tltt.nerve import (
    based_face, based_nerve_level, based_to_pointed, compare_pointed_nerves,
    nerve, pointed_face, pointed_nerve_level, pointed_to_based, segal_check,
    segal_report, spine_restriction, weak_spines,
)


@pytest.fixture(scope="module")
def poset():
    return load_fixture("poset012.json").category


@pytest.fixture(scope="module")
def poset_nerve(poset):
    return nerve(poset, 4)


@pytest.fixture(scope="module")
def non_segal():
    return load_fixture("non_segal.json").sset


class TestNerve:
    def test_level_sizes(self, poset_nerve):
        assert [len(l) for l in poset_nerve.levels] == [3, 6, 10, 15, 21]

    def test_levels_match_chain_count(self, poset, poset_nerve):
        """Level n is the sum over object tuples of the product of hom-set
        sizes along the chain."""
        for n in range(5):
            total = 0
            for xs in itertools.product(poset.objects, repeat=n + 1):
                size = 1
                for a, b in zip(xs, xs[1:]):
                    size *= len(poset.hom(a, b))
                total += size
            assert total == len(poset_nerve.levels[n])

    def test_simplicial_identities_hold(self, poset_nerve):
        poset_nerve.validate()

    @pytest.mark.parametrize("name", sorted(
        p.name for p in FIXTURE_ROOT.glob("*.json")
        if "category" in json.loads(p.read_text())))
    def test_nerve_of_every_fixture_category_is_functorial(self, name):
        """The nerve does not validate its own output; this test does, for
        every shipped category, up to level 4."""
        nerve(load_fixture(name).category, 4).validate()

    def test_inner_face_composes(self, poset):
        n = nerve(poset, 2)
        cell = ("p0", (("le01"), ("le12")))
        assert n.action[("m", 2, (0, 2))][cell] == ("p0", ("le02",))
        assert n.action[("m", 2, (1, 2))][cell] == ("p1", ("le12",))
        assert n.action[("m", 2, (0, 1))][cell] == ("p0", ("le01",))

    def test_restriction_keeps_vertices_and_composes_between(self, poset):
        n = nerve(poset, 3)
        cell = ("p0", (("id", "p0"), "le01", "le12"))
        assert n.action[("m", 3, (1, 3))][cell] == ("p0", ("le02",))
        assert n.action[("m", 3, (0, 2, 3))][cell] == ("p0", ("le01", "le12"))
        assert n.action[("m", 3, (2,))][cell] == ("p1", ())

    def test_composites_follow_the_chain_order(self):
        """On the maps of {0, 1} to itself, which do not commute, a face
        composes the later arrow after the earlier one."""
        maps = ((0, 1), (1, 0), (0, 0), (1, 1))
        ends = FinCat(("*",), {("*", "*"): maps},
                      {(g, f): (g[f[0]], g[f[1]]) for g in maps for f in maps},
                      {"*": (0, 1)})
        n = nerve(ends, 3)
        n.validate()
        swap, zero, one = maps[1:]
        assert n.action[("m", 2, (0, 2))][("*", (swap, zero))] == ("*", (zero,))
        assert n.action[("m", 3, (0, 3))][("*", (zero, swap, swap))] == \
            ("*", (zero,))
        assert n.action[("m", 3, (0, 3))][("*", (swap, one, swap))] == \
            ("*", (zero,))


CELL = ["p0", ["le01", "le12"]]


def _nerve_document(x) -> dict:
    """x written as an `sset` fixture document, each face table listed in
    level order."""
    faces = {}
    for m in range(1, len(x.values)):
        for i in range(m + 1):
            face = x.action[("m", m, tuple(j for j in range(m + 1) if j != i))]
            faces[f"{m},{i}"] = [[v, face[v]] for v in x.values[m]]
    return json.loads(json.dumps({"sset": {"levels": x.levels,
                                           "faces": faces}}))


def _row(faces, key):
    return next(row for row in faces[key] if row[0] == CELL)


def _drop_map(faces):
    del faces["2,1"]


def _drop_cell(faces):
    faces["2,1"].remove(_row(faces, "2,1"))


def _leave_level(faces):
    _row(faces, "2,1")[1] = ["ghost", []]


def _wrong_face(faces):
    _row(faces, "2,0")[1] = ["p0", ["le01"]]   # a level-1 cell, not d_0


class TestValidate:
    """Each rejection of a face table, through the fixture loader, on the
    poset's nerve written as an `sset` document with one entry broken."""

    @pytest.mark.parametrize("edit, error, message", [
        (_drop_map, FixtureError,
         r"^fixture sset\.faces: missing face map \(2,1\)$"),
        (_drop_cell, FixtureError,
         r"^fixture sset\.faces\.2,1: face undefined on "
         r"\('p0', \('le01', 'le12'\)\)$"),
        (_leave_level, FixtureError,
         r"^fixture sset\.faces\.2,1\[4\]\[1\]: face \(2,1\) leaves "
         r"level 1$"),
        (_wrong_face, CategoryError,
         r"^functoriality fails: .* on \('p0', \('le01', 'le12'\)\)$"),
    ], ids=["missing", "undefined", "leaves", "identity"])
    def test_broken_entry_is_rejected(self, poset, edit, error, message):
        doc = _nerve_document(nerve(poset, 2))
        Fixture(doc)             # the unbroken document loads
        edit(doc["sset"]["faces"])
        with pytest.raises(error, match=message):
            Fixture(doc)


class TestSegal:
    def test_poset_nerve_is_segal_up_to_4(self, poset_nerve):
        for verdict in segal_report(poset_nerve, 4):
            assert verdict.bijective, verdict.to_json()

    def test_weak_spines_chain_condition(self, poset_nerve):
        target = poset_nerve.action[("m", 1, (1,))]
        source = poset_nerve.action[("m", 1, (0,))]
        for (e1, e2) in weak_spines(poset_nerve, 2):
            assert target[e1] == source[e2]

    def test_weak_spines_need_an_edge(self, poset_nerve):
        with pytest.raises(ValueError, match="weak spines need n >= 1"):
            weak_spines(poset_nerve, 0)

    def test_spine_restriction_lands_in_weak_spines(self, poset_nerve):
        spines = set(weak_spines(poset_nerve, 3))
        for cell in poset_nerve.levels[3]:
            assert spine_restriction(poset_nerve, 3, cell) in spines

    def test_non_segal_fixture_fails_at_two(self, non_segal):
        assert segal_check(non_segal, 1).bijective
        verdict = segal_check(non_segal, 2)
        assert not verdict.bijective and not verdict.injective

    def test_non_segal_fixture_is_a_valid_sset(self, non_segal):
        non_segal.validate()


UNIVERSES = [
    [()],
    [(), ("*",)],
    [("*",), ("a", "b")],
    [(), ("*",), ("a", "b")],
]
# The universes of criterion 8 (tests/test_acceptance.py), then one with a
# three-element set.
ORACLE_UNIVERSES = [
    [()],
    [("*",)],
    [(), ("*",)],
    [("*",), ("a", "b")],
    [(), ("*",), ("a", "b")],
    [("a", "b", "c"), ()],
]


def _pointed_nerve_level_by_filtering(universe, n):
    """The definition of a pointed level, written out: every chain of sets,
    every choice of points and every chain of maps, kept when each map
    sends its point to the next one."""
    cells = []
    for sets in itertools.product(range(len(universe)), repeat=n + 1):
        maps_list = list(itertools.product(*(
            itertools.product(universe[sets[i + 1]],
                              repeat=len(universe[sets[i]]))
            for i in range(n))))
        for points in itertools.product(*(universe[s] for s in sets)):
            for maps in maps_list:
                if all(maps[i][universe[sets[i]].index(points[i])]
                       == points[i + 1] for i in range(n)):
                    cells.append((sets, points, maps))
    return cells


class TestPointedNerve:
    @pytest.mark.parametrize("universe", UNIVERSES)
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_counts_agree(self, universe, n):
        assert len(pointed_nerve_level(universe, n)) == \
            len(based_nerve_level(universe, n))

    @pytest.mark.parametrize("universe", UNIVERSES[:3])
    def test_bijection_and_naturality(self, universe):
        cmp = compare_pointed_nerves(universe, 2)
        assert cmp.bijective and cmp.natural

    def test_full_comparison_depth_three(self):
        cmp = compare_pointed_nerves([(), ("*",), ("a", "b")], 3)
        assert cmp.bijective and cmp.natural
        assert cmp.pointed_counts == cmp.based_counts

    @pytest.mark.parametrize("universe", ORACLE_UNIVERSES, ids=str)
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_generated_level_matches_the_filtering_oracle(self, universe, n):
        """The point-preserving maps are generated, not filtered out of all
        maps; the level is the same list, order included."""
        assert pointed_nerve_level(universe, n) == \
            _pointed_nerve_level_by_filtering(universe, n)

    def test_the_pointed_side_never_reads_the_based_side(self, monkeypatch):
        """The pointed levels, and the pointed faces and forgetting inside
        `compare_pointed_nerves`, give the same results when the based
        side's level and inverse raise whenever the pointed side calls
        them: a comparison of the based side with itself cannot come in."""
        universe = [(), ("*",), ("a", "b")]
        levels = [pointed_nerve_level(universe, n) for n in range(4)]
        expected = compare_pointed_nerves(universe, 3)
        inside = []

        def pointed_only(fn):
            def run(*args):
                inside.append(fn)
                try:
                    return fn(*args)
                finally:
                    inside.pop()
            return run

        def based_only(fn):
            def run(*args):
                assert not inside, f"{fn.__name__} called from {inside[-1]}"
                return fn(*args)
            return run

        for fn in (based_nerve_level, based_to_pointed):
            def refuse(*args, fn=fn):
                raise AssertionError(f"{fn.__name__} called")
            monkeypatch.setattr(f"tltt.nerve.{fn.__name__}", refuse)
        assert [pointed_nerve_level(universe, n) for n in range(4)] == levels

        for fn in (based_nerve_level, based_to_pointed, based_face):
            monkeypatch.setattr(f"tltt.nerve.{fn.__name__}", based_only(fn))
        for fn in (pointed_nerve_level, pointed_face, pointed_to_based):
            monkeypatch.setattr(f"tltt.nerve.{fn.__name__}",
                                pointed_only(fn))
        assert compare_pointed_nerves(universe, 3) == expected

    def test_roundtrip_explicit(self):
        universe = [("*",), ("a", "b")]
        for cell in pointed_nerve_level(universe, 2):
            assert based_to_pointed(universe, pointed_to_based(cell)) == cell

    def test_faces_are_simplicial(self):
        """d_i d_j = d_{j-1} d_i for i < j on both presentations."""
        universe = [("*",), ("a", "b")]
        for cell in pointed_nerve_level(universe, 2):
            for j in range(3):
                for i in range(j):
                    lhs = pointed_face(universe,
                                       pointed_face(universe, cell, j), i)
                    rhs = pointed_face(universe,
                                       pointed_face(universe, cell, i), j - 1)
                    assert lhs == rhs
        for cell in based_nerve_level(universe, 2):
            for j in range(3):
                for i in range(j):
                    lhs = based_face(universe,
                                     based_face(universe, cell, j), i)
                    rhs = based_face(universe,
                                     based_face(universe, cell, i), j - 1)
                    assert lhs == rhs


class TestPointedComparisonCanFail:
    """Each verdict of `compare_pointed_nerves` can come out false: one side
    of the comparison is broken at a time."""

    UNIVERSE = [("*",), ("a", "b")]

    def test_a_face_that_forgets_to_push_the_point_is_not_natural(
            self, monkeypatch):
        def face(universe, cell, i):
            sets, point, maps = cell
            if i == 0:
                return (sets[1:], point, maps[1:])
            return based_face(universe, cell, i)

        monkeypatch.setattr("tltt.nerve.based_face", face)
        cmp = compare_pointed_nerves(self.UNIVERSE, 2)
        assert (cmp.bijective, cmp.natural) == (True, False)

    def test_sending_two_base_points_to_one_is_not_a_bijection(
            self, monkeypatch):
        def forget(cell):
            sets, point, maps = pointed_to_based(cell)
            return sets, "a" if point == "b" else point, maps

        monkeypatch.setattr("tltt.nerve.pointed_to_based", forget)
        cmp = compare_pointed_nerves(self.UNIVERSE, 2)
        assert not cmp.bijective

    @pytest.mark.parametrize("level", [2, 3])
    def test_a_face_that_keeps_the_wrong_point_is_not_natural(
            self, monkeypatch, level):
        """At an inner face of a cell at the given level this face drops
        the first point instead of the i-th, so the forgotten cell's base
        point moves: a naturality check that reused the forgotten cells in
        place of taking pointed faces, or skipped a level, would miss it."""
        def face(universe, cell, i):
            sets, points, maps = pointed_face(universe, cell, i)
            if len(cell[2]) == level and 0 < i < level:
                points = cell[1][1:]
            return sets, points, maps

        monkeypatch.setattr("tltt.nerve.pointed_face", face)
        cmp = compare_pointed_nerves(self.UNIVERSE, 3)
        assert (cmp.bijective, cmp.natural) == (True, False)
