"""The truncated diagram classifier and its interpretation round trip."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

import tltt

from tltt import classifier
from tltt.categories import (
    CategoryError, DiagramMap, SetDiagram, constant_diagram, random_diagram,
    random_inverse_category, semisimplex_category, tabulate,
)
from tltt.classifier import (
    ClassifierElement, classifier_elements, extract, interpret,
    iter_classifier_elements, round_trip,
)
from tltt.nerve import segal_check

UNIVERSE = [(), ("*",)]


def _setup(n, universe=UNIVERSE, base_values=("*",)):
    ambient = semisimplex_category(max(n, 1))
    base = constant_diagram(ambient.truncate_below(n), base_values)
    return ambient, base, classifier_elements(ambient, n, base, universe)


def _nonconstant_base():
    """One edge e from vertex a to vertex b: two values at 0, one at 1."""
    ambient = semisimplex_category(2)
    sub = ambient.truncate_below(2)
    values = {0: ("a", "b"), 1: ("e",)}
    faces = {("m", 1, (0,)): {"e": "a"}, ("m", 1, (1,)): {"e": "b"}}
    action = {a: faces.get(a) or {v: v for v in values[sub.src[a]]}
              for a in sub.arrows()}
    return ambient, SetDiagram(sub, values, action)


def _random_bases(seed=11, draws=5, max_card=1):
    """Seeded (category, base, classifier elements) triples on random
    inverse categories of rank at most 1, the stage one above the top rank;
    a stage of more than 200 elements is left out.  Every base the default
    seed draws is empty; seed 12 at `max_card=2` draws mostly nonempty
    ones."""
    rng = random.Random(seed)
    cases = []
    for _ in range(draws):
        cat = random_inverse_category(rng, max_objects=3, max_rank=1)
        n = max(cat.rank.values()) + 1
        base = random_diagram(rng, cat.truncate_below(n), max_card=max_card)
        els = classifier_elements(cat, n, base, UNIVERSE)
        if len(els) <= 200:
            cases.append((cat, base, els))
    return cases


def regrouping_interpret(c, x, base):
    """`interpret` as first written: every stage regrouped by object into a
    dict of fibres, then flattened in (rank, str) object order."""
    sub = base.cat
    values: dict = {}
    components: dict = {}
    stage_of = {}
    for stage in x.choices:
        for (i, b, mkey), fibre in stage:
            stage_of.setdefault(i, {})[(b, mkey)] = fibre
    for i in sorted(sub.objects, key=lambda o: (c.rank[o], str(o))):
        elems = []
        comp = {}
        for (b, mkey), fibre in stage_of.get(i, {}).items():
            for y in fibre:
                e = (b, mkey, y)
                elems.append(e)
                comp[e] = b
        values[i] = tuple(elems)
        components[i] = comp
    diagram = tabulate(sub, values, lambda a, e: (
        e if sub.identity[sub.src[a]] == a else dict(e[1])[a]))
    return diagram, DiagramMap(diagram, base, components)


class TestEnumeration:
    def test_stage_zero_is_singleton(self):
        _, _, els = _setup(0)
        assert els == [ClassifierElement(0, ())]

    def test_stage_one_has_two_elements(self):
        _, _, els = _setup(1)
        assert len(els) == 2

    def test_stage_two_has_three_elements(self):
        # over the empty vertex set there are no edge keys; over the
        # singleton vertex set there is one, valued in the universe
        _, _, els = _setup(2)
        assert len(els) == 3

    def test_stage_two_larger_universe(self):
        _, _, els = _setup(2, universe=[(), ("*",), ("a", "b")])
        # 1 (empty) + 3 (singleton vertex: 3 choices ^ 1 key)
        # + 81 (two vertices: 3 choices ^ 4 ordered pairs)
        assert len(els) == 85

    def test_interpret_of_empty_element_is_empty(self):
        ambient, base, els = _setup(1)
        empty = next(e for e in els
                     if all(not fib for _, fib in e.choices[0]))
        d, p = interpret(ambient, empty, base)
        assert all(len(v) == 0 for v in d.values.values())


class TestStream:
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("universe", [UNIVERSE, [(), ("*",), ("a", "b")]])
    def test_stream_is_the_list_in_order(self, n, universe):
        ambient, base, els = _setup(n, universe)
        assert list(iter_classifier_elements(ambient, n, base, universe)) \
            == els

    @pytest.mark.parametrize("max_card, want", [(1, 3), (2, 85), (3, 262405)])
    def test_streamed_count_at_stage_two(self, max_card, want):
        # one key at rank 0; at rank 1 one key per ordered pair of points
        # of the rank-0 fibre S, so sum over S in U of |U| ** (|S| ** 2)
        universe = [tuple("abc"[:k]) for k in range(max_card + 1)]
        assert sum(len(universe) ** (len(s) ** 2) for s in universe) == want
        ambient = semisimplex_category(2)
        base = constant_diagram(ambient.truncate_below(2), ("*",))
        stream = iter_classifier_elements(ambient, 2, base, universe)
        assert sum(1 for _ in stream) == want

    def test_rank_guard_before_the_first_draw(self):
        ambient = semisimplex_category(2)
        base = constant_diagram(ambient.truncate_below(2), ("*",))
        with pytest.raises(CategoryError):
            iter_classifier_elements(ambient, 1, base, UNIVERSE)
        with pytest.raises(CategoryError):
            classifier_elements(ambient, 1, base, UNIVERSE)

    def test_order_ignores_hash_seed(self):
        # Frozensets are printed sorted, so the dump shows only the order of
        # the elements and of the values of each interpretation.  At n = 3
        # the element order itself followed the hash seed.
        script = """
import itertools
from tltt.categories import constant_diagram, semisimplex_category
from tltt.classifier import interpret, iter_classifier_elements

def show(v):
    if isinstance(v, frozenset):
        return sorted(repr(show(e)) for e in v)
    if isinstance(v, tuple):
        return tuple(show(e) for e in v)
    return v

for n in (2, 3):
    ambient = semisimplex_category(n)
    base = constant_diagram(ambient.truncate_below(n), ("*",))
    stream = iter_classifier_elements(ambient, n, base, [(), ("a", "b")])
    for x in itertools.islice(stream, 40):
        d, _ = interpret(ambient, x, base)
        print(show(x.choices), [show(d.values[o]) for o in sorted(d.values)])
"""
        src = str(pathlib.Path(tltt.__file__).resolve().parents[1])
        dumps = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            dumps.append(done.stdout)
        same = dumps[0] == dumps[1]     # no pytest diff of two long dumps
        assert dumps[0] and same


class TestInterpretation:
    def test_interpretations_validate(self):
        ambient, base, els = _setup(2)
        for x in els:
            d, p = interpret(ambient, x, base)
            d.validate()
            p.validate()

    def test_level_sets_are_fibre_sums(self):
        ambient, base, els = _setup(2)
        for x in els:
            d, _ = interpret(ambient, x, base)
            for r, stage in enumerate(x.choices):
                for i in base.cat.objects:
                    if ambient.rank[i] != r:
                        continue
                    total = sum(len(fib) for (j, b, m), fib in stage
                                if j == i)
                    assert total == len(d.values[i])


class TestRoundTrip:
    def test_round_trip_exhaustive_stage_two(self):
        ambient, base, els = _setup(2)
        assert els
        for x in els:
            rt = round_trip(ambient, x, base)
            assert rt.ok, rt.to_json()

    def test_round_trip_two_element_fibres(self):
        ambient, base, els = _setup(2, universe=[(), ("*",), ("a", "b")])
        for x in els:
            assert round_trip(ambient, x, base).ok

    def test_round_trip_nonconstant_base(self):
        ambient, base = _nonconstant_base()
        base.validate()
        assert all(base.values.values()) and len(set(base.values.values())) > 1
        els = classifier_elements(ambient, 2, base, UNIVERSE)
        assert els
        for x in els:
            assert round_trip(ambient, x, base).ok

    def test_round_trip_random_inverse_base(self):
        for cat, base, els in _random_bases() + _random_bases(12, 20, 2):
            for x in els:
                assert round_trip(cat, x, base).ok


class TestSegalOnClassifierElements:
    """The Segal check reads an interpreted classifier element as it reads a
    nerve: both are diagrams on the semi-simplex category."""

    @pytest.mark.parametrize("n, size", [(3, 4), (4, 5), (5, 6)])
    def test_three_elements_over_the_point_are_segal(self, n, size):
        """At max-card 1 the Segal ones, at every level from 2 to n-1, are
        the empty element, a point and the terminal one: the semicategories
        with at most one object and at most one arrow."""
        ambient, base, els = _setup(n)
        assert len(els) == size
        segal = []
        for x in els:
            d, _ = interpret(ambient, x, base)
            if all(segal_check(d, k).bijective for k in range(2, n)):
                segal.append([len(d.values[k]) for k in range(n)])
        assert sorted(segal) == [[0] * n, [1] + [0] * (n - 1), [1] * n]


class TestInterpretOracle:
    """`interpret` builds each level in one pass over the stages; it gives
    the diagram and projection that regrouping the stages by object gave,
    value order included, beyond the constant bases the diagram golden
    pins."""

    @staticmethod
    def cases():
        ambient, base = _nonconstant_base()
        yield ambient, base, classifier_elements(ambient, 2, base, UNIVERSE)
        yield ambient, base, classifier_elements(ambient, 2, base,
                                                 [(), ("*",), ("a", "b")])
        yield from _random_bases()
        yield from _random_bases(12, 20, 2)

    @staticmethod
    def assert_same(c, x, base):
        d, p = interpret(c, x, base)
        want_d, want_p = regrouping_interpret(c, x, base)
        assert list(d.values.items()) == list(want_d.values.items())
        assert d.action == want_d.action
        assert p.components == want_p.components

    def test_elements_interpret_as_regrouped(self):
        seen = 0
        for c, base, els in self.cases():
            for x in els:
                self.assert_same(c, x, base)
                seen += 1
        assert seen > 100

    def test_extracted_elements_interpret_as_regrouped(self):
        for c, base, els in self.cases():
            for x in els:
                d, p = interpret(c, x, base)
                again, _ = extract(c, x.n, d, p, base)
                self.assert_same(c, again, base)


class TestRoundTripCanFail:
    """Each failure verdict of `round_trip` is reachable: `extract` is broken
    one way at a time, so a check that always passed would fail here."""

    @staticmethod
    def break_extract(monkeypatch, corrupt):
        """Make `round_trip` re-extract through `corrupt(element, eta)`."""
        real = classifier.extract
        monkeypatch.setattr(classifier, "extract",
                            lambda *args: corrupt(*real(*args)))

    def test_merged_elements_are_not_a_bijection(self, monkeypatch):
        ambient, base, els = _setup(2, universe=[(), ("*",), ("a", "b")])
        levels = [interpret(ambient, x, base)[0].values for x in els]
        x, values = next((x, values) for x, values in zip(els, levels)
                         if any(len(v) > 1 for v in values.values()))
        o = next(o for o in base.cat.objects if len(values[o]) > 1)
        first, second = values[o][:2]

        def merge(element, eta):
            eta[o][second] = eta[o][first]
            return element, eta

        self.break_extract(monkeypatch, merge)
        rt = round_trip(ambient, x, base)
        assert (rt.ok, rt.detail) == (False, f"not a bijection at {o!r}")

    def test_moved_base_points_are_a_projection_mismatch(self, monkeypatch):
        # stage 1 over two base points: every element moves to the other one
        ambient = semisimplex_category(1)
        base = constant_diagram(ambient.truncate_below(1), ("a", "b"))
        x = next(x for x in classifier_elements(ambient, 1, base, UNIVERSE)
                 if any(fibre for _, fibre in x.choices[0]))
        other = {"a": "b", "b": "a"}

        def move(element, eta):
            stages = tuple(tuple(((i, other[b], m), fibre)
                                 for (i, b, m), fibre in stage)
                           for stage in element.choices)
            eta = {o: {v: (other[b], m, y) for v, (b, m, y) in level.items()}
                   for o, level in eta.items()}
            return ClassifierElement(element.n, stages), eta

        self.break_extract(monkeypatch, move)
        rt = round_trip(ambient, x, base)
        assert (rt.ok, rt.detail) == (False, "projection mismatch at 0")

    def test_swapped_vertices_are_not_natural(self, monkeypatch):
        # two vertices and an edge between them: swapping the vertices'
        # images keeps a bijection over the one base point, but the edge's
        # faces no longer follow
        ambient, base, els = _setup(2, universe=[(), ("a", "b")])
        x = next(x for x in els
                 if interpret(ambient, x, base)[0].values[1])
        u, v = interpret(ambient, x, base)[0].values[0]

        def swap(element, eta):
            eta[0][u], eta[0][v] = eta[0][v], eta[0][u]
            return element, eta

        self.break_extract(monkeypatch, swap)
        rt = round_trip(ambient, x, base)
        assert not rt.ok and rt.detail.startswith("naturality fails at ")

    def test_naturality_failure_names_arrow_and_element(self, monkeypatch):
        # the same swap, with the verdict's detail read in full: the first
        # arrow, in `arrows()` order, and the first element it fails on
        ambient, base, els = _setup(2, universe=[(), ("a", "b")])
        x = next(x for x in els
                 if interpret(ambient, x, base)[0].values[1])
        diagram = interpret(ambient, x, base)[0]
        u, v = diagram.values[0]
        seen = {}

        def swap(element, eta):
            eta[0][u], eta[0][v] = eta[0][v], eta[0][u]
            seen["element"], seen["eta"] = element, eta
            return element, eta

        self.break_extract(monkeypatch, swap)
        rt = round_trip(ambient, x, base)
        again = interpret(ambient, seen["element"], base)[0]
        eta, cat = seen["eta"], base.cat
        a, e = next((a, e) for a in cat.arrows()
                    for e in diagram.values[cat.src[a]]
                    if eta[cat.dst[a]][diagram.action[a][e]]
                    != again.action[a][eta[cat.src[a]][e]])
        assert cat.src[a] == 1 and e in diagram.values[1]
        assert (rt.ok, rt.detail) == (False,
                                      f"naturality fails at {a!r} on {e!r}")
