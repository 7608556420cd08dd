"""Inverse categories, diagrams, limits two ways, exponentials, pullbacks."""

import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import tltt

from tltt.categories import (
    CategoryError, DiagramMap, FinCat, FinInvCat, SetDiagram,
    constant_diagram, diagram_nat_transforms, exponential_diagram,
    family_key, limit_direct, limit_recursive, matching_object,
    product_diagram, pullback_diagram, random_diagram,
    random_inverse_category, reduced_coslice, representable,
    semisimplex_category, sset_to_diagram,
)
from tltt.fixtures import load_fixture
from tltt.simplex import boundary_subfunctor, nat_transforms


@pytest.fixture(scope="module")
def cospan():
    fx = load_fixture("cospan.json")
    return fx.category, fx.diagrams["X"]


class TestValidation:
    def test_fixture_categories_validate(self, cospan):
        cospan[0].validate()

    def test_diagram_over_compose_with_unknown_arrow_is_rejected(self):
        # FinCat.validate ignores compose entries outside the category
        cat = FinCat(("a",), {("a", "a"): (("id", "a"),)},
                     {(("id", "a"), ("id", "a")): ("id", "a"),
                      (("id", "a"), "ghost"): "ghost"}, {"a": ("id", "a")})
        cat.validate()
        diagram = constant_diagram(cat, (0,))
        with pytest.raises(CategoryError, match="unknown arrow"):
            diagram.validate()

    def test_diagram_over_undeclared_object_is_rejected(self):
        # FinCat.validate would reject the hom-set into 'ghost'; unrun, the
        # diagram's own check names the arrow
        cat = FinCat(("a",), {("a", "a"): (("id", "a"),), ("a", "ghost"): ("f",)},
                     {(("id", "a"), ("id", "a")): ("id", "a")}, {"a": ("id", "a")})
        diagram = constant_diagram(cat, (0,))
        with pytest.raises(CategoryError, match="arrow 'f' from 'a' to 'ghost'"):
            diagram.validate()

    def test_missing_compose_detected(self):
        cat = FinCat(("a",), {("a", "a"): (("id", "a"), "e")},
                     {}, {"a": ("id", "a")})
        with pytest.raises(CategoryError):
            cat.validate()

    @pytest.mark.parametrize("change, message", [
        ({"homs": {("a", "a"): ("id", "e"), ("a", "z"): ("k",)}},
         r"hom set over unknown objects \(a, z\)"),
        ({"homs": {("a", "a"): ("id", "e", "e")}}, "duplicate arrow id 'e'"),
        ({"identity": {}}, "missing identity for object 'a'"),
        ({"objects": ("a", "b"),
          "homs": {("a", "a"): ("id", "e"), ("b", "b"): ("idb",)},
          "identity": {"a": "id", "b": "idb"},
          "compose": {("idb", "idb"): "idb", ("idb", "e"): "e"}},
         r"compose defined for non-composable \('idb', 'e'\)"),
        ({"compose": {("e", "e"): None}}, r"compose missing for \('e', 'e'\)"),
        ({"compose": {("e", "e"): "k"}},
         r"compose \('e', 'e'\) = 'k' lands outside hom\('a', 'a'\)"),
        ({"compose": {("id", "e"): "id"}}, "left unit law fails at 'e'"),
        ({"compose": {("e", "id"): "id"}}, "right unit law fails at 'e'"),
        # e.e = t, e.t = e, t.e = t, t.t = e: unital, but (e.e).e != e.(e.e)
        ({"homs": {("a", "a"): ("id", "e", "t")},
          "compose": {("id", "t"): "t", ("t", "id"): "t", ("e", "e"): "t",
                      ("e", "t"): "e", ("t", "e"): "t", ("t", "t"): "e"}},
         "associativity fails on"),
    ])
    def test_each_category_law_is_checked(self, change, message):
        """One broken law per case on the idempotent monoid {id, e}."""
        compose = {("id", "id"): "id", ("id", "e"): "e", ("e", "id"): "e",
                   ("e", "e"): "e"}
        compose.update(change.get("compose", {}))
        cat = FinCat(change.get("objects", ("a",)),
                     change.get("homs", {("a", "a"): ("id", "e")}),
                     {k: v for k, v in compose.items() if v is not None},
                     change.get("identity", {"a": "id"}))
        with pytest.raises(CategoryError, match=message):
            cat.validate()

    def test_rank_violation_detected(self, cospan):
        cat, _ = cospan
        bad = FinInvCat(cat.objects, cat.homs, cat.compose, cat.identity,
                        rank={"a": 0, "b": 0, "c": 5})
        with pytest.raises(CategoryError):
            bad.validate()

    def test_missing_rank_detected(self, cospan):
        """A category built without a rank for every object still reaches
        `validate`, which names the object."""
        cat, _ = cospan
        bad = FinInvCat(cat.objects, cat.homs, cat.compose, cat.identity,
                        rank={"a": 1, "b": 1})
        with pytest.raises(CategoryError, match="missing rank for object 'c'"):
            bad.validate()

    def test_functoriality_violation_detected(self, cospan):
        cat, x = cospan
        action = dict(x.action)
        action["f"] = {0: "*", 1: "*"}
        broken = dict(action)
        broken[("id", "a")] = {0: 1, 1: 0}
        with pytest.raises(CategoryError):
            SetDiagram(cat, x.values, broken).validate()

    def test_random_diagram_rejects_arrows_it_cannot_act_along(self):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(CategoryError, match=r"\('m', 0, \(0,\)\)"):
            random_diagram(rng, semisimplex_category(2).truncate_below(2))
        assert rng.getstate() == state     # refused before any draw

    def test_random_diagram_needs_generators_to_be_arrows(self):
        # ("p", ("g", "h")) is a path whose generators are not arrows
        ids = {"x": ("id", "x"), "y": ("id", "y")}
        path = ("p", ("g", "h"))
        cat = FinInvCat(
            ("x", "y"),
            {("x", "x"): (ids["x"],), ("y", "y"): (ids["y"],),
             ("x", "y"): (path,)},
            {(ids["x"], ids["x"]): ids["x"], (ids["y"], ids["y"]): ids["y"],
             (path, ids["x"]): path, (ids["y"], path): path},
            ids, rank={"x": 1, "y": 0})
        cat.validate()
        # seed 0 gives both objects values, so the path is walked
        with pytest.raises(CategoryError, match="generator 'g' not found"):
            random_diagram(random.Random(0), cat)

    def test_random_instances_validate(self):
        for seed in range(20):
            rng = random.Random(seed)
            cat = random_inverse_category(rng)
            cat.validate()
            random_diagram(rng, cat).validate()


class TestCoslice:
    def test_semisimplex_coslice_counts(self):
        c = semisimplex_category(2)
        cos = reduced_coslice(c, 2)
        # non-identity monos into [2]: 3 vertices + 3 edges
        assert len(cos.objects) == 6
        cos.validate()

    def test_coslice_is_inverse(self):
        for seed in range(10):
            rng = random.Random(seed)
            c = random_inverse_category(rng)
            for o in c.objects:
                reduced_coslice(c, o).validate()

    def test_coslice_forgetful_is_functorial(self):
        c = semisimplex_category(2)
        cos = reduced_coslice(c, 2)
        for (f, h) in cos.arrows():
            assert c.compose[(h, f)] in cos.objects or c.src[h] == c.dst[f]
        for ((g2, h2), (f1, h1)), (f, h) in cos.compose.items():
            assert h == c.compose[(h2, h1)]


class TestSemiSimplexCategory:
    """The opposite of Δ₊ below rank 6 against maps taken as functions."""

    @pytest.mark.parametrize("n", range(6))
    def test_hom_sets_are_binomial(self, n):
        c = semisimplex_category(n)
        for k in range(n + 1):
            for j in range(n + 1):
                want = math.comb(k + 1, j + 1) if j <= k else 0
                assert len(c.hom(k, j)) == want

    @pytest.mark.parametrize("n", range(6))
    def test_composites_are_composed_functions(self, n):
        """``compose[(b, a)]`` is the map [l] -> [k] that sends i to
        a(b(i)), for a : [j] -> [k] and b : [l] -> [j] as functions."""
        c = semisimplex_category(n)
        pairs = 0
        for a in c.arrows():
            for b in c.arrows():
                if c.src[b] != c.dst[a]:
                    continue
                fa, fb = dict(enumerate(a[2])), dict(enumerate(b[2]))
                composite = c.compose[(b, a)]
                assert composite[1] == a[1]
                assert dict(enumerate(composite[2])) == {
                    i: fa[fb[i]] for i in fb}
                pairs += 1
        assert pairs == len(c.compose)

    @pytest.mark.parametrize("n", range(6))
    def test_laws_hold(self, n):
        semisimplex_category(n).validate()


class TestOutgoingArrows:
    @pytest.mark.parametrize("seed", [None, *range(30)])
    def test_out_of_is_the_scan_of_the_hom_sets(self, seed):
        c = (semisimplex_category(3) if seed is None
             else random_inverse_category(random.Random(seed)))
        for x in c.objects:
            scan = [a for (s, _), hom in c.homs.items() if s == x
                    for a in hom if a != c.identity[x]]
            assert c.out_of(x) == tuple(sorted(scan, key=str))


class TestTruncation:
    @pytest.mark.parametrize("c", [
        *(semisimplex_category(n) for n in range(5)),
        *(random_inverse_category(random.Random(seed)) for seed in range(100)),
    ])
    def test_truncation_is_the_restriction_of_every_table(self, c):
        """truncate_below(n) keeps each table's entries over objects of
        rank < n, in the parent's order; arrows out of a kept object land
        in lower ranks, so its ``out_of`` is the parent's."""
        for n in range(max(c.rank.values()) + 2):
            t = c.truncate_below(n)
            t.validate()
            kept = [o for o in c.objects if c.rank[o] < n]

            def below(table, objects_of):
                return [(k, v) for k, v in table.items()
                        if all(c.rank[o] < n for o in objects_of(k, v))]

            assert t.objects == tuple(kept)
            assert list(t.homs.items()) == below(c.homs, lambda xy, _: xy)
            assert list(t.compose.items()) == below(
                c.compose, lambda gf, _: [c.src[gf[1]], c.dst[gf[1]],
                                          c.src[gf[0]], c.dst[gf[0]]])
            assert list(t.identity.items()) == below(
                c.identity, lambda o, _: [o])
            assert list(t.rank.items()) == below(c.rank, lambda o, _: [o])
            ends = lambda a, _: [c.src[a], c.dst[a]]  # noqa: E731
            assert list(t.src.items()) == below(c.src, ends)
            assert list(t.dst.items()) == below(c.dst, ends)
            assert [t.out_of(o) for o in kept] == [c.out_of(o) for o in kept]


class TestLimits:
    def test_cospan_limit_is_the_pullback(self, cospan):
        _, x = cospan
        fams = limit_direct(x)
        assert len(fams) == 4
        assert {family_key(f) for f in limit_recursive(x)} == \
            {family_key(f) for f in fams}

    def test_empty_category_limit_is_singleton(self):
        c = FinInvCat((), {}, {}, {}, rank={})
        d = SetDiagram(c, {}, {})
        assert limit_recursive(d) == [{}]
        assert limit_direct(d) == [{}]

    def test_empty_value_forces_empty_limit(self, cospan):
        cat, x = cospan
        values = dict(x.values)
        values["a"] = ()
        action = dict(x.action)
        action["f"] = {}
        action[("id", "a")] = {}
        d = SetDiagram(cat, values, action)
        assert limit_direct(d) == [] == limit_recursive(d)

    def test_recursive_limit_needs_an_inverse_category(self):
        c = FinCat(("a",), {("a", "a"): ("i",)}, {("i", "i"): "i"},
                   {"a": "i"})
        with pytest.raises(CategoryError, match="inverse category"):
            limit_recursive(SetDiagram(c, {"a": (0,)}, {"i": {0: 0}}))

    @pytest.mark.parametrize("seed", range(40))
    def test_two_oracles_agree(self, seed):
        rng = random.Random(seed)
        cat = random_inverse_category(rng)
        d = random_diagram(rng, cat)
        assert {family_key(f) for f in limit_direct(d)} == \
            {family_key(f) for f in limit_recursive(d)}


    def test_recursive_oracle_runs_without_the_solver(self, monkeypatch):
        """On criterion 5's seeds limit_recursive still agrees with
        limit_direct when neither the solver nor limit_direct can run, nor
        the direct limit's object order, and when it builds no category."""
        diagrams = []
        for seed in range(200):
            rng = random.Random(seed)
            cat = random_inverse_category(rng, max_objects=5, max_hom=3)
            diagrams.append(random_diagram(rng, cat, max_card=4))
        direct = [{family_key(f) for f in limit_direct(d)} for d in diagrams]

        def refuse(*args):
            raise AssertionError("limit_recursive reached the solver")

        monkeypatch.setattr(tltt.categories, "solve", refuse)
        monkeypatch.setattr(tltt.categories, "limit_direct", refuse)
        monkeypatch.setattr(tltt.categories, "_object_order", refuse)
        monkeypatch.setattr(FinCat, "__post_init__", refuse)
        for d, want in zip(diagrams, direct):
            assert {family_key(f) for f in limit_recursive(d)} == want


def cyclic_group_3() -> FinCat:
    """The cyclic group of order 3 as a one-object category: not inverse,
    and every arrow is a composite of non-identity arrows."""
    arrows = ("e", "r", "r2")
    compose = {(g, f): arrows[(arrows.index(g) + arrows.index(f)) % 3]
               for g in arrows for f in arrows}
    return FinCat(("*",), {("*", "*"): arrows}, compose, {"*": "e"})


def c3_set(turn: int) -> SetDiagram:
    """The group acting on {0, 1, 2}: `r` adds `turn`, `r2` twice that."""
    c = cyclic_group_3()
    return SetDiagram(c, {"*": (0, 1, 2)},
                      {a: {v: (v + k * turn) % 3 for v in range(3)}
                       for k, a in enumerate(("e", "r", "r2"))})


def filtered_product(cells, domains, holds) -> list[dict]:
    """Every assignment of the cells from their domains, in product order,
    that `holds`."""
    out = [dict(zip(cells, vs)) for vs in itertools.product(*domains)]
    return [fam for fam in out if holds(fam)]


class TestNonInverseCategory:
    """On a category that is not inverse, `limit_direct` and
    `diagram_nat_transforms` constrain along every arrow and order the
    objects as given: brute force over the product is the oracle."""

    ACTIONS = {"rotation": 1, "trivial": 0}

    def test_the_group_is_a_plain_category(self):
        c = cyclic_group_3()
        c.validate()
        assert not isinstance(c, FinInvCat)
        for turn in self.ACTIONS.values():
            c3_set(turn).validate()

    @pytest.mark.parametrize("action, size", [("rotation", 0), ("trivial", 3)])
    def test_limit_is_the_filtered_product(self, action, size):
        x = c3_set(self.ACTIONS[action])
        c = x.cat
        want = filtered_product(
            c.objects, [x.values[o] for o in c.objects],
            lambda fam: all(x.action[a][fam[c.src[a]]] == fam[c.dst[a]]
                            for a in c.arrows()))
        assert len(want) == size and limit_direct(x) == want

    @pytest.mark.parametrize("source, target, size", [
        ("rotation", "rotation", 3), ("rotation", "trivial", 3),
        ("trivial", "rotation", 0), ("trivial", "trivial", 27)])
    def test_nat_transforms_are_the_filtered_product(self, source, target,
                                                     size):
        f, g = c3_set(self.ACTIONS[source]), c3_set(self.ACTIONS[target])
        c = f.cat
        cells = [(o, u) for o in c.objects for u in f.values[o]]
        want = filtered_product(
            cells, [g.values[o] for o, _ in cells],
            lambda t: all(t[(c.dst[a], f.action[a][u])]
                          == g.action[a][t[(c.src[a], u)]]
                          for a in c.arrows() for u in f.values[c.src[a]]))
        assert len(want) == size and diagram_nat_transforms(f, g) == want

    @pytest.mark.parametrize("action", ["rotation", "trivial"])
    def test_recursive_limit_refuses(self, action):
        with pytest.raises(CategoryError, match="inverse category"):
            limit_recursive(c3_set(self.ACTIONS[action]))


class TestMatchingObject:
    def test_matching_agrees_with_boundary_transforms(self):
        """On semi-simplex diagrams the matching object at [n] is the set of
        maps out of the boundary of the n-simplex."""
        from tltt.nerve import nerve
        fx = load_fixture("poset012.json")
        x = nerve(fx.category, 3)
        for n in range(1, 4):
            fams, proj = matching_object(x, n)
            bnats = nat_transforms(boundary_subfunctor(n), x)
            assert len(fams) == len(bnats), n
            # the projection lands in the matching families
            keys = {family_key(f) for f in fams}
            for v in x.values[n]:
                assert family_key(proj[v]) in keys

    def test_matching_object_prunes_at_the_faces(self):
        """The rank-3 matching object of the poset012 nerve: two faces that
        share an edge are compared as soon as both are assigned, so the
        search reads the tables 1,545 times; checking the shared edge only
        when the search reached it took 25,404 reads."""
        from tltt.nerve import nerve
        x = nerve(load_fixture("poset012.json").category, 3)
        reads = 0

        class Counting(dict):
            def __getitem__(self, key):
                nonlocal reads
                reads += 1
                return super().__getitem__(key)
        counted = SetDiagram(x.cat, x.values, {
            a: Counting(x.action[a]) for a in x.cat.arrows()})
        fams, _ = matching_object(counted, 3)
        assert len(fams) == 15
        # the projection reads one entry per element of X_3 and face
        projection = len(x.values[3]) * len(x.cat.out_of(3))
        assert reads - projection <= 25404 // 10

    def test_matching_at_rank_zero_is_singleton(self, cospan):
        _, x = cospan
        fams, _ = matching_object(x, "c")
        assert fams == [{}]


def reference_exponential(f: SetDiagram, g: SetDiagram) -> SetDiagram:
    """The textbook [F, G]: at d, Nat(F x y_d, G) with F x y_d built as a
    diagram; along a : d -> d', alpha goes to its precomposite, which takes
    (o, (u, h)) to alpha's entry at (o, (u, h . a))."""
    c = f.cat
    values = {d: tuple(family_key(t) for t in diagram_nat_transforms(
                  product_diagram(f, representable(c, d)), g))
              for d in c.objects}
    action = {}
    for a in c.arrows():
        action[a] = {}
        for alpha in values[c.src[a]]:
            table = dict(alpha)
            action[a][alpha] = family_key({
                (o, (u, h)): table[(o, (u, c.compose[(h, a)]))]
                for o in c.objects for u in f.values[o]
                for h in c.hom(c.dst[a], o)})
    return SetDiagram(c, values, action)


def same_diagram(x: SetDiagram, y: SetDiagram) -> bool:
    """Equal values and action tables, each in the same order."""
    return (list(x.values.items()) == list(y.values.items())
            and list(x.action) == list(y.action)
            and all(list(x.action[a].items()) == list(y.action[a].items())
                    for a in x.action))


class TestNatAndExponential:
    def test_representable_is_yoneda(self):
        c = semisimplex_category(2)
        y2 = representable(c, 2)
        y2.validate()
        d = constant_diagram(c, ("u", "v"))
        nats = diagram_nat_transforms(y2, d)
        # Yoneda: Nat(y_2, D) = D_2
        assert len(nats) == 2

    def test_product_projections_natural(self, cospan):
        cat, x = cospan
        p = product_diagram(x, x)
        p.validate()
        pr = DiagramMap(p, x, {o: {uv: uv[0] for uv in p.values[o]}
                               for o in cat.objects})
        pr.validate()

    @pytest.mark.parametrize("seed", range(15))
    def test_exponential_limit_is_nat(self, seed):
        rng = random.Random(seed)
        cat = random_inverse_category(rng, max_objects=3)
        f = random_diagram(rng, cat, max_card=2)
        g = random_diagram(rng, cat, max_card=2)
        exp = exponential_diagram(f, g)
        exp.validate()
        lim = limit_direct(exp)
        nats = diagram_nat_transforms(f, g)
        assert len(lim) == len(nats), seed
        # identity components give the explicit bijection
        image = set()
        for fam in lim:
            out = {}
            for d in cat.objects:
                table = dict(fam[d])
                for u in f.values[d]:
                    out[(d, u)] = table[(d, (u, cat.identity[d]))]
            image.add(family_key(out))
        assert image == {family_key(t) for t in nats}
        assert len(image) == len(lim)

    def test_exponential_is_the_reference_exponential(self):
        """`exponential_diagram` solves each Nat(F x y_d, G) from the tables;
        the reference builds F x y_d as a diagram and takes `Nat` of it."""
        cases = []
        for seed in range(300):
            rng = random.Random(seed)
            cat = random_inverse_category(rng, max_objects=3)
            cases.append((seed, random_diagram(rng, cat, max_card=2),
                          random_diagram(rng, cat, max_card=2)))
        spine = load_fixture("spine_nerve.json")
        below = spine.category.truncate_below(2)
        cases.append(("spine below 2", spine.diagrams["F"].restrict(below),
                      spine.diagrams["G"].restrict(below)))
        differ = [case for case, f, g in cases
                  if not same_diagram(exponential_diagram(f, g),
                                      reference_exponential(f, g))]
        assert differ == []

    def test_exponential_order_ignores_hash_seed(self):
        # Each nat is printed with its items sorted, so the dump shows only
        # the order of the exponential's values and of its limit's families.
        script = """
import random
from tltt.categories import (exponential_diagram, limit_direct,
                             random_diagram, random_inverse_category)

def show(alpha):
    return sorted(repr(item) for item in alpha)

for seed in range(30):
    rng = random.Random(1000 + seed)
    cat = random_inverse_category(rng, max_objects=3)
    exp = exponential_diagram(random_diagram(rng, cat, max_card=2),
                              random_diagram(rng, cat, max_card=2))
    for d in cat.objects:
        print(d, [show(alpha) for alpha in exp.values[d]])
    for fam in limit_direct(exp):
        print([exp.values[d].index(fam[d]) for d in cat.objects])
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


class TestPullback:
    @pytest.mark.parametrize("seed", range(10))
    def test_pullback_is_a_diagram_with_natural_projections(self, seed):
        rng = random.Random(seed)
        cat = random_inverse_category(rng, max_objects=4)
        z = random_diagram(rng, cat, max_card=3)
        x = random_diagram(rng, cat, max_card=3)
        y = random_diagram(rng, cat, max_card=3)
        p = _random_map(rng, x, z, cat)
        q = _random_map(rng, y, z, cat)
        if p is None or q is None:
            return
        w, pr1, pr2 = pullback_diagram(p, q)
        w.validate()
        pr1.validate()
        pr2.validate()
        # universal property at set level: elements of W_o are exactly the
        # compatible pairs
        for o in cat.objects:
            expect = {(u, v) for u in x.values[o] for v in y.values[o]
                      if p.components[o][u] == q.components[o][v]}
            assert set(w.values[o]) == expect

    def test_pullback_matching_objects_commute(self):
        """The matching object of a pullback is the pullback of matching
        objects, levelwise."""
        rng = random.Random(7)
        cat = random_inverse_category(rng, max_objects=4)
        z = random_diagram(rng, cat, max_card=3)
        x = random_diagram(rng, cat, max_card=3)
        y = random_diagram(rng, cat, max_card=3)
        p = _random_map(rng, x, z, cat)
        q = _random_map(rng, y, z, cat)
        if p is None or q is None:
            pytest.skip("no maps exist for this seed")
        w, _, _ = pullback_diagram(p, q)
        for o in cat.objects:
            wf, _ = matching_object(w, o)
            xf, _ = matching_object(x, o)
            yf, _ = matching_object(y, o)
            zf, _ = matching_object(z, o)
            # matching families of W are pairs of matching families of X, Y
            # agreeing in Z
            paired = set()
            for fam in wf:
                fx = {k: v[0] for k, v in fam.items()}
                fy = {k: v[1] for k, v in fam.items()}
                paired.add((family_key(fx), family_key(fy)))
            xkeys = {family_key(f) for f in xf}
            ykeys = {family_key(f) for f in yf}
            for a, b in paired:
                assert a in xkeys and b in ykeys


def _random_map(rng, src, dst, cat):
    """A random natural transformation src -> dst, or None if none exists."""
    nats = diagram_nat_transforms(src, dst)
    if not nats:
        return None
    t = rng.choice(nats)
    comps = {o: {u: t[(o, u)] for u in src.values[o]} for o in cat.objects}
    m = DiagramMap(src, dst, comps)
    m.validate()
    return m


class TestSemisimplexBridge:
    def test_category_validates_up_to_3(self):
        for n in range(4):
            semisimplex_category(n).validate()

    def test_diagram_from_sset_is_functorial(self):
        """A semi-simplicial set already is a diagram: the bridge the
        benchmark calls returns it, or its restriction to a given base."""
        from tltt.nerve import nerve
        x = nerve(load_fixture("poset012.json").category, 2)
        assert sset_to_diagram(x) is x
        d = sset_to_diagram(x, semisimplex_category(1))
        d.validate()
        assert d.levels == x.levels[:2]
        assert all(d.action[a] == x.action[a] for a in d.cat.arrows())
