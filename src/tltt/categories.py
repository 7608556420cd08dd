"""Finite categories, inverse categories, and finite-set-valued diagrams.

Everything is table-driven and validated exhaustively: category laws,
rank discipline (non-identity arrows strictly decrease rank), functoriality
of diagrams.  Limits are computed two independent ways: directly as natural
families, and recursively by adding the objects by increasing rank, each a
pullback along its matching object, with no subcategory built.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional

from .solver import solve


class CategoryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Finite categories
# ---------------------------------------------------------------------------

@dataclass
class FinCat:
    """A finite category given by explicit tables.

    ``homs[(x, y)]`` lists arrow ids from x to y (identities included);
    ``compose[(g, f)]`` is g after f.  The arrow list, ``src``, ``dst``
    and the ``out_of`` index are derived from ``homs`` once, when it is
    built, and so is the order in which the solvers search the objects.
    """

    objects: tuple
    homs: dict
    compose: dict
    identity: dict
    src: dict = field(init=False)
    dst: dict = field(init=False)
    outgoing: dict = field(init=False, repr=False)
    _arrows: tuple = field(init=False, repr=False)
    _order: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.src, self.dst, self.outgoing = {}, {}, {}
        ids = set(self.identity.values())
        for (x, y), arrows in self.homs.items():
            for a in arrows:
                self.src[a] = x
                self.dst[a] = y
                if a not in ids:
                    self.outgoing.setdefault(x, []).append(a)
        for x, arrows in self.outgoing.items():
            self.outgoing[x] = tuple(sorted(arrows, key=str))
        self._arrows = tuple(a for hom in self.homs.values() for a in hom)
        self._order = tuple(self.objects)

    def arrows(self) -> tuple:
        """Every arrow, hom-set by hom-set in ``homs`` order."""
        return self._arrows

    def out_of(self, x) -> tuple:
        """The non-identity arrows out of x, in ``str`` order."""
        return self.outgoing.get(x, ())

    def hom(self, x, y) -> tuple:
        return self.homs.get((x, y), ())

    def validate(self) -> None:
        seen = set()
        for (x, y), arrows in self.homs.items():
            if x not in self.objects or y not in self.objects:
                raise CategoryError(f"hom set over unknown objects ({x}, {y})")
            for a in arrows:
                if a in seen:
                    raise CategoryError(f"duplicate arrow id {a!r}")
                seen.add(a)
        for x in self.objects:
            i = self.identity.get(x)
            if i is None or i not in self.hom(x, x):
                raise CategoryError(f"missing identity for object {x!r}")
        for (g, f) in self.compose:
            if g in seen and f in seen and self.dst[f] != self.src[g]:
                raise CategoryError(
                    f"compose defined for non-composable ({g!r}, {f!r})")
        arrows = self.arrows()
        all_out = {x: (self.identity[x],) + self.out_of(x)
                   for x in self.objects}
        for f in arrows:
            for g in all_out.get(self.dst[f], ()):
                h = self.compose.get((g, f))
                if h is None:
                    raise CategoryError(f"compose missing for ({g!r}, {f!r})")
                if h not in self.hom(self.src[f], self.dst[g]):
                    raise CategoryError(
                        f"compose ({g!r}, {f!r}) = {h!r} lands outside "
                        f"hom({self.src[f]!r}, {self.dst[g]!r})")
        for f in arrows:
            if self.compose[(self.identity[self.dst[f]], f)] != f:
                raise CategoryError(f"left unit law fails at {f!r}")
            if self.compose[(f, self.identity[self.src[f]])] != f:
                raise CategoryError(f"right unit law fails at {f!r}")
        for f in arrows:
            for g in all_out.get(self.dst[f], ()):
                gf = self.compose[(g, f)]
                for h in all_out.get(self.dst[g], ()):
                    if (self.compose[(h, gf)]
                            != self.compose[(self.compose[(h, g)], f)]):
                        raise CategoryError(
                            f"associativity fails on ({h!r}, {g!r}, {f!r})")


@dataclass
class FinInvCat(FinCat):
    """Finite inverse category: a rank function reflecting identities."""

    rank: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        # an object without a rank sorts as rank 0; ``validate`` names it
        self._order = tuple(sorted(
            self.objects, key=lambda o: (-self.rank.get(o, 0), str(o))))

    def validate(self) -> None:
        super().validate()
        for x in self.objects:
            if x not in self.rank:
                raise CategoryError(f"missing rank for object {x!r}")
            if self.rank[x] < 0:
                raise CategoryError(f"negative rank at {x!r}")
        for x in self.objects:
            for a in self.out_of(x):
                if self.rank[self.dst[a]] >= self.rank[x]:
                    raise CategoryError(
                        f"arrow {a!r}: {x!r} -> {self.dst[a]!r} does "
                        f"not strictly decrease rank")

    def truncate_below(self, n: int) -> "FinInvCat":
        """Full subcategory of objects of rank < n, in one pass over the
        tables (their order kept)."""
        drop = {o for o in self.objects if self.rank[o] >= n}
        homs = {(x, y): arrows for (x, y), arrows in self.homs.items()
                if x not in drop and y not in drop}
        arrows = {a for hom in homs.values() for a in hom}
        return FinInvCat(
            tuple(o for o in self.objects if o not in drop), homs,
            {(g, f): h for (g, f), h in self.compose.items()
             if g in arrows and f in arrows},
            {o: i for o, i in self.identity.items() if o not in drop},
            rank={o: r for o, r in self.rank.items() if o not in drop})


def _compose_all(homs: dict, comp) -> dict:
    """The composition table: ``comp(g, f)`` for every composable pair,
    ordered by f's hom-set, then f, then g's hom-set and g."""
    out_of: dict = {}
    for (x, _), arrows in homs.items():
        out_of.setdefault(x, []).extend(arrows)
    return {(g, f): comp(g, f) for (_, y), arrows in homs.items()
            for f in arrows for g in out_of.get(y, ())}


def reduced_coslice(c: FinInvCat, x) -> FinInvCat:
    """Non-identity arrows out of x, as an inverse category.

    Objects are the arrow ids f : x -> y (y determined); an arrow from f to
    g is (f, h) for h with h . f = g; rank is inherited from the codomain.
    The base object and base arrow are recoverable as ``c.dst[f]`` and the
    second component.
    """
    objs = c.out_of(x)
    homs: dict = {}
    identity: dict = {}
    rank = {f: c.rank[c.dst[f]] for f in objs}
    for f in objs:
        for g in objs:
            arrows = tuple((f, h) for h in c.hom(c.dst[f], c.dst[g])
                           if c.compose[(h, f)] == g)
            if arrows:
                homs[(f, g)] = arrows
        identity[f] = (f, c.identity[c.dst[f]])
    compose = _compose_all(
        homs, lambda gh, fh: (fh[0], c.compose[(gh[1], fh[1])]))
    return FinInvCat(objs, homs, compose, identity, rank=rank)


# ---------------------------------------------------------------------------
# Set-valued diagrams
# ---------------------------------------------------------------------------

@dataclass
class SetDiagram:
    """A functor from a finite category to finite sets, as tables."""

    cat: FinCat
    values: dict          # object -> tuple of elements
    action: dict          # arrow id -> dict element -> element

    @property
    def levels(self) -> list:
        """The value sets in object order; the benchmark reads a nerve's
        levels this way (``perfbench/workloads.py``)."""
        return [self.values[o] for o in self.cat.objects]

    def validate(self) -> None:
        for o in self.cat.objects:
            if o not in self.values:
                raise CategoryError(f"missing value set at {o!r}")
        objects = set(self.cat.objects)
        for a in self.cat.arrows():
            x, y = self.cat.src[a], self.cat.dst[a]
            if x not in objects or y not in objects:
                raise CategoryError(
                    f"arrow {a!r} from {x!r} to {y!r} names an undeclared object")
            fn = self.action.get(a)
            if fn is None:
                raise CategoryError(f"missing function for arrow {a!r}")
            for x in self.values[self.cat.src[a]]:
                if x not in fn or fn[x] not in self.values[self.cat.dst[a]]:
                    raise CategoryError(
                        f"function for {a!r} not total into the target on {x!r}")
        for o in self.cat.objects:
            i = self.cat.identity[o]
            for x in self.values[o]:
                if self.action[i][x] != x:
                    raise CategoryError(f"identity at {o!r} acts nontrivially")
        src = self.cat.src
        for (g, f), h in self.cat.compose.items():
            if g not in src or f not in src or h not in src:
                raise CategoryError(
                    f"compose ({g!r}, {f!r}) = {h!r} names an unknown arrow")
            for x in self.values[src[f]]:
                if self.action[g][self.action[f][x]] != self.action[h][x]:
                    raise CategoryError(
                        f"functoriality fails: {g!r} . {f!r} != {h!r} on {x!r}")

    def restrict(self, sub: FinCat) -> "SetDiagram":
        return tabulate(sub, {o: self.values[o] for o in sub.objects},
                        lambda a, v: self.action[a][v])


class _OnRead(Mapping):
    """A read-only table, listed in order by ``keys()``, whose entry at a
    key ``compute(key)`` gives the first time it is read (raising KeyError
    at a non-key): a table too large to build whole, of which readers need
    a few entries."""

    def __init__(self, keys, compute):
        self._keys, self._compute, self._read = keys, compute, {}

    def __getitem__(self, key):
        if key not in self._read:
            self._read[key] = self._compute(key)
        return self._read[key]

    def __iter__(self):
        return iter(self._keys())

    def __len__(self):
        return sum(1 for _ in self._keys())


def tabulate(c: FinCat, values: dict, act, on_read: bool = False
             ) -> SetDiagram:
    """The diagram over c with the given values whose action along a sends
    v to ``act(a, v)``, tabulated for every arrow in ``c.arrows()`` order
    and every v of ``values[c.src[a]]`` in order.  With ``on_read`` (for a
    pure ``act``) each arrow's table is tabulated when it is first read."""
    src = c.src

    def table(a):
        return {v: act(a, v) for v in values[src[a]]}
    if on_read:
        return SetDiagram(c, values, _OnRead(c.arrows, table))
    return SetDiagram(c, values, {a: table(a) for a in c.arrows()})


def constant_diagram(c: FinCat, elements: tuple) -> SetDiagram:
    return tabulate(c, {o: tuple(elements) for o in c.objects},
                    lambda a, v: v)


def _pairwise(f: SetDiagram, g: SetDiagram):
    """The action on pairs: f's on the first component, g's on the second."""
    return lambda a, uv: (f.action[a][uv[0]], g.action[a][uv[1]])


def product_diagram(f: SetDiagram, g: SetDiagram) -> SetDiagram:
    values = {o: tuple(itertools.product(f.values[o], g.values[o]))
              for o in f.cat.objects}
    return tabulate(f.cat, values, _pairwise(f, g))


def representable(c: FinCat, d) -> SetDiagram:
    """The covariant representable y_d = Hom(d, -)."""
    return tabulate(c, {o: tuple(c.hom(d, o)) for o in c.objects},
                    lambda a, g: c.compose[(a, g)])


# ---------------------------------------------------------------------------
# Limits and matching objects
# ---------------------------------------------------------------------------

def _object_order(c: FinCat) -> tuple:
    """The objects by decreasing rank, then ``str``, for an inverse
    category, and in declared order otherwise."""
    return c._order


def limit_direct(x: SetDiagram) -> list[dict]:
    """All natural families (c_y) with X(f)(c_y) = c_y' for every arrow.

    Objects are searched by decreasing rank, so each arrow fixes the value
    at its target from the value at its source (see ``solver.solve``).
    """
    c = x.cat
    order = _object_order(c)
    return solve(order, [x.values[o] for o in order],
                 [(c.src[a], c.dst[a], x.action[a]) for a in c.arrows()])


def family_key(fam: dict):
    return frozenset(fam.items())


# Another name for ``family_key``, read only by the benchmark
# (``perfbench/workloads.py``) until its next revision (ROADMAP item 1).
nat_key = family_key


def boundary(x: SetDiagram, z, v) -> dict:
    """The matching family of v in X_z: X(f)(v) for each f out of z."""
    return {f: x.action[f][v] for f in x.cat.out_of(z)}


def matching_object(x: SetDiagram, z, ambient: Optional[FinInvCat] = None
                    ) -> tuple[list[dict], dict]:
    """Matching object at z: the limit of X over the reduced coslice of z.

    Returns the matching families (dicts keyed by coslice objects, i.e.
    non-identity arrows out of z) and the canonical projection from X_z
    (as a dict X_z-element -> its ``boundary``).  ``ambient``, a category
    holding the same arrows out of z, is taken in its place when given;
    only the benchmark (``perfbench/workloads.py``) passes it, until its
    next revision (ROADMAP item 1).
    The limit is solved over the arrows out of z directly, ordered as
    ``limit_direct`` orders the objects of ``reduced_coslice(c, z)``: each
    h out of the target of f asks that the value at h . f be X(h) of the
    value at f (identities ask nothing), and no coslice category is built.
    """
    c = ambient or x.cat
    cells = sorted(c.out_of(z), key=lambda f: (-c.rank[c.dst[f]], str(f)))
    families = solve(cells, [x.values[c.dst[f]] for f in cells],
                     [(f, c.compose[(h, f)], x.action[h])
                      for f in cells for h in c.out_of(c.dst[f])])
    return families, {v: boundary(x, z, v) for v in x.values.get(z, ())}


def limit_recursive(x: SetDiagram) -> list[dict]:
    """Limit by recursion on rank, walked as one loop: objects are added by
    increasing rank, and each is a pullback against X_z over the matching
    object at z.

    Every arrow out of z lands in a lower rank, whose objects are already
    in the families; so a family extends by v in X_z exactly when the
    boundary of v equals the family it induces on the arrows out of z.
    No subcategory is built and the matching object itself is never
    enumerated."""
    c = x.cat
    if not isinstance(c, FinInvCat):
        raise CategoryError("recursive limits need an inverse category")
    fams: list[dict] = [{}]
    for z in reversed(sorted(c.objects, key=lambda o: (-c.rank[o], str(o)))):
        bounds = [(v, boundary(x, z, v)) for v in x.values[z]]
        arrows = c.out_of(z)
        extended = []
        for fam in fams:
            induced = {f: fam[c.dst[f]] for f in arrows}
            extended.extend({**fam, z: v} for v, b in bounds if b == induced)
        fams = extended
    return fams


# ---------------------------------------------------------------------------
# Natural transformations and exponentials
# ---------------------------------------------------------------------------

def diagram_nat_transforms(f: SetDiagram, g: SetDiagram) -> list[dict]:
    """All natural transformations f -> g over the same base.

    A transformation is represented as a dict (object, element) -> element.
    Cells (o, u) are searched by decreasing rank of o, so the naturality
    square of each arrow a fixes the cell (dst a, F(a)(u)) from (src a, u)
    (see ``solver.solve``).
    """
    c = f.cat
    order = _object_order(c)
    cells = [(o, u) for o in order for u in f.values[o]]
    constraints = [((c.src[a], u), (c.dst[a], f.action[a][u]), g.action[a])
                   for a in c.arrows() for u in f.values[c.src[a]]]
    return solve(cells, [g.values[o] for o, _ in cells], constraints)


def exponential_diagram(f: SetDiagram, g: SetDiagram) -> SetDiagram:
    """[F, G](d) = Nat(F x y_d, G), with action by precomposition.

    Each Nat(F x y_d, G) is solved straight from the tables of F, G and c,
    with no product or representable built: the cells are (o, (u, h)) for
    u in F(o) and h : d -> o, and along each arrow a the cell (src a,
    (u, h)) fixes (dst a, (F(a)(u), a . h)) through G(a).  Cells and
    constraints come in the order ``diagram_nat_transforms`` gives them on
    ``product_diagram(f, representable(c, d))``, so the solutions do too.
    """
    c = f.cat
    order = _object_order(c)
    values, tables = {}, {}
    for d in c.objects:
        cells = [(o, (u, h)) for o in order for u in f.values[o]
                 for h in c.hom(d, o)]
        constraints = [((c.src[a], (u, h)),
                        (c.dst[a], (f.action[a][u], c.compose[(a, h)])),
                        g.action[a])
                       for a in c.arrows() for u in f.values[c.src[a]]
                       for h in c.hom(d, c.src[a])]
        nats = solve(cells, [g.values[o] for o, _ in cells], constraints)
        values[d] = tuple(family_key(t) for t in nats)
        tables.update(zip(values[d], nats))
    # along a, every alpha takes at (o, (u, h)) its entry at (o, (u, h . a))
    moves = {a: [((o, (u, h)), (o, (u, c.compose[(h, a)])))
                 for o in c.objects for u in f.values[o]
                 for h in c.hom(c.dst[a], o)]
             for a in c.arrows() if values[c.src[a]]}

    def act(a, alpha):
        table = tables[alpha]
        return frozenset([(k, table[s]) for k, s in moves[a]])
    return tabulate(c, values, act)


# ---------------------------------------------------------------------------
# Maps of diagrams and pullbacks
# ---------------------------------------------------------------------------

@dataclass
class DiagramMap:
    """A natural transformation between diagrams over the same base."""

    source: SetDiagram
    target: SetDiagram
    components: dict      # object -> dict element -> element

    def validate(self) -> None:
        c = self.source.cat
        for o in c.objects:
            comp = self.components.get(o)
            if comp is None:
                raise CategoryError(f"missing component at {o!r}")
            for v in self.source.values[o]:
                if comp[v] not in self.target.values[o]:
                    raise CategoryError(f"component at {o!r} leaves the target")
        for a in c.arrows():
            s, d = c.src[a], c.dst[a]
            for v in self.source.values[s]:
                lhs = self.components[d][self.source.action[a][v]]
                rhs = self.target.action[a][self.components[s][v]]
                if lhs != rhs:
                    raise CategoryError(f"naturality fails at {a!r} on {v!r}")


def pullback_diagram(p: DiagramMap, q: DiagramMap
                     ) -> tuple[SetDiagram, DiagramMap, DiagramMap]:
    """Levelwise pullback of p : X -> Z and q : Y -> Z."""
    if p.target is not q.target and p.target.values != q.target.values:
        raise CategoryError("pullback needs a common target")
    c = p.source.cat
    x, y = p.source, q.source
    values = {o: tuple((u, v)
                       for u in x.values[o] for v in y.values[o]
                       if p.components[o][u] == q.components[o][v])
              for o in c.objects}
    w = tabulate(c, values, _pairwise(x, y))
    pr1 = DiagramMap(w, x, {o: {uv: uv[0] for uv in values[o]}
                            for o in c.objects})
    pr2 = DiagramMap(w, y, {o: {uv: uv[1] for uv in values[o]}
                            for o in c.objects})
    return w, pr1, pr2


# ---------------------------------------------------------------------------
# The semi-simplex base category
# ---------------------------------------------------------------------------

def semisimplex_category(n: int) -> FinInvCat:
    """The opposite semi-simplex category, truncated at rank <= n (empty
    for n = -1).

    Objects are 0..n (object k standing for [k]); an arrow k -> j is a
    strictly increasing map [j] -> [k], stored as ``("m", k, image)``, so
    ranks strictly decrease.  Composing is indexing: a : k -> j followed by
    b : j -> l has the image of a read at the image of b.  There are about
    3^(n+2) composites, so each is computed when it is read, in the order
    ``_compose_all`` would list them.
    """
    objects = tuple(range(n + 1))
    homs = {(k, j): tuple(("m", k, im) for im in
                          itertools.combinations(range(k + 1), j + 1))
            for k in objects for j in range(k + 1)}
    identity = {k: ("m", k, tuple(range(k + 1))) for k in objects}
    arrows = {a for hom in homs.values() for a in hom}

    def indexing(ba):
        b, a = ba
        if a not in arrows or b not in arrows or b[1] != len(a[2]) - 1:
            raise KeyError(ba)
        return ("m", a[1], tuple(a[2][t] for t in b[2]))
    compose = _OnRead(lambda: ((b, a) for (_, j), hom in homs.items()
                               for a in hom for i in range(j + 1)
                               for b in homs[(j, i)]), indexing)
    return FinInvCat(objects, homs, compose, identity,
                     rank={k: k for k in objects})


def sset_to_diagram(x: SetDiagram,
                    c: Optional[FinInvCat] = None) -> SetDiagram:
    """x, restricted to c if given: a semi-simplicial set is already a
    diagram on the semi-simplex category.  Kept for the benchmark, which
    calls it (``perfbench/workloads.py``)."""
    return x if c is None else x.restrict(c)


# ---------------------------------------------------------------------------
# Random instances (free path categories on rank-decreasing generators)
# ---------------------------------------------------------------------------

def random_inverse_category(rng: random.Random, max_objects: int = 5,
                            max_rank: int = 3, max_hom: int = 3) -> FinInvCat:
    """A random finite inverse category: the free category on a random
    rank-decreasing generator graph, resampled until hom-sets are small."""
    for _ in range(1000):
        n = rng.randint(1, max_objects)
        objects = tuple(f"o{i}" for i in range(n))
        rank = {o: rng.randint(0, max_rank) for o in objects}
        gens = []
        for x in objects:
            for y in objects:
                if rank[x] > rank[y]:
                    for idx in range(rng.randint(0, 2)):
                        gens.append((f"g{len(gens)}", x, y))
        cat = _free_category(objects, rank, gens)
        if cat is not None and all(len(v) <= max_hom for v in cat.homs.values()):
            return cat
    raise RuntimeError("failed to sample a small inverse category")


def _free_category(objects, rank, gens) -> Optional[FinInvCat]:
    by_src: dict = {}
    for g in gens:
        by_src.setdefault(g[1], []).append(g)
    paths: dict = {}      # (x, y) -> list of tuples of generator ids
    for x in objects:
        stack = [(x, ())]
        while stack:
            y, path = stack.pop()
            if path:
                paths.setdefault((x, y), []).append(path)
                if len(paths[(x, y)]) > 64:
                    return None
            for (gid, s, d) in by_src.get(y, []):
                stack.append((d, path + (gid,)))
    homs: dict = {}
    identity = {}
    for x in objects:
        identity[x] = ("id", x)
    for x in objects:
        for y in objects:
            arrows = tuple(("p", p) for p in sorted(paths.get((x, y), [])))
            if x == y:
                arrows = (identity[x],) + arrows
            if arrows:
                homs[(x, y)] = arrows
    return FinInvCat(tuple(objects), homs, _compose_all(homs, _concat),
                     identity, rank=dict(rank))


def _concat(g, f):
    """g after f on paths: f's generators, then g's."""
    path = (f[1] if f[0] == "p" else ()) + (g[1] if g[0] == "p" else ())
    return ("p", path) if path else f


def random_diagram(rng: random.Random, c: FinInvCat,
                   max_card: int = 4) -> SetDiagram:
    """A random diagram: values per object, generator actions random, and
    the action on paths forced by functoriality.

    Only the free categories of ``random_inverse_category`` are understood:
    every arrow must be ``("id", x)`` or ``("p", path)``.
    """
    for a in c.arrows():
        if not (isinstance(a, tuple) and len(a) == 2
                and (a[0] == "id"
                     or (a[0] == "p" and isinstance(a[1], tuple)))):
            raise CategoryError(
                f"random_diagram cannot act along arrow {a!r}: expected "
                f"('id', x) or ('p', path)")
    values = {o: tuple(range(rng.randint(0, max_card))) for o in c.objects}
    # an arrow into an empty value set forces the source empty; arrows
    # lower the rank, so one pass by increasing rank settles every object
    for x in sorted(c.objects, key=lambda o: c.rank[o]):
        if any(not values[c.dst[a]] for a in c.out_of(x)):
            values[x] = ()
    # a generator's value at an element is drawn the first time a path
    # needs it, so the draws follow the order in which the arrows are tabulated
    gen_action: dict = {}

    def act(a, v):
        if a[0] == "id":
            return v
        pos = c.src[a]
        for gid in a[1]:
            tbl = gen_action.setdefault(gid, {})
            pos = _gen_target(c, pos, gid)
            if v not in tbl:
                tbl[v] = rng.choice(values[pos])
            v = tbl[v]
        return v
    return tabulate(c, values, act)


def _gen_target(c: FinInvCat, pos, gid):
    g = ("p", (gid,))
    if c.src.get(g) != pos:
        raise CategoryError(f"generator {gid!r} not found at {pos!r}")
    return c.dst[g]
