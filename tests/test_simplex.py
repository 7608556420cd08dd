"""Semi-simplex combinatorics: monos, subfunctors, sieves, horn factoring."""

import hashlib
import inspect
import itertools
import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oracles import generated_sieve, sieve_of
from tltt import simplex
from tltt.categories import CategoryError, semisimplex_category, tabulate
from tltt.fixtures import FixtureError, sset_from_json
from tltt.simplex import (
    DimensionError, Factorization, MonoMap, Sieve,
    UnsupportedHorn, boundary_subfunctor, factor_spine_to_horn,
    full_subfunctor, horn_remove, horn_sieve, identity_map,
    nat_transforms, yoneda_bijection, zigzag_sieve,
)

DEGENERATE = {(1, 0), (1, 1), (2, 0), (2, 2)}


class TestMonoMaps:
    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            full_subfunctor(13)

    def test_a_negative_dimension_is_refused(self):
        with pytest.raises(DimensionError,
                           match="dimension must be non-negative, got -1"):
            full_subfunctor(-1)


def _level_sizes(sv):
    sizes = [0] * (sv.n + 1)
    for k, _ in sv.cells():
        sizes[k] += 1
    return sizes


def _cells_by_scan(sv):
    """The reference level view: a scan of every map [k] -> [n], keeping
    those whose image lies inside some member."""
    return [c for c in _all_cells(sv.n)
            if any(set(c[1].image) <= s for s in sv.members)]


def _all_cells(n):
    """Every map [k] -> [n], level by level, each level in lex order."""
    return [(k, MonoMap(n, im)) for k in range(n + 1)
            for im in itertools.combinations(range(n + 1), k + 1)]


def _face(g, j):
    """The j-th face of g: g with the j-th entry of its image deleted."""
    return MonoMap(g.n, g.image[:j] + g.image[j + 1:])


def _horn_cells(n, k):
    omit = {identity_map(n), _face(identity_map(n), k)}
    return [c for c in _all_cells(n) if c[1] not in omit]


class TestSubfunctors:
    @given(st.integers(1, 5))
    def test_spine_level_sizes(self, n):
        sizes = _level_sizes(zigzag_sieve(n))
        assert sizes[0] == n + 1 and sizes[1] == n
        assert all(s == 0 for s in sizes[2:])

    @given(st.integers(1, 5), st.data())
    def test_horn_omits_one_face(self, n, data):
        k = data.draw(st.integers(0, n))
        sizes = _level_sizes(horn_sieve(n, k))
        assert sizes[n] == 0
        assert sizes[n - 1] == n  # all faces except the k-th

    @given(st.integers(1, 5))
    def test_boundary_below_full(self, n):
        assert boundary_subfunctor(n) <= full_subfunctor(n)
        assert _level_sizes(boundary_subfunctor(n))[n] == 0

    @given(st.integers(1, 4), st.data())
    def test_closure_under_restriction(self, n, data):
        """Every constructor output is closed under composing with cofaces."""
        k = data.draw(st.integers(0, n))
        for sub in (full_subfunctor(n), zigzag_sieve(n), horn_sieve(n, k),
                    boundary_subfunctor(n)):
            cells = set(sub.cells())
            assert {(lvl - 1, _face(g, j))
                    for lvl, g in cells if lvl
                    for j in range(lvl + 1)} <= cells

    def test_sieve_is_the_only_subfunctor_type(self):
        assert re.findall(
            r"\b(?:SimplicialSubset|realize|spine_subfunctor|horn_subfunctor"
            r"|powerset_sieve|principal_sieve|is_identity)\b",
            inspect.getsource(simplex)) == []


class TestSieves:
    @given(st.integers(0, 5), st.data())
    def test_builders_cells_match_a_scan(self, n, data):
        sieves = [full_subfunctor(n), boundary_subfunctor(n), zigzag_sieve(n)]
        if n >= 1:
            sieves.append(horn_sieve(n, data.draw(st.integers(0, n))))
        for sv in sieves:
            assert sv.cells() == _cells_by_scan(sv)

    @settings(deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_generated_cells_match_a_scan(self, n, data):
        gens = data.draw(st.lists(st.frozensets(st.integers(0, n)),
                                  max_size=4))
        sv = generated_sieve(n, gens)
        assert sv.cells() == _cells_by_scan(sv)

    @given(st.integers(0, 5))
    def test_principal_full_realizes_representable(self, n):
        s = generated_sieve(n, [range(n + 1)])
        assert s.cells() == _all_cells(n)
        assert s == full_subfunctor(n)

    @given(st.integers(0, 5))
    def test_boundary_omits_the_identity(self, n):
        assert boundary_subfunctor(n).cells() == [
            c for c in _all_cells(n) if c[1] != identity_map(n)]

    @given(st.integers(0, 5))
    def test_zigzag_realizes_spine(self, n):
        assert zigzag_sieve(n).cells() == [
            (k, g) for k, g in _all_cells(n)
            if k == 0 or (k == 1 and g.image[1] == g.image[0] + 1)]

    @given(st.integers(1, 5), st.data())
    def test_horn_sieve_realizes_horn(self, n, data):
        k = data.draw(st.integers(0, n))
        assert horn_sieve(n, k).cells() == _horn_cells(n, k)

    def test_horn_remove_realizes_inner_horn(self):
        out = horn_remove(full_subfunctor(2), frozenset({0, 1, 2}), 1)
        assert out.cells() == _horn_cells(2, 1)

    def test_horn_remove_requires_membership(self):
        x = generated_sieve(2, [{0, 1}])
        with pytest.raises(ValueError) as e:
            horn_remove(x, frozenset({0, 2}), 0)
        assert str(e.value) == "[0, 2] is not a member of the sieve"

    def test_horn_remove_requires_maximal(self):
        x = full_subfunctor(2)
        with pytest.raises(ValueError) as e:
            horn_remove(x, frozenset({0, 1}), 1)
        assert str(e.value) == "[0, 1] is not maximal in the sieve"

    def test_horn_remove_requires_membership_of_pivot(self):
        x = full_subfunctor(2)
        with pytest.raises(ValueError) as e:
            horn_remove(x, frozenset({0, 1, 2}), 5)
        assert str(e.value) == "5 is not an element of [0, 1, 2]"

    def test_horn_remove_keeps_downward_closure(self):
        # {1} is also a face of the other maximal member {1, 2}
        x = generated_sieve(2, [{0, 1}, {1, 2}])
        with pytest.raises(ValueError) as e:
            horn_remove(x, frozenset({0, 1}), 0)
        assert str(e.value) == ("removing [0, 1] at 0 breaks downward "
                                "closure: [1] still below another member")

    @pytest.mark.parametrize("s, h, message", [
        # not maximal ({0, 1, 2} is above) and closure-breaking ({0, 2} is
        # above {1}): maximality is checked first
        ({0, 1}, 0, "[0, 1] is not maximal in the sieve"),
        ({0, 1, 2}, -1, "-1 is not an element of [0, 1, 2]"),
        ({0, 1, 2}, 3, "3 is not an element of [0, 1, 2]"),
        ({0, 3}, 0, "[0, 3] is not a member of the sieve"),
        ({-1, 0}, 0, "[-1, 0] is not a member of the sieve"),
        ({0, 1, 2}, 10**9, "1000000000 is not an element of [0, 1, 2]"),
        ({0, 1, 2}, -10**9, "-1000000000 is not an element of [0, 1, 2]"),
    ], ids=["not-maximal-first", "negative-pivot", "pivot-above-n",
            "element-above-n", "negative-element", "huge-pivot",
            "huge-negative-pivot"])
    def test_horn_remove_reports_the_first_failing_check(self, s, h, message):
        x = full_subfunctor(2)
        assert _outcome(horn_remove, x, frozenset(s), h) \
            == _outcome(_horn_remove_by_scans, x, frozenset(s), h) \
            == ("error", message)

    def test_a_huge_pivot_is_refused_without_building_its_bit(self):
        """The pivot comes from the caller: testing it after building
        ``1 << h`` would allocate a 125 MB integer for h = 10**9."""
        x = full_subfunctor(2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="is not an element"):
                horn_remove(x, frozenset({0, 1, 2}), 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @settings(deadline=None)
    @given(st.integers(0, 5), st.data())
    def test_horn_remove_matches_brute_force(self, n, data):
        gens = data.draw(st.lists(st.frozensets(st.integers(0, n)),
                                  max_size=4))
        x = generated_sieve(n, gens)
        # maximal members and pivots in S make the successful removals and
        # the closure error common; arbitrary (S, h) cover the rest
        members = sorted(x.members, key=lambda m: (len(m), sorted(m)))
        tops = [m for m in members if not any(m < t for t in members)]
        subsets = st.frozensets(st.integers(0, n + 1))
        if members:
            subsets = st.one_of(st.sampled_from(tops),
                                st.sampled_from(members), subsets)
        s = data.draw(subsets)
        pivots = st.integers(-1, n + 1)
        if s:
            pivots = st.one_of(st.sampled_from(sorted(s)), pivots)
        h = data.draw(pivots)
        assert _outcome(horn_remove, x, s, h) \
            == _outcome(_horn_remove_by_scans, x, s, h)

    def test_every_sieve_the_package_builds_is_downward_closed(self):
        """`Sieve` takes its bits as they are, so each function that makes
        one must give a family that `sieve_of`'s check accepts, as the same
        sieve: the four named sieves for n <= 5 and every chain for n <= 6."""
        named = [sv for n in range(6)
                 for sv in (full_subfunctor(n), boundary_subfunctor(n),
                            zigzag_sieve(n),
                            *(horn_sieve(n, k) for k in range(n + 1) if n))]
        for sv in named:
            assert sieve_of(sv.n, sv.members) == sv
        chains = [sv for n in range(1, 7) for k in range(n + 1)
                  if (n, k) not in DEGENERATE
                  for sv in factor_spine_to_horn(n, k).sieves()]
        for sv in chains:
            assert sieve_of(sv.n, sv.members) == sv
        assert len(named) + len(chains) == 665

    def test_sieve_rejects_a_family_that_is_not_downward_closed(self):
        with pytest.raises(ValueError, match="not downward closed"):
            sieve_of(2, frozenset({frozenset({0, 1}), frozenset({0}),
                                   frozenset()}))

    @settings(deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_bitset_agrees_with_a_set_model(self, n, data):
        gens = st.lists(st.frozensets(st.integers(0, n)), max_size=4)
        fa, fb = _closure(data.draw(gens)), _closure(data.draw(gens))
        a, b = sieve_of(n, fa), sieve_of(n, fb)
        assert a.members == fa and b.members == fb
        assert a.cells() == _cells_of_model(n, fa)
        assert (a == b) == (fa == fb)
        assert (a <= b) == (fa <= fb) and (b <= a) == (fb <= fa)
        assert a == generated_sieve(n, fa)
        assert hash(a) == hash(generated_sieve(n, fa))
        if fa == fb:
            assert hash(a) == hash(b)

    @settings(deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_constructor_accepts_and_rejects_like_a_set_model(self, n, data):
        family = set(_closure(data.draw(
            st.lists(st.frozensets(st.integers(0, n)), max_size=3))))
        # one member added (possibly out of range) or one dropped makes the
        # rejections common; the untouched closure covers acceptance
        extra = data.draw(st.one_of(st.none(),
                                    st.frozensets(st.integers(-1, n + 1))))
        if extra is not None:
            family.add(extra)
        if family and data.draw(st.booleans()):
            family.discard(data.draw(st.sampled_from(
                sorted(family, key=sorted))))
        family = frozenset(family)
        kind, out = _outcome_of(lambda: sieve_of(n, family).members)
        outside = {json.dumps(sorted(s)) for s in family
                   if not s <= frozenset(range(n + 1))}
        if outside:         # every member's range is checked first
            named = re.fullmatch(rf"member (.*) not a subset of \[0,{n}\]",
                                 out)
            assert kind == "error" and named and named[1] in outside
        elif _closure(family) != family:
            named = re.fullmatch(r"not downward closed: (.*) present but "
                                 r"(.*) missing", out)
            assert kind == "error" and named
            present, missing = (frozenset(json.loads(g))
                                for g in named.groups())
            assert present in family and missing not in family
            assert missing < present and len(present - missing) == 1
        else:
            assert (kind, out) == ("sieve", family)

    def test_constructor_checks_every_member_of_a_generator(self):
        """A one-shot iterable is read once, so the downward-closure check
        sees the members the range check consumed."""
        with pytest.raises(ValueError, match="not downward closed"):
            sieve_of(1, (frozenset(s) for s in [{0, 1}]))
        closed = [set(), {0}, {1}, {0, 1}]
        assert sieve_of(1, (frozenset(s) for s in closed)).members \
            == frozenset(map(frozenset, closed))


def _closure(gens):
    """Every subset of every generator, as a set model of a sieve."""
    return frozenset(frozenset(c) for g in gens
                     for r in range(len(g) + 1)
                     for c in itertools.combinations(sorted(g), r))


def _cells_of_model(n, members):
    """The non-empty members as cells, sorted by size, then image."""
    images = sorted((tuple(sorted(s)) for s in members if s),
                    key=lambda im: (len(im), im))
    return [(len(im) - 1, MonoMap(n, im)) for im in images]


def _outcome_of(build):
    try:
        return "sieve", build()
    except ValueError as e:
        return "error", str(e)


def _horn_remove_by_scans(x, s, h):
    """The reference: linear scans over all members, and the result
    validated in full by ``sieve_of``."""
    s = frozenset(s)
    if s not in x.members:
        raise ValueError(f"{sorted(s)} is not a member of the sieve")
    if any(s < t for t in x.members):
        raise ValueError(f"{sorted(s)} is not maximal in the sieve")
    if h not in s:
        raise ValueError(f"{h} is not an element of {sorted(s)}")
    remaining = x.members - {s, s - {h}}
    if any(s - {h} < t for t in remaining):
        raise ValueError(
            f"removing {sorted(s)} at {h} breaks downward closure: "
            f"{sorted(s - {h})} still below another member")
    return sieve_of(x.n, remaining)


def _outcome(remove, x, s, h):
    try:
        out = remove(x, s, h)
    except ValueError as e:
        return "error", str(e)
    return "sieve", out.n, out.members


class TestFactorization:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_length(self, n):
        for k in range(n + 1):
            if (n, k) in DEGENERATE:
                continue
            fac = factor_spine_to_horn(n, k)
            assert fac.length == 2 ** (n + 1) - 2 * n - 4, (n, k)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_step_is_a_valid_horn_pushout(self, n):
        for k in range(n + 1):
            if (n, k) in DEGENERATE:
                continue
            fac = factor_spine_to_horn(n, k)
            chain = fac.sieves()   # the chain factor_spine_to_horn validated
            assert chain[0] == horn_sieve(n, k)
            assert chain[-1] == zigzag_sieve(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_inner_only_for_inner_horns(self, n):
        for k in range(1, n):
            fac = factor_spine_to_horn(n, k)
            assert all(s.inner for s in fac.steps), (n, k)

    def test_degenerate_pairs_raise_with_witness(self):
        for (n, k) in sorted(DEGENERATE):
            with pytest.raises(UnsupportedHorn) as e:
                factor_spine_to_horn(n, k)
            # the witness is a spine cell genuinely missing from the horn
            witness = e.value.witness
            assert witness in zigzag_sieve(n).members
            assert witness not in horn_sieve(n, k).members

    def test_steps_are_validated_without_the_chain(self, monkeypatch):
        """Each step is checked on one sieve at a time, not on the chain
        that `sieves()` keeps; the steps for n <= 7 hash to a pinned value."""
        def no_chain(fac):
            raise AssertionError("the whole chain of sieves was built")
        monkeypatch.setattr(Factorization, "sieves", no_chain)
        docs = [factor_spine_to_horn(n, k).to_json()
                for n in range(1, 8) for k in range(n + 1)
                if (n, k) not in DEGENERATE]
        assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == (
            "648968a045450fde93aff0e071c7dc7861de8cf463d44e9b8b5460b08d17ccd2")

    def test_chains_of_sieves_hash_to_a_pinned_value(self):
        """The sorted members of every sieve of every chain for n <= 7 hash
        to a pinned value."""
        docs = [[sorted(sorted(m) for m in sv.members)
                 for sv in factor_spine_to_horn(n, k).sieves()]
                for n in range(1, 8) for k in range(n + 1)
                if (n, k) not in DEGENERATE]
        assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == (
            "954f5865e045197e4d899aff9e152f4527b0d5bcb5820e2c045ad2a17d419ce9")

    def test_the_chain_never_builds_member_sets(self, monkeypatch):
        """Steps and the chain work on the integer of each sieve and the
        mask of each step alone: no member set is built."""
        def no_members(sv):
            raise AssertionError("a member set was built")
        monkeypatch.setattr(Sieve, "members", property(no_members))
        fac = factor_spine_to_horn(9, 4)
        chain = fac.sieves()
        assert len(chain) == len(fac.steps) + 1
        assert fac.length == 2 * len(fac.steps)
        assert all(st.inner for st in fac.steps)
        assert chain[-1] == zigzag_sieve(9)

    def test_monotone_chain_of_realizations(self):
        fac = factor_spine_to_horn(4, 2)
        chain = fac.sieves()
        for a, b in zip(chain[1:], chain):
            assert a <= b
            assert set(a.cells()) < set(b.cells())

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            factor_spine_to_horn(2, 3)

    def test_interval_steps_match_the_recursive_reference(self):
        for a in range(13):
            for b in range(a, 13):
                assert (simplex._interval_steps(a, b)
                        == _interval_steps_by_recursion(a, b)), (a, b)
        for n in range(11):
            for j in range(n + 1):
                assert (simplex._cosieve_order_interval(0, n, j)
                        == [_bits_of(s) for s in
                            _cosieve_order_by_filtering(0, n, j)]), (n, j)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_steps_and_chain_match_the_frozenset_factorization(self, n):
        """The mask factorization gives the steps and the chain integers of
        the frozenset one it replaced, for every horn up to n = 9."""
        for k in range(n + 1):
            if (n, k) in DEGENERATE:
                with pytest.raises(UnsupportedHorn):
                    factor_spine_to_horn(n, k)
                continue
            fac = factor_spine_to_horn(n, k)
            steps, bits = _factor_by_frozensets(n, k)
            assert [(_set_of(st.mask), st.h, st.inner)
                    for st in fac.steps] == [
                (s, h, _internal(h, s)) for s, h in steps], (n, k)
            assert fac.bits == bits, (n, k)

    def test_sieves_returns_the_validated_chain(self, monkeypatch):
        """`sieves()` wraps the integers `factor_spine_to_horn` computed
        while validating; it runs no step again."""
        fac = factor_spine_to_horn(9, 4)
        start, end = horn_sieve(9, 4), zigzag_sieve(9)

        def no_step(*args):
            raise AssertionError("a horn step was run again")
        monkeypatch.setattr(simplex, "_remove_step", no_step)
        chain = fac.sieves()
        assert len(chain) == len(fac.steps) + 1
        assert chain[0] == start
        assert chain[-1] == end


def _bits_of(s):
    """The mask of a set: bit i is set when i is in it."""
    return sum(1 << i for i in s)


def _set_of(m):
    """The set with mask m."""
    return frozenset(i for i in range(m.bit_length()) if m >> i & 1)


def _internal(h, s):
    return h in s and min(s) < h < max(s)


def _interval_steps_by_recursion(a, b):
    """The reference: split [a,b] at j = a+1, recurse into both halves."""
    if b - a <= 1:
        return []
    j = a + 1
    steps = [simplex.HornStep(_bits_of(s), j)
             for s in _cosieve_order_by_filtering(a, b, j)]
    return (steps + _interval_steps_by_recursion(a, j)
            + _interval_steps_by_recursion(j, b))


def _cosieve_order_by_filtering(a, b, j):
    """The reference: every combination of size >= 3 as a set, kept when
    j is internal to it."""
    return [frozenset(c)
            for r in range(b - a + 1, 2, -1)
            for c in itertools.combinations(range(a, b + 1), r)
            if _internal(j, frozenset(c))]


def _factor_by_frozensets(n, k):
    """The reference factorization on frozensets: the steps as (S, h)
    pairs, in the order the construction fixes, and the integer of every
    sieve of the chain, each step checked by ``_remove_by_frozensets``."""
    full = frozenset(range(n + 1))
    if 0 < k < n:
        j, steps = k, []
    else:
        j = n - 1 if k == 0 else 1
        steps = [(full - {j}, k)]
    steps += [(s, j) for s in _cosieve_order_by_filtering(0, n, j)
              if s not in (full, full - {k})]
    for a, b in ((0, j), (j, n)):
        steps += [(s, i) for i in range(a + 1, b)
                  for s in _cosieve_order_by_filtering(i - 1, b, i)]
    bits = [(1 << 2 ** (n + 1)) - 1
            & ~(1 << _bits_of(full) | 1 << _bits_of(full - {k}))]
    for s, h in steps:
        bits.append(_remove_by_frozensets(bits[-1], n, s, h))
    spine = [set(), *({i} for i in range(n + 1)),
             *({i, i + 1} for i in range(n))]
    assert bits[-1] == sum(1 << _bits_of(s) for s in spine)
    return steps, bits


def _remove_by_frozensets(bits, n, s, h):
    """The reference step: S as a frozenset, with a list of the elements
    outside it; each check in its own scan."""
    m = _bits_of(s) if s <= frozenset(range(n + 1)) else None
    if m is None or not bits >> m & 1:
        raise ValueError(f"{sorted(s)} is not a member of the sieve")
    outside = [1 << y for y in range(n + 1) if y not in s]
    for b in outside:
        if bits >> (m | b) & 1:
            raise ValueError(f"{sorted(s)} is not maximal in the sieve")
    if h not in s:
        raise ValueError(f"{h} is not an element of {sorted(s)}")
    face = m & ~(1 << h)
    for b in outside:
        if bits >> (face | b) & 1:
            raise ValueError(
                f"removing {sorted(s)} at {h} breaks downward closure: "
                f"{sorted(s - {h})} still below another member")
    return bits & ~(1 << m | 1 << face)


def _two_simplex_sset():
    """The 2-simplex: at level m its (m+1)-subsets of {0, 1, 2}, restricted
    along an arrow by reading the subset at the arrow's image."""
    levels = {m: tuple(itertools.combinations(range(3), m + 1))
              for m in range(3)}
    x = tabulate(semisimplex_category(2), levels,
                 lambda a, im: tuple(im[t] for t in a[2]))
    x.validate()
    return x


class TestNatTransforms:
    def test_yoneda_counts(self):
        x = _two_simplex_sset()
        for n in range(3):
            nats, mapping = yoneda_bijection(n, x)
            assert len(nats) == len(x.values[n])
            assert sorted(mapping.values()) == sorted(x.values[n])

    def test_spine_one_is_full_one(self):
        x = _two_simplex_sset()
        assert (len(nat_transforms(zigzag_sieve(1), x))
                == len(nat_transforms(full_subfunctor(1), x))
                == len(x.values[1]))

    def test_truncation_guard(self):
        x = _two_simplex_sset()
        with pytest.raises(ValueError):
            nat_transforms(full_subfunctor(3), x)

    def test_partial_face_map_is_rejected(self):
        doc = {"levels": [["a", "b"], ["e", "f"]],
               "faces": {"1,0": [["e", "a"]], "1,1": [["e", "b"], ["f", "b"]]}}
        with pytest.raises(FixtureError, match=r"sset\.faces\.1,0: face "
                                               r"undefined on 'f'"):
            sset_from_json(doc)

    def test_simplicial_identity_violation_detected(self):
        """d_0 d_2 = a but d_1 d_0 = b on t: the composites along the
        vertex 1 disagree."""
        doc = {"levels": [["a", "b"], ["e"], ["t"]],
               "faces": {"1,0": [["e", "a"]], "1,1": [["e", "b"]],
                         "2,0": [["t", "e"]], "2,1": [["t", "e"]],
                         "2,2": [["t", "e"]]}}
        with pytest.raises(CategoryError, match="functoriality fails"):
            sset_from_json(doc)
