"""Parsing, resolution, and printing."""

import copy
import dataclasses
import itertools
import pickle
import random
import re
import sys
import typing

import pytest
from hypothesis import example, given, settings, strategies as st

from counters import count_pass, counting, load_perfbench
from oracles import (
    decl_refs, eager_print_term, eager_refs, findall_tokenize, print_module,
)
from test_parse_golden import STRIDE
from test_print_golden import (
    CONSTS as GOLDEN_CONSTS, CONTEXT, GLOBALS, HINTS, POOL, SEED, random_term,
)
from tltt import syntax
from tltt.corpus import corpus_files, run_corpus
from tltt.kernel import Checker, check_module, sort_lub
from tltt.syntax import (
    Ann, App, Const, Eq, Lam, Pi, Ref, ResolveError, Sig, SyntaxError_, Term,
    Univ, Var, mk_app, parse, parse_term, print_term, resolve, shift, spine,
    subst, tokenize,
)


OVERFLOW = "RecursionError"


def unwound(call):
    """`call()`, or `OVERFLOW` if it overflows Python's stack.  A wall test
    asserts on the result outside the handler, so its failure reports at
    once: one chained to a 1,000-frame RecursionError can hang pytest's
    report, whose `recursionindex` compares the frames' locals, deep terms
    among them, with `==`."""
    try:
        return call()
    except RecursionError:
        return OVERFLOW


def rt(src: str):
    """Parse a closed term, resolve it, and return it."""
    return parse_term(src, "<test>")


class TestParser:
    def test_pi_binder_groups(self):
        t = rt("Pi (A B : U 0) (x : A), B")
        assert isinstance(t, Pi) and isinstance(t.cod, Pi)

    def test_binder_group_type_is_read_before_its_names(self):
        t = rt("Pi (A : U 0) (A B : A), U 0")
        assert t.cod.dom == Var(0) and t.cod.cod.dom == Var(1)
        Checker().check([], rt("fun X a b => Nat"), t)

    def test_builtins_are_the_shared_nodes(self):
        """Every built-in the parser reads is the one node `CONSTS` holds
        for its name."""
        t = rt("succ (succS zeroS) = refl")
        leaves = [u for u, _ in syntax._nodes(t) if type(u) is Const]
        assert sorted(c.name for c in leaves) == [
            "refl", "succ", "succS", "zeroS"]
        assert all(c is syntax.CONSTS[c.name] for c in leaves)

    def test_arrow_right_associative(self):
        assert rt("Nat -> Nat -> Nat") == rt("Nat -> (Nat -> Nat)")

    def test_arrow_is_nondependent_pi(self):
        assert rt("Nat -> Nat") == rt("Pi (x : Nat), Nat")

    def test_application_left_associative(self):
        f = rt("fun f x y => f x y")
        body = f.body.body.body
        assert isinstance(body, App) and isinstance(body.fn, App)

    def test_annotation(self):
        t = rt("(zero : Nat)")
        assert isinstance(t, Ann)

    def test_strict_eq_not_confused_with_identifiers(self):
        t = rt("fun x => x =s x")
        assert isinstance(t.body, Eq) and t.body.strict

    def test_fibrant_eq(self):
        t = rt("fun x => x = x")
        assert isinstance(t.body, Eq) and not t.body.strict

    def test_universe_levels(self):
        assert rt("U 3") == Univ(True, 3)
        assert rt("Us 1") == Univ(False, 1)

    def test_oversized_universe_level_is_an_error_at_it(self):
        """A level past Python's limit on the digits of an `int` is a syntax
        error at the level, not a bare ValueError."""
        with pytest.raises(SyntaxError_) as e:
            parse("def x : U " + "1" * 5000 + " := Nat\n", "big.tltt")
        assert (e.value.msg, e.value.line, e.value.col) == (
            "universe level too large", 1, 11)

    def test_universe_level_is_capped_so_every_printed_level_prints(self):
        """A level has at most `MAX_LEVEL_DIGITS` digits, so the levels the
        checker prints, up to two above it, stay within Python's limit on
        the digits of an `int` it prints; one more digit is an error at the
        level."""
        top = "9" * syntax.MAX_LEVEL_DIGITS
        level = rt(f"U {top}").level
        assert level == 10 ** syntax.MAX_LEVEL_DIGITS - 1
        two_above = f"U 1{'0' * (len(top) - 1)}1"
        assert print_term(Univ(True, level + 2)) == two_above
        with pytest.raises(SyntaxError_) as e:
            parse(f"check U {top}9 : Nat\n", "big.tltt")
        assert (e.value.msg, e.value.line, e.value.col) == (
            "universe level too large", 1, 9)

    def test_syntax_error_has_location(self):
        with pytest.raises(SyntaxError_) as e:
            parse("def x : := zero", "f.tltt")
        assert "f.tltt" in str(e.value)

    def test_trailing_input_after_a_term_is_an_error_at_it(self):
        with pytest.raises(SyntaxError_) as e:
            parse_term("Nat )")
        assert (e.value.msg, e.value.line, e.value.col) == (
            "trailing input after term", 1, 5)

    @pytest.mark.parametrize("src, want", [
        ("f (g (h x))", App(Ref("f"), App(Ref("g"), App(Ref("h"), Ref("x"))))),
        ("f ((x))", App(Ref("f"), Ref("x"))),
        ("((a = b))", Eq(False, Ref("a"), Ref("b"))),
        ("(f (x : A))", App(Ref("f"), Ann(Ref("x"), Ref("A")))),
        ("(A -> (B))", Pi("_", Ref("A"), Ref("B"))),
        ("(f (g x)) y", App(App(Ref("f"), App(Ref("g"), Ref("x"))), Ref("y"))),
    ])
    def test_a_run_of_closing_parentheses(self, src, want):
        got = parse_term(src, globals_=set("fghxabyAB"))
        assert got == want and print_term(got) == print_term(want)

    @pytest.mark.parametrize("src, msg, col", [
        ("f (g (h x))) y", "trailing input after term", 12),
        ("f x)", "trailing input after term", 4),
        (")", "expected a term, found ')'", 1),
    ])
    def test_a_closing_parenthesis_without_opener_is_an_error_at_it(
            self, src, msg, col):
        with pytest.raises(SyntaxError_) as e:
            parse_term(src, globals_=set("fghxy"))
        assert (e.value.msg, e.value.line, e.value.col) == (msg, 1, col)
        with pytest.raises(SyntaxError_) as e:
            parse(f"check\n{src} : Nat\n")
        assert (e.value.line, e.value.col) == (2, col)

    def test_expect_annotation(self):
        mod = parse("--! expect: ELIM-NAT\nfail bad : Nat\n")
        assert mod.decls[0].expect_rule == "ELIM-NAT"

    @pytest.mark.parametrize("src, line, col", [
        # inside a declaration, in place of the word the annotation names
        ("def f : Nat -> Nat := --! expect: fun\n  x => x\n", 1, 23),
        ("def z --! expect: :\n  Nat := zero\n", 1, 7),
        # before a declaration other than `fail`, and at the end of the file
        ("--! expect: CONV\ndef z : Nat := zero\n", 1, 1),
        ("def z : Nat := zero\n--! expect: CONV\n", 2, 1),
    ])
    def test_misplaced_expect_annotation_is_an_error_at_it(self, src, line, col):
        with pytest.raises(SyntaxError_) as e:
            parse(src)
        assert (e.value.line, e.value.col) == (line, col)
        assert "--! expect:" in e.value.msg


class TestDepth:
    def test_deep_arrow_chain_is_a_depth_error_of_the_checker(self):
        """The parser takes a 2,000-arrow chain; checking it overflows (the
        checker spends frames per Π), at the declaration."""
        src = "check " + "Nat -> " * 2000 + "Nat : U 0\n"
        rep = check_module(Checker(), resolve(parse(src, "deep.tltt")))
        assert rep.records[-1]["rule"] == "DEPTH"
        assert rep.error == ("deep.tltt:1:1: [DEPTH] terms nest too deeply "
                             "to check")

    def test_deep_binder_group_is_a_depth_error_at_the_declaration(self):
        names = " ".join(f"x{i}" for i in range(2000))
        mod = parse(f"def f : Pi ({names} : Nat), Nat := fun {names} => zero\n",
                    "wide.tltt")
        rep = check_module(Checker(), resolve(mod))
        assert rep.records[-1]["rule"] == "DEPTH"
        assert rep.error.startswith("wide.tltt:1:1: [DEPTH]")

    @pytest.mark.parametrize("src, depth, leaf", [
        ("(" * 10_000 + "zero" + ")" * 10_000, 0, Const("zero")),
        ("succ (" * 10_000 + "zero" + ")" * 10_000, 10_000, Const("zero")),
        ("Nat -> " * 5_000 + "Nat", 5_000, Const("Nat")),
        ("fun x => " * 5_000 + "x", 5_000, Var(0)),
        ("Pi (x : Nat), " * 2_000 + "x", 2_000, Var(0)),
    ], ids=["parentheses", "succ", "arrows", "fun", "Pi"])
    def test_parser_has_no_depth_wall(self, src, depth, leaf):
        """The parser nests on a stack of its own, not on Python's: at the
        default recursion limit it takes terms far deeper than the checker
        can (about 493 levels), each level one node on the spine."""
        assert sys.getrecursionlimit() == 1000
        t = unwound(lambda: parse_term(src))
        assert t is not OVERFLOW
        child = {App: "arg", Pi: "cod", Lam: "body"}
        for _ in range(depth):      # each level one node on the spine
            t = getattr(t, child[type(t)])
        assert t == leaf

    def test_deep_term_is_a_depth_error_at_a_token(self):
        """Shifting a binder group's type past the group's names is the
        parser's one recursion left: too deep, it is a [DEPTH] error at the
        group's `)`."""
        src = "Pi (x y : " + "succ (" * 2_000 + "zero" + ")" * 2_000 + "), Nat"
        with pytest.raises(SyntaxError_) as e:
            parse_term(src, "deep.tltt")
        assert e.value.msg == "[DEPTH] terms nest too deeply to parse"
        assert e.value.path == "deep.tltt" and e.value.line == 1
        assert e.value.col == src.index("), Nat") + 1


class TestResolver:
    def test_unbound_identifier(self):
        with pytest.raises(ResolveError):
            rt("mystery")

    def test_shadowing_inner_wins(self):
        t = rt("fun x => fun x => x")
        assert t.body.body == Var(0)

    def test_duplicate_global_rejected(self):
        with pytest.raises(ResolveError):
            resolve(parse("def a : Nat := zero\ndef a : Nat := zero\n"))

    def test_builtin_shadow_rejected(self):
        with pytest.raises(ResolveError):
            resolve(parse("def succ : Nat := zero\n"))


class TestSubstitution:
    def test_shift_then_unshift(self):
        t = rt("fun x => x")
        assert shift(shift(t, 2), -2) == t

    def test_subst_closed_noop(self):
        t = rt("succ zero")
        assert subst(t, (rt("zero"),)) == t

    def test_beta_shape(self):
        lam = rt("fun x => succ x")
        assert subst(lam.body, (rt("zero"),)) == rt("succ zero")

    def test_shift_by_zero_is_the_term_itself(self):
        t = App(Var(3), rt("fun x => succ x"))
        assert shift(t, 0) is t
        assert subst(t, (), 2, 0) is t

    def test_subst_for_the_variable_shares_the_argument(self):
        big = rt("fun f x => f (f (succ x))")
        assert subst(Var(0), (big,)) is big

    def test_spine_roundtrip(self):
        t = rt("J (fun a b p => Nat) (fun a => zero)")
        head, args = spine(t)
        assert head == Const("J") and mk_app(head, *args) == t


def match_subst(t, sub, idx=0):
    """`subst` as written with `match`, the oracle for the dispatch on
    `type(t)`."""
    match t:
        case Var(i):
            if i == idx:
                return match_shift(sub, idx)
            return Var(i - 1) if i > idx else t
        case Ref() | Const() | Univ():
            return t
        case Pi(x, a, b):
            return Pi(x, match_subst(a, sub, idx), match_subst(b, sub, idx + 1))
        case Sig(x, a, b):
            return Sig(x, match_subst(a, sub, idx), match_subst(b, sub, idx + 1))
        case Lam(x, b):
            return Lam(x, match_subst(b, sub, idx + 1))
        case App(f, a):
            return App(match_subst(f, sub, idx), match_subst(a, sub, idx))
        case Eq(s, l, r):
            return Eq(s, match_subst(l, sub, idx), match_subst(r, sub, idx))
        case Ann(tm, ty):
            return Ann(match_subst(tm, sub, idx), match_subst(ty, sub, idx))
    raise AssertionError(t)


def match_shift(t, by, cutoff=0):
    """`shift` as written with `match`."""
    if by == 0:
        return t
    match t:
        case Var(i):
            return Var(i + by) if i >= cutoff else t
        case Ref() | Const() | Univ():
            return t
        case Pi(x, a, b):
            return Pi(x, match_shift(a, by, cutoff), match_shift(b, by, cutoff + 1))
        case Sig(x, a, b):
            return Sig(x, match_shift(a, by, cutoff), match_shift(b, by, cutoff + 1))
        case Lam(x, b):
            return Lam(x, match_shift(b, by, cutoff + 1))
        case App(f, a):
            return App(match_shift(f, by, cutoff), match_shift(a, by, cutoff))
        case Eq(s, l, r):
            return Eq(s, match_shift(l, by, cutoff), match_shift(r, by, cutoff))
        case Ann(tm, ty):
            return Ann(match_shift(tm, by, cutoff), match_shift(ty, by, cutoff))
    raise AssertionError(t)


# Open terms of every kind: free variables up to 5, named binders.
_names = st.sampled_from(["x", "y", "_"])
open_terms = st.recursive(
    st.one_of(st.builds(Var, st.integers(0, 5)),
              st.builds(Ref, st.sampled_from(["f", "g"])),
              st.builds(Const, st.sampled_from(["zero", "succ", "Nat"])),
              st.builds(Univ, st.booleans(), st.integers(0, 2))),
    lambda sub: st.one_of(
        st.builds(Pi, _names, sub, sub), st.builds(Sig, _names, sub, sub),
        st.builds(Lam, _names, sub), st.builds(App, sub, sub),
        st.builds(Eq, st.booleans(), sub, sub), st.builds(Ann, sub, sub)),
    max_leaves=12)


class TestSubstitutionOracle:
    """`subst` and `shift` build the terms the `match` versions build,
    binder names included (`==` ignores them, so `repr` compares)."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(open_terms, open_terms, st.integers(0, 3))
    def test_subst_agrees(self, t, s, idx):
        assert repr(subst(t, (s,), idx)) == repr(match_subst(t, s, idx))
        assert subst(Var(0), (s,)) is s

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(open_terms, st.lists(open_terms, min_size=1, max_size=3),
           st.integers(0, 3))
    def test_subst_of_a_sequence_is_one_term_at_a_time(self, t, subs, idx):
        """The j-th of n terms, outermost binder first, replaces the
        variable `idx + n - 1 - j` of a one-term substitution."""
        n = len(subs)
        want = t
        for j, s in enumerate(subs):
            want = match_subst(want, s, idx + n - 1 - j)
        assert repr(subst(t, subs, idx)) == repr(want)
        s = subs[-1]
        assert repr(subst(Var(idx), (s,), idx)) == repr(shift(s, idx))
        assert subst(Var(0), (s,)) is s

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(open_terms, st.lists(open_terms, max_size=3), st.integers(0, 3),
           st.integers(0, 2))
    def test_subst_by_is_shift_then_one_term_at_a_time(
            self, t, subs, idx, by):
        """`subst(t, subs, idx, by)` moves the variables above the `n`
        substituted ones by `by`: a shift from `idx + n` followed by the
        one-term substitutions, and a pure shift when `subs` is empty."""
        n = len(subs)
        want = match_shift(t, by, idx + n)
        for j, s in enumerate(subs):
            want = match_subst(want, s, idx + n - 1 - j)
        assert repr(subst(t, subs, idx, by)) == repr(want)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(open_terms, st.integers(-2, 2), st.integers(0, 3))
    def test_shift_agrees(self, t, by, cutoff):
        assert repr(subst(t, (), cutoff, by)) \
            == repr(match_shift(t, by, cutoff))
        assert repr(shift(t, by)) == repr(subst(t, (), 0, by))
        assert shift(t, 0) is t and subst(t, (), cutoff, 0) is t


def corpus_terms() -> list:
    """The type and body of every declaration of the shipped corpus."""
    return [t for path in corpus_files()
            for d in parse(path.read_text(), str(path)).decls
            for t in (d.ty, d.body) if t is not None]


def loose(t) -> int:
    """One more than the largest free index of `t`: the least cutoff at and
    above which `t` has no variable."""
    return max((u.idx - d + 1 for u, d in syntax._nodes(t)
                if type(u) is Var and u.idx >= d), default=0)


def unshared(t):
    """`t` rebuilt with a fresh node at every position (a deep copy would
    keep a node that occurs twice as one)."""
    return type(t)(*(unshared(v) if isinstance(v, syntax._Node) else v
                     for v in (getattr(t, f.name)
                               for f in dataclasses.fields(t))))


class TestSharing:
    """Substitution returns what it leaves unchanged, and the variables,
    universes and globals the parser and the kernel build are shared."""

    @staticmethod
    def assert_returned(t, above):
        cutoff = loose(t) + above
        assert subst(t, (), cutoff, 1) is t and subst(t, (), cutoff, -1) is t
        assert subst(t, (Const("zero"),), cutoff) is t
        assert subst(t, (Var(0), Ref("f")), cutoff, 3) is t

    def test_corpus_terms_come_back_as_themselves(self):
        terms = corpus_terms()
        assert len(terms) > 100
        for t in terms:
            self.assert_returned(t, 0)
            self.assert_returned(t, 2)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(open_terms, st.integers(0, 2))
    def test_open_terms_come_back_as_themselves(self, t, above):
        self.assert_returned(t, above)

    def test_a_variable_that_keeps_its_index_is_returned(self):
        v = Var(5)
        assert subst(v, (Const("zero"), Const("Nat")), 1, 2) is v
        for v in (v, syntax.var(5), Var(syntax.SHARED + 5)):
            assert subst(v, (Const("zero"), Const("Nat")), 1, 2) is v
            assert subst(v, (), 0) is v and subst(v, (), v.idx + 1, 1) is v
        assert shift(Var(3), 1) is syntax.var(4)
        top = shift(syntax.var(syntax.SHARED - 1), 1)
        assert type(top) is Var and top.idx == syntax.SHARED

    def test_a_negative_index_or_level_is_not_a_shared_node(self):
        """Below zero `var` and `univ` build what a fresh node would be:
        the shared tables are not read from their other end."""
        assert shift(Var(0), -1) == Var(-1)
        assert subst(Var(0), (), 0, -1) == Var(-1)
        assert syntax.var(-1) == Var(-1)
        for fib in (False, True):
            assert syntax.univ(fib, -1) == Univ(fib, -1)

    def test_only_the_paths_to_moved_variables_are_built(self):
        kept = Lam("x", App(Var(0), Const("zero")))
        t = App(App(kept, Var(4)), Pi("y", Univ(True, 0), kept))
        s = subst(t, (), 2, 1)
        assert s == App(App(kept, Var(5)), t.arg)
        assert s.fn.fn is kept and s.fn.arg is syntax.var(5)
        assert s.arg is t.arg

    def test_the_parser_builds_the_shared_leaves(self):
        mod = parse("axiom f : Pi (A : U 0) (x : A), Us 3 -> A\n"
                    "def g : U 1 := U 0\n"
                    "check f g (f (U 0) U 0) : Us 3 -> g\n")
        nodes = [u for d in mod.decls for t in (d.ty, d.body)
                 if t is not None for u, _ in syntax._nodes(t)]
        refs = [u for u in nodes if type(u) is Ref]
        assert sorted(r.name for r in refs) == ["f", "f", "g", "g"]
        assert len({id(r) for r in refs}) == 2
        variables = [u for u in nodes if type(u) is Var]
        universes = [u for u in nodes if type(u) is Univ]
        assert len(variables) == 2 and len(universes) == 7
        assert all(v is syntax.var(v.idx) for v in variables)
        assert all(u is syntax.univ(u.fib, u.level) for u in universes)
        assert parse_term(f"U {syntax.SHARED}") == Univ(True, syntax.SHARED)

    def test_sort_lub_returns_the_operand_that_is_the_join(self):
        sorts = [(fib, level) for fib in (False, True) for level in range(3)]
        for a, b in itertools.product(sorts, repeat=2):
            ua, ub = Univ(*a), Univ(*b)     # fresh, not the shared nodes
            join = Univ(a[0] and b[0], max(a[1], b[1]))
            got = sort_lub(ua, ub)
            assert got == join
            if join == ua:
                assert got is ua
            elif join == ub:
                assert got is ub

    def test_a_binder_at_two_positions_prints_as_two(self):
        """`print_term` records by `id` which binders' variables occur; one
        `Pi` and one `Lam` object at two positions each print as if every
        position had a node of its own."""
        dep = Pi("x", Univ(True, 0), Var(0))        # its variable occurs
        arrow = Pi("y", Const("Nat"), Const("Nat"))  # its variable does not
        konst = Lam("w", Var(1))    # the binder around it, at either place
        body = Eq(False, App(konst, Var(2)),
                  App(Lam("v", App(konst, Var(0))), Var(1)))
        t = Pi("a", dep, Pi("b", arrow, Sig("c", dep, Pi("d", arrow, body))))
        text = print_term(t)
        assert text == print_term(unshared(t))
        assert text == ("(Pi (x : U 0), x) -> (Pi (b : Nat -> Nat), "
                        "Sig (c : Pi (x : U 0), x), Pi (d : Nat -> Nat), "
                        "(fun w => d) b = (fun v => (fun w => v) v) c)")
        assert parse_term(text) == t


# One node of each kind, binder names set, and each kind's match arguments
# written out, so that a reordered or renamed field shows.
EVERY_KIND = [
    Var(1), Ref("f"), Const("zero"), Univ(False, 2),
    Pi("x", Const("Nat"), Var(0)), Sig("y", Univ(True, 0), Var(0)),
    Lam("z", Lam("w", Var(1))), App(Const("succ"), Var(0)),
    Eq(True, Var(0), Const("zero")), Ann(Lam("v", Var(0)), Ref("g")),
]
MATCH_ARGS = {
    Var: ("idx",), Ref: ("name",), Const: ("name",), Univ: ("fib", "level"),
    Pi: ("name", "dom", "cod"), Sig: ("name", "dom", "cod"),
    Lam: ("name", "body"), App: ("fn", "arg"), Eq: ("strict", "lhs", "rhs"),
    Ann: ("tm", "ty"),
}
kinds = pytest.mark.parametrize("t", EVERY_KIND, ids=lambda t: type(t).__name__)


def renamed(t):
    """`t` with a prime added to every binder name."""
    match t:
        case Pi(x, a, b) | Sig(x, a, b):
            return type(t)(x + "'", renamed(a), renamed(b))
        case Lam(x, b):
            return Lam(x + "'", renamed(b))
        case App(f, a):
            return App(renamed(f), renamed(a))
        case Eq(s, l, r):
            return Eq(s, renamed(l), renamed(r))
        case Ann(tm, ty):
            return Ann(renamed(tm), renamed(ty))
    return t


def recursive_repr(t) -> str:
    """`repr` as a generated dataclass `__repr__` writes it, one call per
    level."""
    if not isinstance(t, syntax._Node):
        return repr(t)
    inner = ", ".join(f"{f.name}={recursive_repr(getattr(t, f.name))}"
                      for f in dataclasses.fields(t))
    return f"{type(t).__qualname__}({inner})"


class TestNodes:
    """Terms are immutable slotted nodes that copy, pickle and compare up to
    binder names, and do not hash."""

    def test_every_kind_is_listed(self):
        assert {type(t) for t in EVERY_KIND} == set(typing.get_args(Term))
        assert set(MATCH_ARGS) == set(typing.get_args(Term))

    @kinds
    def test_fields_are_neither_assigned_nor_deleted(self, t):
        t = dataclasses.replace(t)     # a node no other test reads
        before = repr(t)
        for name in type(t).__match_args__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(t, name, Var(7))
            with pytest.raises(AttributeError):
                delattr(t, name)
        assert repr(t) == before
        assert not hasattr(t, "__dict__")

    @kinds
    def test_copy_deepcopy_and_pickle_give_the_same_term(self, t):
        for twin in (copy.copy(t), copy.deepcopy(t),
                     pickle.loads(pickle.dumps(t))):
            assert type(twin) is type(t)
            assert twin == t and repr(twin) == repr(t)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(open_terms)
    def test_equality_ignores_binder_names(self, t):
        other = renamed(t)
        assert other == t and not other != t
        binders = any(n in repr(t) for n in ("Pi(", "Sig(", "Lam("))
        assert (repr(other) != repr(t)) == binders

    @kinds
    def test_terms_do_not_hash_and_equal_only_terms(self, t):
        with pytest.raises(TypeError):
            hash(t)
        assert t.__eq__(0) is NotImplemented and t != 0 and t != "zero"

    @pytest.mark.parametrize("build, depth", [
        (lambda x, t: App(Const("succ"), t), 10_000),
        (lambda x, t: Pi(x, Const("Nat"), t), 5_000),
    ], ids=["tower", "Pi chain"])
    def test_deep_terms_compare_at_the_default_recursion_limit(
            self, build, depth):
        """`==` and `!=` walk on a stack of their own, not on Python's."""
        assert sys.getrecursionlimit() == 1000

        def chain(x, leaf):
            t = Const(leaf)
            for _ in range(depth):
                t = build(x, t)
            return t
        t, same = chain("x", "zero"), chain("y", "zero")
        other = chain("x", "zeroS")
        assert unwound(lambda: (t == same, t != same, t == other, t != other)
                       ) == (True, False, False, True)

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(open_terms)
    def test_repr_is_the_dataclass_format(self, t):
        assert repr(t) == recursive_repr(t)

    def test_a_deep_term_reprs_at_the_default_recursion_limit(self):
        """`repr` writes from a stack of its own, not from Python's."""
        assert sys.getrecursionlimit() == 1000
        t = Const("zero")
        for _ in range(10_000):
            t = App(Const("succ"), t)
        assert unwound(lambda: repr(t)) == ("App(fn=Const(name='succ'), arg=" * 10_000
                        + "Const(name='zero')" + ")" * 10_000)

    @kinds
    def test_match_args_are_the_fields_in_order(self, t):
        assert type(t).__match_args__ == MATCH_ARGS[type(t)]


class TestPrinter:
    @pytest.mark.parametrize("src", [
        "fun x => x",
        "Pi (A : U 0), A -> A",
        "Pi (n : Nat), n = n",
        "fun A x p => J (fun a b q => b = a) (fun a => refl a) p",
        "pair zero (refl zero)",
        "(zero : Nat)",
        "Sig (A : U 0), A",
        "fun f g => f =s g",
    ])
    def test_print_parse_roundtrip(self, src):
        t = rt(src)
        assert rt(print_term(t)) == t

    def test_alpha_invariance(self):
        assert rt("fun a => a") == rt("fun b => b")

    def test_nondependent_pi_prints_as_arrow(self):
        assert print_term(rt("Nat -> Nat")) == "Nat -> Nat"

    def test_an_arrow_chain_is_walked_once(self, monkeypatch):
        """Which Pis of `Nat -> ... -> Nat` print as arrows is decided in one
        walk of the whole term; a walk of each codomain made printing a
        chain of n arrows cost O(n^2)."""
        real, calls = syntax._nodes, []

        def counted(t):
            calls.append(t)
            return real(t)
        monkeypatch.setattr(syntax, "_nodes", counted)
        chain = Const("Nat")
        for _ in range(50):
            chain = Pi("x", Const("Nat"), chain)
        assert print_term(chain) == " -> ".join(["Nat"] * 51)
        assert len(calls) == 1

    @pytest.mark.parametrize("term, names, index", [
        (App(Var(0), Var(1)), ["a"], 1),
        (Var(3), ["a"], 3),
        (Pi("x", Const("Nat"), Var(1)), [], 1),
    ])
    def test_unnamed_variable_is_an_error(self, term, names, index):
        with pytest.raises(ValueError, match=f"variable {index} has no name"):
            print_term(term, names)

    def test_free_variables_print_by_their_names(self):
        term = Pi("x", App(Var(0), Var(1)), Var(2))
        assert print_term(term, ["b", "a"]) == "a b -> b"

    def test_a_numeral_prints_in_one_loop(self):
        """A right-nested chain of applications costs the printer no frame
        per level: a numeral far past the recursion limit prints."""
        assert sys.getrecursionlimit() == 1000
        src = "succ (" * 4999 + "succ zero" + ")" * 4999
        assert unwound(lambda: print_term(parse_term(src))) == src
        mixed = "fun f x => f (f (f x x) (f x)) (f (f x))"
        assert print_term(rt(mixed)) == mixed

    def test_corpus_roundtrip(self):
        """Printing any shipped module and reparsing is the identity."""
        known: set = set()
        for path in corpus_files():
            before = set(known)
            mod = resolve(parse(path.read_text(), str(path)), before)
            known |= {d.name for d in mod.decls if d.name}
            text = print_module(mod)
            again = resolve(parse(text, str(path)), set(before))
            assert [d.name for d in mod.decls] == [d.name for d in again.decls]
            for d1, d2 in zip(mod.decls, again.decls):
                assert d1.ty == d2.ty, f"{path}:{d1.name}"
                assert d1.body == d2.body, f"{path}:{d1.name}"


# A small term generator: well-scoped closed lambda terms over Nat.
_leaf = st.sampled_from(["zero", "Nat", "U 0"])


@st.composite
def closed_terms(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        return draw(_leaf)
    which = draw(st.integers(0, 2))
    a = draw(closed_terms(depth + 1))
    b = draw(closed_terms(depth + 1))
    if which == 0:
        return f"fun x{depth} => {a}"
    if which == 1:
        return f"({a}) -> ({b})"
    return f"Sig (x{depth} : {a}), {b}"


@given(closed_terms())
def test_printer_roundtrip_property(src):
    t = rt(src)
    assert rt(print_term(t)) == t


@st.composite
def hinted_sources(draw, depth=0):
    """Sources over `f` and `P`, bound or global, and the free names `g`
    and `Q`, whose binders may be named `f` or `P`."""
    if depth > 3 or draw(st.booleans()):
        return draw(st.sampled_from(["zero", "Nat", "f", "P", "g", "Q"]))
    which = draw(st.integers(0, 3))
    x = draw(st.sampled_from(["f", "P"]))
    a = draw(hinted_sources(depth + 1))
    b = draw(hinted_sources(depth + 1))
    if which == 0:
        return f"fun {x} => {a}"
    if which == 1:
        return f"({a}) -> ({b})"
    if which == 2:
        return f"({a}) ({b})"
    return f"Sig ({x} : {a}), {b}"


# `g` and `Q` become the globals `f` and `P`, which substitution may put
# under a binder hinted like them, as source cannot.
terms_under_global_hints = hinted_sources().map(lambda src: subst(
    parse_term(src, "<test>", scope=["g", "Q"], globals_={"f", "P"}),
    (Ref("f"), Ref("P"))))


@given(terms_under_global_hints)
@example(Lam("f", Ref("f")))
@example(Sig("P", Const("Nat"), Ref("P")))
def test_printer_roundtrip_keeps_globals_free(t):
    """A binder is renamed away from the globals of the term it prints."""
    assert parse_term(print_term(t), "<test>", globals_={"f", "P"}) == t


class TestLazyNaming:
    """`print_term` runs its naming walk only when it reaches a binder, once
    and over the whole term, and gives the text of the printer that walks
    every term first (`oracles.eager_print_term`)."""

    @pytest.fixture
    def walks(self, monkeypatch):
        real, calls = syntax._nodes, []

        def counted(t):
            calls.append(t)
            return real(t)
        monkeypatch.setattr(syntax, "_nodes", counted)
        return calls

    @pytest.mark.parametrize("src, scope", [
        ("add (succ (succ zero)) (succ zero) = succ (succ (succ zero))", ()),
        ("f g (h (k zero)) (f Nat) =s (g : Nat)", ("f", "g", "h", "k")),
    ])
    def test_a_term_without_binders_is_not_walked(self, walks, src, scope):
        t = parse_term(src, "<test>", globals_={"add", *scope})
        assert print_term(t) == src
        assert walks == []

    def test_a_term_with_binders_is_walked_once_from_the_root(self, walks):
        """The binders sit below a binder-free prefix; they are named away
        from the globals of the whole term, the prefix's `f` included."""
        t = Eq(False, App(Ref("f"), Lam("f", Var(0))),
               Pi("x", Const("Nat"), Sig("f", Var(0), Var(1))))
        assert print_term(t) == ("f (fun f1 => f1) = "
                                 "(Pi (x : Nat), Sig (f1 : x), x)")
        assert walks == [t]

    def test_every_print_golden_input_prints_as_the_oracle(self):
        for path in corpus_files():
            for d in parse(path.read_text(), str(path)).decls:
                for t in (d.ty, d.body):
                    if t is not None:
                        assert print_term(t) == eager_print_term(t)
        rng = random.Random(SEED)
        for _ in range(POOL):
            names = [rng.choice(CONTEXT) for _ in range(rng.randrange(3))]
            t = random_term(rng, len(names))
            assert print_term(t, names) == eager_print_term(t, names)

    @pytest.mark.parametrize("seed", range(4))
    def test_binders_below_a_binder_free_prefix_print_as_the_oracle(
            self, seed):
        rng = random.Random(f"lazy naming {seed}")
        for _ in range(250):
            names = [rng.choice(CONTEXT) for _ in range(rng.randrange(3))]
            t = binder_free_prefix(rng, len(names))
            assert print_term(t, names) == eager_print_term(t, names)


def binder_free_prefix(rng: random.Random, bound: int, depth: int = 0):
    """Applications, equations and annotations over globals, constants and
    the `bound` context variables, with print-golden random terms under a
    binder at some leaves: the printer meets globals before any binder."""
    if depth >= 3 or rng.random() < 0.3:
        leaf = rng.randrange(4)
        if leaf == 0:
            kind, x = rng.randrange(3), rng.choice(HINTS)
            if kind == 2:
                return Lam(x, random_term(rng, bound + 1, 2))
            return (Pi, Sig)[kind](x, random_term(rng, bound, 2),
                                   random_term(rng, bound + 1, 2))
        if leaf == 1 and bound:
            return Var(rng.randrange(bound))
        if leaf == 2:
            return Const(rng.choice(GOLDEN_CONSTS))
        return Ref(rng.choice(GLOBALS))
    a = binder_free_prefix(rng, bound, depth + 1)
    b = binder_free_prefix(rng, bound, depth + 1)
    kind = rng.randrange(3)
    if kind == 0:
        return App(a, b)
    if kind == 1:
        return Eq(rng.random() < 0.5, a, b)
    return Ann(a, b)


_FRAGMENTS = st.sampled_from([
    "--!", "--", "expect:", "=s", "=", "s1", ":=", "->", "(", ")", "12", "_",
    " ", "\n", "\t", "\r", "\x0b", "é", "\x0c", "'", "Pi'", "funx", "Us",
    "U0", "=s'", "=sx", "--!expect: X", "--! expect:", "²"])
_BAD = "\x0b\x0cé'²"      # the fragments' characters that no token starts


def offsets(toks) -> list[int]:
    """Each token's offset, the length of the pieces of the split before
    it; the last is EOF's, the length of the source."""
    return list(itertools.islice(itertools.accumulate(map(len, toks.parts)),
                                 0, None, 2))


@given(st.lists(_FRAGMENTS, max_size=24).map("".join))
def test_tokens_sit_at_their_positions(src):
    """Every token's text is at its offset and at the (line, col) that
    `Tokens.place` gives it; an error points at the character it names.
    Only `\\n` ends a line."""
    lines = src.split("\n")
    try:
        toks = tokenize(src)
    except SyntaxError_ as e:
        c = lines[e.line - 1][e.col - 1]
        assert c in _BAD and e.msg == f"unexpected character {c!r}"
        return
    offs = offsets(toks)
    assert (toks.kinds[-1], toks.texts[-1], offs[-1]) == ("EOF", "", len(src))
    for i, (text, off) in enumerate(zip(toks.texts, offs)):
        line, col = toks.place(i)
        assert src.startswith(text, off), (text, off)
        assert lines[line - 1][col - 1:].startswith(text), (text, off)
        assert sum(len(s) + 1 for s in lines[:line - 1]) + col - 1 == off


_SPAN_RE = re.compile(r"--[^\n]*|:=|=>|->|=s(?!\w)|[A-Za-z_][A-Za-z0-9_']*"
                      r"|[0-9]+|\S")


def reference_tokens(src: str) -> list[tuple[str, str]]:
    """(kind, text) of each token of `src`, by a second reading of the
    lexical rules: spans of the source, each classified by its text."""
    out = []
    for text in _SPAN_RE.findall(src):
        rest = text[3:].lstrip(" \t")
        if text.startswith("--!") and rest.startswith("expect:") \
                and rest[7:].strip():
            out.append(("EXPECT", text))
        elif text.startswith("--"):
            continue
        elif text in syntax.KEYWORDS:
            out.append(("KW", text))
        elif text[0].isalpha() or text[0] == "_":
            out.append(("NAME", text))
        elif text.isdigit():
            out.append(("NAT", text))
        else:
            assert text in (":=", "=>", "->", "=s", "=", "(", ")", ",", ":")
            out.append(("PUNCT", text))
    return out + [("EOF", "")]


def test_token_count_is_pinned():
    """The tokens of the corpus, counted and classified independently: the
    benchmark's `syntax.tokens` counter is `len` of `tokenize`'s result,
    EOF included, and reads 2,595 per pass over the corpus."""
    total = 0
    for path in corpus_files():
        src = path.read_text()
        toks = tokenize(src, str(path))
        assert list(zip(toks.kinds, toks.texts)) == \
            reference_tokens(src), path.name
        total += len(toks)
    assert total == 2_595


# The scanner oracle: the lexer as it was before tokens came as columns, one
# `finditer` of a regex with a named group per kind, one Python step per
# token.  `tokenize` must give the same tokens, or fail with the same error.
_ORACLE_EXPECT = r"![^\S\n]*expect:[^\S\n]*\S"
_ORACLE_RE = re.compile(rf"""
    (?: [ \t\r\n]+ | --(?!{_ORACLE_EXPECT})[^\n]* )*
    (?: (?P<EXPECT>--{_ORACLE_EXPECT}[^\n]*)
      | (?P<PUNCT>:=|=>|->|=s(?!\w)|[=(),:])
      | (?P<KW>(?:{"|".join(sorted(syntax.KEYWORDS))})(?![A-Za-z0-9_']))
      | (?P<NAME>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<NAT>[0-9]+)
      | (?P<EOF>\Z)
      | (?P<BAD>.) )
""", re.VERBOSE)


def oracle_tokenize(src: str, path: str = "<input>"):
    """The (kind, text, offset) of each token of `src`, the last one EOF."""
    toks = []
    for m in _ORACLE_RE.finditer(src):
        kind = m.lastgroup
        toks.append((kind, m[kind], m.start(kind)))
        if kind == "EOF" or kind == "BAD":
            break
    if kind == "BAD":     # its line and column, where only `\n` ends a line
        off = toks[-1][2]
        raise SyntaxError_(f"unexpected character {src[off]!r}",
                           src.count("\n", 0, off) + 1,
                           off - src.rfind("\n", 0, off), path)
    return toks


def assert_scans_as_the_oracle(src: str, path: str = "<test>"):
    """`tokenize` gives the tokens of the `finditer` oracle above and the
    columns of `oracles.findall_tokenize`, or fails with the error that
    both raise."""
    try:
        want = oracle_tokenize(src, path)
    except SyntaxError_ as e:
        for lexer in (tokenize, findall_tokenize):
            with pytest.raises(SyntaxError_) as got:
                lexer(src, path)
            assert (str(got.value), got.value.msg, got.value.line,
                    got.value.col) == (str(e), e.msg, e.line, e.col)
        return
    toks, columns = tokenize(src, path), findall_tokenize(src, path)
    offs = offsets(toks)
    assert list(zip(toks.kinds, toks.texts, offs)) == want
    assert (toks.kinds, toks.texts, offs) == \
        (columns.kinds, columns.texts, columns.offs)
    assert len(toks) == len(want)


class TestScannerOracle:
    @pytest.mark.parametrize("src", [
        "--! expect: CONV -- still the rule\nfail x : A\n",
        "---!expect: X\ncheck x : A\n",
        "A ->--x\n->--! expect: Y -- z",
        "check x : A -- a comment at EOF",
        "def a : A\r\n:= b -- c\r\n--! expect: R\r\nfail d : A\r\n",
        "x =sx =s' =s_ =s0 =s(y) =s",
        "a\n  b \x0b c", "a -- \x0c\n \x0c", "-- é\nx é",
    ], ids=["expect-with-dashes", "three-dashes", "arrow-then-comment",
            "comment-at-eof", "crlf", "eqs-before-word", "bad-vt",
            "bad-ff", "bad-e-acute"])
    def test_edge_cases(self, src):
        assert_scans_as_the_oracle(src)

    def test_corpus_files(self):
        for path in corpus_files():
            assert_scans_as_the_oracle(path.read_text(), str(path))

    def test_numeral_modules(self):
        """The `numerals` workload's modules, from its own formulas, at the
        depths it times and the ladder's deepest."""
        workloads = load_perfbench("workloads")
        for depth in (1, 20, 180, 200, 400, 800):
            for kind in ("add", "add+1", "toNat"):
                src, _ = workloads.numeral_source(kind, depth, 0.3)
                assert_scans_as_the_oracle(src)

    def test_cut_and_deleted_corpus_files(self):
        """The parse golden's cases: each corpus file cut after, and
        without, every `STRIDE`-th span."""
        for path in corpus_files():
            src = path.read_text()
            for start, end in [m.span() for m in
                               _SPAN_RE.finditer(src)][::STRIDE]:
                assert_scans_as_the_oracle(src[:end], str(path))
                assert_scans_as_the_oracle(src[:start] + src[end:], str(path))

    @given(st.lists(_FRAGMENTS, max_size=24).map("".join))
    @settings(max_examples=400)
    @example("")
    @example("U0 Us -- x\n\x0c")
    def test_fragments(self, src):
        assert_scans_as_the_oracle(src)


# ---------------------------------------------------------------------------
# Positions worked out where they are read
# ---------------------------------------------------------------------------

def read_outcome(src: str, path: str = "<test>", globals_=()):
    """What parsing `src` and resolving it against `globals_` gives, in the
    format of `oracles.eager_refs`.  `resolve` runs before any name is
    placed, as in a real check, and each declaration's `decl_refs` is then
    read backward and forward, so every read of `Tokens.place` is tried
    from behind its token and from ahead of it."""
    try:
        mod = parse(src, path)
    except SyntaxError_ as e:
        return [type(e).__name__, str(e), e.msg, e.line, e.col]
    try:
        resolve(mod, set(globals_))
        err = None
    except ResolveError as e:
        err = [type(e).__name__, str(e), e.msg, e.line, e.col]
    backward = [decl_refs(d) for d in reversed(mod.decls)][::-1]
    decls = [(d.line, d.col, decl_refs(d)) for d in mod.decls]
    assert backward == [refs for _, _, refs in decls]
    return decls, err


# Blanks between tokens, and what the generated sources inject: stray
# tokens at random places, characters that start no token among them
_GAPS = [" "] * 6 + ["  ", "\t", " \t ", "\n", "\n\n", "\n  ", "\t\n\t",
                     "\r\n", " -- a comment\n", "\n-- a line\n\n", "\n\n\n  "]
_STRAYS = ["(", ")", ":", "=>", ",", "->", "=", "def", "fail", "U", "9",
           "é", "\x0b", "\x0c", "--! expect: CONV"]
_FREE = ["u", "v'", "w_2", "Nats"]      # names no source declares
_GIVEN = ("A", "B", "f")                # the globals a source may be given


def surface_tokens(rng: random.Random, bound: list[str], names: list[str],
                   depth: int = 0) -> list[str]:
    """The tokens of a random surface term over the bound names `bound`
    and the free names `names`."""
    kind = rng.randrange(6) if depth < 3 else 5
    sub = lambda inner=bound: surface_tokens(rng, inner, names, depth + 1)
    if kind == 0:
        xs = rng.sample(["x", "y", "z", "a"], rng.randint(1, 2))
        return [rng.choice(["Pi", "Sig"]), "(", *xs, ":", *sub(), ")", ",",
                *sub(bound + xs)]
    if kind == 1:
        xs = rng.sample(["x", "y", "k", "r"], rng.randint(1, 3))
        return ["fun", *xs, "=>", *sub(bound + xs)]
    app = [tok for _ in range(rng.randint(1, 3))
           for tok in atom_tokens(rng, bound, names, depth + 1)]
    if kind == 2:
        return [*app, "->", *sub(bound + ["_"])]
    if kind == 3:
        return [*app, rng.choice(["=", "=s"]),
                *atom_tokens(rng, bound, names, depth + 1)]
    return app


def atom_tokens(rng: random.Random, bound: list[str], names: list[str],
                depth: int) -> list[str]:
    """The tokens of a random atom: a universe, a parenthesised term or
    annotation, or a name; only a name from depth 3 down."""
    r = rng.random() if depth < 3 else 1
    if r < 0.1:
        return [rng.choice(["U", "Us"]), str(rng.randrange(3))]
    if r < 0.2:
        return ["(", *surface_tokens(rng, bound, names, depth), ")"]
    if r < 0.3:
        return ["(", *surface_tokens(rng, bound, names, depth), ":",
                *surface_tokens(rng, bound, names, depth), ")"]
    if bound and r < 0.65:
        return [rng.choice(bound)]
    return [rng.choice(names)]


def leave_unbound(rng: random.Random, toks: list[str], names: set[str],
                  free: str) -> list[str]:
    """`toks` with one name of `names` read as a reference replaced by
    `free`, or applied to `free` if it reads none: `free` is then read at
    its place as a reference too."""
    at = [j for j, t in enumerate(toks) if t in names]
    if not at:
        return ["(", *toks, ")", free]
    toks = list(toks)
    toks[rng.choice(at)] = free
    return toks


def seeded_source(rng: random.Random, given=()) -> str:
    """A random module of one to six declarations over several lines,
    with comments, tabs and blank lines between its tokens, `check` and
    `fail` declarations, names left unbound at random places and, in some,
    a declared name taken again, a built-in shadowed or a stray token.  Its
    other names are built-ins, declared above their use or in `given`."""
    toks, names, declared = [], [*given, "Nat", "zero", "succ", "refl"], []
    term = lambda: surface_tokens(rng, [], names)
    for k in range(rng.randint(1, 6)):
        kind = rng.choice(["def", "axiom", "check", "fail"])
        if kind == "fail" and rng.random() < 0.5:
            toks += ["--! expect: CONV", "\n"]
        if kind in ("check", "fail"):
            decl = [kind, *term(), ":", *term()]
        else:
            r = rng.random()
            name = (rng.choice(declared) if declared and r < 0.1
                    else "succ" if r < 0.14 else f"d{k}")
            decl = [kind, name, ":", *term()]
            if kind == "def":
                decl += [":=", *term()]
        while rng.random() < 0.15:
            decl[1:] = leave_unbound(rng, decl[1:], set(names),
                                     rng.choice(_FREE))
        toks += decl
        if kind in ("def", "axiom"):
            names.append(name)
            declared.append(name)
    if rng.random() < 0.25:
        toks.insert(rng.randrange(len(toks) + 1), rng.choice(_STRAYS))
    if rng.random() < 0.1:
        del toks[rng.randrange(len(toks))]
    out = []
    for t in toks:
        out += [t, "\n" if t.startswith("--") else rng.choice(_GAPS)]
    return rng.choice(["", "\n", "-- head\n", "\t"]) + "".join(out)


def prelude_names() -> set[str]:
    """The names the corpus prelude declares."""
    return {d.name for path in corpus_files() if path.parent.name == "prelude"
            for d in parse(path.read_text()).decls if d.name}


class TestPositionsOnRead:
    """Every position the front end reports is the one eager placement
    gives (`oracles.eager_refs`), though it is worked out only where it
    is read: the declarations' starts, a lexer or parser error, each
    declaration's names when `decl_refs` reads them and the one unbound
    name `resolve` reports, all by `Tokens.place`'s running sum."""

    def assert_eager(self, src, path="<test>", globals_=()):
        assert read_outcome(src, path, globals_) == \
            eager_refs(src, path, globals_), src

    def test_corpus_files(self):
        given = prelude_names()
        for path in corpus_files():
            src = path.read_text()
            self.assert_eager(src, str(path))
            self.assert_eager(src, str(path), given)

    def test_parse_golden_inputs(self):
        """The parse golden's cases, each resolved with no globals: every
        name of the prelude is then unbound."""
        for path in corpus_files():
            src = path.read_text()
            for start, end in [m.span() for m in
                               _SPAN_RE.finditer(src)][::STRIDE]:
                self.assert_eager(src[:end], str(path))
                self.assert_eager(src[:start] + src[end:], str(path))

    @pytest.mark.parametrize("block", range(6))
    def test_seeded_sources(self, block):
        outcomes = set()
        for seed in range(100 * block, 100 * block + 100):
            rng = random.Random(f"positions:{seed}")
            given = _GIVEN if rng.random() < 0.5 else ()
            src = seeded_source(rng, given)
            self.assert_eager(src, f"s{seed}.tltt", given)
            got = read_outcome(src, f"s{seed}.tltt", given)
            outcomes.add(got[0] if isinstance(got, list)
                         else got[1][0] if got[1] else "ok")
        # the block reaches every outcome: a lexer or parser error, a
        # resolver error and a module that resolves
        assert outcomes == {"SyntaxError_", "ResolveError", "ok"}

    def test_seeded_sources_hit_every_error(self):
        """The generated errors include unbound names, duplicates, shadowed
        built-ins, stray characters and misplaced tokens."""
        msgs = set()
        for seed in range(600):
            rng = random.Random(f"positions:{seed}")
            given = _GIVEN if rng.random() < 0.5 else ()
            got = read_outcome(seeded_source(rng, given), "<test>", given)
            err = got if isinstance(got, list) else got[1]
            if err:
                msgs.add(err[2].split()[0])
        assert {"unbound", "duplicate", "unexpected", "expected"} <= msgs
        assert any(m.startswith("'") for m in msgs)     # shadows a built-in

    @pytest.mark.parametrize("seed", range(60))
    def test_resolve_reports_the_first_unbound_name(self, seed):
        """With unbound names in the type and in the body of a `check`,
        and perhaps in the declarations before it, `resolve` reports the
        first in `refs` order, at its eager position: the type's if no
        declaration before the check has one."""
        rng = random.Random(f"unbound:{seed}")
        names = ["Nat", "zero", "succ"]
        lines, first = [], None
        for k in range(rng.randint(0, 4)):
            ty = surface_tokens(rng, [], names)
            if rng.random() < 0.3:
                ty = leave_unbound(rng, ty, set(names), f"early{k}")
                first = first or f"early{k}"
            lines.append(f"def d{k} :\n  {' '.join(ty)}\n  := zero")
            names.append(f"d{k}")
        body, ty = (surface_tokens(rng, [], names) for _ in range(2))
        body = leave_unbound(rng, body, set(names), "inbody")
        ty = leave_unbound(rng, ty, set(names), "intype")
        lines.append(f"check {' '.join(body)}\n\t: {' '.join(ty)}")
        src = "\n-- next\n".join(lines) + "\n"
        decls, err = read_outcome(src)
        assert (decls, err) == eager_refs(src, "<test>")
        assert err[2] == f"unbound identifier {first or 'intype'!r}"
        line, col = err[3:]
        assert src.split("\n")[line - 1][col - 1:].startswith(first or "intype")

    def test_a_numerals_pass_places_only_its_declarations(self):
        """One `numerals` pass at seed 5 places each of its 200
        declarations once (the 40 `toNat` modules hold one each, the 80
        `add` modules two): none of its 111,562 tokens has its offset
        worked out, nor any of its 36,934 free names its place."""
        workloads = load_perfbench("workloads")
        counts = count_pass(workloads, "numerals", 5)
        assert counts["place"] == 5 * workloads.NUMERALS_PER_KIND == 200
        assert (counts["tokens"], counts["refs"]) == (111_562, 36_934)

    def test_the_corpus_places_only_its_declarations(self):
        decls = sum(len(parse(p.read_text()).decls) for p in corpus_files())
        with counting() as counts:
            assert run_corpus().ok
        assert counts["place"] == decls == 74

    @pytest.mark.parametrize("src, lexer, parser", [
        ("check é : Nat", 1, 0), ("def a : Nat := zero\n\x0b", 1, 0),
        ("def a : Nat :=\n  (zero", 0, 1),
        ("def a : Nat := zero\ndef b : Nat -> := zero", 0, 2)])
    def test_an_error_is_placed_once(self, src, lexer, parser):
        """A lexer error is placed once, before any declaration is; a
        parser error is placed as a declaration is, after those before
        it."""
        with counting() as counts:
            with pytest.raises(SyntaxError_) as e:
                parse(src)
        assert e.value.msg.startswith("unexpected character") == bool(lexer)
        assert counts["place"] == lexer + parser

    def test_refs_are_placed_when_read(self):
        mod = parse("def a : Nat := fun n => succ (g n)\ncheck a : h a\n")
        with counting() as counts:
            refs = [decl_refs(d) for d in mod.decls]
        assert refs == [[("Nat", 1, 9), ("succ", 1, 25), ("g", 1, 31)],
                        [("h", 2, 11), ("a", 2, 13), ("a", 2, 7)]]
        assert counts["place"] == 6

    def test_the_oracle_places_nothing_with_the_placer(self):
        """`eager_refs` places by its own bisection: `Tokens.place` runs
        on none of its positions, a lexer error's included, so the
        comparisons above do not compare the placer with itself."""
        srcs = [p.read_text() for p in corpus_files()] + [
            "check é : Nat", "def a : Nat :=\n  (zero",
            "def a : Nat := zero\ncheck a : h a\n"]
        with counting() as counts:
            outcomes = [eager_refs(src) for src in srcs]
        assert counts["place"] == 0
        assert [o[0] for o in outcomes[-3:-1]] == ["SyntaxError_"] * 2
        assert outcomes[-1][1][2] == "unbound identifier 'h'"
