"""Typechecking: sorts, conversion, eliminators, and restrictions."""

import copy
import dataclasses
import random
import sys
import typing
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tltt import corpus, kernel, syntax
from tltt.kernel import (
    Checker, EnvEntry, KernelOptions, RESTRICTED_RULES, RULES, TypeError_,
    check_module, sort_leq, sort_lub,
)
from tltt.corpus import corpus_files, prelude_checker
from tltt.syntax import (
    CONSTS, Ann, App, Const, Decl, Lam, Module, Pi, Ref, Sig, Univ, Var,
    _differ, mk_app, parse, parse_term, resolve, spine, subst,
)
from counters import count_pass, counting, load_perfbench
from oracles import CaseChecker
from test_conversion_oracle import KERNELS, run_corpus_sample
from test_syntax import OVERFLOW, unwound


def term(src, scope=(), globals_=()):
    return parse_term(src, "<test>", scope, globals_)


@pytest.fixture(scope="module")
def ck():
    checker, reports = prelude_checker()
    assert all(r.ok for r in reports)
    return checker


def check(ck, src, ty):
    ck.check([], term(src, globals_=set(ck.env)), term(ty, globals_=set(ck.env)))


def infer(ck, src):
    return ck.infer([], term(src, globals_=set(ck.env)))


sorts = st.builds(Univ, st.booleans(), st.integers(0, 4))


class TestSortLattice:
    @given(sorts)
    def test_reflexive(self, a):
        assert sort_leq(a, a)

    @given(sorts, sorts, sorts)
    def test_transitive(self, a, b, c):
        if sort_leq(a, b) and sort_leq(b, c):
            assert sort_leq(a, c)

    @given(sorts, sorts)
    def test_antisymmetric(self, a, b):
        if sort_leq(a, b) and sort_leq(b, a):
            assert a == b

    @given(sorts, sorts)
    def test_lub_is_upper_bound(self, a, b):
        j = sort_lub(a, b)
        assert sort_leq(a, j) and sort_leq(b, j)

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_strict_never_below_fibrant(self, i, j):
        assert not sort_leq(Univ(False, i), Univ(True, j))

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_fibrant_below_strict_iff_level(self, i, j):
        assert sort_leq(Univ(True, i), Univ(False, j)) == (i <= j)


class TestConversion:
    def test_beta(self, ck):
        check(ck, "refl ((fun n => succ n) zero)", "(succ zero) = (succ zero)")

    def test_eta_pi(self, ck):
        check(ck, "refl succ",
              "((fun n => succ n) : Nat -> Nat) = succ")

    def test_eta_sigma(self, ck):
        check(ck, "fun p => refl p",
              "Pi (p : Sig (n : Nat), n = n), "
              "((pair (fst p) (snd p)) : Sig (n : Nat), n = n) = p")

    def test_iota_nat(self, ck):
        check(ck, "refl (succ zero)",
              "(indNat (fun n => Nat) zero (fun n r => succ r) (succ zero))"
              " = (succ zero)")

    def test_j_on_refl(self, ck):
        check(ck, "refl zero",
              "(J (fun b q => Nat) zero (refl zero)) = zero")

    def test_js_on_refls(self, ck):
        check(ck, "reflS zero",
              "(Js (fun b q => Nat) zero (reflS zero)) =s zero")

    def test_uip_is_not_conversion(self, ck):
        """uip proves p =s q but distinct neutral proofs are not convertible."""
        env = set(ck.env)
        p = term("fun A a p q => refl p",
                 globals_=env)
        ty = term("Pi (A : Us 0) (a : A) (p q : a =s a), p = q", globals_=env)
        with pytest.raises(TypeError_):
            ck.check([], p, ty)

    def test_defined_constant_unfolds(self, ck):
        check(ck, "refl (succ zero)", "(toNat (succS zeroS)) = (succ zero)")

    @pytest.mark.parametrize("src", [
        "indNat (fun n => Nat) zero (fun n r => r) zeroS",
        "indNatS (fun n => NatS) zeroS (fun n r => r) zero",
        "J (fun b q => Nat) zero (reflS zero)",
    ])
    def test_iota_matches_only_constructors_of_its_own_level(self, ck, src):
        t = term(src)
        assert ck.whnf(t) is t


class TestBuiltins:
    def test_each_builtin_has_exactly_one_kernel_rule(self):
        closed, spines = set(kernel._CONST_TYPES), set(kernel._SPINE)
        assert not closed & spines
        assert closed | spines == syntax.BUILTIN_CONSTS


class TestCheckedBeforeReduced:
    @pytest.mark.parametrize("src, rule", [
        # a pretype passed where `U 0` is required, dropped by K's body
        ("def K : U 0 -> U 0 := fun X => Nat\ndef k : K NatS := zero\n",
         "FIB-PRE"),
        # an annotation dropped by weak-head normalization
        ("check zero : (Nat : NatS)\n", "CONV"),
        # an annotated function applied to an argument of the wrong type
        ("check (fun x => zero : Nat -> Nat) Nat : Nat\n", "CONV"),
        # a redex whose argument is dropped
        ("check (fun x => zero) (Nat : NatS) : Nat\n", "CONV"),
        # ... and whose argument can only be checked, so it cannot be typed
        ("check (fun x => zero) (pair zero zero) : Nat\n", "INFER"),
        # ... also when it is not the first argument one β step takes
        ("check (fun x y => zero) zero (pair zero zero) : Nat\n", "INFER"),
        # a motive whose body reduces, dropping a pretype passed as `U 0`
        ("def K : U 0 -> U 0 -> U 0 := fun X Y => Y\n"
         "check J (fun y q => K NatS Nat) zero (refl zero) : Nat\n", "FIB-PRE"),
        # an eta-short motive over the wrong telescope
        ("axiom M : Pi (y : Nat), Nat -> U 0\n"
         "check J M zero (refl zero) : Nat\n", "CONV"),
    ])
    def test_reduction_drops_nothing_unchecked(self, src, rule):
        rep = check_module(Checker(), resolve(parse(src, "m.tltt")))
        assert not rep.ok
        assert rep.records[-1]["rule"] == rule

    P = "(Sig (n : Nat), Nat)"
    G = (f"def g : Pi (h : {P} -> Nat) (x : {P}), h x = h x "
         ":= fun h x => refl (h x)\n")
    GP = "g (fun p => zero) (pair zero zero)"

    @pytest.mark.parametrize("src", [
        # J's result type at a pair, under a constant lambda motive
        "check (fun x q => refl (J (fun y r => Nat) zero q)) : "
        f"Pi (x : {P}) (q : x = pair zero zero), "
        "J (fun y r => Nat) zero q = J (fun y r => Nat) zero q\n",
        # types that substitution makes lambda redexes at a pair: the type
        # of a term, the left side of an equation, J's scrutinee, and the
        # argument of a neutral type
        f"def f : Pi (B : {P} -> U 0) (x : {P}), B x -> B x := fun B x y => y\n"
        "check refl (f (fun p => Nat) (pair zero zero) zero) : "
        "f (fun p => Nat) (pair zero zero) zero = "
        "f (fun p => Nat) (pair zero zero) zero\n",
        f"{G}check refl ({GP}) : {GP} = {GP}\n",
        f"{G}check J (fun y r => Nat) zero ({GP}) : Nat\n",
        f"def G : Pi (B : Nat -> U 0) (h : {P} -> Nat) (x : {P}), "
        "B (h x) -> B (h x) := fun B h x y => y\n"
        "check fun B b => refl (G B (fun p => zero) (pair zero zero) b) : "
        "Pi (B : Nat -> U 0) (b : B zero), "
        "G B (fun p => zero) (pair zero zero) b = "
        "G B (fun p => zero) (pair zero zero) b\n",
    ])
    def test_checked_terms_are_not_typed_again(self, src):
        rep = check_module(Checker(), resolve(parse(src, "m.tltt")))
        assert rep.ok, rep.error


class FullChecker(Checker):
    """A checker that checks every term in full, also those `Checker`
    types in its infer-only mode."""

    def _on_checked(self, fn, *args):
        return fn(*args)


class TestInferOnly:
    """Each type `Checker` computes in its infer-only mode, under
    `_on_checked`, is the one a fresh full check of the same term computes,
    and that check passes."""

    @staticmethod
    def assert_full_checks_agree(monkeypatch, run):
        """Run `run()`, then check each `infer` and `infer_sort` call it
        made in infer-only mode, the calls `_on_checked` makes and those
        they make in turn, again with a `FullChecker` on the environment of
        the moment; return the number of calls."""
        calls, envs = [], {}
        for name in ("infer", "infer_sort"):
            def recording(self, ctx, t, name=name, real=getattr(Checker, name)):
                got = real(self, ctx, t)
                if self._checked:
                    key = (id(self.env), len(self.env))   # envs only grow
                    env = envs.setdefault(key, dict(self.env))
                    calls.append((env, self.options, name, ctx, t, got))
                return got
            monkeypatch.setattr(Checker, name, recording)
        run()
        monkeypatch.undo()
        for env, options, name, ctx, t, got in calls:
            full = getattr(FullChecker(env=env, options=options), name)(ctx, t)
            assert full == got, (name, t)
        return len(calls)

    @pytest.mark.parametrize("options", KERNELS.values(), ids=KERNELS.keys())
    def test_corpus_sample(self, ck, monkeypatch, options):
        calls = self.assert_full_checks_agree(
            monkeypatch, lambda: run_corpus_sample(options, ck.env))
        assert calls > 150

    SAME = "def Same : Pi (A : U 0), A -> U 0 := fun A a => a = a\n"
    ID = "(fun X => X) Nat"
    J_ = "J (fun y q => y = y) (refl zero) p"
    IND = "indNat (fun k => k = k) (refl zero) (fun k r => refl (succ k)) n"
    SUM = "indSum (fun s => Nat) (fun a => succ a) (fun b => b) x"
    PAIRS = "Sig (n : Nat), n = n"

    @pytest.mark.parametrize("src", [
        f"check refl (succ (succ (zero : {ID}))) : "
        f"Same Nat (succ (succ (zero : {ID})))\n",
        f"check refl (zero : {ID}) : Same ({ID}) (zero : {ID})\n",
        f"check fun n p => refl ({J_}) : "
        f"Pi (n : Nat) (p : zero = n), Same (n = n) ({J_})\n",
        f"check fun n => refl ({IND}) : Pi (n : Nat), Same (n = n) ({IND})\n",
        f"check fun x => refl ({SUM}) : Pi (x : Sum Nat Nat), Same Nat ({SUM})\n",
        f"check fun p => refl (snd p) : "
        f"Pi (p : {PAIRS}), Same (fst p = fst p) (snd p)\n",
    ])
    def test_checked_terms_in_reducts(self, monkeypatch, src):
        """Types whose δβ-reduct holds a checked numeral, annotation, J,
        indNat, indSum or projection, typed in infer-only mode."""
        def run():
            rep = check_module(Checker(), resolve(parse(self.SAME + src)))
            assert rep.ok, rep.error
        assert self.assert_full_checks_agree(monkeypatch, run) > 0

    def test_numerals(self, ck, monkeypatch):
        workloads = load_perfbench("workloads")
        rng = random.Random("infer-only")
        sources = [workloads.numeral_source(kind, rng.randint(1, 60),
                                            rng.random())[0]
                   for kind in ("add", "add+1", "toNat") for _ in range(8)]

        def run():
            for src in sources:
                checker = Checker(env=ck.env)
                assert check_module(checker, resolve(parse(src),
                                                     set(ck.env))).ok
        assert self.assert_full_checks_agree(monkeypatch, run) >= len(sources)

    def test_projection_chains_of_one_entry_at_two_indices(self):
        """The projection memo tells apart the chains of two variables whose
        context entry is one open Σ-type, and the chains of one variable."""
        sig = Sig("a", Var(0), Sig("b", Var(1), Var(2)))
        ctx = [sig, sig] + [Univ(True, 0)] * 3
        fst, snd = CONSTS["fst"], CONSTS["snd"]
        checker = Checker()
        for idx in (0, 1, 0):
            for chain in ((fst,), (snd,), (fst, snd), (snd, snd)):
                t = Var(idx)
                for proj in reversed(chain):
                    t = App(proj, t)
                assert checker.infer(ctx, t) == Checker().infer(ctx, t)


class TestRestrictions:
    """Each restricted rule rejects its out-of-fragment use."""

    CASES = {
        "PI-FIB": ("Pi (n : NatS), Nat", "U 0", "PI-FIB"),
        "SIGMA-FIB": ("Sig (n : NatS), Nat", "U 0", "SIGMA-FIB"),
        "INTRO-=": ("fun n => refl n",
                    "Pi (n : NatS), n = n", "INTRO-="),
        "FORM-+": ("Sum NatS Nat", "U 0", "FORM-+"),
    }

    def test_strict_type_not_fibrant(self, ck):
        with pytest.raises(TypeError_) as e:
            check(ck, "NatS", "U 0")
        assert e.value.rule == "FIB-PRE"

    @pytest.mark.parametrize("name",
                             ["PI-FIB", "SIGMA-FIB", "INTRO-=", "FORM-+"])
    def test_restricted(self, ck, name):
        src, ty, rule = self.CASES[name]
        with pytest.raises(TypeError_) as e:
            check(ck, src, ty)
        assert e.value.rule == rule

    def test_j_needs_fibrant_scrutinee(self, ck):
        with pytest.raises(TypeError_) as e:
            check(ck, "fun p => J (fun b q => Nat) zero p",
                  "(zero =s zero) -> Nat")
        assert e.value.rule == "ELIM-="

    def test_js_needs_strict_scrutinee(self, ck):
        with pytest.raises(TypeError_) as e:
            check(ck, "fun p => Js (fun b q => Nat) zero p",
                  "(zero = zero) -> Nat")
        assert e.value.rule == "ELIM-=s"

    def test_j_motive_must_be_fibrant(self, ck):
        with pytest.raises(TypeError_) as e:
            check(ck, "fun p => J (fun b q => NatS) zeroS p",
                  "(zero = zero) -> NatS")
        assert e.value.rule == "ELIM-="

    def test_indnat_motive_must_be_fibrant(self, ck):
        with pytest.raises(TypeError_) as e:
            infer(ck, "indNat (fun n => NatS) zero (fun n r => r) zero")
        assert e.value.rule == "ELIM-NAT"

    def test_indempty_motive_must_be_fibrant(self, ck):
        with pytest.raises(TypeError_) as e:
            check(ck, "fun e => indEmpty (fun x => NatS) e",
                  "Empty -> NatS")
        assert e.value.rule == "ELIM-0"

    def test_cumulativity_levels(self, ck):
        check(ck, "Nat", "U 1")
        check(ck, "Nat", "Us 3")
        check(ck, "NatS", "Us 1")
        with pytest.raises(TypeError_):
            check(ck, "U 1", "U 1")


class TestCumulativity:
    """`convert(t, u, leq=True)` orders types covariantly in the codomain
    of Pi and the second component of Sigma, and by equality elsewhere."""

    DEFS = ("axiom idU : U 0 -> U 0\n"
            "axiom idUs : Us 0 -> Us 0\n"
            "axiom sigU : Sig (X : U 0), U 0\n")

    def last_record(self, stated):
        mod = resolve(parse(self.DEFS + f"check {stated}\n", "m.tltt"))
        return check_module(Checker(), mod).records[-1]

    @pytest.mark.parametrize("stated", [
        "idU : U 0 -> Us 0",
        "sigU : Sig (X : U 0), Us 0",
    ])
    def test_fibrant_codomain_is_a_pretype(self, stated):
        rec = self.last_record(stated)
        assert rec["status"] == "pass" and "FIB-PRE" in rec["rules"]

    def test_codomain_level_rises(self):
        rec = self.last_record("idU : U 0 -> U 1")
        assert rec["status"] == "pass" and "FIB-PRE" not in rec["rules"]

    @pytest.mark.parametrize("stated", [
        "idU : Us 0 -> U 0",        # domains are compared by equality
        "idU : U 1 -> U 1",
        "idUs : Us 0 -> U 0",       # a pretype is never fibrant
    ])
    def test_no_other_direction(self, stated):
        rec = self.last_record(stated)
        assert rec["status"] == "fail" and rec["rule"] == "CONV"


class TestEliminatorAsymmetry:
    """A generated family of motives: J admits every fibrant motive over a
    fibrant equation, while Js applied to the same fibrant equation is
    rejected, and J over a strict equation is rejected."""

    # (motive over the free x, base at refl x, overall result type)
    FAMILY = [
        ("fun b q => Nat", "zero", "Nat"),
        ("fun b q => x = b", "refl x", "x = y"),
        ("fun b q => Pi (n : Nat), x = x", "fun n => refl x",
         "Pi (n : Nat), x = x"),
        ("fun b q => Sig (n : Nat), b = b", "pair zero (refl x)",
         "Sig (n : Nat), y = y"),
    ]

    @pytest.mark.parametrize("motive,base,result", FAMILY)
    def test_j_accepts_fibrant_motive(self, ck, motive, base, result):
        check(ck, f"fun x y p => J ({motive}) ({base}) p",
              f"Pi (x y : Nat) (p : x = y), {result}")

    @pytest.mark.parametrize("motive,base,result", FAMILY)
    def test_js_rejects_fibrant_equation(self, ck, motive, base, result):
        with pytest.raises(TypeError_) as e:
            check(ck, f"fun x y p => Js ({motive}) ({base}) p",
                  f"Pi (x y : Nat) (p : x = y), {result}")
        assert e.value.rule == "ELIM-=s"

    @pytest.mark.parametrize("motive,base,result", FAMILY)
    def test_j_rejects_strict_equation(self, ck, motive, base, result):
        with pytest.raises(TypeError_) as e:
            check(ck, f"fun x y p => J ({motive}) ({base}) p",
                  f"Pi (x y : Nat) (p : x =s y), {result}")
        assert e.value.rule == "ELIM-="

    @pytest.mark.parametrize("strict", [False, True])
    def test_sum_elimination_types_its_major(self, strict):
        """`indSum P f g x : P x` with a motive that reads its argument."""
        lv, eq = ("S", "=s") if strict else ("", "=")
        t = term(f"indSum{lv} (fun s => s {eq} s) "
                 f"(fun a => refl{lv} (inl{lv} a : Sum{lv} Nat Nat)) "
                 f"(fun b => refl{lv} (inr{lv} b : Sum{lv} Nat Nat)) x",
                 ("x",))
        ty = Checker().infer([term(f"Sum{lv} Nat Nat")], t)
        assert ty == term(f"x {eq} x", ("x",))


class TestSubjectReduction:
    def test_whnf_preserves_type_of_prelude_definitions(self, ck):
        """For every defined prelude constant, the weak head normal form of
        its body still checks against its declared type."""
        checked = 0
        for name, entry in ck.env.items():
            if entry.value is None:
                continue
            ck.check([], ck.whnf(entry.value), entry.ty)
            checked += 1
        assert checked >= 15


def numeral(d, zero="zero", succ="succ"):
    return f"{succ} (" * d + zero + ")" * d


ADD = ("def add : Nat -> Nat -> Nat\n"
       "  := fun m n => indNat (fun k => Nat) n (fun k r => succ r) m\n")


def numeral_module(kind, d):
    if kind == "toNat":
        stated = f"toNat ({numeral(d, 'zeroS', 'succS')})"
        return f"check refl ({numeral(d)}) : {stated} = {numeral(d)}\n"
    half = numeral(d // 2)
    return f"{ADD}check refl ({numeral(d)}) : add ({half}) ({half}) = {numeral(d)}\n"


class TestSharing:
    """Reduction reuses the terms it is given instead of rebuilding them."""

    @pytest.mark.parametrize("src, scope", [
        ("Nat -> Nat", ()),
        ("succ x", ("x",)),
        ("f x", ("f", "x")),
        ("indNat (fun k => Nat) zero (fun k r => r) n", ("n",)),
    ])
    def test_whnf_returns_a_normal_term_itself(self, ck, src, scope):
        t = term(src, scope, set(ck.env))
        assert ck.whnf(t) is t

    def test_convert_compares_syntactically_around_whnf(self, ck):
        checker = Checker(env=ck.env)
        calls = Counter()
        for name in ("whnf", "convert"):
            def counted(*args, name=name, method=getattr(checker, name)):
                calls[name] += 1
                return method(*args)
            setattr(checker, name, counted)
        big = term(numeral(50))
        assert checker.convert(big, term(numeral(50)))
        assert calls == {"convert": 1}
        # a definition unfolds to an equal term: no descent into the spines
        checker.env["N"] = EnvEntry(Const("Nat"), big)
        calls.clear()
        assert checker.convert(Ref("N"), term(numeral(50)))
        assert calls["convert"] == 1 and calls["whnf"] > 0

    @staticmethod
    def whnf_calls(checker):
        """A counter that `checker.whnf` bumps on each call."""
        calls = Counter()

        def counted(*args, method=checker.whnf):
            calls["whnf"] += 1
            return method(*args)
        checker.whnf = counted
        return calls

    def test_check_reduces_no_type_it_does_not_read(self, ck):
        checker = Checker(env=ck.env)
        calls = self.whnf_calls(checker)
        checker.check([], Const("zero"), Const("Nat"))
        assert calls == {}

    @pytest.mark.parametrize("src", [
        "refl (succ zero)", "(fun x => x : Nat -> Nat)",
        "indNat (fun k => Nat) zero (fun k r => succ r) (succ zero)",
    ])
    def test_check_against_the_inferred_type_reduces_nothing_more(
            self, ck, src):
        """`check` reduces the expected type only where a rule reads its
        head, and `convert` only past a syntactic difference: checking a
        term against the type it infers calls `whnf` as often as inferring
        that type does."""
        checker = Checker(env=ck.env)
        calls = self.whnf_calls(checker)
        t = term(src, globals_=set(ck.env))
        ty = checker.infer([], t)
        inferring = calls.pop("whnf")
        checker.check([], t, ty)
        assert calls["whnf"] == inferring

    @pytest.mark.parametrize("kind", ["add", "toNat"])
    def test_substitution_work_grows_linearly_in_numeral_depth(
            self, ck, monkeypatch, kind):
        """shift/subst visits, recursion included, at most 2.2x when the
        depth doubles (quadratic work would give about 4x)."""
        visits = [0]

        def counting(fn):
            def counted(*args):
                visits[0] += 1
                return fn(*args)
            return counted

        for name in ("shift", "subst"):
            wrapped = counting(getattr(syntax, name))
            monkeypatch.setattr(syntax, name, wrapped)
            monkeypatch.setattr(kernel, name, wrapped)

        def work(d):
            checker = Checker(env=ck.env)
            mod = resolve(parse(numeral_module(kind, d)), set(checker.env))
            visits[0] = 0
            assert check_module(checker, mod).ok
            return visits[0]

        small, large = work(60), work(120)
        assert 0 < large <= 2.2 * small


def tower(d, zero="zero", succ="succ"):
    """A numeral built node by node, so that no two share a subterm."""
    t = Const(zero)
    for _ in range(d):
        t = App(Const(succ), t)
    return t


class TestTowers:
    """`infer` walks a `succ`/`succS` tower in one loop, with the
    obligations in the order of the application rule: each constant from
    the outside in, then the innermost argument, then each level against
    the domain of the level above.  The records are those of the checker
    that recursed once per level."""

    @pytest.mark.parametrize("src, omit, rule, message", [
        ("succ (succS zeroS) : Nat", (), "CONV",
         "type mismatch: inferred `NatS` does not subsume expected `Nat`"),
        ("succS (succ zero) : NatS", (), "CONV",
         "type mismatch: inferred `Nat` does not subsume expected `NatS`"),
        ("succ (succ (succ zeroS)) : Nat", (), "CONV",
         "type mismatch: inferred `NatS` does not subsume expected `Nat`"),
        ("succ (succ (succ zero)) : NatS", (), "CONV",
         "type mismatch: inferred `Nat` does not subsume expected `NatS`"),
        # the innermost level is compared first
        ("succ (succS (succ zero)) : Nat", (), "CONV",
         "type mismatch: inferred `Nat` does not subsume expected `NatS`"),
        # the innermost argument before any level
        ("succ (succS star) : Nat", (), "CONV",
         "type mismatch: inferred `Unit` does not subsume expected `NatS`"),
        # every constant before the innermost argument
        ("succ (succS (succ zeroS)) : Nat", ("succS",), "CONST",
         "constant 'succS' is not available"),
        ("succS (succ (succS zero)) : NatS", ("succ",), "CONST",
         "constant 'succ' is not available"),
        ("succ (succ zero) : Nat", ("zero",), "CONST",
         "constant 'zero' is not available"),
        ("succ (succ zero zero) : Nat", (), "APP", "applied a non-function"),
        ("succ succ : Nat", (), "CONV",
         "type mismatch: inferred `Nat -> Nat` does not subsume expected "
         "`Nat`"),
    ])
    def test_first_error_is_unchanged(self, src, omit, rule, message):
        options = KernelOptions(omit_consts=frozenset(omit))
        rep = check_module(Checker(options=options),
                           resolve(parse(f"check {src}\n")))
        record = rep.records[-1]
        assert (record["status"], record["rule"], record["message"]) == (
            "fail", rule, message)

    def test_a_deep_tower_checks_past_the_recursion_limit(self):
        assert sys.getrecursionlimit() == 1000
        nat, nats = tower(20_000), tower(20_000, "zeroS", "succS")
        assert unwound(lambda: Checker().check([], nat, Const("Nat"))) is None
        assert unwound(lambda: Checker().infer([], nats)) == Const("NatS")

    def test_an_800_deep_off_by_one_sum_is_refuted(self, ck):
        """`add+1` at the top rung of the benchmark's depth ladder."""
        d = 800
        src = (f"{ADD}--! expect: CONV\nfail refl ({numeral(d)}) : "
               f"add ({numeral(300)}) ({numeral(d - 301)}) = {numeral(d)}\n")
        checker = Checker(env=ck.env)
        rep = check_module(checker, resolve(parse(src), set(checker.env)))
        assert rep.ok
        assert rep.records[-1]["kind"] == "fail"
        assert rep.records[-1]["rule"] == "CONV"

    def test_equality_work_grows_linearly_in_depth(self):
        """Converting N against N+1 (no shared subterms) compares each pair
        of nodes a bounded number of times: the lines `_differ` runs at most
        2.2x when the depth doubles.  The `==` fast path walked the rest of
        both towers again at each level, about 4x."""
        code = kernel._differ.__code__

        def work(d):
            lines = [0]

            def local(frame, event, arg):
                lines[0] += event == "line"
                return local

            def calls(frame, event, arg):
                return local if frame.f_code is code else None

            before = sys.gettrace()
            sys.settrace(calls)
            try:
                assert not Checker().convert(tower(d), tower(d + 1))
            finally:
                sys.settrace(before)
            return lines[0]

        w200, w400, w800 = work(200), work(400), work(800)
        assert 0 < w400 <= 2.2 * w200 and w800 <= 2.2 * w400


class TestDiagnostics:
    def test_error_carries_rule_name(self, ck):
        with pytest.raises(TypeError_) as e:
            check(ck, "NatS", "U 0")
        assert e.value.rule in RULES

    def test_module_error_format(self, ck):
        mod = resolve(parse("def bad : U 0 := NatS\n", "m.tltt"))
        rep = check_module(Checker(), mod)
        assert not rep.ok
        assert rep.error.startswith("m.tltt:1:")
        assert "[FIB-PRE]" in rep.error

    def test_fail_decl_wrong_rule_is_an_error(self):
        mod = resolve(parse(
            "--! expect: ELIM-NAT\nfail (Pi (n : NatS), Nat) : U 0\n"))
        rep = check_module(Checker(), mod)
        assert not rep.ok  # fired PI-FIB, expected ELIM-NAT

    def test_fail_decl_that_typechecks_is_an_error(self):
        mod = resolve(parse("--! expect: ELIM-NAT\nfail zero : Nat\n"))
        rep = check_module(Checker(), mod)
        assert not rep.ok


    @pytest.mark.parametrize("src, omit, rule, fragment", [
        ("check zero : zero", (), "SORT", "not a type"),
        ("check zero zero : Nat", (), "APP", "applied a non-function"),
        # `parse` leaves names unresolved, so the checker meets `nope`
        ("check nope : Nat", (), "SCOPE", "unknown global 'nope'"),
        ("check indNat (fun n => zero) zero (fun m r => r) zero : Nat", (),
         "MOTIVE", "must target a universe"),
        ("check J : Nat", (), "ARITY", "'J' must be applied to 3 arguments"),
        ("check indNat (fun n => Nat) zero : Nat", (),
         "ARITY", "'indNat' expects 4 arguments, got 2"),
        ("check fst zero : Nat", (), "PROJ", "projection from a non-pair"),
        ("check uip : Unit", ("uip",), "CONST", "'uip' is not available"),
        ("check (zero =s zero) : U 0", (), "FORM-=s", "inferred `Us 0`"),
        # whnf unfolds the head `f` to the axiom `g` and rebuilds `g zero`
        ("axiom g : Nat -> U 0\ndef f : Nat -> U 0 := g\ncheck zero : f zero",
         (), "CONV", "expected `g zero`"),
        # unfolding `F P` puts the axiom `P` under a binder hinted `P`
        ("axiom P : U 0\ndef F : U 0 -> U 0 := fun X => Sig (P : Nat), X\n"
         "check zero : F P", (), "CONV", "expected `Sig (P1 : Nat), P`"),
    ], ids=["SORT", "APP", "SCOPE", "MOTIVE", "ARITY-bare", "ARITY-count",
            "PROJ", "CONST", "FORM-=s", "whnf-rebuild", "no-capture"])
    def test_structural_rule_is_cited(self, ck, src, omit, rule, fragment):
        """The last declaration fails with `rule`, and its message names
        what went wrong; the ones before it check."""
        checker = Checker(env=ck.env,
                          options=KernelOptions(omit_consts=frozenset(omit)))
        *before, last = parse(src, "<test>").decls
        assert all(checker.check_decl(d)["status"] == "pass" for d in before)
        record = checker.check_decl(last)
        assert (record["status"], record["rule"]) == ("fail", rule)
        assert fragment in record["message"]

    @pytest.mark.parametrize("src, rule, message", [
        ("pair zero zero : Nat", "CONV",
         "'pair' checked against an incompatible type"),
        ("fst (fun x => x) : Nat", "INFER",
         "cannot infer the type of a bare lambda; annotate it with `(t : T)`"),
        ("indSum (fun s => Nat) (fun a => zero) (fun b => zero) zero : Nat",
         "ELIM-+", "indSum eliminates a Sum value"),
        ("indSumS (fun s => NatS) (fun a => zeroS) (fun b => zeroS) zero "
         ": NatS", "ELIM-+S", "indSumS eliminates a SumS value"),
    ], ids=["CONV-pair", "INFER-lambda", "ELIM-+", "ELIM-+S"])
    def test_a_fail_declaration_records_its_rule(self, src, rule, message):
        """A `fail` declaration passes when its term is refused, and its
        record names the rule and the message of the refusal."""
        rep = check_module(Checker(), resolve(parse(f"fail {src}\n")))
        record = rep.records[-1]
        assert rep.ok
        assert (record["kind"], record["status"], record["rule"],
                record["message"]) == ("fail", "pass", rule, message)

    def test_context_names_skip_the_globals(self, ck):
        """The context prints as `x0`, `x1`, ... with each name that a
        global holds skipped: the variable `a` is `x1` beside the global
        `x0`, where both printed `x0`."""
        src = ("def x0 : Nat := zero\n"
               "check (fun a => (refl a : a = x0)) : Pi (a : Nat), a = a\n")
        rep = check_module(Checker(env=ck.env),
                           resolve(parse(src, "<test>"), set(ck.env)))
        assert rep.records[-1]["message"] == (
            "type mismatch: inferred `x1 = x1` does not subsume expected "
            "`x1 = x0`")

    @pytest.mark.parametrize("kind", ["check", "fail"])
    def test_recursion_overflow_is_a_depth_failure(self, kind):
        """A Π chain still costs the checker frames per level; a `succ`
        tower no longer does."""
        deep = Const("Nat")
        for _ in range(5000):
            deep = Pi("_", Const("Nat"), deep)
        mod = Module([Decl(kind, None, Univ(True, 0), deep, 3, 1)], "m.tltt")
        rep = check_module(Checker(), mod)
        assert not rep.ok
        assert rep.records[-1]["status"] == "fail"
        assert rep.records[-1]["rule"] == "DEPTH"
        assert rep.error.startswith("m.tltt:3:1: [DEPTH]")


class TestRecursionWall:
    """The checker's Python frames per nesting level, pinned below the wall
    at CPython's default recursion limit.  Under pytest a Π chain over
    `Nat` checks up to 478 levels, where one more frame per level would
    bring its wall below `DEPTH`; a `succ` tower, typed in one loop, has no
    wall there and still checks at 20,000 levels."""

    DEPTH = 440

    def test_succ_tower_checks(self):
        assert sys.getrecursionlimit() == 1000
        tower = Const("zero")
        for _ in range(self.DEPTH):
            tower = App(Const("succ"), tower)
        assert unwound(lambda: Checker().check([], tower, Const("Nat"))) \
            is None

    def test_pi_chain_checks(self):
        assert sys.getrecursionlimit() == 1000
        chain = Const("Nat")
        for _ in range(self.DEPTH):
            chain = Pi("x", Const("Nat"), chain)
        assert unwound(lambda: Checker().check([], chain, Univ(True, 0))) \
            is None


# The paths of whole-spine reduction and of the lazily instantiated
# telescope that the corpus never reaches: a `whnf` in the middle of a Pi
# telescope (`g`, `f`, and `k`, whose type after it still names a variable
# of the context), a β step whose substituted body is a lambda with
# arguments left (`idf`), and an over-applied ι step (`indNat`).
EDGE = """\
def G : Pi (n : Nat), U 0 := fun n => n = n -> Nat
axiom g : Pi (n : Nat), G n
check g zero (refl zero) : Nat
def F : U 0 := Nat -> Nat -> Nat
axiom f : Nat -> F
check f zero zero zero : Nat
def K : Nat -> U 0 := fun n => Pi (m : Nat), m = n
axiom k : Pi (n : Nat), K n
check fun y => k (succ y) zero : Pi (y : Nat), zero = succ y
def idf : (Nat -> Nat) -> Nat -> Nat := fun h => h
check refl zero : idf (fun x => x) zero = zero
check refl zero : indNat (fun n => Nat -> Nat) (fun x => x) (fun m r => r) (succ zero) zero = zero
--! expect: CONV
fail g zero (refl (succ zero)) : Nat
--! expect: APP
fail f zero zero zero zero : Nat
--! expect: CONV
fail fun y => k (succ y) zero : Pi (y : Nat), zero = y
--! expect: CONV
fail refl zero : idf (fun x => x) zero = succ zero
--! expect: CONV
fail refl zero : indNat (fun n => Nat -> Nat) (fun x => x) (fun m r => r) (succ zero) zero = succ zero
"""
# EDGE's records under each kernel, as the kernel that reduced one
# application level at a time gave them.
EDGE_RECORDS = [
    {"kind": "def", "name": "G", "line": 1, "col": 1, "status": "pass",
     "rules": ["INTRO-=", "PI-FIB"]},
    {"kind": "axiom", "name": "g", "line": 2, "col": 1, "status": "pass",
     "rules": ["INTRO-=", "PI-FIB"]},
    {"kind": "check", "name": None, "line": 3, "col": 1, "status": "pass",
     "rules": ["INTRO-="]},
    {"kind": "def", "name": "F", "line": 4, "col": 1, "status": "pass",
     "rules": ["PI-FIB"]},
    {"kind": "axiom", "name": "f", "line": 5, "col": 1, "status": "pass",
     "rules": ["PI-FIB"]},
    {"kind": "check", "name": None, "line": 6, "col": 1, "status": "pass",
     "rules": []},
    {"kind": "def", "name": "K", "line": 7, "col": 1, "status": "pass",
     "rules": ["INTRO-=", "PI-FIB"]},
    {"kind": "axiom", "name": "k", "line": 8, "col": 1, "status": "pass",
     "rules": ["INTRO-=", "PI-FIB"]},
    {"kind": "check", "name": None, "line": 9, "col": 1, "status": "pass",
     "rules": ["INTRO-=", "PI-FIB"]},
    {"kind": "def", "name": "idf", "line": 10, "col": 1, "status": "pass",
     "rules": ["PI-FIB"]},
    {"kind": "check", "name": None, "line": 11, "col": 1, "status": "pass",
     "rules": ["INTRO-="]},
    {"kind": "check", "name": None, "line": 12, "col": 1, "status": "pass",
     "rules": ["ELIM-NAT", "INTRO-=", "PI-FIB"]},
    {"kind": "fail", "name": None, "line": 14, "col": 1, "status": "pass",
     "rule": "CONV", "message": "type mismatch: inferred `succ zero = succ "
                                "zero` does not subsume expected `zero = zero`"},
    {"kind": "fail", "name": None, "line": 16, "col": 1, "status": "pass",
     "rule": "APP", "message": "applied a non-function"},
    {"kind": "fail", "name": None, "line": 18, "col": 1, "status": "pass",
     "rule": "CONV", "message": "type mismatch: inferred `zero = succ x0` "
                                "does not subsume expected `zero = x0`"},
    {"kind": "fail", "name": None, "line": 20, "col": 1, "status": "pass",
     "rule": "CONV", "message": "type mismatch: inferred `zero = zero` does "
                                "not subsume expected `idf (fun x => x) zero "
                                "= succ zero`"},
    {"kind": "fail", "name": None, "line": 22, "col": 1, "status": "pass",
     "rule": "CONV", "message": "type mismatch: inferred `zero = zero` does "
                                "not subsume expected `indNat (fun n => Nat "
                                "-> Nat) (fun x => x) (fun m r => r) (succ "
                                "zero) zero = succ zero`"},
]
KERNELS = {
    "default": KernelOptions(),
    "no_js_beta": KernelOptions(js_beta=False),
    "no_uip": KernelOptions(omit_consts=frozenset({"uip"})),
}
TERM_KINDS = typing.get_args(syntax.Term)


class NestedWhnf(Checker):
    """The reference `whnf`: one frame and one β step per application
    level, and ι tried on every partial spine."""

    def whnf(self, t):
        while True:
            k = type(t)
            if k is App:
                fw = self.whnf(t.fn)
                if isinstance(fw, Lam):
                    t = subst(fw.body, (t.arg,))
                    continue
                if fw is not t.fn:
                    t = App(fw, t.arg)
                red = self._iota(*spine(t))
                if red is not None:
                    t = mk_app(red[0], *red[1])
                    continue
                return t
            if k is Ref:
                entry = self.env.get(t.name)
                if entry is not None and entry.value is not None:
                    t = entry.value
                    continue
                return t
            if k is Ann:
                t = t.tm
                continue
            return t


def motive_one_at_a_time(motive, *args):
    """The reference for a motive put in at the head of a schema's
    application: one β step per argument."""
    while args and isinstance(motive, Lam):
        motive, args = subst(motive.body, (args[0],)), args[1:]
    return mk_app(motive, *args)


def subterms(t):
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        for name in type(t).__match_args__:
            child = getattr(t, name)
            if isinstance(child, TERM_KINDS):
                stack.append(child)


# Eliminator spines whose prefix is not the node `whnf` split: a definition
# of a bare eliminator and of one applied to all but its major premise, an
# annotated head, heads that β and ι return, and a spine longer than the
# eliminator's arity.  The kernel refuses the two definitions (it types an
# eliminator only with all its arguments), so their values are unfolded
# unchecked.
PREFIXES = """\
def ind : Pi (P : Nat -> U 0) (z : P zero)
    (s : Pi (k : Nat), P k -> P (succ k)) (n : Nat), P n := indNat
def rec : Nat -> Nat := indNat (fun k => Nat) zero (fun k r => succ r)
check rec (succ (succ zero)) : Nat
check ind (fun k => Nat) zero (fun k r => succ r) (succ (succ zero)) : Nat
check (indNat : Pi (P : Nat -> U 0) (z : P zero)
    (s : Pi (k : Nat), P k -> P (succ k)) (n : Nat), P n)
  (fun k => Nat) zero (fun k r => succ r) (succ (succ zero)) : Nat
check (fun x => indNat) zero (fun k => Nat) zero (fun k r => succ r)
  (succ (succ zero)) : Nat
check fst (pair indNat zero) (fun k => Nat) zero (fun k r => succ r)
  (succ (succ zero)) : Nat
check indNat (fun k => Nat -> Nat) (fun x => x) (fun k r x => succ (r x))
  (succ (succ zero)) zero : Nat
"""


def unchecked_module(src):
    """The module `src` and an environment of its definitions, unchecked."""
    mod = resolve(parse(src, "unchecked.tltt"))
    return {d.name: EnvEntry(d.ty, d.body) for d in mod.decls
            if d.kind == "def"}, mod


def checked_modules():
    """The corpus modules, then EDGE, each with the environment it was
    checked into (its own definitions included)."""
    prelude = Checker()
    for path in corpus_files():
        ck = prelude if path.parent.name == "prelude" else Checker(env=prelude.env)
        mod = resolve(parse(path.read_text(), str(path)), set(ck.env))
        check_module(ck, mod)
        yield ck.env, mod
    ck = Checker()
    mod = resolve(parse(EDGE, "edge.tltt"))
    check_module(ck, mod)
    yield ck.env, mod


class TestWholeSpines:
    """`whnf` reduces an application as one spine, the application rule
    instantiates a Pi telescope once, and a motive put in at the head of a
    schema's application has all the arguments its leading lambdas take
    substituted at once."""

    @pytest.mark.parametrize("kernel_", KERNELS)
    def test_edge_records(self, kernel_):
        mod = resolve(parse(EDGE, "edge.tltt"))
        rep = check_module(Checker(options=KERNELS[kernel_]), mod)
        assert rep.records == EDGE_RECORDS

    def test_whnf_agrees_with_one_level_at_a_time(self):
        """On every application inside the corpus, EDGE and PREFIXES; about
        140 of them reduce."""
        reduced = 0
        for env, mod in [*checked_modules(), unchecked_module(PREFIXES)]:
            new, ref = Checker(env=env), NestedWhnf(env=env)
            for d in mod.decls:
                for t in subterms(Ann(d.body, d.ty) if d.body else d.ty):
                    if type(t) is App:
                        got = new.whnf(t)
                        assert repr(got) == repr(ref.whnf(t)), d.line
                        reduced += got is not t
        assert reduced > 100

    @pytest.mark.parametrize("motive, args", [
        ("fun f => f", ["fun y => succ y", "zero"]),
        ("fun f => f", ["fun y => y", "zero", "succ"]),
        ("fun a f => f", ["zero", "fun y z => y", "zero", "Nat"]),
        ("fun a f => f a", ["zero", "fun y => y"]),
    ])
    def test_motive_at_agrees_with_one_argument_at_a_time(self, motive, args):
        """`_instantiate` on the schema part `P x1 ... xn`, with the motive
        and the arguments put in for its variables."""
        motive, args = term(motive), [term(a) for a in args]
        n = len(args)
        schema = mk_app(syntax.var(n), *(syntax.var(n - 1 - i)
                                         for i in range(n)))
        assert (repr(kernel._instantiate(schema, [motive, *args]))
                == repr(motive_one_at_a_time(motive, *args)))

    def test_whnf_spends_no_frame_per_application_level(self):
        assert sys.getrecursionlimit() == 1000
        t = mk_app(Const("zero"), *[Const("zero")] * 1500)
        assert unwound(lambda: Checker().whnf(t)) is t

    def test_whnf_spends_no_frame_per_definition_in_a_head_chain(self):
        """`a0 := fun x => x` and `a_i := a_(i-1) zero`: each unfolding puts
        a spine in head position, which the loop splits onto its argument
        list instead of reducing it in a frame of its own."""
        assert sys.getrecursionlimit() == 1000
        n, zero = 1500, Const("zero")
        env = {"a0": EnvEntry(Const("Nat"), term("fun x => x"))}
        for i in range(1, n + 1):
            env[f"a{i}"] = EnvEntry(Const("Nat"), App(Ref(f"a{i - 1}"), zero))
        reduct = unwound(lambda: Checker(env=env).whnf(Ref(f"a{n}")))
        assert reduct is not OVERFLOW
        assert reduct == mk_app(zero, *[zero] * (n - 1))

    def test_whnf_spends_no_frame_per_annotated_head(self):
        """`((succ : T) zero : T) zero …`: every head is an annotation over
        a spine."""
        assert sys.getrecursionlimit() == 1000
        n, succ, zero = 1500, Const("succ"), Const("zero")
        t, ty = succ, term("Nat -> Nat")
        for _ in range(n):
            t = App(Ann(t, ty), zero)
        reduct = unwound(lambda: Checker().whnf(t))
        assert reduct is not OVERFLOW
        assert reduct == mk_app(succ, *[zero] * n)

    def test_source_redex_spends_no_frame_per_argument(self):
        """The application rule types a λ-headed spine's arguments in one
        loop and its reduct once, so 1,200 arguments fit under CPython's
        default recursion limit (one `infer` frame each overflowed)."""
        assert sys.getrecursionlimit() == 1000
        n = 1200
        src = (f"check (fun {' '.join(f'x{i}' for i in range(n))} => zero) "
               f"{' zero' * n} : Nat\n")
        rep = check_module(Checker(), resolve(parse(src, "m.tltt")))
        assert rep.ok, rep.error


def const_leaves(t):
    return [u for u in subterms(t) if type(u) is Const]


class Recording(Checker):
    """A checker that keeps every type it checks against or infers."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.types = []

    def check(self, ctx, t, ty):
        self.types.append(ty)
        return super().check(ctx, t, ty)

    def infer(self, ctx, t):
        ty = super().infer(ctx, t)
        self.types.append(ty)
        return ty


class TestSharedBuiltins:
    """Every built-in is one node, `syntax.CONSTS[name]`: the parser and
    the kernel take it from there.  Sharing is only an optimisation: terms
    whose leaves are fresh nodes check and convert alike."""

    def test_closed_types_use_the_shared_nodes(self):
        leaves = const_leaves(kernel._CONST_TYPES["succ"])
        assert [c.name for c in leaves] == ["Nat", "Nat"]
        assert all(c is CONSTS[c.name] for c in leaves)

    @pytest.mark.parametrize("src, built", [
        ("check fun n => indNat (fun k => k = k) (refl zero) "
         "(fun k r => refl (succ k)) n : Pi (n : Nat), n = n",
         {"Nat", "zero", "succ"}),
        ("check fun n => indNatS (fun k => k =s k) (reflS zeroS) "
         "(fun k r => reflS (succS k)) n : Pi (n : NatS), n =s n",
         {"NatS", "zeroS", "succS"}),
        ("check fun a b p => J (fun b q => q = q) (refl (refl a)) p "
         ": Pi (a b : Nat) (p : a = b), p = p", {"refl"}),
        ("check fun a b p => Js (fun b q => q =s q) (reflS (reflS a)) p "
         ": Pi (a b : Nat) (p : a =s b), p =s p", {"reflS"}),
        ("check fun x => indEmpty (fun e => e = e) x "
         ": Pi (x : Empty), x = x", {"Empty"}),
        ("check fun x => indEmptyS (fun e => e =s e) x "
         ": Pi (x : EmptyS), x =s x", {"EmptyS"}),
        ("check fun x => indSum (fun s => s = s) "
         "(fun a => refl (inl a : Sum Nat Nat)) "
         "(fun b => refl (inr b : Sum Nat Nat)) x "
         ": Pi (x : Sum Nat Nat), x = x", {"inl", "inr"}),
        ("check fun x => indSumS (fun s => s =s s) "
         "(fun a => reflS (inlS a : SumS Nat Nat)) "
         "(fun b => reflS (inrS b : SumS Nat Nat)) x "
         ": Pi (x : SumS Nat Nat), x =s x", {"inlS", "inrS"}),
        ("check fun p => refl (snd p) : Pi (p : Sig (n : Nat), n = n), "
         "snd p = snd p", {"fst"}),
    ], ids=["indNat", "indNatS", "J", "Js", "indEmpty", "indEmptyS",
            "indSum", "indSumS", "snd"])
    def test_rules_build_the_shared_nodes(self, src, built):
        """On a declaration whose leaves are fresh nodes, every constant in
        the types the rules check against or infer is the declaration's own
        or the shared one, and the ones the rule builds are shared."""
        decl = copy.deepcopy(parse(src).decls[0])
        own = {id(c) for c in const_leaves(Ann(decl.body, decl.ty))}
        assert not any(c is CONSTS[c.name] for c in const_leaves(decl.ty))
        checker = Recording()
        assert checker.check_decl(decl)["status"] == "pass"
        shared = set()
        for ty in checker.types:
            for c in const_leaves(ty):
                if id(c) not in own:
                    assert c is CONSTS[c.name], c.name
                    shared.add(c.name)
        assert built <= shared

    @pytest.mark.parametrize("pair_first", [True, False])
    def test_sigma_eta_builds_the_shared_projections(self, monkeypatch,
                                                     pair_first):
        seen = []

        def recording(t, u, *rest):
            seen.extend((t, u))
            return _differ(t, u, *rest)
        monkeypatch.setattr(kernel, "_differ", recording)
        pair = copy.deepcopy(term("pair (fst p) zero", ("p",)))
        p = Var(0)
        assert not Checker().convert(*((pair, p) if pair_first else (p, pair)))
        built = [t.fn for t in seen if type(t) is App and t.arg is p]
        assert {c.name for c in built} == {"fst", "snd"}
        assert all(c is CONSTS[c.name] for c in built)

    @pytest.mark.parametrize("kernel_", KERNELS)
    def test_fresh_leaves_check_alike(self, kernel_):
        """A deep copy of each corpus module and of EDGE, rebuilt through
        the constructors so that no leaf is shared, gives the records of
        the original under each kernel; so do their environments."""
        options = KERNELS[kernel_]
        sources = [(str(p), p.read_text(), p.parent.name == "prelude")
                   for p in corpus_files()] + [("edge.tltt", EDGE, False)]
        preludes = Checker(options=options), Checker(options=options)
        for path, src, prelude in sources:
            mod = resolve(parse(src, path), set(preludes[0].env))
            fresh = copy.deepcopy(mod)
            assert not any(c is CONSTS[c.name] for d in fresh.decls
                           for c in const_leaves(d.ty))
            reports = [check_module(ck if prelude else Checker(
                env=ck.env, options=options), m)
                for ck, m in zip(preludes, (mod, fresh))]
            assert reports[1].records == reports[0].records, path
            assert reports[1].error == reports[0].error

    @pytest.mark.parametrize("t, u", [
        ("succ (succ zero)", "toNat (succS (succS zeroS))"),
        ("succ zero", "succ (succ zero)"),
        ("indNat (fun k => Nat) zero (fun k r => succ r) (succ (succ zero))",
         "succ (succ zero)"),
        ("J (fun b q => Nat) zero (refl zero)", "zero"),
        ("Js (fun b q => Nat) zero (reflS zero)", "zero"),
        ("Sum Nat NatS", "Sum NatS Nat"),
        ("fun n => succ n", "succ"),
        ("pair (fst x) (snd x)", "x"),
        ("pair (snd x) (fst x)", "x"),
        ("Nat -> U 0", "Nat -> Us 1"),
    ])
    def test_mixed_leaves_convert_alike(self, ck, t, u):
        env = set(ck.env)
        t, u = term(t, ("x",), env), term(u, ("x",), env)
        for leq in (False, True):
            want = Checker(env=ck.env).convert(t, u, leq)
            for pair in ((copy.deepcopy(t), u), (t, copy.deepcopy(u)),
                         copy.deepcopy((t, u))):
                assert Checker(env=ck.env).convert(*pair, leq) == want


# `_iota` on each family and level, over-applied by one argument `e`: the
# reduct's head and argument list, in the scope of IOTA_SCOPE
IOTA_SCOPE = ("P", "z", "s", "f", "g", "a", "b", "m", "x", "e")
IOTA = [
    ("fst (pair a b) e", "a", ["e"]),
    ("snd (pair a b) e", "b", ["e"]),
    ("J P z (refl a) e", "z", ["e"]),
    ("Js P z (reflS a) e", "z", ["e"]),
    ("indNat P z s zero e", "z", ["e"]),
    ("indNatS P z s zeroS e", "z", ["e"]),
    ("indNat P z s (succ m) e", "s", ["m", "indNat P z s m", "e"]),
    ("indNatS P z s (succS m) e", "s", ["m", "indNatS P z s m", "e"]),
    ("indSum P f g (inl x) e", "f", ["x", "e"]),
    ("indSum P f g (inr x) e", "g", ["x", "e"]),
    ("indSumS P f g (inlS x) e", "f", ["x", "e"]),
    ("indSumS P f g (inrS x) e", "g", ["x", "e"]),
]
IOTA_STUCK = [
    "fst x e", "J P z x e", "indNat P z s m e", "indSum P f g x e",
    "J P z (reflS a) e", "Js P z (refl a) e",
    "indNat P z s zeroS e", "indNat P z s (succS m) e",
    "indNatS P z s (succ m) e", "indSum P f g (inlS x) e",
    "indSumS P f g (inr x) e", "succ m e", "indEmpty P x e",
]


class TestIota:
    """`_iota` hands `whnf` the reduct as a head and an argument list; it
    builds only the recursive call of `indNat` on a successor."""

    @pytest.mark.parametrize("src, head, args", IOTA,
                             ids=[s for s, _, _ in IOTA])
    def test_reduct_is_a_head_and_arguments(self, src, head, args):
        t = term(src, IOTA_SCOPE)
        got_head, got_args = Checker()._iota(*spine(t))
        assert type(got_args) is list
        assert got_head == term(head, IOTA_SCOPE)
        assert got_args == [term(a, IOTA_SCOPE) for a in args]

    @pytest.mark.parametrize("src", IOTA_STUCK)
    def test_stuck_or_cross_level_major_is_none(self, src):
        assert Checker()._iota(*spine(term(src, IOTA_SCOPE))) is None

    def test_js_is_stuck_without_js_beta(self):
        t = term("Js P z (reflS a) e", IOTA_SCOPE)
        off = Checker(options=KernelOptions(js_beta=False))
        assert off._iota(*spine(t)) is None


# depth-100 `numeral_source` modules: (kind, share, ι steps), where `add`
# with first argument m takes m steps and `toNat` of d successors d
BUDGET_CASES = [
    ("add", 0.0, 0), ("add", 0.3, 30), ("add", 0.5, 50), ("add", 1.0, 100),
    ("add+1", 0.5, 50), ("add+1", 1.0, 99), ("toNat", 0.5, 100),
]


class TestSharedSpines:
    """ι is asked only of eliminators, the recursive call of `indNat` is
    built on the node `whnf` split, and `convert` compares two applications
    of one function node by their last arguments alone."""

    ELIMS = {"fst", "snd", "J", "Js", "indNat", "indNatS", "indSum",
             "indSumS"}

    @pytest.mark.parametrize("src", ["indNat P z s (succ m)",
                                     "indNatS P z s (succS m)"])
    def test_recursive_call_is_built_on_the_split_node(self, src):
        t = term(src, IOTA_SCOPE)
        head, args = spine(Checker().whnf(t))
        m = t.arg.arg
        assert head is t.fn.arg and args[0] is m
        assert args[1].fn is t.fn and args[1].arg is m

    def test_arguments_of_one_function_convert_by_conversion(self):
        """`f (U 0)` is not a subtype of `f (U 1)`: the shared head's
        arguments are compared without cumulativity."""
        f = syntax.var(0)
        small, large = App(f, syntax.univ(True, 0)), App(f, syntax.univ(True, 1))
        assert not Checker().convert(small, large, True)
        assert Checker().convert(small, App(f, syntax.univ(True, 0)))

    @pytest.mark.parametrize("kind, share, steps", BUDGET_CASES)
    def test_node_and_iota_budget(self, ck, monkeypatch, kind, share, steps):
        """Checking a depth-100 numeral module builds at most two
        application nodes per ι step, plus a constant (`add` with first
        argument m takes m steps, `toNat` of d successors d): the
        recursive call on the shared prefix and the successor β builds.
        Every head `whnf` asks for ι is an eliminator's."""
        src = load_perfbench("workloads").numeral_source(kind, 100, share)[0]
        mod = resolve(parse(src), set(ck.env))
        built, heads = 0, []
        init, iota = App.__init__, Checker._iota

        def counting(self, fn, arg):
            nonlocal built
            built += 1
            init(self, fn, arg)

        def asked(self, head, *rest):
            heads.append(head)
            return iota(self, head, *rest)
        monkeypatch.setattr(App, "__init__", counting)
        monkeypatch.setattr(Checker, "_iota", asked)
        assert check_module(Checker(env=ck.env), mod).ok
        monkeypatch.undo()
        assert built <= 2 * steps + 8
        assert len(heads) >= steps
        assert all(type(h) is Const and h.name in self.ELIMS for h in heads)

    def test_iota_is_asked_only_of_eliminators_on_the_corpus(self, monkeypatch):
        heads, iota = [], Checker._iota

        def asked(self, head, *rest):
            heads.append(head)
            return iota(self, head, *rest)
        monkeypatch.setattr(Checker, "_iota", asked)
        corpus.run_corpus()
        assert len(heads) > 30
        assert all(type(h) is Const and h.name in self.ELIMS for h in heads)


# Majors for `_iota` and arguments for constructors, as sources in the scope
# IOTA_SCOPE: constructor applications, eliminator redexes and stuck
# spines, annotations, β redexes and the globals of READ_ENV, nested
CONSTRUCTORS = sorted(set(CONSTS) - kernel._IOTA.keys())
# each eliminator's spine but its major, with the heads its ι rules read
ELIMINATIONS = {"fst": ["pair a"], "snd": ["pair a"], "J P z": ["refl"],
                "Js P z": ["reflS"], "indNat P z s": ["succ"],
                "indNatS P z s": ["succS"], "indSum P f g": ["inl", "inr"],
                "indSumS P f g": ["inlS", "inrS"]}
ELIM_PREFIXES = sorted(ELIMINATIONS)
INTROS = sorted({c for cs in ELIMINATIONS.values() for c in cs})
READ_ENV = {"d": EnvEntry(Const("Nat"), term("succ zero")),
            "k": EnvEntry(Const("Nat"), term("fun y => inl y"))}


def random_major(rng: random.Random, depth: int = 0) -> str:
    if depth >= 3 or rng.random() < 0.25:
        return rng.choice(["m", "x", "a", "d", "zero", "zeroS", "star",
                           "succ", "fst", "Nat"])
    sub = random_major(rng, depth + 1)
    form = rng.randrange(7)
    if form == 0:
        return f"{rng.choice(CONSTRUCTORS)} ({sub})"
    if form == 6:
        return f"{rng.choice(INTROS)} ({sub})"
    if form == 1:
        return f"pair ({sub}) ({random_major(rng, depth + 1)})"
    if form == 2:
        return f"{rng.choice(ELIM_PREFIXES)} ({sub})"
    if form == 3:
        return f"({sub} : Nat)"
    if form == 4:
        return f"(fun y => {rng.choice(CONSTRUCTORS)} y) ({sub})"
    return f"k ({sub})"


def major_term(src: str):
    return term(src, IOTA_SCOPE, set(READ_ENV))


# The eliminators the reference reduces: each one's arity, the position of
# its major premise, and the arity of each constructor of its level
REFERENCE_IOTA = {
    "fst": (1, 0, {"pair": 2}), "snd": (1, 0, {"pair": 2}),
    "J": (3, 2, {"refl": 1}), "Js": (3, 2, {"reflS": 1}),
    "indNat": (4, 3, {"zero": 0, "succ": 1}),
    "indNatS": (4, 3, {"zeroS": 0, "succS": 1}),
    "indSum": (4, 3, {"inl": 1, "inr": 1}),
    "indSumS": (4, 3, {"inlS": 1, "inrS": 1}),
}


def reference_iota(checker: Checker, head, args):
    """`_iota` with every major premise read through `spine(whnf(major))`,
    every recursive call built with `mk_app`, and each rule written out."""
    if type(head) is not Const or head.name not in REFERENCE_IOTA:
        return None
    arity, major, constructors = REFERENCE_IOTA[head.name]
    if len(args) < arity or (head.name == "Js"
                             and not checker.options.js_beta):
        return None
    c, c_args = spine(checker.whnf(args[major]))
    c = c.name if type(c) is Const else None
    if constructors.get(c) != len(c_args):
        return None
    rest = list(args[arity:])
    if head.name in ("fst", "snd"):
        return c_args[head.name == "snd"], rest
    if c in ("refl", "reflS", "zero", "zeroS"):
        return args[1], rest
    if c in ("succ", "succS"):
        m = c_args[0]
        return args[2], [m, mk_app(head, *args[:3], m)] + rest
    return args[1 + c.startswith("inr")], c_args + rest


class TestConstructorApplications:
    """`whnf` returns an application of a constant that is not an
    eliminator as it stands, and `_iota` reads such a major premise, or a
    bare constant, without `whnf` or `spine`."""

    @pytest.mark.parametrize("seed", range(3))
    def test_a_constructor_application_is_its_own_normal_form(self, seed):
        rng = random.Random(f"constructor applications {seed}")
        checker, seen = Checker(env=READ_ENV), 0
        for _ in range(150):
            t = major_term(f"{rng.choice(CONSTRUCTORS)} "
                           f"({random_major(rng)})")
            for u, _ in syntax._nodes(t):
                if (type(u) is App and type(u.fn) is Const
                        and u.fn.name not in kernel._IOTA):
                    assert checker.whnf(u) is u
                    seen += 1
        assert seen >= 150

    @pytest.mark.parametrize("js_beta", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_iota_agrees_with_the_reference(self, seed, js_beta):
        rng = random.Random(f"iota reference {seed}")
        checker = Checker(env=READ_ENV, options=KernelOptions(js_beta=js_beta))
        reduced = 0
        for _ in range(200):
            prefix, major = rng.choice(ELIM_PREFIXES), random_major(rng)
            if rng.random() < 0.5:
                major = f"{rng.choice(ELIMINATIONS[prefix])} ({major})"
            t = major_term(f"{prefix} ({major}){' e' * rng.randrange(2)}")
            head, args = spine(t)
            got, want = checker._iota(head, args), reference_iota(
                checker, head, args)
            assert (got is None) == (want is None), t
            if want is not None:
                assert got[0] == want[0] and list(got[1]) == want[1], t
                reduced += 1
        assert reduced >= 50

    @pytest.mark.parametrize("src, reduct", [
        ("fst (pair a b)", "a"),
        ("snd (pair (succ a) b)", "b"),
        ("succ (fst (pair a b))", "succ (fst (pair a b))"),
        ("indNat P z s (fst (pair (succ m) b))", "s m (indNat P z s m)"),
        ("indNat P z s (snd (pair b zero))", "z"),
        ("J P z (fst (pair (refl a) b))", "z"),
    ])
    def test_an_eliminator_application_is_not_read_as_one(self, src, reduct):
        """`fst (pair a b)` is an application of a constant too, but of an
        eliminator: as a term or as a major premise it reduces."""
        assert Checker().whnf(major_term(src)) == major_term(reduct)

    @pytest.mark.parametrize("kind, share, steps", BUDGET_CASES)
    def test_spine_budget(self, ck, kind, share, steps):
        """Checking a depth-100 numeral module splits at most two spines
        per ι step, plus a constant: a major premise `succ m` is read as
        it stands, where `whnf` and `spine` each split it again."""
        workloads = load_perfbench("workloads")
        mod = resolve(parse(workloads.numeral_source(kind, 100, share)[0]),
                      set(ck.env))
        with counting() as counts:
            assert check_module(Checker(env=ck.env), mod).ok
        assert counts["_iota"] >= steps
        assert counts["spine"] <= 2 * steps + 20

    def test_a_numerals_pass(self):
        """One pass of the `numerals` workload's items at seed 5 runs no
        naming walk (its messages print no binder) and splits at most two
        spines per ι attempt plus 20 per item."""
        workloads = load_perfbench("workloads")
        counts = count_pass(workloads, "numerals", 5)
        items = 3 * workloads.NUMERALS_PER_KIND
        assert counts["_nodes"] == 0
        assert counts["_iota"] >= items
        assert counts["spine"] <= 2 * counts["_iota"] + 20 * items


class TestOptions:
    def test_omitted_constant_is_unknown(self):
        ck = Checker(options=KernelOptions(omit_consts=frozenset({"uip"})))
        with pytest.raises(TypeError_):
            ck.infer([], term("uip"))

    def test_js_beta_off_blocks_reduction(self, ck):
        ck2 = Checker(options=KernelOptions(js_beta=False))
        ty = term("(Js (fun b q => Nat) zero (reflS zero)) =s zero")
        ck.check([], term("reflS zero"), ty)
        with pytest.raises(TypeError_):
            ck2.check([], term("reflS zero"), ty)

    def test_options_cannot_change_once_a_checker_is_built(self):
        """A checker applies its options when it is built, so an assignment
        to one afterwards, which it would ignore, is refused."""
        ck = Checker()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ck.options.js_beta = False

    def test_a_checker_reads_the_module_tables_less_what_its_options_drop(
            self):
        def tables(ck):
            return (ck._closed, ck._spine, ck._towers, ck._check_only,
                    ck._iota_rules)
        module = (kernel._CONST_TYPES, kernel._SPINE, kernel._TOWERS,
                  kernel._CHECK_ONLY, kernel._IOTA)
        assert tables(Checker()) == module
        off = tables(Checker(options=KernelOptions(js_beta=False)))
        assert off[:-1] == module[:-1]
        assert off[-1] == {n: r for n, r in kernel._IOTA.items() if n != "Js"}
        omit = frozenset({"uip", "succS", "indNat", "inl"})
        omitted = tables(Checker(options=KernelOptions(omit_consts=omit)))
        for got, full in zip(omitted[:-1], module):
            assert got == {n: v for n, v in full.items() if n not in omit}
        assert omitted[-1] == kernel._IOTA

    @pytest.mark.parametrize("src, omit, rule, message", [
        # a bare constant, in the body and in the type
        ("check star : Unit", "star", "CONST",
         "constant 'star' is not available"),
        ("check zero : Nat", "Nat", "CONST",
         "constant 'Nat' is not available"),
        # a spine head, before any argument is typed
        ("check indNat (fun n => Nat) (Us 0) (fun m r => r) zero : Nat",
         "indNat", "CONST", "constant 'indNat' is not available"),
        ("check fst star : Nat", "fst", "CONST",
         "constant 'fst' is not available"),
        # a tower head, and a tower level inside another
        ("check succ (succ star) : Nat", "succ", "CONST",
         "constant 'succ' is not available"),
        ("check succ (succS (succS star)) : Nat", "succS", "CONST",
         "constant 'succS' is not available"),
        # a check-only head
        ("check inl zero : Sum Nat Nat", "inl", "CONST",
         "constant 'inl' is not available"),
        ("check pair zero zero : Sig (x : Nat), Nat", "pair", "CONST",
         "constant 'pair' is not available"),
        # an earlier obligation fails first, and its rule is reported
        ("check indNat (fun n => Nat) (Us 0) (fun m r => uip) zero : Nat",
         "uip", "CONV",
         "type mismatch: inferred `Us 1` does not subsume expected `Nat`"),
        # only the kernel builds `fst`: Σ-η, and the type of `snd p`
        ("check (fun p a => refl p) : Pi (p : Sig (x : Nat), Nat) (a : Nat),"
         " p = pair a a", "fst", "CONV", "type mismatch: inferred `x0 = x0` "
         "does not subsume expected `x0 = pair x1 x1`"),
        ("check (fun p => snd p) : Pi (p : Sig (x : Nat), Nat), Nat", "fst",
         None, None),
    ], ids=["bare", "bare-type", "spine", "projection", "tower",
            "inner-level", "check-only", "check-only-pair", "earlier",
            "eta", "snd-type"])
    def test_every_route_of_an_omitted_constant(self, src, omit, rule,
                                                 message):
        """An omitted constant reaches `infer`'s `Const` case, the one rule
        that refuses it, whether it stands bare, heads a spine, a tower or
        a tower level, or heads a check-only term; one the kernel builds
        itself is not refused."""
        options = KernelOptions(omit_consts=frozenset({omit}))
        mod = resolve(parse(f"{src}\n"))
        record = check_module(Checker(options=options), mod).records[-1]
        if rule is None:
            assert record == check_module(Checker(), mod).records[-1]
            assert record["status"] == "pass"
        else:
            assert (record["status"], record["rule"], record["message"]) == (
                "fail", rule, message)


class CaseRecording(Recording, CaseChecker):
    """`Recording` over the case-per-family oracle."""


def typed_alike(run):
    """`run(cls)`, run once with `Recording` and once with `CaseRecording`:
    both return the same records, and the checkers they made met the same
    types, printed with their binder names."""
    got, want = run(Recording), run(CaseRecording)
    assert got == want
    return got


def prelude_of(cls):
    """A checker of class `cls` with the prelude checked into it."""
    ck = cls()
    for path in corpus_files():
        if path.parent.name == "prelude":
            assert corpus.check_file(ck, path).ok
    return ck


INDUCTION = corpus.CORPUS_ROOT / "tests" / "pass" / "induction.tltt"
SUMS = corpus.CORPUS_ROOT / "tests" / "pass" / "sums.tltt"

# Every ι rule stated by hand, at the fibrant level: eliminator -> (its
# arity, {constructor: rule}).  Those read off the schemas must be these.
WRITTEN_IOTA = {
    "fst": (1, {"pair": kernel._Iota(2, 0, component=True)}),
    "snd": (1, {"pair": kernel._Iota(2, 1, component=True)}),
    "J": (3, {"refl": kernel._Iota(1, 1)}),
    "indNat": (4, {"zero": kernel._Iota(0, 1), "succ": kernel._Iota(
        1, 2, applied=True, recursive=True)}),
    "indSum": (4, {"inl": kernel._Iota(1, 1, applied=True),
                   "inr": kernel._Iota(1, 2, applied=True)}),
}


class TestSchemas:
    """Every eliminator is typed from its schema and reduced by the ι rules
    read off it, as the hand-written case of each family typed it."""

    @pytest.mark.parametrize("name", sorted(kernel._ELIM_TYPES))
    def test_each_schema_is_a_type(self, name):
        ty = kernel._ELIM_TYPES[name][0]
        assert type(Checker().infer_sort([], ty)) is Univ

    @pytest.mark.parametrize("name", sorted(kernel._ELIM_TYPES))
    def test_the_parts_of_each_schema_rebuild_it(self, name):
        """The binders before `P`, `P`'s telescope into its universe, the
        binders after `P` and the codomain are the parsed schema."""
        ty, _, _, first, motive, methods, cod, _ = kernel._ELIM_TYPES[name]

        def pis(doms, t):
            for d in reversed(doms):
                t = Pi("_", d, t)
            return t
        motive_ty = pis(motive, syntax.univ(not kernel._SPINE[name][1], 0))
        assert pis(first, Pi("P", motive_ty, pis(methods, cod))) == ty

    @pytest.mark.parametrize("name", sorted(kernel._ELIM_TYPES))
    def test_each_schema_binds_what_its_family_takes(self, name):
        """The motive, the methods and the major premise: the family's
        arity, with the major premise last."""
        t, names = kernel._ELIM_TYPES[name][0], []
        while type(t) is Pi:
            names.append(t.name)
            t = t.cod
        taken = len(names) - names.index("P") + (names[0] != "P")
        assert taken == kernel._FAMILIES[kernel._SPINE[name][0]].arity

    def test_the_iota_rules_read_off_the_schemas_are_the_written_ones(self):
        """At both levels: a strict member adds `S` (`J`'s `s`) to its name
        and to each of its constructors; the projections are fibrant only."""
        written = dict(WRITTEN_IOTA)
        for name, (arity, rules) in WRITTEN_IOTA.items():
            if name not in ("fst", "snd"):
                written["Js" if name == "J" else name + "S"] = (
                    arity, {c + "S": r for c, r in rules.items()})
        assert kernel._IOTA == written

    def test_each_row_cites_known_rules(self):
        """Every rule a family cites is one `RULES` lists (so the coverage
        report counts it), and a fibrant eliminator's rule restricts."""
        for family, fam in kernel._FAMILIES.items():
            assert {r for r in fam.rules if r} <= set(RULES), family
            if fam.schema:
                assert fam.rules[0] in RESTRICTED_RULES, family

    def test_each_iota_row_names_a_constructor_of_its_level(self):
        for name, (_, rules) in kernel._IOTA.items():
            for c in rules:
                assert c in CONSTS and c not in kernel._IOTA, (name, c)
                assert c.endswith("S") == kernel._SPINE[name][1], (name, c)

    @pytest.mark.parametrize("ty, src, rule", [
        ("F Nat Nat", "indSum (fun s => Nat) (fun a => a) (fun b => b) y",
         "ELIM-+"),
        ("SumS Nat Nat", "indSum (fun s => Nat) (fun a => a) (fun b => b) y",
         "ELIM-+"),
        ("Sum Nat Nat", "indSumS (fun s => Nat) (fun a => a) (fun b => b) y",
         "ELIM-+S"),
        ("F Nat Nat", "J (fun b q => Nat) zero y", "ELIM-="),
    ])
    def test_a_major_premise_of_another_family_is_refused(self, ty, src, rule):
        """The type of a major premise typed first must have the head and
        the level of the schema's: a type of the same shape is refused."""
        rep = check_module(Checker(), resolve(parse(
            f"axiom F : U 0 -> U 0 -> U 0\naxiom y : {ty}\n"
            f"--! expect: {rule}\nfail {src} : Nat\n")))
        assert rep.ok and "eliminates" in rep.records[-1]["message"]

    @pytest.mark.parametrize("src", [
        "indNat (fun n => Nat) zero (fun m r => r) zeroS",
        "indNatS (fun n => Nat) zero (fun m r => r) zero",
        "indEmpty (fun e => Nat) zero",
    ])
    def test_a_major_premise_typed_last_is_checked(self, src):
        rep = check_module(Checker(), resolve(parse(
            f"--! expect: CONV\nfail {src} : Nat\n")))
        assert rep.ok and "does not subsume" in rep.records[-1]["message"]

    @staticmethod
    def induction_checks(ck, path=INDUCTION):
        """`corpus/tests/pass/induction.tltt`, or `path`, checks on the
        prelude `ck`."""
        return corpus.check_file(Checker(env=ck.env), path).ok

    @staticmethod
    def mutate(monkeypatch, family, old, new):
        """Put in the fibrant member of `family` read off its schema with
        `old` replaced by `new`, its typing and its ι rules together, and
        return those rules."""
        fam = kernel._FAMILIES[family]
        mutant = fam._replace(schema=fam.schema.replace(old, new))
        assert mutant != fam
        read = kernel._schema(mutant, False)
        monkeypatch.setitem(kernel._ELIM_TYPES, family, read)
        monkeypatch.setitem(kernel._IOTA, family, read[-1])
        return read[-1][1]

    def test_induction_checks(self, ck):
        assert self.induction_checks(ck)

    def test_a_step_without_its_hypothesis_fails_induction(self, ck,
                                                           monkeypatch):
        rules = self.mutate(monkeypatch, "indNat", "P m -> ", "")
        assert not rules["succ"].recursive
        assert not self.induction_checks(ck)

    def test_methods_naming_each_others_constructor_fail_sums(
            self, ck, monkeypatch):
        """The mutant's schema is no type, and `sums.tltt` fails with it."""
        assert self.induction_checks(ck, SUMS)
        rules = self.mutate(monkeypatch, "indSum", "(inl{S} a)) (g : Pi "
                            "(b : B), P (inr{S} b))", "(inr{S} a)) (g : Pi "
                            "(b : B), P (inl{S} b))")
        assert (rules["inl"].reduct, rules["inr"].reduct) == (2, 1)
        with pytest.raises(TypeError_):
            Checker().infer_sort([], kernel._ELIM_TYPES["indSum"][0])
        assert not self.induction_checks(ck, SUMS)

    def test_a_successor_without_its_recursive_call_fails_induction(
            self, ck, monkeypatch):
        arity, rules = kernel._IOTA["indNat"]
        monkeypatch.setitem(kernel._IOTA, "indNat", (arity, {
            **rules, "succ": rules["succ"]._replace(recursive=False)}))
        assert not self.induction_checks(ck)

    @pytest.mark.parametrize("kernel_", KERNELS)
    def test_the_corpus_is_typed_as_case_by_case(self, kernel_):
        options = KERNELS[kernel_]

        def run(cls):
            prelude, out = cls(options=options), []
            for path in corpus_files():
                ck = (prelude if path.parent.name == "prelude"
                      else cls(env=prelude.env, options=options))
                rep = corpus.check_file(ck, path)
                out.append((rep.records, rep.error, list(map(repr, ck.types))))
            return out
        records = typed_alike(run)
        assert sum(len(r) for r, _, _ in records) > 60    # 74 by default

    def test_numerals_are_typed_as_case_by_case(self):
        workloads = load_perfbench("workloads")
        sources = [workloads.numeral_source(kind, depth, share)[0]
                   for kind in ("add", "add+1", "toNat")
                   for depth, share in ((1, 0.0), (7, 0.5), (30, 0.9))]

        def run(cls):
            prelude, out = prelude_of(cls), []
            for src in sources:
                ck = cls(env=prelude.env)
                rep = check_module(ck, resolve(parse(src), set(ck.env)))
                out.append((rep.records, list(map(repr, ck.types))))
            return out
        assert all(r[-1]["status"] == "pass" for r, _ in typed_alike(run))

    def test_the_diagnostics_are_typed_as_case_by_case(self):
        """The sources of `TestDiagnostics`' parametrized tests."""
        structural, failing = (
            fn.pytestmark[0].args[1] for fn in (
                TestDiagnostics.test_structural_rule_is_cited,
                TestDiagnostics.test_a_fail_declaration_records_its_rule))
        cases = ([(src, omit) for src, omit, _, _ in structural]
                 + [(f"fail {src}", ()) for src, _, _ in failing])

        def run(cls):
            prelude, out = prelude_of(cls), []
            for src, omit in cases:
                ck = cls(env=prelude.env,
                         options=KernelOptions(omit_consts=frozenset(omit)))
                out.append(([ck.check_decl(d) for d in parse(src).decls],
                            list(map(repr, ck.types))))
            return out
        assert len(typed_alike(run)) == 15
