"""Bidirectional type checker for the two-level core language.

Universes come in two kinds: ``U i`` (fibrant) and ``Us i`` (strict).  Every
fibrant type is also a pretype (subsumption ``U i <= Us j`` for ``i <= j``,
rule FIB-PRE), never the other way around.  Fibrant equality ``=`` may only
be formed over fibrant carriers (INTRO-=) and eliminated into fibrant motives
(ELIM-=); the corresponding restrictions apply to the fibrant eliminators of
``Nat``, ``Empty`` and ``Sum``.  Strict equality ``=s`` is governed by the
axioms ``uip`` and ``funextS`` and has no reflection rule.

Conversion is weak-head normalization plus structural comparison with
judgmental eta for Pi and Sigma.  Errors carry the name of the violated rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    Ann, App, Const, Decl, Eq, Lam, Module, Pi, Ref, Sig, Term, Univ, Var,
    mk_app, shift, spine, subst,
)


# All rule names the checker can cite or record.  The "restricted" subset is
# where the two-level discipline actually forbids something; those are the
# rules that need negative tests.
RULES = (
    "FORM-=s", "INTRO-=s", "ELIM-=s", "UIP", "FUNEXT",
    "FIB-PRE", "PI-FIB", "SIGMA-FIB",
    "INTRO-=", "ELIM-=", "FORM-+", "ELIM-+", "ELIM-NAT", "ELIM-0",
    "ELIM-+S", "ELIM-NATS", "ELIM-0S",
)
RESTRICTED_RULES = frozenset({
    "FIB-PRE", "PI-FIB", "SIGMA-FIB",
    "INTRO-=", "ELIM-=", "FORM-+", "ELIM-+", "ELIM-NAT", "ELIM-0",
})


@dataclass(frozen=True, order=True)
class Sort:
    """Universe sort: kind (fibrant or strict) plus level."""

    level: int
    fib: bool

    def __repr__(self):
        return f"{'Fib' if self.fib else 'Strict'}({self.level})"


def sort_leq(a: Sort, b: Sort) -> bool:
    if a.level > b.level:
        return False
    return a.fib or not b.fib


def sort_lub(a: Sort, b: Sort) -> Sort:
    return Sort(max(a.level, b.level), a.fib and b.fib)


class TypeError_(Exception):
    """Checking failure carrying the violated rule's name."""

    def __init__(self, rule: str, msg: str):
        super().__init__(f"[{rule}] {msg}")
        self.rule = rule
        self.msg = msg


@dataclass
class EnvEntry:
    ty: Term
    value: Optional[Term]     # None for axioms


@dataclass
class KernelOptions:
    """Knobs used by mutation tests; defaults give the real theory."""

    js_beta: bool = True                       # judgmental beta for Js
    omit_consts: frozenset = frozenset()       # pretend these builtins absent


# Arities of the spine-checked constants.
_SPINE_ARITY = {
    "Sum": 2, "SumS": 2, "fst": 1, "snd": 1, "refl": 1, "reflS": 1,
    "J": 3, "Js": 3, "indNat": 4, "indNatS": 4, "indEmpty": 2,
    "indEmptyS": 2, "indSum": 4, "indSumS": 4,
    "pair": 2, "inl": 1, "inr": 1, "inlS": 1, "inrS": 1,
}
# Constants that can only be checked against a known type.
_CHECK_ONLY = {"pair", "inl", "inr", "inlS", "inrS"}


def _closed_const_types() -> dict[str, Term]:
    nat, nats = Const("Nat"), Const("NatS")
    u0, us0 = Univ(True, 0), Univ(False, 0)
    a = Var  # index helper for readability below
    uip_ty = Pi("A", us0,
                Pi("a", a(0),
                   Pi("b", a(1),
                      Pi("p", Eq(True, a(1), a(0)),
                         Pi("q", Eq(True, a(2), a(1)),
                            Eq(True, a(1), a(0)))))))
    funext_ty = Pi(
        "A", us0,
        Pi("B", Pi("_", a(0), us0),
           Pi("f", Pi("x", a(1), App(a(1), a(0))),
              Pi("g", Pi("x", a(2), App(a(2), a(0))),
                 Pi("h", Pi("x", a(3),
                            Eq(True, App(a(2), a(0)), App(a(1), a(0)))),
                    Eq(True, a(2), a(1)))))))
    return {
        "Unit": u0, "star": Const("Unit"),
        "Empty": u0, "EmptyS": us0,
        "Nat": u0, "NatS": us0,
        "zero": nat, "succ": Pi("_", nat, nat),
        "zeroS": nats, "succS": Pi("_", nats, nats),
        "uip": uip_ty, "funextS": funext_ty,
    }


_CONST_TYPES = _closed_const_types()


class Checker:
    """Type checker over an immutable-per-declaration environment."""

    def __init__(self, env: Optional[dict[str, EnvEntry]] = None,
                 options: Optional[KernelOptions] = None):
        self.env: dict[str, EnvEntry] = dict(env or {})
        self.options = options or KernelOptions()
        self.rules_used: set[str] = set()
        self.decl_rules: set[str] = set()

    def _use(self, rule: str):
        self.rules_used.add(rule)
        self.decl_rules.add(rule)

    def _const_ok(self, name: str):
        if name in self.options.omit_consts:
            raise TypeError_("CONST", f"constant {name!r} is not available")

    # -- weak head normalization ------------------------------------------

    def whnf(self, t: Term) -> Term:
        while True:
            match t:
                case Ann(tm, _):
                    t = tm
                    continue
                case Ref(name):
                    entry = self.env.get(name)
                    if entry is not None and entry.value is not None:
                        t = entry.value
                        continue
                    return t
                case App(f, a):
                    fw = self.whnf(f)
                    if isinstance(fw, Lam):
                        t = subst(fw.body, a)
                        continue
                    if fw is not f:
                        t = App(fw, a)
                    red = self._iota(*spine(t))
                    if red is not None:
                        t = red
                        continue
                    return t
                case _:
                    return t

    def _iota(self, head: Term, args: list[Term]) -> Optional[Term]:
        """Computation rules for eliminator spines; None if stuck."""
        if not isinstance(head, Const):
            return None
        name = head.name
        arity = _SPINE_ARITY.get(name)
        if arity is None or len(args) < arity:
            return None
        extra = args[arity:]

        def done(t: Term) -> Term:
            return mk_app(t, *extra)

        if name in ("fst", "snd"):
            p_head, p_args = spine(self.whnf(args[0]))
            if isinstance(p_head, Const) and p_head.name == "pair" and len(p_args) == 2:
                return done(p_args[0 if name == "fst" else 1])
            return None
        if name in ("J", "Js"):
            if name == "Js" and not self.options.js_beta:
                return None
            want = "refl" if name == "J" else "reflS"
            p_head, p_args = spine(self.whnf(args[2]))
            if isinstance(p_head, Const) and p_head.name == want and len(p_args) == 1:
                return done(args[1])
            return None
        if name in ("indNat", "indNatS"):
            n_head, n_args = spine(self.whnf(args[3]))
            if isinstance(n_head, Const):
                if n_head.name in ("zero", "zeroS") and not n_args:
                    return done(args[1])
                if n_head.name in ("succ", "succS") and len(n_args) == 1:
                    m = n_args[0]
                    rec = mk_app(head, args[0], args[1], args[2], m)
                    return done(mk_app(args[2], m, rec))
            return None
        if name in ("indSum", "indSumS"):
            x_head, x_args = spine(self.whnf(args[3]))
            if isinstance(x_head, Const) and len(x_args) == 1:
                if x_head.name in ("inl", "inlS"):
                    return done(App(args[1], x_args[0]))
                if x_head.name in ("inr", "inrS"):
                    return done(App(args[2], x_args[0]))
            return None
        return None

    # -- conversion --------------------------------------------------------

    def convert(self, t: Term, u: Term) -> bool:
        # `==` ignores binder names, so it is alpha-equivalence
        if t is u or t == u:
            return True
        t, u = self.whnf(t), self.whnf(u)
        if t is u or t == u:
            return True
        if isinstance(t, Lam) or isinstance(u, Lam):
            # eta for Pi
            tb = t.body if isinstance(t, Lam) else App(shift(t, 1), Var(0))
            ub = u.body if isinstance(u, Lam) else App(shift(u, 1), Var(0))
            return self.convert(tb, ub)
        th, ta = spine(t)
        uh, ua = spine(u)
        # eta for Sigma
        if isinstance(th, Const) and th.name == "pair" and len(ta) == 2:
            return (self.convert(ta[0], App(Const("fst"), u))
                    and self.convert(ta[1], App(Const("snd"), u)))
        if isinstance(uh, Const) and uh.name == "pair" and len(ua) == 2:
            return (self.convert(App(Const("fst"), t), ua[0])
                    and self.convert(App(Const("snd"), t), ua[1]))
        match (t, u):
            case (Var(i), Var(j)):
                return i == j
            case (Ref(a), Ref(b)):
                return a == b
            case (Const(a), Const(b)):
                return a == b
            case (Univ(f1, l1), Univ(f2, l2)):
                return f1 == f2 and l1 == l2
            case (Pi(_, a1, b1), Pi(_, a2, b2)) | (Sig(_, a1, b1), Sig(_, a2, b2)):
                return type(t) is type(u) and self.convert(a1, a2) and self.convert(b1, b2)
            case (Eq(s1, l1, r1), Eq(s2, l2, r2)):
                return s1 == s2 and self.convert(l1, l2) and self.convert(r1, r2)
            case (App(), App()):
                return (self.convert(th, uh)
                        and len(ta) == len(ua)
                        and all(self.convert(x, y) for x, y in zip(ta, ua)))
            case _:
                return False

    # -- sorts -------------------------------------------------------------

    def infer_sort(self, ctx: list[Term], ty: Term) -> Sort:
        """Least sort at which `ty` is a universe element."""
        t = self.whnf(ty)
        match t:
            case Univ(fib, lvl):
                return Sort(lvl + 1, fib)
            case Const("Unit" | "Nat" | "Empty"):
                return Sort(0, True)
            case Const("NatS" | "EmptyS"):
                return Sort(0, False)
            case Pi(_, a, b) | Sig(_, a, b):
                sa = self.infer_sort(ctx, a)
                sb = self.infer_sort([a] + ctx, b)
                s = sort_lub(sa, sb)
                if s.fib:
                    self._use("PI-FIB" if isinstance(t, Pi) else "SIGMA-FIB")
                return s
            case Eq(strict, lhs, rhs):
                carrier = self.infer(ctx, lhs)
                sc = self.infer_sort(ctx, carrier)
                self.check(ctx, rhs, carrier)
                if strict:
                    self._use("FORM-=s")
                    return Sort(sc.level, False)
                if not sc.fib:
                    raise TypeError_(
                        "INTRO-=",
                        "fibrant equality requires a fibrant carrier, "
                        f"but the carrier has sort {sc}")
                self._use("INTRO-=")
                return Sort(sc.level, True)
            case _:
                head, args = spine(t)
                if isinstance(head, Const) and head.name in ("Sum", "SumS") and len(args) == 2:
                    strict = head.name == "SumS"
                    sl = self.infer_sort(ctx, args[0])
                    sr = self.infer_sort(ctx, args[1])
                    if strict:
                        return Sort(max(sl.level, sr.level), False)
                    for s, side in ((sl, "left"), (sr, "right")):
                        if not s.fib:
                            raise TypeError_(
                                "FORM-+",
                                f"fibrant sum requires fibrant summands; {side} "
                                f"summand has sort {s}")
                    self._use("FORM-+")
                    return Sort(max(sl.level, sr.level), True)
                # neutral type: read the sort off its inferred universe
                uni = self.whnf(self.infer(ctx, t))
                if not isinstance(uni, Univ):
                    raise TypeError_("SORT", "not a type (its type is not a universe)")
                return Sort(uni.level, uni.fib)

    # -- subsumption -------------------------------------------------------

    def subsumes(self, got: Term, want: Term) -> bool:
        """Structural cumulativity: universes by sort order, Pi/Sig covariant
        in the codomain/second component, everything else by conversion."""
        g, w = self.whnf(got), self.whnf(want)
        match (g, w):
            case (Univ(f1, l1), Univ(f2, l2)):
                ok = sort_leq(Sort(l1, f1), Sort(l2, f2))
                if ok and f1 and not f2:
                    self._use("FIB-PRE")
                return ok
            case (Pi(_, a1, b1), Pi(_, a2, b2)):
                return self.convert(a1, a2) and self.subsumes(b1, b2)
            case (Sig(_, a1, b1), Sig(_, a2, b2)):
                return self.convert(a1, a2) and self.subsumes(b1, b2)
            case _:
                return self.convert(g, w)

    def _subsume_or_fail(self, ctx: list[Term], term: Term, got: Term, want: Term):
        if self.subsumes(got, want):
            return
        rule = self._mismatch_rule(term, got, want)
        from .syntax import print_term
        names = [f"x{j}" for j in range(len(ctx))]
        raise TypeError_(
            rule,
            f"type mismatch: inferred `{print_term(got, names)}` does not "
            f"subsume expected `{print_term(want, names)}`")

    def _mismatch_rule(self, term: Term, got: Term, want: Term) -> str:
        """Choose the rule name to cite for a subsumption failure."""
        g, w = self.whnf(got), self.whnf(want)
        if isinstance(g, Univ) and isinstance(w, Univ) and not g.fib and w.fib:
            # a pretype was asserted fibrant: blame the relevant type former
            tw = self.whnf(term) if not isinstance(term, (Var, Ref)) else term
            if isinstance(tw, Pi):
                return "PI-FIB"
            if isinstance(tw, Sig):
                return "SIGMA-FIB"
            if isinstance(tw, Eq) and tw.strict:
                return "FORM-=s"
            return "FIB-PRE"
        return "CONV"

    # -- inference ---------------------------------------------------------

    def infer(self, ctx: list[Term], t: Term) -> Term:
        match t:
            case Var(i):
                return shift(ctx[i], i + 1)
            case Ref(name):
                entry = self.env.get(name)
                if entry is None:
                    raise TypeError_("SCOPE", f"unknown global {name!r}")
                return entry.ty
            case Const(name):
                self._const_ok(name)
                if name in _CONST_TYPES:
                    if name == "uip":
                        self._use("UIP")
                    if name == "funextS":
                        self._use("FUNEXT")
                    return _CONST_TYPES[name]
                raise TypeError_(
                    "ARITY",
                    f"constant {name!r} must be applied to "
                    f"{_SPINE_ARITY.get(name, '?')} arguments")
            case Univ(fib, lvl):
                return Univ(fib, lvl + 1)
            case Pi() | Sig() | Eq():
                s = self.infer_sort(ctx, t)
                return Univ(s.fib, s.level)
            case Lam():
                raise TypeError_("INFER", "cannot infer the type of a bare lambda; "
                                          "annotate it with `(t : T)`")
            case Ann(tm, ty):
                self.infer_sort(ctx, ty)     # ty must be a type
                self.check(ctx, tm, ty)
                return ty
            case App():
                head, args = spine(t)
                if isinstance(head, Const) and head.name in _SPINE_ARITY:
                    self._const_ok(head.name)
                    return self._infer_spine(ctx, head.name, args)
                if isinstance(head, (Lam, Ann)):
                    return self.infer(ctx, self.whnf(t))
                fty = self.infer(ctx, head)
                for a in args:
                    fw = self.whnf(fty)
                    if not isinstance(fw, Pi):
                        raise TypeError_("APP", "applied a non-function")
                    self.check(ctx, a, fw.dom)
                    fty = subst(fw.cod, a)
                return fty
        raise AssertionError(t)

    def _motive_universe(self, ctx: list[Term], motive: Term,
                         doms: list[Term]) -> tuple[Sort, Term]:
        """Type a fully-applied eliminator motive.

        `doms` is the telescope of the motive's arguments.  Returns the sort
        of the motive's target universe, and checks the motive against
        `Pi doms -> U/Us level` once that universe is known (which also
        covers lambda motives, whose type cannot be inferred directly).
        """
        ctx2 = list(ctx)
        for d in doms:
            ctx2 = [d] + ctx2
        applied = shift(motive, len(doms))
        for i in range(len(doms)):
            applied = App(applied, Var(len(doms) - 1 - i))
        uni = self.whnf(self.infer(ctx2, self.whnf(applied)))
        if not isinstance(uni, Univ):
            raise TypeError_("MOTIVE", "eliminator motive must target a universe")
        expected = Univ(uni.fib, uni.level)
        for d in reversed(doms):
            expected = Pi("_", d, expected)
        self.check(ctx, motive, expected)
        return Sort(uni.level, uni.fib), uni

    def _infer_spine(self, ctx: list[Term], name: str, args: list[Term]) -> Term:
        arity = _SPINE_ARITY[name]
        if name in _CHECK_ONLY:
            raise TypeError_("INFER", f"cannot infer the type of {name!r}; "
                                      "it must appear in a checked position")
        if len(args) < arity:
            raise TypeError_("ARITY", f"{name!r} expects {arity} arguments, "
                                      f"got {len(args)}")
        head_args, extra = args[:arity], args[arity:]
        result = self._infer_spine_exact(ctx, name, head_args)
        for a in extra:
            fw = self.whnf(result)
            if not isinstance(fw, Pi):
                raise TypeError_("APP", "applied a non-function")
            self.check(ctx, a, fw.dom)
            result = subst(fw.cod, a)
        return result

    def _infer_spine_exact(self, ctx: list[Term], name: str,
                           args: list[Term]) -> Term:
        match name:
            case "Sum" | "SumS":
                t = mk_app(Const(name), *args)
                s = self.infer_sort(ctx, t)
                return Univ(s.fib, s.level)
            case "fst" | "snd":
                pty = self.whnf(self.infer(ctx, args[0]))
                if not isinstance(pty, Sig):
                    raise TypeError_("PROJ", "projection from a non-pair")
                if name == "fst":
                    return pty.dom
                return subst(pty.cod, App(Const("fst"), args[0]))
            case "refl" | "reflS":
                strict = name == "reflS"
                a = args[0]
                carrier = self.infer(ctx, a)
                sc = self.infer_sort(ctx, carrier)
                if not strict and not sc.fib:
                    raise TypeError_(
                        "INTRO-=",
                        "refl needs a fibrant carrier, got sort "
                        f"{sc}; use reflS for pretypes")
                self._use("INTRO-=s" if strict else "INTRO-=")
                return Eq(strict, a, a)
            case "J" | "Js":
                strict = name == "Js"
                rule = "ELIM-=s" if strict else "ELIM-="
                motive, base, prf = args
                ety = self.whnf(self.infer(ctx, prf))
                if not isinstance(ety, Eq) or ety.strict != strict:
                    raise TypeError_(
                        rule,
                        f"{name} eliminates a "
                        f"{'strict' if strict else 'fibrant'} equality; "
                        "the scrutinee has a different type")
                lhs, rhs = ety.lhs, ety.rhs
                carrier = self.infer(ctx, lhs)
                doms = [carrier, Eq(strict, shift(lhs, 1), Var(0))]
                s, _ = self._motive_universe(ctx, motive, doms)
                if not strict and not s.fib:
                    raise TypeError_(
                        rule,
                        "J requires a fibrant motive; this motive lands in "
                        f"sort {s} (use Js for strict motives)")
                self._use(rule)
                refl_c = Const("reflS" if strict else "refl")
                self.check(ctx, base, mk_app(motive, lhs, App(refl_c, lhs)))
                return mk_app(motive, rhs, prf)
            case "indNat" | "indNatS":
                strict = name == "indNatS"
                rule = "ELIM-NATS" if strict else "ELIM-NAT"
                nat = Const("NatS" if strict else "Nat")
                sucf = Const("succS" if strict else "succ")
                zeroc = Const("zeroS" if strict else "zero")
                motive, z, s_arg, n = args
                srt, _ = self._motive_universe(ctx, motive, [nat])
                if not strict and not srt.fib:
                    raise TypeError_(
                        rule,
                        "indNat requires a fibrant motive; this motive lands "
                        f"in sort {srt} (use indNatS instead)")
                self._use(rule)
                self.check(ctx, z, App(motive, zeroc))
                step_ty = Pi("m", nat,
                             Pi("_", App(shift(motive, 1), Var(0)),
                                App(shift(motive, 2), App(sucf, Var(1)))))
                self.check(ctx, s_arg, step_ty)
                self.check(ctx, n, nat)
                return App(motive, n)
            case "indEmpty" | "indEmptyS":
                strict = name == "indEmptyS"
                rule = "ELIM-0S" if strict else "ELIM-0"
                empty = Const("EmptyS" if strict else "Empty")
                motive, e = args
                srt, _ = self._motive_universe(ctx, motive, [empty])
                if not strict and not srt.fib:
                    raise TypeError_(
                        rule,
                        "indEmpty requires a fibrant motive; this motive "
                        f"lands in sort {srt} (use indEmptyS instead)")
                self._use(rule)
                self.check(ctx, e, empty)
                return App(motive, e)
            case "indSum" | "indSumS":
                strict = name == "indSumS"
                rule = "ELIM-+S" if strict else "ELIM-+"
                sumc = "SumS" if strict else "Sum"
                inlc = Const("inlS" if strict else "inl")
                inrc = Const("inrS" if strict else "inr")
                motive, f, g, x = args
                xty = self.whnf(self.infer(ctx, x))
                xh, xa = spine(xty)
                if not (isinstance(xh, Const) and xh.name == sumc and len(xa) == 2):
                    raise TypeError_(rule, f"{name} eliminates a {sumc} value")
                a_ty, b_ty = xa
                srt, _ = self._motive_universe(ctx, motive, [xty])
                if not strict and not srt.fib:
                    raise TypeError_(
                        rule,
                        "indSum requires a fibrant motive; this motive lands "
                        f"in sort {srt} (use indSumS instead)")
                self._use(rule)
                f_ty = Pi("a", a_ty, App(shift(motive, 1), App(inlc, Var(0))))
                g_ty = Pi("b", b_ty, App(shift(motive, 1), App(inrc, Var(0))))
                self.check(ctx, f, f_ty)
                self.check(ctx, g, g_ty)
                return App(motive, x)
        raise AssertionError(name)

    # -- checking ----------------------------------------------------------

    def check(self, ctx: list[Term], t: Term, ty: Term) -> None:
        tyw = self.whnf(ty)
        match t:
            case Lam(_, body):
                if not isinstance(tyw, Pi):
                    from .syntax import print_term
                    raise TypeError_(
                        "CONV", f"lambda checked against non-function type "
                                f"`{print_term(tyw)}`")
                self.check([tyw.dom] + ctx, body, tyw.cod)
                return
            case Ann(tm, ann_ty):
                self.infer_sort(ctx, ann_ty)
                self.check(ctx, tm, ann_ty)
                self._subsume_or_fail(ctx, t, ann_ty, tyw)
                return
            case App() | Const():
                head, args = spine(t)
                if isinstance(head, Const) and head.name in _CHECK_ONLY:
                    self._const_ok(head.name)
                    if self._check_intro(ctx, head.name, args, tyw):
                        return
        got = self.infer(ctx, t)
        self._subsume_or_fail(ctx, t, got, tyw)

    def _check_intro(self, ctx: list[Term], name: str, args: list[Term],
                     tyw: Term) -> bool:
        """Check-mode rules for pair/inl/inr; returns False to fall back."""
        if name == "pair" and len(args) == 2 and isinstance(tyw, Sig):
            self.check(ctx, args[0], tyw.dom)
            self.check(ctx, args[1], subst(tyw.cod, args[0]))
            return True
        if name in ("inl", "inr", "inlS", "inrS") and len(args) == 1:
            want = "SumS" if name.endswith("S") else "Sum"
            h, a = spine(tyw)
            if isinstance(h, Const) and h.name == want and len(a) == 2:
                self.infer_sort(ctx, tyw)   # records/enforces FORM-+
                side = a[0] if name.startswith("inl") else a[1]
                self.check(ctx, args[0], side)
                return True
        raise TypeError_(
            "CONV", f"{name!r} checked against an incompatible type")

    # -- declarations ------------------------------------------------------

    def check_decl(self, d: Decl) -> dict:
        """Check one declaration, extending the environment for def/axiom."""
        record = {"kind": d.kind, "name": d.name, "line": d.line, "col": d.col}
        self.decl_rules = set()
        if d.kind == "fail":
            try:
                self.infer_sort([], d.ty)
                self.check([], d.body, d.ty)
            except TypeError_ as e:
                record["status"] = "pass"
                record["rule"] = e.rule
                record["message"] = e.msg
                if d.expect_rule and d.expect_rule != e.rule:
                    record["status"] = "fail"
                    record["message"] = (f"expected rule {d.expect_rule}, "
                                         f"but {e.rule} fired: {e.msg}")
                return record
            record["status"] = "fail"
            record["message"] = "declaration was expected to be rejected but checked"
            return record
        self.infer_sort([], d.ty)
        if d.kind != "axiom":
            self.check([], d.body, d.ty)
        if d.kind in ("def", "axiom"):
            self.env[d.name] = EnvEntry(d.ty, d.body)
        record["status"] = "pass"
        record["rules"] = sorted(self.decl_rules)
        return record


@dataclass
class Report:
    path: str
    records: list[dict]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(r["status"] == "pass" for r in self.records)

    def to_json(self) -> dict:
        out = {"path": self.path, "status": "pass" if self.ok else "fail",
               "declarations": self.records}
        if self.error:
            out["error"] = self.error
        return out


def check_module(checker: Checker, mod: Module) -> Report:
    """Check declarations in order; abort on the first hard failure."""
    records = []
    for d in mod.decls:
        try:
            rec = checker.check_decl(d)
        except (TypeError_, RecursionError) as e:
            # a RecursionError is never an expected rejection: `fail`
            # declarations catch only TypeError_
            rule, msg = ((e.rule, e.msg) if isinstance(e, TypeError_)
                         else ("DEPTH", "terms nest too deeply to check"))
            rec = {"kind": d.kind, "name": d.name, "line": d.line,
                   "col": d.col, "status": "fail", "rule": rule, "message": msg}
        records.append(rec)
        if rec["status"] == "fail":
            return Report(mod.path, records,
                          error=f"{mod.path}:{d.line}:{d.col}: "
                                f"[{rec.get('rule', 'FAIL')}] {rec['message']}")
    return Report(mod.path, records)
