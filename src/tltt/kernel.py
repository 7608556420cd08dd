"""Bidirectional type checker for the two-level core language.

Universes come in two kinds: ``U i`` (fibrant) and ``Us i`` (strict).  The
sort of a type is the universe it lives in: ``infer`` types every type
former, and sorts are compared and joined as universes (``sort_leq``,
``sort_lub``).  Every fibrant type is also a pretype (``U i <= Us j`` for
``i <= j``, rule FIB-PRE), never the other way around.  Most built-ins come
in a family of a fibrant and a strict member, whose name adds ``S`` (``J``'s
is ``Js``).  One row states a family: its arity, its rules and, for an
eliminator, its type as one schema in the surface syntax for both levels.
Fibrant equality and sums need fibrant carriers (INTRO-=, FORM-+) and
fibrant eliminators fibrant motives (ELIM-=, ELIM-NAT, ELIM-0, ELIM-+).
Strict equality ``=s`` is governed by the axioms ``uip`` and ``funextS``,
whose types are stated in the surface syntax too, and has no reflection
rule.  One rule types every eliminator from its schema, split at import,
and ι is read off the schema's methods; only the projections' rules are
written out.  Options choose a checker's tables once, when it is built: an
omitted constant is in none, and without `js_beta` `Js` has no ι rule.

Conversion is weak-head normalization plus structural comparison with
judgmental eta for Pi and Sigma.  The same comparison decides cumulativity,
``convert(t, u, leq=True)``: universes by ``sort_leq``, covariantly in the
codomain of Pi and the second component of Sigma only, and by conversion
everywhere else.  ``whnf`` is one loop over a head and its arguments,
conversion a worklist with its alpha-equality ``syntax._differ`` (the ``==``
of terms) on a stack of its own, and a numeral is typed in one loop, so none
costs a Python frame per level.  Iota is level-exact: an eliminator reduces
only on constructors of its own level, to a head and its arguments, and
only an eliminator head is asked for it.  The recursive call of `indNat(S)`
on a successor is built on the node of the spine it reduces, which every
level down a numeral shares, and two applications of one function node are
compared by their last arguments alone.  Each built-in is one node, shared
from ``syntax.CONSTS``, and the variables and universes the rules build
come from ``syntax.var`` and ``syntax.univ``; ``sort_lub`` returns
whichever operand is the join, and substitution returns what it leaves
unchanged, so the identity tests of conversion meet shared subterms.

A type is reduced only where a rule reads its head, and checked first, so
what reduction drops is checked once.  A term the kernel has checked, such
as that reduct or the carrier of an equation, is typed again in infer-only
mode, as Lean 4's `infer_only`: its type is computed and nothing in it is
checked, so a rule that only a skipped check would record is not recorded
again.  A lambda motive whose body is weak-head normal is typed once, and
the weak-head normal type of a chain of projections ending in a variable is
computed once per declaration.  Errors carry the name of the violated rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .syntax import (
    BUILTIN_CONSTS, CONSTS, Ann, App, Const, Decl, Eq, Lam, Module, Pi, Ref,
    Sig, Term, Univ, Var, _differ, _nodes, mk_app, parse_term, print_term,
    shift, spine, subst, univ, var,
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


def sort_leq(a: Univ, b: Univ) -> bool:
    """`a <= b`: the level does not drop, and a fibrant type may be used as a
    pretype but never the other way (FIB-PRE)."""
    return a.level <= b.level and (a.fib or not b.fib)


def sort_lub(a: Univ, b: Univ) -> Univ:
    """The join of `a` and `b`: whichever operand is above the other, else
    the strict universe of the larger level (two sorts of one kind are
    always comparable)."""
    if sort_leq(b, a):
        return a
    if sort_leq(a, b):
        return b
    return univ(False, max(a.level, b.level))


def _sort(u: Univ) -> str:
    return f"{'Fib' if u.fib else 'Strict'}({u.level})"


class TypeError_(Exception):
    """Checking failure carrying the violated rule's name."""

    def __init__(self, rule: str, msg: str):
        super().__init__(f"[{rule}] {msg}")
        self.rule = rule
        self.msg = msg


@dataclass
class EnvEntry:
    """A global's type and, for a def, its value."""

    ty: Term
    value: Optional[Term]     # None for axioms


@dataclass(frozen=True)
class KernelOptions:
    """Knobs used by mutation tests; defaults give the real theory.  A
    checker applies them once, by the tables it builds, so they are frozen."""

    js_beta: bool = True                       # judgmental beta for Js
    omit_consts: frozenset = frozenset()       # pretend these builtins absent


_DEFAULT_OPTIONS = KernelOptions()      # what a checker built without any has


class _Family(NamedTuple):
    """A family of spine-checked constants, named by its fibrant member.
    An eliminator's `schema` is its type at both levels (`{S}`, `{s}` spell
    the strict names), its binders in the order the rule types them: the
    parameters read off a first-typed major premise, and that premise; `P`,
    whose universe stands for its target's; methods; a last-typed premise."""

    arity: int
    rules: tuple = (None, None)     # the rule each member cites, fibrant first
    strict: bool = True             # has a strict member
    check_only: bool = False        # typed only against a known type
    schema: str = ""                # an eliminator's type, as above
    refusal: str = ""               # what a major premise typed first must be
    hint: str = "instead"           # how "use the strict member" ends


_FAMILIES = {
    "Sum": _Family(2),
    "inl": _Family(1, check_only=True),
    "inr": _Family(1, check_only=True),
    "refl": _Family(1, ("INTRO-=", "INTRO-=s")),
    "J": _Family(3, ("ELIM-=", "ELIM-=s"), schema=(
        "Pi (A : U{s} 0) (a b : A) (p : a ={s} b) "
        "(P : Pi (y : A), a ={s} y -> U{s} 0) (z : P a (refl{S} a)), P b p"),
        refusal="a {level} equality; the scrutinee has a different type",
        hint="for strict motives"),
    "indNat": _Family(4, ("ELIM-NAT", "ELIM-NATS"), schema=(
        "Pi (P : Nat{S} -> U{s} 0) (z : P zero{S}) "
        "(s : Pi (m : Nat{S}), P m -> P (succ{S} m)) (n : Nat{S}), P n")),
    "indEmpty": _Family(2, ("ELIM-0", "ELIM-0S"), schema=(
        "Pi (P : Empty{S} -> U{s} 0) (e : Empty{S}), P e")),
    "indSum": _Family(4, ("ELIM-+", "ELIM-+S"), schema=(
        "Pi (A B : U{s} 0) (x : Sum{S} A B) (P : Sum{S} A B -> U{s} 0) "
        "(f : Pi (a : A), P (inl{S} a)) (g : Pi (b : B), P (inr{S} b)), P x"),
        refusal="a Sum{S} value"),
    "pair": _Family(2, strict=False, check_only=True),
    "fst": _Family(1, strict=False),
    "snd": _Family(1, strict=False),
}


def _at_level(family: str, strict: bool) -> str:
    """The name of a family's member: the strict one adds `S`, `J`'s `s`."""
    return family + ("s" if family == "J" else "S") * strict


# spine constant -> (family, strict)
_SPINE = {_at_level(f, s): (f, s) for f, fam in _FAMILIES.items()
          for s in ((False, True) if fam.strict else (False,))}
_CHECK_ONLY = {n: f for n, f in _SPINE.items() if _FAMILIES[f[0]].check_only}


class _Iota(NamedTuple):
    """An eliminator's ι rule on a constructor `c` with `arity` arguments."""

    arity: int
    reduct: int                 # the eliminator's argument that is the reduct
    component: bool = False     # ... or, for a projection, `c`'s argument
    applied: bool = False       # the reduct takes `c`'s arguments,
    recursive: bool = False     # then the eliminator's value at the last one


def _schema(fam: _Family, strict: bool) -> tuple:
    """`fam`'s schema at a level, parsed; whether its codomain names a
    parameter; its refusal; its parts: the binder types before `P`, those
    of `P`'s own telescope, those after `P`, and the codomain; its arity
    with the ι rules read off its methods: the i-th binder after `P` whose
    type ends in `P … (c xs)` is the rule on `c`, whose reduct is argument
    i, applied to `xs` if the method binds any variable, then to the
    recursive call if one of them is typed `P x`."""
    s = dict(S="S" * strict, s="s" * strict,
             level=("fibrant", "strict")[strict])
    ty = t = parse_term(fam.schema.format(**s), "<kernel>")
    doms, rules, i = [], {}, 0      # i: the binders from the motive on
    while type(t) is Pi:
        m, own = t.dom, []
        while type(m) is Pi:
            own.append(m.dom)
            m = m.cod
        if i and spine(m)[0] == var(i - 1 + len(own)):     # P … (c xs)
            c, cs = spine(m.arg)
            rules[c.name] = _Iota(len(cs), i, applied=bool(own), recursive=any(
                type(d) is App and d.fn == var(i - 1 + j)
                for j, d in enumerate(own)))
        if t.name == "P":
            motive, p = own, len(doms)
        doms.append(t.dom)
        i += i > 0 or t.name == "P"
        t = t.cod
    reads = any(type(u) is Var and u.idx - d > i for u, d in _nodes(t))
    return (ty, reads, fam.refusal.format(**s), doms[:p], motive,
            doms[p + 1:], t, (fam.arity, rules))


_ELIM_TYPES = {n: _schema(_FAMILIES[f], s) for n, (f, s) in _SPINE.items()
               if _FAMILIES[f].schema}
# the heads ι reduces -> (their arity, {constructor of their level: rule});
# an eliminator's major premise is the last of its arguments
_IOTA = {"fst": (1, {"pair": _Iota(2, 0, component=True)}),
         "snd": (1, {"pair": _Iota(2, 1, component=True)}),
         **{n: e[-1] for n, e in _ELIM_TYPES.items() if e[-1][1]}}


def _beta(lam: Lam, args: Sequence[Term]) -> tuple[Term, Sequence[Term]]:
    """One β step on a whole spine: the body under `lam`'s leading lambdas,
    one per argument as far as they go, with those arguments substituted in
    one walk, and the arguments left over."""
    body, n = lam.body, 1
    while n < len(args) and type(body) is Lam:
        body, n = body.body, n + 1
    return subst(body, args[:n]), args[n:]


def _read(pattern: Term, t: Term, vals: list) -> bool:
    """Whether `t` is `pattern`, a term under the binders of `vals`, with
    each variable of `pattern` read into `vals` as the subterm in its place."""
    k = type(pattern)
    if k is Var:
        vals[-1 - pattern.idx] = t
        return True
    if k is App:
        return (type(t) is App and _read(pattern.fn, t.fn, vals)
                and _read(pattern.arg, t.arg, vals))
    if k is Eq:
        return (type(t) is Eq and pattern.strict == t.strict
                and _read(pattern.lhs, t.lhs, vals)
                and _read(pattern.rhs, t.rhs, vals))
    return pattern == t


def _instantiate(t: Term, vals: Sequence[Term], depth: int = 0) -> Term:
    """`subst(t, vals, depth)` on a part `t` of a schema, hereditarily: a
    lambda put in at a head, the motive, is applied by β on the spot, so
    `P zero` at the motive `fun n => n = n` is `zero = zero`."""
    k = type(t)
    if k is App:
        args = []
        while type(t) is App:
            args.append(_instantiate(t.arg, vals, depth))
            t = t.fn
        head = _instantiate(t, vals, depth)
        args.reverse()
        while args and type(head) is Lam:
            head, args = _beta(head, args)
        return mk_app(head, *args)
    if k is Var:
        if t.idx < depth:
            return t
        v = vals[depth - 1 - t.idx]
        return shift(v, depth) if depth else v
    if k is Pi:
        return Pi(t.name, _instantiate(t.dom, vals, depth),
                  _instantiate(t.cod, vals, depth + 1))
    if k is Eq:
        return Eq(t.strict, _instantiate(t.lhs, vals, depth),
                  _instantiate(t.rhs, vals, depth))
    return t                    # a constant or a universe


# The type of each built-in that is not a spine constant, in surface syntax.
_CONST_TYPES = {name: parse_term(ty, "<kernel>") for name, ty in {
    "Unit": "U 0", "star": "Unit",
    "Empty": "U 0", "EmptyS": "Us 0",
    "Nat": "U 0", "NatS": "Us 0",
    "zero": "Nat", "succ": "Nat -> Nat",
    "zeroS": "NatS", "succS": "NatS -> NatS",
    "uip": "Pi (A : Us 0) (a b : A) (p q : a =s b), p =s q",
    "funextS": "Pi (A : Us 0) (B : A -> Us 0) (f g : Pi (x : A), B x) "
               "(h : Pi (x : A), f x =s g x), f =s g",
}.items()}


# The unary constants `c : X -> X` over a built-in type `X` (`succ`, `succS`),
# with their types: `infer` walks a tower of their applications in one loop.
_TOWERS = {name: ty for name, ty in _CONST_TYPES.items()
           if type(ty) is Pi and type(ty.dom) is Const and ty.dom == ty.cod}
_AXIOMS = {"uip": "UIP", "funextS": "FUNEXT"}     # the rule each records


class Checker:
    """Type checker over an immutable-per-declaration environment."""

    def __init__(self, env: Optional[dict[str, EnvEntry]] = None,
                 options: Optional[KernelOptions] = None):
        self.env: dict[str, EnvEntry] = dict(env or {})
        self.options = options = options or _DEFAULT_OPTIONS
        # the tables the rules read: the omitted constants are in none, and
        # without `js_beta` `Js` has no ι rule
        omit = options.omit_consts
        tables = _CONST_TYPES, _SPINE, _TOWERS, _CHECK_ONLY
        self._closed, self._spine, self._towers, self._check_only = (
            [{k: v for k, v in t.items() if k not in omit} for t in tables]
            if omit else tables)
        self._iota_rules = _IOTA if options.js_beta else {
            k: v for k, v in _IOTA.items() if k != "Js"}
        self.decl_rules: set[str] = set()
        self._checked = False     # re-typing terms the kernel has checked
        self._projected: dict[tuple, tuple] = {}

    def _on_checked(self, fn, *args):
        """`fn(*args)` on terms the kernel has already checked, in Lean 4's
        `infer_only` mode: `infer` computes the type and checks nothing.
        The application rule checks no argument against its domain, `Eq`
        no right side, an annotation is trusted, an eliminator types no
        motive, base or branch (its rule is still recorded), a numeral
        compares no levels, and a lambda redex reduces without typing its
        argument.  The type is the one a full check computes; a rule that
        only a skipped check would record, such as `FIB-PRE` from a
        conversion, is not recorded again."""
        outer, self._checked = self._checked, True
        try:
            return fn(*args)
        finally:
            self._checked = outer

    def _show(self, ctx: list[Term], t: Term) -> str:
        """Print `t` with a name for each variable of `ctx`, outermost
        first: `x0`, `x1`, ..., skipping each name that a global of the
        checker or a built-in holds, so that no variable prints as one."""
        names, j = [], 0
        while len(names) < len(ctx):
            x = f"x{j}"
            if x not in self.env and x not in BUILTIN_CONSTS:
                names.append(x)
            j += 1
        return print_term(t, names)

    def _use(self, rule: str):
        self.decl_rules.add(rule)

    # -- weak head normalization ------------------------------------------

    def whnf(self, t: Term) -> Term:
        """Weak head normal form, in one loop: an application head puts its
        arguments in front, and δ, an annotation, β and ι replace the head.
        `built` is `mk_app(head, *args)`, if at hand.

        Only an eliminator head is asked for ι: ι has no rule for any other
        constant, so applied to arguments it is already normal.  `prefix`
        is the node of the head applied to all its arguments but the last,
        if at hand: the arguments came from splitting that one node, with
        none pending and no reduction since (δ, an annotation, β and ι each
        drop it, as each changes the head or the arguments).  `_iota`
        builds the recursive call of `indNat(S)` on it, so every level down
        a numeral shares one prefix.

        A constructor application, an `App` whose function is a constant
        that is not an eliminator (`succ m`, `inl a`, `refl a`), is returned
        as it stands: the loop would split it, stop at that head with the
        one argument and return the node it was given."""
        elims = self._iota_rules    # the heads ι reduces
        if type(t) is App and type(t.fn) is Const and t.fn.name not in elims:
            return t
        head, args, built, prefix = t, (), t, None
        while True:
            k = type(head)
            if k is App:
                prefix = None if args else head.fn
                head, front = spine(head)
                if args:
                    front += args
                args = front
                continue
            if k is Const and args:
                if head.name not in elims:
                    break
                red = self._iota(head, args, prefix)
                if red is None:
                    break
                head, args = red
            elif k is Lam and args:
                head, args = _beta(head, args)
            elif k is Ref:
                entry = self.env.get(head.name)
                if entry is None or entry.value is None:
                    break
                head = entry.value
            elif k is Ann:
                head = head.tm
            else:
                break
            built = None if args else head
            prefix = None
        return mk_app(head, *args) if built is None else built

    def _iota(self, head: Term, args: list[Term],
              prefix: Optional[Term] = None) -> Optional[tuple]:
        """Computation rules for eliminator spines, read off its ι table: the
        reduct's head and arguments, or None if stuck.  `prefix`, if given,
        is the node of `head` applied to all of `args` but the last.  When
        `args` are exactly the family's arity, the recursive call on a
        constructor `c m` (`succ m`) is `App(prefix, m)`: `head` applied to
        the same arguments with `m` last, without building them again.

        A major premise that is a constructor application (`succ m`: an
        `App` of a constant that is not an eliminator) or a bare constant
        (`zero`) is read as it stands, as `whnf` would return it, with no
        `whnf` and no `spine`."""
        elim = self._iota_rules.get(head.name) if type(head) is Const else None
        if elim is None or len(args) < elim[0]:
            return None
        arity, rules = elim
        major = args[arity - 1]
        k = type(major)
        if (k is App and type(major.fn) is Const
                and major.fn.name not in self._iota_rules):
            c, c_args = major.fn.name, [major.arg]
        elif k is Const:
            c, c_args = major.name, []
        else:
            c, c_args = spine(self.whnf(major))
            c = c.name if isinstance(c, Const) else None
        rule = rules.get(c)
        if rule is None or len(c_args) != rule.arity:
            return None
        if rule.component:
            return c_args[rule.reduct], args[arity:]
        if not rule.applied:
            c_args = []
        elif rule.recursive:
            m = c_args[-1]
            c_args.append(App(prefix, m) if prefix is not None
                          and len(args) == arity
                          else mk_app(head, *args[:arity - 1], m))
        return args[rule.reduct], c_args + args[arity:]

    # -- conversion --------------------------------------------------------

    def convert(self, t: Term, u: Term, leq: bool = False) -> bool:
        """`t` and `u` are convertible, or under `leq` `t` is a subtype of
        `u`: universes by `sort_leq`, covariantly in the codomain of Pi and
        the second component of Sigma, everything else by conversion.

        The pairs that must convert wait on a stack and are taken depth
        first, left to right.  A pair converts if it is alpha-equal before
        or after weak-head normalization; a pair that `_differ` found
        unequal on its way down is not walked again.  Two applications of
        one function node, such as `succ a` and `succ b`, push only their
        last arguments: splitting both spines would push the identical
        node at every other position, and for a `pair` head Σ-η compares
        the same two components."""
        unequal = {}
        todo = [(t, u, leq)]
        while todo:
            t, u, leq = todo.pop()
            if t is u:
                continue
            known = unequal.get(id(t))
            if ((known is None or known[1] is not u)
                    and not _differ(t, u, unequal)):
                continue
            tw, uw = self.whnf(t), self.whnf(u)
            if tw is not t or uw is not u:
                t, u = tw, uw
                if t is u or not _differ(t, u, unequal):
                    continue
            k = type(t)
            if k is App and type(u) is App and t.fn is u.fn:
                todo.append((t.arg, u.arg, False))
                continue
            if k is Lam or type(u) is Lam:
                # eta for Pi
                tb = t.body if k is Lam else App(shift(t, 1), var(0))
                ub = u.body if type(u) is Lam else App(shift(u, 1), var(0))
                todo.append((tb, ub, False))
                continue
            if k is App or type(u) is App:
                th, ta = spine(t)
                uh, ua = spine(u)
                # eta for Sigma
                if type(th) is Const and th.name == "pair" and len(ta) == 2:
                    todo += ((ta[1], App(CONSTS["snd"], u), False),
                             (ta[0], App(CONSTS["fst"], u), False))
                    continue
                if type(uh) is Const and uh.name == "pair" and len(ua) == 2:
                    todo += ((App(CONSTS["snd"], t), ua[1], False),
                             (App(CONSTS["fst"], t), ua[0], False))
                    continue
            if k is not type(u):
                return False
            if k is App:
                if len(ta) != len(ua):
                    return False
                for i in range(len(ta) - 1, -1, -1):
                    todo.append((ta[i], ua[i], False))
                todo.append((th, uh, False))
            elif k is Eq:
                if t.strict != u.strict:
                    return False
                todo += ((t.rhs, u.rhs, False), (t.lhs, u.lhs, False))
            elif k is Univ:
                if not (leq and sort_leq(t, u)):
                    return False
                if t.fib and not u.fib:
                    self._use("FIB-PRE")
            elif k is Pi or k is Sig:
                todo += ((t.cod, u.cod, leq), (t.dom, u.dom, False))
            elif k is Var:
                if t.idx != u.idx:
                    return False
            elif k is Const or k is Ref:
                if t.name != u.name:
                    return False
            else:
                return False
        return True

    # -- sorts -------------------------------------------------------------

    def infer_sort(self, ctx: list[Term], ty: Term) -> Univ:
        """The universe `ty` lives in.  A type the kernel has not checked is
        checked before it is reduced, since the reduction may drop parts of
        it, and its reduct is typed in infer-only mode."""
        t = self.whnf(ty)
        if t is not ty and not self._checked:
            self.infer(ctx, ty)
            uni = self._on_checked(self.infer, ctx, t)
        else:
            uni = self.infer(ctx, t)
        if not isinstance(uni, Univ):   # a type former's sort is a Univ already
            uni = self.whnf(uni)
            if not isinstance(uni, Univ):
                raise TypeError_("SORT", "not a type (its type is not a universe)")
        return uni

    def _mismatch(self, ctx: list[Term], term: Term, got: Term,
                  want: Term) -> TypeError_:
        """The error for `term`, whose type `got` is not `<= want`."""
        rule = "CONV"
        g, w = self.whnf(got), self.whnf(want)
        if isinstance(g, Univ) and isinstance(w, Univ) and not g.fib and w.fib:
            # a pretype was asserted fibrant: blame the relevant type former
            tw = self.whnf(term) if not isinstance(term, (Var, Ref)) else term
            if isinstance(tw, Pi):
                rule = "PI-FIB"
            elif isinstance(tw, Sig):
                rule = "SIGMA-FIB"
            elif isinstance(tw, Eq) and tw.strict:
                rule = "FORM-=s"
            else:
                rule = "FIB-PRE"
        return TypeError_(
            rule, f"type mismatch: inferred `{self._show(ctx, got)}` does "
                  f"not subsume expected `{self._show(ctx, w)}`")

    # -- inference ---------------------------------------------------------

    def infer(self, ctx: list[Term], t: Term) -> Term:
        k = type(t)
        if k is Var:
            return shift(ctx[t.idx], t.idx + 1)
        if k is App:
            if type(t.fn) is Const and t.fn.name in self._towers:
                return self._infer_tower(ctx, t)
            head, args = spine(t)
            if isinstance(head, Const) and head.name in self._spine:
                fty, args = self._infer_spine(ctx, head.name, args)
            elif isinstance(head, Lam):
                # a redex: type the arguments β takes, then its reduct once
                red, rest = _beta(head, args)
                if not self._checked:
                    for a in args[:len(args) - len(rest)]:
                        self.infer(ctx, a)
                return self.infer(ctx, mk_app(red, *rest))
            else:
                fty = self.infer(ctx, head)
            checked = self._checked
            # the telescope is instantiated lazily, as Lean 4's `infer_app`:
            # `fty` sits under the binders of the pending `args[j:i]`, which
            # are substituted into each domain, before a `whnf`, and once
            # into the last codomain
            j = 0
            for i, a in enumerate(args):
                if type(fty) is not Pi:
                    if i > j:
                        fty, j = subst(fty, args[j:i]), i
                    fty = self.whnf(fty)
                    if type(fty) is not Pi:
                        raise TypeError_("APP", "applied a non-function")
                if not checked:
                    self.check(ctx, a,
                               subst(fty.dom, args[j:i]) if i > j else fty.dom)
                fty = fty.cod
            return subst(fty, args[j:]) if j < len(args) else fty
        if k is Pi or k is Sig:
            sa = self.infer_sort(ctx, t.dom)
            s = sort_lub(sa, self.infer_sort([t.dom] + ctx, t.cod))
            if s.fib:
                self._use("PI-FIB" if k is Pi else "SIGMA-FIB")
            return s
        if k is Const:
            name = t.name
            if name in self._closed:
                if name in _AXIOMS:
                    self._use(_AXIOMS[name])
                return self._closed[name]
            if name not in self._spine:     # taken out by the options
                raise TypeError_("CONST", f"constant {name!r} is not available")
            raise TypeError_("ARITY", f"constant {name!r} must be applied to "
                             f"{_FAMILIES[_SPINE[name][0]].arity} arguments")
        if k is Eq:
            carrier = self.infer(ctx, t.lhs)
            sc = self._on_checked(self.infer_sort, ctx, carrier)
            if not self._checked:
                self.check(ctx, t.rhs, carrier)
            if t.strict:
                self._use("FORM-=s")
                return univ(False, sc.level)
            if not sc.fib:
                raise TypeError_(
                    "INTRO-=",
                    "fibrant equality requires a fibrant carrier, "
                    f"but the carrier has sort {_sort(sc)}")
            self._use("INTRO-=")
            return sc
        if k is Univ:
            return univ(t.fib, t.level + 1)
        if k is Ref:
            entry = self.env.get(t.name)
            if entry is None:
                raise TypeError_("SCOPE", f"unknown global {t.name!r}")
            return entry.ty
        if k is Ann:
            if not self._checked:
                self.infer_sort(ctx, t.ty)     # ty must be a type
                self.check(ctx, t.tm, t.ty)
            return t.ty
        if k is Lam:
            raise TypeError_("INFER", "cannot infer the type of a bare lambda; "
                                      "annotate it with `(t : T)`")
        raise AssertionError(t)

    def _infer_tower(self, ctx: list[Term], t: Term) -> Term:
        """The type of a tower of applications of constants in `_TOWERS`,
        in one loop.  The obligations come in the application rule's
        order: each constant from the outside in, then the innermost
        argument, then each level against the domain of the next one out.
        A checked tower has one level throughout, its outermost one."""
        towers = self._towers
        if self._checked:
            return towers[t.fn.name].cod
        tower = []
        while type(t) is App and type(t.fn) is Const and t.fn.name in towers:
            tower.append(t)
            t = t.arg
        ty = towers[tower[-1].fn.name]
        self.check(ctx, t, ty.dom)
        for i in range(len(tower) - 1, 0, -1):
            outer = towers[tower[i - 1].fn.name]
            if outer is not ty:     # a constant's codomain is its domain
                if not self.convert(ty.cod, outer.dom, True):
                    raise self._mismatch(ctx, tower[i], ty.cod, outer.dom)
            ty = outer
        return ty.cod

    def _elim_motive(self, ctx: list[Term], name: str, motive: Term,
                     doms: list[Term]):
        """Type the motive of the eliminator `name` over the telescope `doms`
        against `Pi doms -> U/Us level` once its target universe is known (a
        lambda motive's type cannot be inferred): the target is the type of
        the motive's body, or of the motive applied to the telescope's
        variables, after weak-head normalization.  A lambda motive whose
        leading lambdas cover the telescope and whose body is weak-head
        normal was typed whole by that and is not checked again.  A fibrant
        eliminator needs a fibrant target."""
        family, strict = _SPINE[name]
        fam, n = _FAMILIES[family], len(doms)
        body, m = motive, 0
        while m < n and type(body) is Lam:
            body, m = body.body, m + 1
        if m < n:
            body = mk_app(shift(motive, n), *(var(n - 1 - i) for i in range(n)))
        reduct = self.whnf(body)
        uni = self.whnf(self.infer(doms[::-1] + ctx, reduct))
        if not isinstance(uni, Univ):
            raise TypeError_("MOTIVE", "eliminator motive must target a universe")
        if m < n or reduct is not body:
            expected = uni
            for d in reversed(doms):
                expected = Pi("_", d, expected)
            self.check(ctx, motive, expected)
        if not strict and not uni.fib:
            raise TypeError_(
                fam.rules[strict],
                f"{name} requires a fibrant motive; this motive lands in sort "
                f"{_sort(uni)} (use {_at_level(family, True)} {fam.hint})")

    def _projected_type(self, ctx: list[Term], t: Term) -> Term:
        """The weak-head normal type of `t`, the argument of a projection.
        For a chain of projections ending in a variable it is computed once
        per declaration, keyed by the variable's context entry (kept alive
        by the memo), its index and the path."""
        path, v = (), t
        while (type(v) is App and type(v.fn) is Const
               and v.fn.name in ("fst", "snd")):
            path += (v.fn.name,)
            v = v.arg
        if type(v) is not Var:
            return self.whnf(self.infer(ctx, t))
        entry = ctx[v.idx]
        key = (id(entry), v.idx, path)
        hit = self._projected.get(key)
        if hit is None:
            hit = self._projected[key] = (entry, self.whnf(self.infer(ctx, t)))
        return hit[1]

    def _infer_spine(self, ctx: list[Term], name: str,
                     args: list[Term]) -> tuple[Term, list[Term]]:
        """Type `name` applied to its first `arity` arguments; also return the
        arguments left over.  On a checked term only the type is computed,
        and the rule the family cites is recorded."""
        family, strict = _SPINE[name]
        fam = _FAMILIES[family]
        arity, rules = fam.arity, fam.rules
        if fam.check_only:
            raise TypeError_("INFER", f"cannot infer the type of {name!r}; "
                                      "it must appear in a checked position")
        if len(args) < arity:
            raise TypeError_("ARITY", f"{name!r} expects {arity} arguments, "
                                      f"got {len(args)}")
        args, extra = args[:arity], args[arity:]
        checked = self._checked

        match family:
            case "Sum":
                sl, sr = (self.infer_sort(ctx, a) for a in args)
                for s, side in ((sl, "left"), (sr, "right")):
                    if not (strict or s.fib):
                        raise TypeError_(
                            "FORM-+",
                            f"fibrant sum requires fibrant summands; {side} "
                            f"summand has sort {_sort(s)}")
                if not strict:
                    self._use("FORM-+")
                ty = univ(not strict, max(sl.level, sr.level))
            case "fst" | "snd":
                pty = self._projected_type(ctx, args[0])
                if not isinstance(pty, Sig):
                    raise TypeError_("PROJ", "projection from a non-pair")
                ty = (pty.dom if family == "fst"
                      else subst(pty.cod, (App(CONSTS["fst"], args[0]),)))
            case "refl":
                a = args[0]
                if not checked:
                    sc = self._on_checked(self.infer_sort, ctx,
                                          self.infer(ctx, a))
                    if not strict and not sc.fib:
                        raise TypeError_(
                            "INTRO-=",
                            "refl needs a fibrant carrier, got sort "
                            f"{_sort(sc)}; use reflS for pretypes")
                ty = Eq(strict, a, a)
            case _:     # an eliminator, typed from its schema's parts
                _, reads, refusal, first, motive, methods, cod, _ = (
                    _ELIM_TYPES[name])
                vals = [None] * (len(first) - 1)
                if first:
                    if reads or not checked:
                        mty = self.whnf(self.infer(ctx, args[-1]))
                        if not _read(first[-1], mty, vals):
                            raise TypeError_(rules[strict],
                                             f"{name} eliminates {refusal}")
                    for j, dom in enumerate(() if checked else first[:-1]):
                        if type(dom) is Var and vals[j - 1 - dom.idx] is None:
                            vals[j - 1 - dom.idx] = self._on_checked(
                                self.infer, ctx, vals[j])   # unread: j's type
                    vals.append(args[-1])
                if not checked:
                    self._elim_motive(ctx, name, args[0], [
                        _instantiate(d, vals, j) for j, d in enumerate(motive)])
                vals.append(args[0])
                for a, dom in zip(args[1:], methods):   # a last major, too
                    if not checked:
                        self.check(ctx, a, _instantiate(dom, vals))
                    vals.append(a)
                ty = _instantiate(cod, vals)
        if rules[0]:
            self._use(rules[strict])
        return ty, extra

    # -- checking ----------------------------------------------------------

    def check(self, ctx: list[Term], t: Term, ty: Term) -> None:
        k = type(t)
        if k is App or k is Const:
            head, args = spine(t)
            if isinstance(head, Const) and head.name in self._check_only:
                return self._check_intro(ctx, head.name, args, self.whnf(ty))
        elif k is Lam:
            tyw = self.whnf(ty)
            if not isinstance(tyw, Pi):
                raise TypeError_(
                    "CONV", f"lambda checked against non-function type "
                            f"`{self._show(ctx, tyw)}`")
            self.check([tyw.dom] + ctx, t.body, tyw.cod)
            return
        got = self.infer(ctx, t)
        if not self.convert(got, ty, True):
            raise self._mismatch(ctx, t, got, ty)

    def _check_intro(self, ctx: list[Term], name: str, args: list[Term],
                     tyw: Term) -> None:
        """Check-mode rules for pair, inl and inr."""
        family, strict = self._check_only[name]
        if family == "pair" and len(args) == 2 and isinstance(tyw, Sig):
            self.check(ctx, args[0], tyw.dom)
            self.check(ctx, args[1], subst(tyw.cod, (args[0],)))
            return
        if family in ("inl", "inr") and len(args) == 1:
            h, a = spine(tyw)
            if (isinstance(h, Const) and h.name == _at_level("Sum", strict)
                    and len(a) == 2):
                self._on_checked(self.infer_sort, ctx, tyw)   # records FORM-+
                self.check(ctx, args[0], a[family == "inr"])
                return
        raise TypeError_(
            "CONV", f"{name!r} checked against an incompatible type")

    # -- declarations ------------------------------------------------------

    def check_decl(self, d: Decl) -> dict:
        """Check one declaration, extending the environment for def/axiom,
        and return its record.  A `fail` declaration passes when a rule
        rejects it, the rule it expects if it names one; running out of stack
        is never an expected rejection."""
        record = {"kind": d.kind, "name": d.name, "line": d.line, "col": d.col}
        self.decl_rules = set()
        self._projected = {}
        try:
            self.infer_sort([], d.ty)
            if d.kind != "axiom":
                self.check([], d.body, d.ty)
        except RecursionError:
            return record | {"status": "fail", "rule": "DEPTH",
                             "message": "terms nest too deeply to check"}
        except TypeError_ as e:
            if d.kind != "fail":
                return record | {"status": "fail", "rule": e.rule,
                                 "message": e.msg}
            if d.expect_rule and d.expect_rule != e.rule:
                return record | {"status": "fail", "rule": e.rule,
                                 "message": f"expected rule {d.expect_rule}, "
                                            f"but {e.rule} fired: {e.msg}"}
            return record | {"status": "pass", "rule": e.rule, "message": e.msg}
        if d.kind == "fail":
            return record | {"status": "fail", "message":
                             "declaration was expected to be rejected but checked"}
        if d.kind in ("def", "axiom"):
            self.env[d.name] = EnvEntry(d.ty, d.body)
        return record | {"status": "pass", "rules": sorted(self.decl_rules)}


@dataclass
class Report:
    """The records of one module's declarations, checked in order, and
    the error that stopped it, if any."""

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
    """Check declarations in order; stop at the first that fails."""
    records = []
    for d in mod.decls:
        rec = checker.check_decl(d)
        records.append(rec)
        if rec["status"] == "fail":
            return Report(mod.path, records,
                          error=f"{mod.path}:{d.line}:{d.col}: "
                                f"[{rec.get('rule', 'FAIL')}] {rec['message']}")
    return Report(mod.path, records)
