"""Test oracles: textbook constructions that the package itself no longer
runs, kept to check what it does run.

- `validate_category_exhaustively` and `validate_diagram_exhaustively`
  are the validators as they were before they skipped what the unit laws
  settle: associativity on every composable triple, functoriality on
  every composite.  `sample_inverse_category` is the random category
  sampler as it was before it rejected a draw from its paths: it builds
  each draw whole, then rejects it.  `tests/test_categories.py` checks
  that the package gives their verdicts, messages and categories;
- `product_diagram` and `representable` build the textbook exponential,
  Nat(F x y_d, G), for `tests/test_categories.py::reference_exponential`;
  they and `pullback_diagram` are checked in `tests/test_categories.py`,
  and their tables are pinned by the diagram golden
  (`tests/test_diagram_golden.py`);
- `sieve_of` builds the sieve of a member family once it has checked the
  family member by member, and `generated_sieve` the smallest sieve that
  holds given generators, through it: the sieves of
  `tests/test_simplex.py`, which also checks every sieve the package
  builds with `sieve_of`;
- `print_module` prints a parsed module back as source, for the round
  trips of `tests/test_syntax.py`;
- `eager_print_term` is the printer as it was before its naming walk ran
  lazily: one `_nodes` walk of every term, binders or none.
  `tests/test_syntax.py` checks that `syntax.print_term` gives its text;
- `findall_tokenize` is the lexer as it was before it split the source:
  one `findall` of (skipped text, token) pairs, read into columns.
  `tests/test_syntax.py` checks that `syntax.tokenize` gives its columns,
  or its error;
- `decl_refs` lists a declaration's names not bound by a binder, type
  before body, each at its line and column, placed by the tokens the
  declaration was read from: the parse golden's digests, the corpus
  tests' dependency scan and the positions tests read it;
- `eager_refs` parses and resolves a source with every position worked
  out as the parser did before it read positions off the split's pieces:
  each token's offset from `findall_tokenize`, its line by bisection in
  the starts of the lines, every free name placed as it is parsed.
  `tests/test_syntax.py` checks that `decl_refs`, the declarations'
  positions and every error's position are these.  It never runs
  `Tokens.place`, so the placer is not compared with itself.
- `CaseChecker` is the kernel with `J`, `indNat`, `indEmpty` and `indSum`
  typed by the hand-written case of each family that the kernel ran
  before it typed every eliminator from its schema.  `tests/test_kernel.py`
  checks that both give the same records and infer the same types.

Each builds through the package's own code (`categories.tabulate`,
`categories._compose_all`, `simplex.Sieve`, `syntax.print_term`,
`syntax._nodes`, `syntax.Parser`, `kernel.Checker`), so a change there
shows here too.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from itertools import accumulate, chain, islice
from operator import itemgetter
from types import SimpleNamespace
from typing import Iterable

from tltt.categories import (CategoryError, DiagramMap, FinCat, FinInvCat,
                             SetDiagram, _compose_all, tabulate)
from tltt.kernel import (_FAMILIES, _SPINE, Checker, TypeError_, _at_level,
                         _beta)
from tltt.simplex import Sieve
from tltt.syntax import (
    BUILTIN_CONSTS, CONSTS, KEYWORDS, Ann, App, Const, Decl, Eq, Lam, Module,
    Parser, Pi, Ref, ResolveError, Sig, SyntaxError_, Term, Tokens, Univ, Var,
    _PREC_APP, _PREC_ARROW, _PREC_ATOM, _PREC_EQ, _PREC_TERM, _fresh, _kind,
    _nodes, mk_app, print_term, shift, spine, var,
)


# ---------------------------------------------------------------------------
# Products, representables and pullbacks of diagrams
# ---------------------------------------------------------------------------

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
# The validators on every case, and the sampler that builds to reject
# ---------------------------------------------------------------------------

def validate_category_exhaustively(c: FinCat) -> None:
    """`FinCat.validate` as it was before it skipped what the unit laws
    settle: closure, units and associativity on every composable pair and
    triple, identities included."""
    seen = set()
    for (x, y), arrows in c.homs.items():
        if x not in c.objects or y not in c.objects:
            raise CategoryError(f"hom set over unknown objects ({x}, {y})")
        for a in arrows:
            if a in seen:
                raise CategoryError(f"duplicate arrow id {a!r}")
            seen.add(a)
    for x in c.objects:
        i = c.identity.get(x)
        if i is None or i not in c.hom(x, x):
            raise CategoryError(f"missing identity for object {x!r}")
    for (g, f) in c.compose:
        if g in seen and f in seen and c.dst[f] != c.src[g]:
            raise CategoryError(
                f"compose defined for non-composable ({g!r}, {f!r})")
    all_out = {x: (c.identity[x],) + c.out_of(x) for x in c.objects}
    for f in c.arrows():
        for g in all_out.get(c.dst[f], ()):
            h = c.compose.get((g, f))
            if h is None:
                raise CategoryError(f"compose missing for ({g!r}, {f!r})")
            if h not in c.hom(c.src[f], c.dst[g]):
                raise CategoryError(
                    f"compose ({g!r}, {f!r}) = {h!r} lands outside "
                    f"hom({c.src[f]!r}, {c.dst[g]!r})")
    for f in c.arrows():
        if c.compose[(c.identity[c.dst[f]], f)] != f:
            raise CategoryError(f"left unit law fails at {f!r}")
        if c.compose[(f, c.identity[c.src[f]])] != f:
            raise CategoryError(f"right unit law fails at {f!r}")
    for f in c.arrows():
        for g in all_out.get(c.dst[f], ()):
            gf = c.compose[(g, f)]
            for h in all_out.get(c.dst[g], ()):
                if c.compose[(h, gf)] != c.compose[(c.compose[(h, g)], f)]:
                    raise CategoryError(
                        f"associativity fails on ({h!r}, {g!r}, {f!r})")


def validate_diagram_exhaustively(x: SetDiagram) -> None:
    """`SetDiagram.validate` as it was before it skipped the unit laws:
    functoriality on every entry of the composition table."""
    c = x.cat
    for o in c.objects:
        if o not in x.values:
            raise CategoryError(f"missing value set at {o!r}")
    for a in c.arrows():
        s, d = c.src[a], c.dst[a]
        if s not in c.objects or d not in c.objects:
            raise CategoryError(
                f"arrow {a!r} from {s!r} to {d!r} names an undeclared object")
        fn = x.action.get(a)
        if fn is None:
            raise CategoryError(f"missing function for arrow {a!r}")
        for v in x.values[s]:
            if v not in fn or fn[v] not in x.values[d]:
                raise CategoryError(
                    f"function for {a!r} not total into the target on {v!r}")
    for o in c.objects:
        i = c.identity[o]
        for v in x.values[o]:
            if x.action[i][v] != v:
                raise CategoryError(f"identity at {o!r} acts nontrivially")
    for (g, f), h in c.compose.items():
        if g not in c.src or f not in c.src or h not in c.src:
            raise CategoryError(
                f"compose ({g!r}, {f!r}) = {h!r} names an unknown arrow")
        for v in x.values[c.src[f]]:
            if x.action[g][x.action[f][v]] != x.action[h][v]:
                raise CategoryError(
                    f"functoriality fails: {g!r} . {f!r} != {h!r} on {v!r}")


def sample_inverse_category(rng, max_objects: int = 5, max_rank: int = 3,
                            max_hom: int = 3) -> FinInvCat:
    """`random_inverse_category` as it was before it rejected a draw from
    its paths: each draw's free category is built whole (or refused at 65
    paths in a hom-set), then rejected if a hom-set is over ``max_hom``."""
    for _ in range(1000):
        n = rng.randint(1, max_objects)
        objects = tuple(f"o{i}" for i in range(n))
        rank = {o: rng.randint(0, max_rank) for o in objects}
        gens = []
        for x in objects:
            for y in objects:
                if rank[x] > rank[y]:
                    for _ in range(rng.randint(0, 2)):
                        gens.append((f"g{len(gens)}", x, y))
        cat = _built_free_category(objects, rank, gens)
        if cat is not None and all(len(v) <= max_hom
                                   for v in cat.homs.values()):
            return cat
    raise RuntimeError("failed to sample a small inverse category")


def _built_free_category(objects, rank, gens):
    paths: dict = {}      # (x, y) -> the paths of generator ids from x to y
    for x in objects:
        stack = [(x, ())]
        while stack:
            y, path = stack.pop()
            if path:
                paths.setdefault((x, y), []).append(path)
                if len(paths[(x, y)]) > 64:
                    return None
            for gid, s, d in gens:
                if s == y:
                    stack.append((d, path + (gid,)))
    identity = {x: ("id", x) for x in objects}
    homs = {}
    for x in objects:
        for y in objects:
            arrows = tuple(("p", p) for p in sorted(paths.get((x, y), [])))
            if x == y:
                arrows = (identity[x],) + arrows
            if arrows:
                homs[(x, y)] = arrows

    def concat(g, f):
        path = (f[1] if f[0] == "p" else ()) + (g[1] if g[0] == "p" else ())
        return ("p", path) if path else f
    return FinInvCat(objects, homs, _compose_all(homs, concat), identity,
                     rank=dict(rank))


# ---------------------------------------------------------------------------
# Sieves and modules
# ---------------------------------------------------------------------------

def sieve_of(n: int, members: Iterable[frozenset]) -> Sieve:
    """The sieve on [n] whose family is `members`, read once.  Scans over
    the members in their own order check that each is a subset of {0..n},
    then that each one's faces are members; the first fault is a
    `ValueError`."""
    members = tuple(members)
    family = frozenset(members)
    universe = frozenset(range(n + 1))
    for s in members:
        if not s <= universe:
            raise ValueError(f"member {sorted(s)} not a subset of [0,{n}]")
    for s in members:
        for x in s:
            if s - {x} not in family:
                raise ValueError(
                    f"not downward closed: {sorted(s)} present but "
                    f"{sorted(s - {x})} missing")
    return Sieve(n, sum(1 << sum(1 << i for i in s) for s in family))


def generated_sieve(n: int, gens: Iterable[Iterable[int]]) -> Sieve:
    """The smallest sieve containing every generator."""
    members = set()
    for g in gens:
        g = sorted(g)
        for r in range(len(g) + 1):
            members.update(frozenset(c) for c in itertools.combinations(g, r))
    return sieve_of(n, members)


def print_module(mod: Module) -> str:
    lines = []
    for d in mod.decls:
        if d.expect_rule:
            lines.append(f"--! expect: {d.expect_rule}")
        ty = print_term(d.ty)
        if d.kind == "def":
            lines.append(f"def {d.name} : {ty} := {print_term(d.body)}")
        elif d.kind == "axiom":
            lines.append(f"axiom {d.name} : {ty}")
        else:
            lines.append(f"{d.kind} {print_term(d.body)} : {ty}")
    return "\n".join(lines) + "\n"


def eager_print_term(t: Term, names: list[str] = ()) -> str:
    """`t` as source under the context `names`, its binders named from
    one walk of the whole term made before printing starts."""
    avoid, used, binders = set(BUILTIN_CONSTS), set(), []
    for u, d in _nodes(t):
        k = type(u)
        if k is Ref:
            avoid.add(u.name)
        elif k is Var and u.idx < d:
            used.add(binders[d - 1 - u.idx])
        elif k is Pi or k is Sig or k is Lam:
            binders[d:] = [id(u)]
    return _eager_print(t, list(names), avoid, used, _PREC_TERM)


def _eager_print(t: Term, ctx: list[str], avoid: set[str], used: set[int],
                 prec: int) -> str:
    k = type(t)
    if k is App:
        fns = []
        while type(t) is App:
            fns.append(_eager_print(t.fn, ctx, avoid, used, _PREC_APP))
            t = t.arg
        last = _eager_print(t, ctx, avoid, used, _PREC_ATOM)
        s = f"{' ('.join(fns)} {last}" + ")" * (len(fns) - 1)
        p = _PREC_APP
    elif k is Const or k is Ref:
        return t.name
    elif k is Var:
        if t.idx >= len(ctx):
            raise ValueError(
                f"variable {t.idx} has no name in a context of {len(ctx)}")
        return ctx[-1 - t.idx]
    elif k is Pi and id(t) not in used:
        s = (f"{_eager_print(t.dom, ctx, avoid, used, _PREC_EQ)} -> "
             f"{_eager_print(t.cod, ctx + ['_'], avoid, used, _PREC_ARROW)}")
        p = _PREC_ARROW
    elif k is Pi or k is Sig:
        x = _fresh(t.name, set(ctx) | avoid)
        s = (f"{k.__name__} ({x} : "
             f"{_eager_print(t.dom, ctx, avoid, used, _PREC_TERM)}), "
             f"{_eager_print(t.cod, ctx + [x], avoid, used, _PREC_TERM)}")
        p = _PREC_TERM
    elif k is Lam:
        inner = list(ctx)
        while type(t) is Lam:
            inner.append(_fresh(t.name, set(inner) | avoid))
            t = t.body
        s = (f"fun {' '.join(inner[len(ctx):])} => "
             f"{_eager_print(t, inner, avoid, used, _PREC_TERM)}")
        p = _PREC_TERM
    elif k is Eq:
        s = (f"{_eager_print(t.lhs, ctx, avoid, used, _PREC_APP)} "
             f"{'=s' if t.strict else '='} "
             f"{_eager_print(t.rhs, ctx, avoid, used, _PREC_APP)}")
        p = _PREC_EQ
    elif k is Univ:
        return f"{'U' if t.fib else 'Us'} {t.level}"
    elif k is Ann:
        return (f"({_eager_print(t.tm, ctx, avoid, used, _PREC_TERM)} : "
                f"{_eager_print(t.ty, ctx, avoid, used, _PREC_TERM)})")
    else:
        raise AssertionError(t)
    return f"({s})" if p < prec else s


# ---------------------------------------------------------------------------
# The lexer of one `findall`
# ---------------------------------------------------------------------------

# Tokens come as columns from one `findall`.  Each match is a pair: the
# blanks, newlines and ordinary `--` comments it skips, then one token, so the
# pairs tile the source.  `\Z` is the EOF token, the only empty text (matched
# twice after a skip).  A kind follows from the text: a keyword is a name.
# `=s` before a word character is `=` and a name; BAD is any other character.
# An EXPECT token's text is its whole comment.  Commonest tokens first.
_EXPECT = r"![^\S\n]*expect:[^\S\n]*\S"      # an EXPECT token after its `--`
_TOKEN_RE = re.compile(rf"""
    ( [ \t\r\n]* (?: --(?!{_EXPECT})[^\n]* [ \t\r\n]* )* )
    ( [A-Za-z_][A-Za-z0-9_']* | [()] | :=|=>|->|=s(?!\w)|[=,:] | [0-9]+
    | --{_EXPECT}[^\n]* | \Z | . )
""", re.VERBOSE)


def findall_tokenize(src: str, path: str = "<input>") -> SimpleNamespace:
    """The tokens of `src` as the columns `kinds`, `texts` and `offs`, with
    no Python step per token: only each distinct text is classified in
    Python."""
    pairs = _TOKEN_RE.findall(src)
    texts = list(map(itemgetter(1), pairs))
    del texts[texts.index("") + 1:]
    offs = list(islice(accumulate(map(len, chain.from_iterable(pairs)),
                                  initial=0), 1, 2 * len(texts), 2))
    kind_of = {text: _kind(text) for text in set(texts)}
    kinds = list(map(kind_of.__getitem__, texts))
    if "BAD" in kind_of.values():   # its line and column; only `\n` ends one
        off = offs[kinds.index("BAD")]
        raise SyntaxError_(f"unexpected character {src[off]!r}",
                           src.count("\n", 0, off) + 1,
                           off - src.rfind("\n", 0, off), path)
    return SimpleNamespace(kinds=kinds, texts=texts, offs=offs)


# ---------------------------------------------------------------------------
# Positions worked out eagerly
# ---------------------------------------------------------------------------

def decl_refs(d: Decl) -> list[tuple[str, int, int]]:
    """The names of `d` not bound by a binder, type before body, each at
    its line and column, as its tokens place them."""
    return [(d.tokens.texts[i], *d.tokens.place(i)) for i in d.ref_tokens]


class _EagerTokens(Tokens):
    """Tokens that place a token by its offset, from `findall_tokenize`,
    and the start of its line, found by bisection in the starts of all the
    lines."""

    def __init__(self, toks: Tokens, offs: list[int]):
        super().__init__(toks.src, toks.kinds, toks.texts, toks.parts)
        self.offs = offs
        self.starts = [0, *(m.end() for m in re.finditer("\n", toks.src))]

    def place(self, i: int) -> tuple[int, int]:
        off = self.offs[i]
        line = bisect_right(self.starts, off)
        return line, off - self.starts[line - 1] + 1


class _EagerParser(Parser):
    """The parser on `_EagerTokens`: every position it reports, an error's
    or a declaration's, is placed by bisection."""

    def __init__(self, src: str, path: str):
        offs = findall_tokenize(src, path).offs     # or its lexer error
        super().__init__(src, path)
        self.toks = _EagerTokens(self.toks, offs)


def _error(e: SyntaxError_) -> list:
    return [type(e).__name__, str(e), e.msg, e.line, e.col]


def eager_refs(src: str, path: str = "<input>", globals_=()):
    """What parsing `src` and resolving it against `globals_` gives, with
    every position worked out eagerly: the error of the parse, as
    `[class, str, msg, line, col]`, or the pair of each declaration's
    `(line, col, refs)`, `refs` as `(name, line, col)` type before body,
    and the error of `resolve` (None if it passes).  The resolver is the
    one that scanned every declaration's placed names in order."""
    try:
        mod = _EagerParser(src, path).module()
    except SyntaxError_ as e:
        return _error(e)
    decls = [(d.line, d.col, decl_refs(d)) for d in mod.decls]
    known = set(globals_)
    for d, (line, col, refs) in zip(mod.decls, decls):
        if d.name is not None:
            if d.name in known:
                msg = f"duplicate name {d.name!r}"
            elif d.name in BUILTIN_CONSTS or d.name in KEYWORDS:
                msg = f"{d.name!r} shadows a built-in"
            else:
                msg = None
            if msg:
                return decls, _error(ResolveError(msg, line, col, path))
        for name, line, col in refs:
            if name not in known and name not in BUILTIN_CONSTS:
                return decls, _error(ResolveError(
                    f"unbound identifier {name!r}", line, col, path))
        if d.name is not None:
            known.add(d.name)
    return decls, None


# ---------------------------------------------------------------------------
# Eliminators typed one family at a time
# ---------------------------------------------------------------------------

def _motive_at(motive: Term, *args: Term) -> Term:
    """`motive` applied to `args`, each redex of a lambda motive reduced: the
    motive and the arguments were checked before, against the domains."""
    while args and type(motive) is Lam:
        motive, args = _beta(motive, args)
    return mk_app(motive, *args)


class CaseChecker(Checker):
    """`Checker` with a case of `_infer_spine` for each eliminator family,
    as the kernel wrote them before one rule typed every eliminator from
    its schema; every other constant goes to the kernel's own rule."""

    def _infer_spine(self, ctx: list[Term], name: str,
                     args: list[Term]) -> tuple[Term, list[Term]]:
        family, strict = _SPINE[name]
        if family not in ("J", "indNat", "indEmpty", "indSum"):
            return super()._infer_spine(ctx, name, args)
        fam = _FAMILIES[family]
        arity, rules = fam.arity, fam.rules
        if len(args) < arity:
            raise TypeError_("ARITY", f"{name!r} expects {arity} arguments, "
                                      f"got {len(args)}")
        args, extra = args[:arity], args[arity:]
        checked = self._checked

        def at_level(base: str) -> Const:
            return CONSTS[_at_level(base, strict)]

        match family:
            case "J":
                motive, base, prf = args
                ety = self.whnf(self.infer(ctx, prf))
                if not checked:
                    if not isinstance(ety, Eq) or ety.strict != strict:
                        raise TypeError_(
                            rules[strict],
                            f"{name} eliminates a "
                            f"{'strict' if strict else 'fibrant'} equality; "
                            "the scrutinee has a different type")
                    lhs = ety.lhs
                    carrier = self._on_checked(self.infer, ctx, lhs)
                    self._elim_motive(ctx, name, motive, [
                        carrier, Eq(strict, shift(lhs, 1), var(0))])
                    self.check(ctx, base, _motive_at(
                        motive, lhs, App(at_level("refl"), lhs)))
                ty = _motive_at(motive, ety.rhs, prf)
            case "indNat":
                motive, z, s_arg, n = args
                if not checked:
                    nat = at_level("Nat")
                    self._elim_motive(ctx, name, motive, [nat])
                    self.check(ctx, z, _motive_at(motive, at_level("zero")))
                    step_ty = Pi("m", nat, Pi(
                        "_", _motive_at(shift(motive, 1), var(0)),
                        _motive_at(shift(motive, 2), App(at_level("succ"), var(1)))))
                    self.check(ctx, s_arg, step_ty)
                    self.check(ctx, n, nat)
                ty = _motive_at(motive, n)
            case "indEmpty":
                motive, e = args
                if not checked:
                    empty = at_level("Empty")
                    self._elim_motive(ctx, name, motive, [empty])
                    self.check(ctx, e, empty)
                ty = _motive_at(motive, e)
            case "indSum":
                motive, f, g, x = args
                if not checked:
                    xty = self.whnf(self.infer(ctx, x))
                    xh, xa = spine(xty)
                    sumc = _at_level("Sum", strict)
                    if not (isinstance(xh, Const) and xh.name == sumc
                            and len(xa) == 2):
                        raise TypeError_(rules[strict],
                                         f"{name} eliminates a {sumc} value")
                    self._elim_motive(ctx, name, motive, [xty])
                    for arm, side, hint, dom in zip((f, g), ("inl", "inr"),
                                                    "ab", xa):
                        self.check(ctx, arm, Pi(hint, dom, _motive_at(
                            shift(motive, 1), App(at_level(side), var(0)))))
                ty = _motive_at(motive, x)
        self._use(rules[strict])
        return ty, extra
