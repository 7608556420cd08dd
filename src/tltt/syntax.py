"""Surface syntax, core terms, parser and printer for `.tltt` modules.

The surface language is keyword based (``Pi``, ``Sig``, ``fun``) with ASCII
equality operators ``=`` (fibrant) and ``=s`` (strict).  Core terms are
nameless: binders carry a name hint that is ignored by equality, so structural
equality of core terms is alpha-equivalence.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence, Union


class SyntaxError_(Exception):
    """Parse or scope error with a source position."""

    def __init__(self, msg: str, line: int, col: int, path: str = "<input>"):
        super().__init__(f"{path}:{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col
        self.path = path


# ---------------------------------------------------------------------------
# Core terms (de Bruijn indices; name fields are printing hints only)
# ---------------------------------------------------------------------------

class _Node:
    """Base of the core terms: no `__dict__`, and no field is assigned or
    deleted after `__init__`, so reduction may share subterms."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the node through `__init__`
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _term(cls):
    """Make `cls` a slotted dataclass node.  Its `__init__` stores each field
    with the slot descriptor's `__set__`, past `_Node.__setattr__`: one
    store per field, where a frozen dataclass calls `object.__setattr__`.
    `==` and `hash` ignore the fields declared with `compare=False`."""
    cls = dataclass(slots=True, unsafe_hash=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    ns = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    exec(f"def __init__(self, {', '.join(names)}):\n"
         + "".join(f"    _set_{n}(self, {n})\n" for n in names), ns)
    cls.__init__ = ns["__init__"]
    return cls


@_term
class Var(_Node):
    idx: int


@_term
class Ref(_Node):
    """Reference to a module-level def or axiom."""

    name: str


@_term
class Const(_Node):
    """Built-in constant (type, constructor, or eliminator head)."""

    name: str


@_term
class Univ(_Node):
    fib: bool
    level: int


@_term
class Pi(_Node):
    name: str = field(compare=False)
    dom: "Term"
    cod: "Term"


@_term
class Sig(_Node):
    name: str = field(compare=False)
    dom: "Term"
    cod: "Term"


@_term
class Lam(_Node):
    name: str = field(compare=False)
    body: "Term"


@_term
class App(_Node):
    fn: "Term"
    arg: "Term"


@_term
class Eq(_Node):
    strict: bool
    lhs: "Term"
    rhs: "Term"


@_term
class Ann(_Node):
    """Type annotation; the checked-position residue of surface `(t : T)`."""

    tm: "Term"
    ty: "Term"


Term = Union[Var, Ref, Const, Univ, Pi, Sig, Lam, App, Eq, Ann]

# Built-in constants; the kernel gives each a closed type or a spine rule.
# A strict member of a two-level family adds `S` to the fibrant name (`Js`).
BUILTIN_CONSTS = {
    "Unit", "star", "pair", "fst", "snd", "uip", "funextS",
    "Empty", "EmptyS", "Nat", "NatS", "zero", "zeroS", "succ", "succS",
    "Sum", "SumS", "inl", "inlS", "inr", "inrS", "refl", "reflS", "J", "Js",
    "indNat", "indNatS", "indEmpty", "indEmptyS", "indSum", "indSumS",
}

KEYWORDS = {"def", "axiom", "check", "fail", "Pi", "Sig", "fun", "U", "Us"}


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split nested applications into (head, arguments)."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def mk_app(head: Term, *args: Term) -> Term:
    for a in args:
        head = App(head, a)
    return head


# Walkers test `type(t)`, commonest first: a `match` tests each earlier case's class.
def subst(t: Term, subs: Sequence[Term], idx: int = 0) -> Term:
    """Substitute `subs`, in application order (the outermost binder's
    argument first), for the variables bound just outside `idx` binders:
    Var(idx + j) becomes `subs[-1 - j]` shifted by `idx` for j < len(subs),
    and the variables above drop by len(subs).  β on a whole spine is one
    walk."""
    k = type(t)
    if k is Var:
        j = t.idx - idx
        if j < 0:
            return t
        n = len(subs)
        return shift(subs[-1 - j], idx) if j < n else Var(t.idx - n)
    if k is App:
        return App(subst(t.fn, subs, idx), subst(t.arg, subs, idx))
    if k is Const or k is Ref or k is Univ:
        return t
    if k is Pi or k is Sig:
        return k(t.name, subst(t.dom, subs, idx), subst(t.cod, subs, idx + 1))
    if k is Eq:
        return Eq(t.strict, subst(t.lhs, subs, idx), subst(t.rhs, subs, idx))
    if k is Lam:
        return Lam(t.name, subst(t.body, subs, idx + 1))
    if k is Ann:
        return Ann(subst(t.tm, subs, idx), subst(t.ty, subs, idx))
    raise AssertionError(t)


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    if by == 0:
        return t
    k = type(t)
    if k is Var:
        return Var(t.idx + by) if t.idx >= cutoff else t
    if k is App:
        return App(shift(t.fn, by, cutoff), shift(t.arg, by, cutoff))
    if k is Univ or k is Const or k is Ref:
        return t
    if k is Pi or k is Sig:
        return k(t.name, shift(t.dom, by, cutoff), shift(t.cod, by, cutoff + 1))
    if k is Eq:
        return Eq(t.strict, shift(t.lhs, by, cutoff), shift(t.rhs, by, cutoff))
    if k is Lam:
        return Lam(t.name, shift(t.body, by, cutoff + 1))
    if k is Ann:
        return Ann(shift(t.tm, by, cutoff), shift(t.ty, by, cutoff))
    raise AssertionError(t)


# ---------------------------------------------------------------------------
# Declarations and modules
# ---------------------------------------------------------------------------

@dataclass
class Decl:
    kind: str                     # "def" | "axiom" | "check" | "fail"
    name: Optional[str]           # None for check/fail
    ty: Term
    body: Optional[Term]          # def and check/fail subjects
    line: int
    col: int
    expect_rule: Optional[str] = None   # from a preceding `--! expect:` comment
    # names not bound by a binder, with positions, type before body
    refs: list[tuple[str, int, int]] = field(
        default_factory=list, repr=False, compare=False)


@dataclass
class Module:
    decls: list[Decl]
    path: str = "<input>"


# ---------------------------------------------------------------------------
# Lexer: one master regex, matched token by token
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Token:
    kind: str      # NAME NAT PUNCT KW EXPECT EOF
    text: str
    line: int
    col: int


# Unnamed alternatives (blanks, comments) produce no token; `=s` followed by
# a word character is `=` and a name; BAD is any other character.  An EXPECT
# token's text is its whole comment, so it never reads as the word it names.
_TOKEN_RE = re.compile(r"""
    (?P<NL>\n)
  | [ \t\r]+
  | (?P<EXPECT>--![^\S\n]*expect:[^\S\n]*\S+[^\n]*)
  | --[^\n]*
  | (?P<PUNCT>:=|=>|->|=s(?!\w)|[=(),:])
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<NAT>[0-9]+)
  | (?P<BAD>.)
""", re.VERBOSE)


def tokenize(src: str, path: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind is None:
            continue
        pos = m.start()
        if kind == "NL":
            line, line_start = line + 1, pos + 1
            continue
        if kind == "BAD":
            raise SyntaxError_(f"unexpected character {src[pos]!r}",
                               line, pos - line_start + 1, path)
        text = m.group(kind)
        if kind == "NAME" and text in KEYWORDS:
            kind = "KW"
        toks.append(Token(kind, text, line, pos - line_start + 1))
    toks.append(Token("EOF", "", line, len(src) - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser: one recursive descent from tokens to core terms.  A name is looked
# up in the bound names (innermost first), then among the built-ins; any
# other name becomes a `Ref`.  Every name not bound by a binder is recorded
# with its position, for `resolve` to check against the declared globals.
# ---------------------------------------------------------------------------

class Parser:
    def __init__(self, toks: list[Token], path: str, scope=()):
        self.toks = toks
        self.pos = 0
        self.path = path
        self.scope = list(scope)    # bound names, outermost first
        self.refs: list[tuple[str, int, int]] = []

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def err(self, msg: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise SyntaxError_(msg, tok.line, tok.col, self.path)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            self.err(f"expected {text!r}, found {t.text!r}")
        return self.next()

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        """`(Pi | Sig) binders , term`, `fun names => term`, or
        `app [("=" | "=s") app] ["->" term]`: `->` nests to the right."""
        form = self.peek().text
        if form not in ("Pi", "Sig", "fun"):
            lhs = self.app()
            op = self.peek().text
            if op == "=" or op == "=s":
                self.next()
                lhs = Eq(op == "=s", lhs, self.app())
            if self.peek().text == "->":
                self.next()
                self.scope.append("_")
                rhs = self.term()
                self.scope.pop()
                return Pi("_", lhs, rhs)
            return lhs
        self.next()
        if form == "fun":
            names = self.names()
            if not names:
                self.err("expected at least one binder name after 'fun'")
            binders = [(name, None) for name in names]
            self.scope += names
        else:
            binders = self.binders()
        self.expect("=>" if form == "fun" else ",")
        body = self.term()
        del self.scope[len(self.scope) - len(binders):]
        ctor = Sig if form == "Sig" else Pi
        for name, ty in reversed(binders):     # innermost first
            body = Lam(name, body) if ty is None else ctor(name, ty, body)
        return body

    def names(self) -> list[str]:
        """Read bare names while there are any; the list may be empty."""
        names = []
        while self.peek().kind == "NAME":
            names.append(self.next().text)
        return names

    def binders(self) -> list[tuple[str, Term]]:
        """Parse `(x y : T)+`, returning (name, type) pairs, and bind the names.

        A group's type is read once, before any of the group's names is
        bound; its i-th name gets the type shifted past the i names before
        it.  The caller unbinds the names.
        """
        out: list[tuple[str, Term]] = []
        while self.peek().text == "(":
            save = self.pos
            self.next()
            names = self.names()
            if not names or self.peek().text != ":":
                self.pos = save
                break
            self.next()
            ty = self.term()
            self.expect(")")
            for i, name in enumerate(names):
                out.append((name, shift(ty, i)))
            self.scope += names
        if not out:
            self.err("expected a binder '(name : type)'")
        return out

    def app(self) -> Term:
        """Atoms folded left into `App`: a name, `U n` or `Us n`, `( term )`
        or `( term : term )`.  The first token that starts no atom ends it."""
        head = None
        while True:
            t = self.peek()
            if t.kind == "NAME":
                self.next()
                name, scope = t.text, self.scope
                if name in scope:
                    i = len(scope) - 1
                    while scope[i] != name:
                        i -= 1
                    arg = Var(len(scope) - 1 - i)
                else:
                    self.refs.append((name, t.line, t.col))
                    arg = Const(name) if name in BUILTIN_CONSTS else Ref(name)
            elif t.text in ("U", "Us"):
                self.next()
                lvl = self.peek()
                if lvl.kind != "NAT":
                    self.err("expected a universe level")
                self.next()
                arg = Univ(t.text == "U", int(lvl.text))
            elif t.text == "(":
                self.next()
                arg = self.term()
                if self.peek().text == ":":
                    self.next()
                    arg = Ann(arg, self.term())
                self.expect(")")
            elif head is None:
                self.err(f"expected a term, found {t.text!r}")
            else:
                return head
            head = arg if head is None else App(head, arg)

    # -- declarations -----------------------------------------------------

    def module(self) -> Module:
        decls: list[Decl] = []
        pending_expect: Optional[str] = None
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.kind == "EXPECT":
                pending_expect = t.text.split("expect:", 1)[1].split()[0]
                self.next()
                if self.peek().text != "fail":
                    self.err("`--! expect:` must directly precede a `fail` "
                             "declaration", t)
                continue
            if t.text not in ("def", "axiom", "check", "fail"):
                self.err("expected a declaration (def/axiom/check/fail)")
            self.next()
            self.refs = []
            name = body = None
            if t.text in ("def", "axiom"):
                if self.peek().kind != "NAME":
                    self.err("expected a name")
                name = self.next().text
                self.expect(":")
                ty = self.term()
                if t.text == "def":
                    self.expect(":=")
                    body = self.term()
            else:
                body = self.term()
                subject_refs, self.refs = self.refs, []
                self.expect(":")
                ty = self.term()
                self.refs += subject_refs     # the type's refs come first
            decls.append(Decl(t.text, name, ty, body, t.line, t.col,
                              pending_expect, self.refs))
            pending_expect = None
        return Module(decls, self.path)


@contextmanager
def _depth_guard(p: Parser):
    """Running out of Python stack while parsing is a [DEPTH] error at the
    token being read.  A `with` block adds no frame to the parse."""
    try:
        yield
    except RecursionError:
        tok = p.peek()
        raise SyntaxError_("[DEPTH] terms nest too deeply to parse",
                           tok.line, tok.col, p.path) from None


def parse(src: str, path: str = "<input>") -> Module:
    p = Parser(tokenize(src, path), path)
    with _depth_guard(p):
        return p.module()


def parse_term(src: str, path: str = "<input>", scope=(), globals_=()) -> Term:
    """Parse one term under the bound names `scope` (outermost first); its
    other names must be built-ins or in `globals_`."""
    p = Parser(tokenize(src, path), path, scope)
    with _depth_guard(p):
        t = p.term()
    if p.peek().kind != "EOF":
        p.err("trailing input after term")
    _check_refs(p.refs, set(globals_), path)
    return t


# ---------------------------------------------------------------------------
# Resolver: links a parsed module against the names declared before it
# ---------------------------------------------------------------------------

class ResolveError(SyntaxError_):
    """A name used before its declaration, declared twice, or shadowing a
    built-in."""


def _check_refs(refs: list[tuple[str, int, int]], known: set[str], path: str):
    for name, line, col in refs:
        if name not in known and name not in BUILTIN_CONSTS:
            raise ResolveError(f"unbound identifier {name!r}", line, col, path)


def resolve(mod: Module, globals_: Optional[set[str]] = None) -> Module:
    """Check that every declaration's names are declared before use."""
    known = set(globals_ or ())
    for d in mod.decls:
        if d.name is not None:
            if d.name in known:
                raise ResolveError(f"duplicate name {d.name!r}",
                                   d.line, d.col, mod.path)
            if d.name in BUILTIN_CONSTS or d.name in KEYWORDS:
                raise ResolveError(f"{d.name!r} shadows a built-in",
                                   d.line, d.col, mod.path)
        _check_refs(d.refs, known, mod.path)
        if d.name is not None:
            known.add(d.name)
    return mod


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_PREC_TERM, _PREC_ARROW, _PREC_EQ, _PREC_APP, _PREC_ATOM = 0, 1, 2, 3, 4


def _fresh(hint: str, taken: set[str]) -> str:
    base = hint if hint and hint != "_" else "x"
    if base not in taken and base not in KEYWORDS:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _nodes(t: Term):
    """Each node of `t` with the number of binders above it."""
    todo = [(t, 0)]
    while todo:
        t, d = todo.pop()
        yield t, d
        k = type(t)
        if k is App:
            todo += ((t.fn, d), (t.arg, d))
        elif k is Pi or k is Sig:
            todo += ((t.dom, d), (t.cod, d + 1))
        elif k is Lam:
            todo.append((t.body, d + 1))
        elif k is Eq:
            todo += ((t.lhs, d), (t.rhs, d))
        elif k is Ann:
            todo += ((t.tm, d), (t.ty, d))


def print_term(t: Term, names: Optional[list[str]] = None) -> str:
    """Render a core term as parseable surface text under the naming
    context `names` (outermost first).  Binders are named away from it, the
    built-ins and the globals of `t`, the only globals they could capture."""
    # `_nodes` walks a binder's scope before anything else at its depth, so
    # binders[e] is the binder at depth e of the Vars below it
    avoid, used, binders = set(BUILTIN_CONSTS), set(), []
    for u, d in _nodes(t):
        k = type(u)
        if k is Ref:
            avoid.add(u.name)
        elif k is Var and u.idx < d:
            used.add(binders[d - 1 - u.idx])
        elif k is Pi or k is Sig or k is Lam:
            binders[d:] = [id(u)]
    return _print(t, list(names or []), avoid, used, _PREC_TERM)


def _print(t: Term, ctx: list[str], avoid: set[str], used: set[int],
           prec: int) -> str:
    """`t` under the names `ctx`, parenthesised below precedence `prec`;
    `used` holds the ids of the binders whose variable occurs."""
    k = type(t)
    if k is App:
        s = (f"{_print(t.fn, ctx, avoid, used, _PREC_APP)} "
             f"{_print(t.arg, ctx, avoid, used, _PREC_ATOM)}")
        p = _PREC_APP
    elif k is Const or k is Ref:
        return t.name
    elif k is Var:
        if t.idx >= len(ctx):
            raise ValueError(
                f"variable {t.idx} has no name in a context of {len(ctx)}")
        return ctx[-1 - t.idx]
    elif k is Pi and id(t) not in used:
        # Var 0 is unused in the codomain and `_fresh` never picks "_"
        s = (f"{_print(t.dom, ctx, avoid, used, _PREC_EQ)} -> "
             f"{_print(t.cod, ctx + ['_'], avoid, used, _PREC_ARROW)}")
        p = _PREC_ARROW
    elif k is Pi or k is Sig:
        x = _fresh(t.name, set(ctx) | avoid)
        s = (f"{k.__name__} ({x} : "
             f"{_print(t.dom, ctx, avoid, used, _PREC_TERM)}), "
             f"{_print(t.cod, ctx + [x], avoid, used, _PREC_TERM)}")
        p = _PREC_TERM
    elif k is Lam:
        inner = list(ctx)
        while type(t) is Lam:
            inner.append(_fresh(t.name, set(inner) | avoid))
            t = t.body
        s = (f"fun {' '.join(inner[len(ctx):])} => "
             f"{_print(t, inner, avoid, used, _PREC_TERM)}")
        p = _PREC_TERM
    elif k is Eq:
        s = (f"{_print(t.lhs, ctx, avoid, used, _PREC_APP)} "
             f"{'=s' if t.strict else '='} "
             f"{_print(t.rhs, ctx, avoid, used, _PREC_APP)}")
        p = _PREC_EQ
    elif k is Univ:
        return f"{'U' if t.fib else 'Us'} {t.level}"
    elif k is Ann:
        return (f"({_print(t.tm, ctx, avoid, used, _PREC_TERM)} : "
                f"{_print(t.ty, ctx, avoid, used, _PREC_TERM)})")
    else:
        raise AssertionError(t)
    return f"({s})" if p < prec else s


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
