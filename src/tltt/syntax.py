"""Surface syntax, core terms, parser and printer for `.tltt` modules.

The surface language is keyword based (``Pi``, ``Sig``, ``fun``) with ASCII
equality operators ``=`` (fibrant) and ``=s`` (strict).  Core terms are
nameless: binders carry a name hint that is ignored by equality, so structural
equality of core terms is alpha-equivalence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional, Union


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

@dataclass(frozen=True)
class Var:
    idx: int


@dataclass(frozen=True)
class Ref:
    """Reference to a module-level def or axiom."""

    name: str


@dataclass(frozen=True)
class Const:
    """Built-in constant (type, constructor, or eliminator head)."""

    name: str


@dataclass(frozen=True)
class Univ:
    fib: bool
    level: int


@dataclass(frozen=True)
class Pi:
    name: str = field(compare=False)
    dom: "Term"
    cod: "Term"


@dataclass(frozen=True)
class Sig:
    name: str = field(compare=False)
    dom: "Term"
    cod: "Term"


@dataclass(frozen=True)
class Lam:
    name: str = field(compare=False)
    body: "Term"


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Eq:
    strict: bool
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Ann:
    """Type annotation; the checked-position residue of surface `(t : T)`."""

    tm: "Term"
    ty: "Term"


Term = Union[Var, Ref, Const, Univ, Pi, Sig, Lam, App, Eq, Ann]

# Constants with ordinary closed types (the kernel assigns these directly).
SIMPLE_CONSTS = {
    "Unit", "star", "Empty", "EmptyS", "Nat", "NatS",
    "zero", "succ", "zeroS", "succS", "uip", "funextS",
}

# Constants checked by dedicated spine rules (fixed arity, or check-mode only).
SPINE_CONSTS = {
    "Sum", "SumS", "inl", "inr", "inlS", "inrS", "pair", "fst", "snd",
    "refl", "reflS", "J", "Js",
    "indNat", "indNatS", "indEmpty", "indEmptyS", "indSum", "indSumS",
}

BUILTIN_CONSTS = SIMPLE_CONSTS | SPINE_CONSTS

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


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    if by == 0:
        return t
    match t:
        case Var(i):
            return Var(i + by) if i >= cutoff else t
        case Ref() | Const() | Univ():
            return t
        case Pi(x, a, b):
            return Pi(x, shift(a, by, cutoff), shift(b, by, cutoff + 1))
        case Sig(x, a, b):
            return Sig(x, shift(a, by, cutoff), shift(b, by, cutoff + 1))
        case Lam(x, b):
            return Lam(x, shift(b, by, cutoff + 1))
        case App(f, a):
            return App(shift(f, by, cutoff), shift(a, by, cutoff))
        case Eq(s, l, r):
            return Eq(s, shift(l, by, cutoff), shift(r, by, cutoff))
        case Ann(tm, ty):
            return Ann(shift(tm, by, cutoff), shift(ty, by, cutoff))
    raise AssertionError(t)


def subst(t: Term, sub: Term, idx: int = 0) -> Term:
    """Substitute `sub` for Var(idx) in t, adjusting indices."""
    match t:
        case Var(i):
            if i == idx:
                return shift(sub, idx)
            return Var(i - 1) if i > idx else t
        case Ref() | Const() | Univ():
            return t
        case Pi(x, a, b):
            return Pi(x, subst(a, sub, idx), subst(b, sub, idx + 1))
        case Sig(x, a, b):
            return Sig(x, subst(a, sub, idx), subst(b, sub, idx + 1))
        case Lam(x, b):
            return Lam(x, subst(b, sub, idx + 1))
        case App(f, a):
            return App(subst(f, sub, idx), subst(a, sub, idx))
        case Eq(s, l, r):
            return Eq(s, subst(l, sub, idx), subst(r, sub, idx))
        case Ann(tm, ty):
            return Ann(subst(tm, sub, idx), subst(ty, sub, idx))
    raise AssertionError(t)


def uses_var(t: Term, idx: int = 0) -> bool:
    match t:
        case Var(i):
            return i == idx
        case Ref() | Const() | Univ():
            return False
        case Pi(_, a, b) | Sig(_, a, b):
            return uses_var(a, idx) or uses_var(b, idx + 1)
        case Lam(_, b):
            return uses_var(b, idx + 1)
        case App(f, a):
            return uses_var(f, idx) or uses_var(a, idx)
        case Eq(_, l, r):
            return uses_var(l, idx) or uses_var(r, idx)
        case Ann(tm, ty):
            return uses_var(tm, idx) or uses_var(ty, idx)
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


@dataclass
class Module:
    decls: list[Decl]
    path: str = "<input>"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

@dataclass
class Token:
    kind: str      # NAME NAT PUNCT KW EOF
    text: str
    line: int
    col: int


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_NAT_RE = re.compile(r"[0-9]+")


def tokenize(src: str, path: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    expect_comments: list[tuple[int, str]] = []
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            comment = src[i:j]
            m = re.match(r"--!\s*expect:\s*(\S+)", comment)
            if m:
                toks.append(Token("EXPECT", m.group(1), line, col))
            col += j - i
            i = j
            continue
        if src.startswith(":=", i):
            toks.append(Token("PUNCT", ":=", line, col))
            i += 2
            col += 2
            continue
        if src.startswith("=>", i):
            toks.append(Token("PUNCT", "=>", line, col))
            i += 2
            col += 2
            continue
        if src.startswith("->", i):
            toks.append(Token("PUNCT", "->", line, col))
            i += 2
            col += 2
            continue
        if c == "=":
            if src.startswith("=s", i) and not (i + 2 < n and (src[i + 2].isalnum() or src[i + 2] == "_")):
                toks.append(Token("PUNCT", "=s", line, col))
                i += 2
                col += 2
            else:
                toks.append(Token("PUNCT", "=", line, col))
                i += 1
                col += 1
            continue
        if c in "(),:":
            toks.append(Token("PUNCT", c, line, col))
            i += 1
            col += 1
            continue
        m = _NAME_RE.match(src, i)
        if m:
            text = m.group(0)
            kind = "KW" if text in KEYWORDS else "NAME"
            toks.append(Token(kind, text, line, col))
            i = m.end()
            col += len(text)
            continue
        m = _NAT_RE.match(src, i)
        if m:
            toks.append(Token("NAT", m.group(0), line, col))
            i = m.end()
            col += len(m.group(0))
            continue
        raise SyntaxError_(f"unexpected character {c!r}", line, col, path)
    toks.append(Token("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser: surface terms are built directly as core terms over a name stack,
# which keeps parse and resolve as one traversal for terms.  Module-level
# `parse` keeps names unresolved; `resolve` walks the module.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SName:
    """Unresolved surface name; eliminated by resolve()."""

    name: str = field(compare=True)
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


class Parser:
    def __init__(self, toks: list[Token], path: str):
        self.toks = toks
        self.pos = 0
        self.path = path

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
        if t.text != text or t.kind == "EOF":
            self.err(f"expected {text!r}, found {t.text!r}")
        return self.next()

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        t = self.peek()
        if t.text == "Pi" or t.text == "Sig":
            self.next()
            binders = self.binders()
            self.expect(",")
            body = self.term()
            ctor = Pi if t.text == "Pi" else Sig
            for name, ty in reversed(binders):
                body = ctor(name, ty, body)
            return body
        if t.text == "fun":
            self.next()
            names = []
            while self.peek().kind == "NAME":
                names.append(self.next().text)
            if not names:
                self.err("expected at least one binder name after 'fun'")
            self.expect("=>")
            body = self.term()
            for name in reversed(names):
                body = Lam(name, body)
            return body
        return self.arrow()

    def binders(self) -> list[tuple[str, Term]]:
        """Parse `(x y : T)+`, returning (name, type) pairs.

        The type of a later binder in the same group mentions earlier names;
        since names are unresolved here we simply repeat the type term and
        leave index adjustment to resolve().
        """
        out: list[tuple[str, Term]] = []
        saw = False
        while self.peek().text == "(":
            save = self.pos
            self.next()
            names = []
            while self.peek().kind == "NAME":
                names.append(self.next().text)
            if not names or self.peek().text != ":":
                self.pos = save
                break
            self.next()
            ty = self.term()
            self.expect(")")
            for name in names:
                out.append((name, ty))
            saw = True
        if not saw:
            self.err("expected a binder '(name : type)'")
        return out

    def arrow(self) -> Term:
        lhs = self.eq()
        if self.peek().text == "->":
            self.next()
            rhs = self.term()
            return Pi("_", lhs, rhs)
        return lhs

    def eq(self) -> Term:
        lhs = self.app()
        t = self.peek()
        if t.text in ("=", "=s"):
            self.next()
            rhs = self.app()
            return Eq(t.text == "=s", lhs, rhs)
        return lhs

    def app(self) -> Term:
        head = self.atom()
        if head is None:
            self.err("expected a term")
        while True:
            save = self.pos
            arg = self.atom()
            if arg is None:
                self.pos = save
                return head
            head = App(head, arg)

    def atom(self) -> Optional[Term]:
        t = self.peek()
        if t.kind == "NAME":
            self.next()
            return SName(t.text, t.line, t.col)
        if t.text in ("U", "Us"):
            self.next()
            lvl = self.peek()
            if lvl.kind != "NAT":
                self.err("expected a universe level")
            self.next()
            return Univ(t.text == "U", int(lvl.text))
        if t.text == "(":
            self.next()
            inner = self.term()
            if self.peek().text == ":":
                self.next()
                ty = self.term()
                self.expect(")")
                return Ann(inner, ty)
            self.expect(")")
            return inner
        return None

    # -- declarations -----------------------------------------------------

    def module(self) -> Module:
        decls: list[Decl] = []
        pending_expect: Optional[str] = None
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.kind == "EXPECT":
                pending_expect = t.text
                self.next()
                continue
            if t.text not in ("def", "axiom", "check", "fail"):
                self.err("expected a declaration (def/axiom/check/fail)")
            self.next()
            if t.text in ("def", "axiom"):
                name_tok = self.peek()
                if name_tok.kind != "NAME":
                    self.err("expected a name")
                self.next()
                self.expect(":")
                ty = self.term()
                body = None
                if t.text == "def":
                    self.expect(":=")
                    body = self.term()
                decls.append(Decl(t.text, name_tok.text, ty, body, t.line, t.col,
                                  pending_expect))
            else:
                subject = self.term()
                self.expect(":")
                ty = self.term()
                decls.append(Decl(t.text, None, ty, subject, t.line, t.col,
                                  pending_expect))
            pending_expect = None
        return Module(decls, self.path)


def parse(src: str, path: str = "<input>") -> Module:
    p = Parser(tokenize(src, path), path)
    try:
        return p.module()
    except RecursionError:
        tok = p.peek()
        raise SyntaxError_("[DEPTH] terms nest too deeply to parse",
                           tok.line, tok.col, path) from None


def parse_term(src: str, path: str = "<input>") -> Term:
    p = Parser(tokenize(src, path), path)
    t = p.term()
    if p.peek().kind != "EOF":
        p.err("trailing input after term")
    return t


# ---------------------------------------------------------------------------
# Resolver
# ---------------------------------------------------------------------------

class ResolveError(Exception):
    def __init__(self, msg: str, line: int = 0, col: int = 0, path: str = "<input>"):
        super().__init__(f"{path}:{line}:{col}: {msg}")
        self.msg = msg


def resolve_term(t: Term, scope: list[str], globals_: set[str],
                 path: str = "<input>") -> Term:
    """Replace SName leaves with Var/Const/Ref.

    Lookup order: innermost binder, then built-in constants, then globals.
    """
    match t:
        case SName(name, line, col):
            for i, s in enumerate(reversed(scope)):
                if s == name:
                    return Var(i)
            if name in BUILTIN_CONSTS:
                return Const(name)
            if name in globals_:
                return Ref(name)
            raise ResolveError(f"unbound identifier {name!r}", line, col, path)
        case Var() | Ref() | Const() | Univ():
            return t
        case Pi(x, a, b):
            return Pi(x, resolve_term(a, scope, globals_, path),
                      resolve_term(b, scope + [x], globals_, path))
        case Sig(x, a, b):
            return Sig(x, resolve_term(a, scope, globals_, path),
                       resolve_term(b, scope + [x], globals_, path))
        case Lam(x, b):
            return Lam(x, resolve_term(b, scope + [x], globals_, path))
        case App(f, a):
            return App(resolve_term(f, scope, globals_, path),
                       resolve_term(a, scope, globals_, path))
        case Eq(s, l, r):
            return Eq(s, resolve_term(l, scope, globals_, path),
                      resolve_term(r, scope, globals_, path))
        case Ann(tm, ty):
            return Ann(resolve_term(tm, scope, globals_, path),
                       resolve_term(ty, scope, globals_, path))
    raise AssertionError(t)


def resolve(mod: Module, globals_: Optional[set[str]] = None) -> Module:
    """Resolve every declaration; names must be declared before use."""
    known = set(globals_ or ())
    out: list[Decl] = []
    for d in mod.decls:
        if d.name is not None:
            if d.name in known:
                raise ResolveError(f"duplicate name {d.name!r}",
                                   d.line, d.col, mod.path)
            if d.name in BUILTIN_CONSTS or d.name in KEYWORDS:
                raise ResolveError(f"{d.name!r} shadows a built-in",
                                   d.line, d.col, mod.path)
        try:
            ty = resolve_term(d.ty, [], known, mod.path)
            body = (None if d.body is None
                    else resolve_term(d.body, [], known, mod.path))
        except RecursionError:
            raise ResolveError("[DEPTH] terms nest too deeply to resolve",
                               d.line, d.col, mod.path) from None
        if d.name is not None:
            known.add(d.name)
        out.append(replace(d, ty=ty, body=body))
    return Module(out, mod.path)


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


def print_term(t: Term, names: Optional[list[str]] = None,
               avoid: Optional[set[str]] = None) -> str:
    """Render a core term as parseable surface text.

    `names` is the naming context (outermost first); `avoid` holds global
    names that binders must not capture.
    """
    names = list(names or [])
    avoid = set(avoid or ()) | BUILTIN_CONSTS

    def go(t: Term, ctx: list[str], prec: int) -> str:
        def wrap(s: str, p: int) -> str:
            return f"({s})" if p < prec else s

        match t:
            case Var(i):
                return ctx[len(ctx) - 1 - i]
            case Ref(n) | Const(n):
                return n
            case Univ(fib, lvl):
                return wrap(f"{'U' if fib else 'Us'} {lvl}", _PREC_ATOM)
            case Pi(x, a, b):
                if not uses_var(b):
                    s = f"{go(a, ctx, _PREC_EQ)} -> {go(shift(b, -1, 1), ctx, _PREC_ARROW)}"
                    return wrap(s, _PREC_ARROW)
                x = _fresh(x, set(ctx) | avoid)
                s = f"Pi ({x} : {go(a, ctx, _PREC_TERM)}), {go(b, ctx + [x], _PREC_TERM)}"
                return wrap(s, _PREC_TERM)
            case Sig(x, a, b):
                x = _fresh(x, set(ctx) | avoid)
                s = f"Sig ({x} : {go(a, ctx, _PREC_TERM)}), {go(b, ctx + [x], _PREC_TERM)}"
                return wrap(s, _PREC_TERM)
            case Lam():
                hints, body = [], t
                while isinstance(body, Lam):
                    hints.append(body.name)
                    body = body.body
                ctx2, fresh = list(ctx), []
                for h in hints:
                    f = _fresh(h, set(ctx2) | avoid)
                    fresh.append(f)
                    ctx2.append(f)
                s = f"fun {' '.join(fresh)} => {go(body, ctx2, _PREC_TERM)}"
                return wrap(s, _PREC_TERM)
            case App(f, a):
                s = f"{go(f, ctx, _PREC_APP)} {go(a, ctx, _PREC_ATOM)}"
                return wrap(s, _PREC_APP)
            case Eq(strict, l, r):
                op = "=s" if strict else "="
                s = f"{go(l, ctx, _PREC_APP)} {op} {go(r, ctx, _PREC_APP)}"
                return wrap(s, _PREC_EQ)
            case Ann(tm, ty):
                return f"({go(tm, ctx, _PREC_TERM)} : {go(ty, ctx, _PREC_TERM)})"
        raise AssertionError(t)

    # a Pi printed as an arrow drops the binder; guard against a used Var 0
    return go(t, names, _PREC_TERM)


def print_module(mod: Module, avoid: Optional[set[str]] = None) -> str:
    lines = []
    avoid = set(avoid or ())
    for d in mod.decls:
        if d.expect_rule:
            lines.append(f"--! expect: {d.expect_rule}")
        avoid |= {d.name} if d.name else set()
        ty = print_term(d.ty, avoid=avoid)
        if d.kind == "def":
            lines.append(f"def {d.name} : {ty} := {print_term(d.body, avoid=avoid)}")
        elif d.kind == "axiom":
            lines.append(f"axiom {d.name} : {ty}")
        else:
            lines.append(f"{d.kind} {print_term(d.body, avoid=avoid)} : {ty}")
    return "\n".join(lines) + "\n"
