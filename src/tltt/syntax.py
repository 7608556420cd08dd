"""Surface syntax, core terms, parser for `.tltt` modules, term printer.

The surface language is keyword based (``Pi``, ``Sig``, ``fun``) with ASCII
equality operators ``=`` (fibrant) and ``=s`` (strict).  Core terms are
nameless: binders carry a name hint that is ignored by equality, so structural
equality of core terms is alpha-equivalence.
"""

from __future__ import annotations

import re
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
    deleted after `__init__`, so terms share subterms freely: the parser
    and the kernel take variables, universes and built-ins from shared
    tables, and substitution returns every node it leaves unchanged.  `==`
    is alpha-equality, `_differ`'s, which ignores binder names; terms are
    not hashable."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return not _differ(self, other)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the node through `__init__`
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __repr__(self):
        """`Kind(field=value, ...)`, a dataclass's format, written from a
        stack of its own: no depth of term reaches the recursion limit."""
        out, todo = [], [self]
        while todo:
            t = todo.pop()
            if not isinstance(t, _Node):
                out.append(t)
                continue
            pieces = [f"{type(t).__qualname__}("]
            for k, f in enumerate(fields(t)):
                v = getattr(t, f.name)
                pieces += [f"{', ' if k else ''}{f.name}=",
                           v if isinstance(v, _Node) else repr(v)]
            pieces.append(")")
            todo += reversed(pieces)
        return "".join(out)


def _term(cls):
    """Make `cls` a slotted dataclass node.  Its `__init__` stores each field
    with the slot descriptor's `__set__`, past `_Node.__setattr__`: one
    store per field, where a frozen dataclass calls `object.__setattr__`.
    `==` and `repr` are `_Node`'s."""
    cls = dataclass(slots=True, eq=False, init=False, repr=False)(cls)
    names = [f.name for f in fields(cls)]
    ns = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    exec(f"def __init__(self, {', '.join(names)}):\n"
         + "".join(f"    _set_{n}(self, {n})\n" for n in names), ns)
    cls.__init__ = ns["__init__"]
    return cls


@_term
class Var(_Node):
    """A bound variable, by its de Bruijn index."""

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
    """The universe `U level`, or `Us level` if not `fib`."""

    fib: bool
    level: int


@_term
class Pi(_Node):
    """The dependent function type `Pi (name : dom), cod`."""

    name: str
    dom: "Term"
    cod: "Term"


@_term
class Sig(_Node):
    """The dependent pair type `Sig (name : dom), cod`."""

    name: str
    dom: "Term"
    cod: "Term"


@_term
class Lam(_Node):
    """The function `fun name => body`."""

    name: str
    body: "Term"


@_term
class App(_Node):
    """The application of `fn` to `arg`."""

    fn: "Term"
    arg: "Term"


@_term
class Eq(_Node):
    """The equality type `lhs = rhs`, or `lhs =s rhs` if `strict`."""

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
# One node per built-in, which the parser and the kernel share: two of their
# constants with one name are one object.
CONSTS = {name: Const(name) for name in BUILTIN_CONSTS}

# One node per de Bruijn index and per universe `(fib, level)` below
# `SHARED`, built once like `CONSTS`; `var` and `univ` hand them out, and
# build a fresh node outside `0 <= n < SHARED`.
SHARED = 64
VARS = tuple(Var(idx) for idx in range(SHARED))
UNIVS = tuple(tuple(Univ(fib, level) for level in range(SHARED))
              for fib in (False, True))


def var(idx: int) -> Var:
    """The variable of index `idx`, shared for `0 <= idx < SHARED`."""
    return VARS[idx] if 0 <= idx < SHARED else Var(idx)


def univ(fib: bool, level: int) -> Univ:
    """The universe `U level` (`Us level` if not `fib`), shared for
    `0 <= level < SHARED`."""
    return UNIVS[fib][level] if 0 <= level < SHARED else Univ(fib, level)


KEYWORDS = {"def", "axiom", "check", "fail", "Pi", "Sig", "fun", "U", "Us"}

# The digits of a universe level.  The checker prints levels up to two above
# a written one, and Python prints an `int` of at most 4,300 digits.
MAX_LEVEL_DIGITS = 4299


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
def subst(t: Term, subs: Sequence[Term], idx: int = 0, by: int = 0) -> Term:
    """The one substitution `subs · ↑by` under `idx` binders: variables
    below `idx` stay, Var(idx + j) becomes `subs[-1 - j]` shifted by `idx`
    for j < len(subs) (`subs` in application order, the outermost binder's
    argument first), and Var(idx + j) above becomes
    Var(idx + j - len(subs) + by).  β on a whole spine is one walk.  A node
    that nothing under it changes is returned as it is, so only the paths
    to the variables it moves are built again."""
    k = type(t)
    if k is Var:
        j = t.idx - idx
        if j < 0:
            return t
        n = len(subs)
        if j < n:
            return shift(subs[-1 - j], idx)
        return t if n == by else var(t.idx - n + by)
    if k is App:
        fn, arg = subst(t.fn, subs, idx, by), subst(t.arg, subs, idx, by)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if k is Const or k is Ref or k is Univ:
        return t
    if k is Pi or k is Sig:
        dom = subst(t.dom, subs, idx, by)
        cod = subst(t.cod, subs, idx + 1, by)
        return t if dom is t.dom and cod is t.cod else k(t.name, dom, cod)
    if k is Eq:
        lhs, rhs = subst(t.lhs, subs, idx, by), subst(t.rhs, subs, idx, by)
        return t if lhs is t.lhs and rhs is t.rhs else Eq(t.strict, lhs, rhs)
    if k is Lam:
        body = subst(t.body, subs, idx + 1, by)
        return t if body is t.body else Lam(t.name, body)
    if k is Ann:
        tm, ty = subst(t.tm, subs, idx, by), subst(t.ty, subs, idx, by)
        return t if tm is t.tm and ty is t.ty else Ann(tm, ty)
    raise AssertionError(t)


def shift(t: Term, by: int) -> Term:
    """Weakening: `subst` with no terms, every free variable moved by
    `by`."""
    return subst(t, (), 0, by) if by else t


def _differ(t: Term, u: Term, unequal: Optional[dict] = None) -> bool:
    """Whether `t` and `u` differ beyond binder names.  If they do, and
    `unequal` is a dict, it gets each pair of subterms from `(t, u)` down
    to the first pair whose roots differ, depth first and left to right:
    `(t', u', parent)` under `id(t')`, which the value keeps alive.  The
    pairs still to compare wait on a linked stack, not on Python's."""
    todo = above = None     # the stack and the path, as nested tuples
    while True:
        if t is not u:
            k = type(t)
            if k is not type(u):
                break
            if k is Var:
                if t.idx != u.idx:
                    break
            elif k is App:
                above = (t, u, above)
                if t.arg is not u.arg:
                    todo = (t.arg, u.arg, above, todo)
                t, u = t.fn, u.fn
                continue
            elif k is Univ:
                if t.fib != u.fib or t.level != u.level:
                    break
            elif k is Const or k is Ref:
                if t.name != u.name:
                    break
            elif k is Pi or k is Sig:
                above = (t, u, above)
                if t.cod is not u.cod:
                    todo = (t.cod, u.cod, above, todo)
                t, u = t.dom, u.dom
                continue
            elif k is Eq:
                if t.strict != u.strict:
                    break
                above = (t, u, above)
                if t.rhs is not u.rhs:
                    todo = (t.rhs, u.rhs, above, todo)
                t, u = t.lhs, u.lhs
                continue
            elif k is Lam:
                above = (t, u, above)
                t, u = t.body, u.body
                continue
            elif k is Ann:
                above = (t, u, above)
                if t.ty is not u.ty:
                    todo = (t.ty, u.ty, above, todo)
                t, u = t.tm, u.tm
                continue
        if todo is None:
            return False
        t, u, above, todo = todo
    e = (t, u, above)
    while unequal is not None and e is not None:
        unequal[id(e[0])] = e
        e = e[2]
    return True


# ---------------------------------------------------------------------------
# Declarations and modules
# ---------------------------------------------------------------------------

@dataclass
class Decl:
    """One declaration of a module, at its line and column.

    The parser records each name not bound by a binder as its token
    (`ref_tokens`, type before body), and the declaration keeps the
    `tokens` it was read from, so they live as long as the module and
    `resolve` can place the one name it reports with `Tokens.place`.  A
    module that resolves places none of them."""

    kind: str                     # "def" | "axiom" | "check" | "fail"
    name: Optional[str]           # None for check/fail
    ty: Term
    body: Optional[Term]          # def and check/fail subjects
    line: int
    col: int
    expect_rule: Optional[str] = None   # from a preceding `--! expect:` comment
    ref_tokens: list[int] = field(
        default_factory=list, repr=False, compare=False)
    tokens: Optional[Tokens] = field(default=None, repr=False, compare=False)


@dataclass
class Module:
    """The declarations of one source file, in order."""

    decls: list[Decl]
    path: str = "<input>"


# ---------------------------------------------------------------------------
# Lexer: one `split` of one regex, read into columns
# ---------------------------------------------------------------------------

# Tokens come as columns from one `split` on a regex whose only group is the
# token, so the pieces alternate between what lies between two tokens and a
# token.  Ordinary `--` comments are first blanked to spaces of their own
# length, so offsets do not move and what lies between tokens is only blanks
# and newlines.  EOF is the only empty text, at the end of the source.  A kind
# follows from the text: a keyword is a name.  `=s` before a word character is
# `=` and a name; BAD is any other character.  An EXPECT token's text is its
# whole comment.  Commonest tokens first.  Every token starts at a character
# other than ` \t\r\n`, so the lookahead before the group, which `re` tests
# before any alternative, changes no split: it only spares each blank a failed
# try of every alternative.  It is not `(?=\S)`, which would pass over `\x0b`
# and `\x0c` instead of reading each as BAD.
_EXPECT = r"![^\S\n]*expect:[^\S\n]*\S"      # an EXPECT token after its `--`
_COMMENT_RE = re.compile(rf"--({_EXPECT})?[^\n]*")
_TOKEN_RE = re.compile(rf"""
    (?=[^ \t\r\n])
    ( [A-Za-z_][A-Za-z0-9_']* | [()] | :=|=>|->|=s(?!\w)|[=,:] | [0-9]+
    | --{_EXPECT}[^\n]* | [^ \t\r\n] )
""", re.VERBOSE)
_PUNCT = {":=", "=>", "->", "=s", "=", "(", ")", ",", ":"}


def _blank(m: re.Match) -> str:
    """An ordinary comment as spaces of its length; an EXPECT one as is."""
    return m[0] if m[1] else " " * len(m[0])


def _kind(text: str) -> str:
    """A token's kind, from its text; names and numerals are ASCII."""
    if text in KEYWORDS:
        return "KW"
    if text in _PUNCT or not text:
        return "PUNCT" if text else "EOF"
    c = text[0]
    if c.isascii() and c.isalnum() or c == "_":
        return "NAT" if c.isdigit() else "NAME"
    return "EXPECT" if text[:2] == "--" else "BAD"


class Tokens:
    """The tokens of `src`: each one's kind and text, as columns, the last
    EOF, and `parts`, the pieces of the `split` they came from (the text
    before each token, then the token; the last is the text after the last
    token).  A `split` on a regex with one group keeps every character in
    its pieces, so they tile the source and a token's offset is the length
    of the pieces before it.  `place` is the one place a token's line and
    column are worked out, only where one is reported."""

    __slots__ = ("src", "kinds", "texts", "parts", "placed")

    def __init__(self, src: str, kinds: list[str], texts: list[str],
                 parts: list[str]):
        self.src, self.kinds, self.texts, self.parts = src, kinds, texts, parts
        # where `place` last read: a piece, its offset, line and line start
        self.placed = (0, 0, 1, 0)

    def __len__(self) -> int:
        return len(self.texts)

    def place(self, i: int) -> tuple[int, int]:
        """The line and column of token `i`, by a running sum of the
        lengths of the pieces and of the newlines in them, forward from
        the last token placed, or from the source's start if `i` lies
        behind it.  The pieces tile the source, so the sum is token `i`'s
        offset; only `\n` ends a line.  Placing each declaration in turn
        thus reads the module's pieces once, and builds no offset column;
        an error lies ahead of every declaration placed before it."""
        parts, src = self.parts, self.src
        j, off, line, start = self.placed
        k = 2 * i + 1       # token i's piece
        if k < j:
            j, off, line, start = 0, 0, 1, 0
        end = off + sum(map(len, parts[j:k]))
        last = src.rfind("\n", off, end)
        if last >= 0:
            line += src.count("\n", off, last + 1)
            start = last + 1
        self.placed = (k, end, line, start)
        return line, end - start + 1


def tokenize(src: str, path: str = "<input>") -> Tokens:
    """The tokens of `src`, with no Python step per token: only each
    comment and each distinct text is visited in Python.  No position is
    worked out: the pieces of the split are kept, and `Tokens.place` reads
    one off them only where one is reported, a lexer error's included.
    The split does not try a token at a blank, where none starts (see
    `_TOKEN_RE`), so its pieces are the ungated regex's."""
    parts = _TOKEN_RE.split(_COMMENT_RE.sub(_blank, src))
    texts = parts[1::2]
    texts.append("")
    kind_of = {text: _kind(text) for text in set(texts)}
    kinds = list(map(kind_of.__getitem__, texts))
    toks = Tokens(src, kinds, texts, parts)
    if "BAD" in kind_of.values():
        i = kinds.index("BAD")
        raise SyntaxError_(f"unexpected character {texts[i]!r}",
                           *toks.place(i), path)
    return toks


# ---------------------------------------------------------------------------
# Parser: one loop from tokens to core terms.  A name is looked up in the
# bound names (innermost first), then among the built-ins; any other name
# becomes a `Ref`, one per name in a parse.  Every name not bound by a binder
# is recorded as its token, for `resolve` to check against the declared
# globals.
# ---------------------------------------------------------------------------

# What `Parser.term` reads next (a term, the binder groups of a Pi or Sig, or
# atoms), and the frames of its stack, one per construct left open:
#   (_PAREN, head)            `(` after the atoms `head` (None if none)
#   (_ANN, head, tm)          `( tm :` after the atoms `head`
#   (_EQ, strict, lhs)        `lhs =` (`=s` if strict)
#   (_ARROW, dom)             `dom ->`, with "_" bound
#   (_GROUP, ctor, bs, names) `(names :` after the (name, type) pairs `bs`
#   (_BODY, ctor, bs)         the pairs `bs`, or `fun` names if ctor is Lam
_TERM, _GROUPS, _APP = range(3)
_PAREN, _ANN, _EQ, _ARROW, _GROUP, _BODY = range(6)


class Parser:
    """Terms and declarations off the tokens of `src`, nested on a stack of
    frames rather than on Python's, so nesting costs no Python frame."""

    def __init__(self, src: str, path: str = "<input>", scope=()):
        self.toks = tokenize(src, path)
        self.kinds, self.texts = self.toks.kinds, self.toks.texts
        self.path = path
        self.scope = list(scope)    # bound names, outermost first
        self.refs: list[int] = []   # the tokens of the names in no scope
        self.leaves = dict(CONSTS)  # one node per built-in and global name

    def err(self, msg: str, i: int):
        raise SyntaxError_(msg, *self.toks.place(i), self.path)

    def expect(self, text: str, i: int) -> int:
        """The token after token `i`, which must be `text`."""
        if self.texts[i] != text:
            self.err(f"expected {text!r}, found {self.texts[i]!r}", i)
        return i + 1

    def term(self, i: int) -> tuple[Term, int]:
        """The term at token `i` and the token after it:

            term  := (Pi | Sig) group+ "," term  |  fun name+ "=>" term
                   | app [("=" | "=s") app] ["->" term]
            group := "(" name+ ":" term ")"
            app   := atom+
            atom  := name | (U | Us) nat | "(" term [":" term] ")"

        `->` nests to the right and application to the left.  A group's type
        is read before its names are bound; its i-th name gets the type
        shifted past the i names before it."""
        kinds, texts = self.kinds, self.texts
        scope, refs = self.scope, self.refs
        leaves = self.leaves
        stack: list[tuple] = []
        reading = _TERM
        while True:
            if reading == _TERM:
                text = texts[i]
                if text == "fun":
                    i = j = i + 1
                    while kinds[i] == "NAME":
                        i += 1
                    if i == j:
                        self.err("expected at least one binder name after "
                                 "'fun'", i)
                    i = self.expect("=>", i)
                    scope += texts[j:i - 1]
                    stack.append((_BODY, Lam, texts[j:i - 1]))
                    continue
                if text == "Pi" or text == "Sig":
                    ctor, bs = (Sig if text == "Sig" else Pi), []
                    i, reading = i + 1, _GROUPS
                else:
                    reading, t = _APP, None
            if reading == _GROUPS:
                j = i + 1
                while texts[i] == "(" and kinds[j] == "NAME":
                    j += 1
                if j > i + 1 and texts[j] == ":":
                    stack.append((_GROUP, ctor, bs, texts[i + 1:j]))
                    i, reading = j + 1, _TERM
                    continue
                if not bs:
                    self.err("expected a binder '(name : type)'", i)
                i, reading = self.expect(",", i), _TERM
                stack.append((_BODY, ctor, bs))
                continue
            while True:     # reading == _APP: atoms fold left into `t`
                if kinds[i] == "NAME":
                    name = texts[i]
                    if name in scope:
                        j = len(scope) - 1
                        while scope[j] != name:
                            j -= 1
                        arg = var(len(scope) - 1 - j)
                    else:
                        refs.append(i)
                        arg = leaves.get(name) or leaves.setdefault(
                            name, Ref(name))
                    i += 1
                elif texts[i] == "(":
                    stack.append((_PAREN, t))
                    i, reading = i + 1, _TERM
                    break
                elif texts[i] == "U" or texts[i] == "Us":
                    if kinds[i + 1] != "NAT":
                        self.err("expected a universe level", i + 1)
                    if len(texts[i + 1]) > MAX_LEVEL_DIGITS:
                        self.err("universe level too large", i + 1)
                    arg = univ(texts[i] == "U", int(texts[i + 1]))
                    i += 2
                elif t is None:
                    self.err(f"expected a term, found {texts[i]!r}", i)
                else:
                    break
                t = arg if t is None else App(t, arg)
            if reading == _TERM:
                continue
            if stack and stack[-1][0] == _EQ:       # the application `t`
                _, strict, lhs = stack.pop()
                t = Eq(strict, lhs, t)
            elif texts[i] == "=" or texts[i] == "=s":
                stack.append((_EQ, texts[i] == "=s", t))
                i, t = i + 1, None
                continue
            if texts[i] == "->":
                stack.append((_ARROW, t))
                scope.append("_")
                i, reading = i + 1, _TERM
                continue
            while stack:    # the term `t`: close the frames it completes
                frame = stack.pop()
                tag = frame[0]
                if tag == _PAREN and texts[i] == ":":
                    stack.append((_ANN, frame[1], t))
                    i, reading = i + 1, _TERM
                    break
                if tag == _PAREN or tag == _ANN:
                    i = self.expect(")", i)
                    arg = t if tag == _PAREN else Ann(frame[2], t)
                    t = arg if frame[1] is None else App(frame[1], arg)
                    # a run of `)` closing parentheses, as a numeral ends
                    while texts[i] == ")" and stack and stack[-1][0] == _PAREN:
                        head = stack.pop()[1]
                        t = t if head is None else App(head, t)
                        i += 1
                    break
                if tag == _ARROW:
                    scope.pop()
                    t = Pi("_", frame[1], t)
                elif tag == _BODY:
                    _, ctor, bs = frame
                    del scope[len(scope) - len(bs):]
                    for b in reversed(bs):          # innermost first
                        t = Lam(b, t) if ctor is Lam else ctor(b[0], b[1], t)
                else:       # _GROUP, whose type `t` is
                    _, ctor, bs, names = frame
                    j = self.expect(")", i)
                    try:        # the only recursion left
                        bs += [(x, shift(t, k)) for k, x in enumerate(names)]
                    except RecursionError:
                        self.err("[DEPTH] terms nest too deeply to parse", i)
                    scope += names
                    i, reading = j, _GROUPS
                    break
            else:
                return t, i

    def module(self) -> Module:
        kinds, texts = self.kinds, self.texts
        decls, i, expect_rule = [], 0, None
        while kinds[i] != "EOF":
            kind = texts[i]
            if kinds[i] == "EXPECT":
                expect_rule = kind.split("expect:", 1)[1].split()[0]
                if texts[i + 1] != "fail":
                    self.err("`--! expect:` must directly precede a `fail` "
                             "declaration", i)
                i += 1
                continue
            if kind not in ("def", "axiom", "check", "fail"):
                self.err("expected a declaration (def/axiom/check/fail)", i)
            self.refs, name, body = [], None, None
            if kind == "check" or kind == "fail":
                body, j = self.term(i + 1)
                subject_refs, self.refs = self.refs, []
                ty, j = self.term(self.expect(":", j))
                self.refs += subject_refs     # the type's refs come first
            else:
                if kinds[i + 1] != "NAME":
                    self.err("expected a name", i + 1)
                name = texts[i + 1]
                ty, j = self.term(self.expect(":", i + 2))
                if kind == "def":
                    body, j = self.term(self.expect(":=", j))
            decls.append(Decl(kind, name, ty, body, *self.toks.place(i),
                              expect_rule, self.refs, self.toks))
            i, expect_rule = j, None
        return Module(decls, self.path)


def parse(src: str, path: str = "<input>") -> Module:
    return Parser(src, path).module()


def parse_term(src: str, path: str = "<input>", scope=(), globals_=()) -> Term:
    """Parse one term under the bound names `scope` (outermost first); its
    other names must be built-ins or in `globals_`."""
    p = Parser(src, path, scope)
    t, i = p.term(0)
    if p.kinds[i] != "EOF":
        p.err("trailing input after term", i)
    _check_refs(p.toks, p.refs, BUILTIN_CONSTS.union(globals_), path)
    return t


# ---------------------------------------------------------------------------
# Resolver: links a parsed module against the names declared before it
# ---------------------------------------------------------------------------

class ResolveError(SyntaxError_):
    """A name used before its declaration, declared twice, or shadowing a
    built-in."""


def _check_refs(toks: Tokens, refs: list[int], known: set[str], path: str):
    """Fail at the first of the tokens `refs` whose name `known` lacks, in
    one scan in order, placing only the one reported (`Tokens.place`)."""
    texts = toks.texts
    for i in refs:
        if texts[i] not in known:
            raise ResolveError(f"unbound identifier {texts[i]!r}",
                               *toks.place(i), path)


def resolve(mod: Module, globals_: Optional[set[str]] = None) -> Module:
    """Check that every declaration's names are declared before use: each
    name of a declaration's `ref_tokens` must be a built-in, in `globals_`
    or declared above it.  A miss is the first unbound name of its
    declaration in `ref_tokens` order, type before body."""
    declared = set(globals_ or ())
    known = declared | BUILTIN_CONSTS      # what a name may name
    for d in mod.decls:
        if d.name is not None:
            if d.name in declared:
                raise ResolveError(f"duplicate name {d.name!r}",
                                   d.line, d.col, mod.path)
            if d.name in BUILTIN_CONSTS or d.name in KEYWORDS:
                raise ResolveError(f"{d.name!r} shadows a built-in",
                                   d.line, d.col, mod.path)
        _check_refs(d.tokens, d.ref_tokens, known, mod.path)
        if d.name is not None:
            declared.add(d.name)
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


class _Naming:
    """What the binders of one printed term are named from: `avoid`, the
    built-ins and the globals of the term, and `used`, the ids of the
    binders whose variable occurs.  `walk` finds both in one `_nodes` walk
    of the whole term; `_print` runs it at the first binder it reaches, so a
    term with no binder is never walked."""

    __slots__ = ("term", "avoid", "used")

    def __init__(self, term: Term):
        self.term, self.avoid, self.used = term, None, None

    def walk(self):
        # `_nodes` walks a binder's scope before anything else at its depth,
        # so binders[e] is the binder at depth e of the Vars below it
        avoid, used, binders = set(BUILTIN_CONSTS), set(), []
        for u, d in _nodes(self.term):
            k = type(u)
            if k is Ref:
                avoid.add(u.name)
            elif k is Var and u.idx < d:
                used.add(binders[d - 1 - u.idx])
            elif k is Pi or k is Sig or k is Lam:
                binders[d:] = [id(u)]
        self.avoid, self.used = avoid, used


def print_term(t: Term, names: Optional[list[str]] = None) -> str:
    """Render a core term as parseable surface text under the naming
    context `names` (outermost first).  Binders are named away from it, the
    built-ins and the globals of `t`, the only globals they could capture.

    The naming walk (`_Naming.walk`) runs at most once, over the whole term,
    when the printer first reaches a Π, Σ or λ: only a binder reads its
    sets, and they are those of the whole term wherever it starts, so the
    text is the one an eager walk gives.  A term with no binder, such as
    `add M K = N`, prints in one walk."""
    return _print(t, list(names or []), _Naming(t), _PREC_TERM)


def _print(t: Term, ctx: list[str], naming: _Naming, prec: int) -> str:
    """`t` under the names `ctx`, parenthesised below precedence `prec`."""
    k = type(t)
    if k is App:
        # a chain `f (g (h a))` of applications in argument position, such
        # as a numeral, in one loop; a global or built-in head is its name
        fns = []
        while type(t) is App:
            fn = t.fn
            kf = type(fn)
            fns.append(fn.name if kf is Const or kf is Ref
                       else _print(fn, ctx, naming, _PREC_APP))
            t = t.arg
        s = (f"{' ('.join(fns)} {_print(t, ctx, naming, _PREC_ATOM)}"
             + ")" * (len(fns) - 1))
        p = _PREC_APP
    elif k is Const or k is Ref:
        return t.name
    elif k is Var:
        if t.idx >= len(ctx):
            raise ValueError(
                f"variable {t.idx} has no name in a context of {len(ctx)}")
        return ctx[-1 - t.idx]
    elif k is Eq:
        s = (f"{_print(t.lhs, ctx, naming, _PREC_APP)} "
             f"{'=s' if t.strict else '='} "
             f"{_print(t.rhs, ctx, naming, _PREC_APP)}")
        p = _PREC_EQ
    elif k is Univ:
        return f"{'U' if t.fib else 'Us'} {t.level}"
    elif k is Ann:
        return (f"({_print(t.tm, ctx, naming, _PREC_TERM)} : "
                f"{_print(t.ty, ctx, naming, _PREC_TERM)})")
    elif k is Pi or k is Sig or k is Lam:
        if naming.used is None:
            naming.walk()
        avoid = naming.avoid
        if k is Pi and id(t) not in naming.used:
            # Var 0 is unused in the codomain and `_fresh` never picks "_"
            s = (f"{_print(t.dom, ctx, naming, _PREC_EQ)} -> "
                 f"{_print(t.cod, ctx + ['_'], naming, _PREC_ARROW)}")
            p = _PREC_ARROW
        elif k is Lam:
            inner = list(ctx)
            while type(t) is Lam:
                inner.append(_fresh(t.name, set(inner) | avoid))
                t = t.body
            s = (f"fun {' '.join(inner[len(ctx):])} => "
                 f"{_print(t, inner, naming, _PREC_TERM)}")
            p = _PREC_TERM
        else:
            x = _fresh(t.name, set(ctx) | avoid)
            s = (f"{k.__name__} ({x} : "
                 f"{_print(t.dom, ctx, naming, _PREC_TERM)}), "
                 f"{_print(t.cod, ctx + [x], naming, _PREC_TERM)}")
            p = _PREC_TERM
    else:
        raise AssertionError(t)
    return f"({s})" if p < prec else s
