"""Conversion against an independent oracle: the recursive descent that
`Checker.convert` replaced, kept here as it was but for its alpha-equality,
which is its own since `==` became the kernel's.  Both must give the same
verdict and record the same rules, on every conversion the corpus's checks
make under three kernels, on seeded numeral towers (with fresh and with
shared leaves) and on every conversion the benchmark's numeral modules ask;
and `==` must agree with the oracle's alpha-equality."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from counters import load_perfbench
from test_syntax import open_terms, renamed
from tltt import corpus
from tltt.kernel import Checker, KernelOptions, sort_leq
from tltt.syntax import (
    CONSTS, Ann, App, Const, Eq, Lam, Pi, Ref, Sig, Univ, Var, _Node, parse,
    resolve, shift, spine,
)


def alpha_equal(t, u):
    """Alpha-equality as one recursive descent: the same kinds with the
    same fields, binder names aside.  It calls neither `_differ` nor `==`
    on terms, so the `==` of terms is checked against it."""
    k = type(t)
    if k is not type(u):
        return False
    if k is Var:
        return t.idx == u.idx
    if k is Ref or k is Const:
        return t.name == u.name
    if k is Univ:
        return t.fib == u.fib and t.level == u.level
    if k is Pi or k is Sig:
        return alpha_equal(t.dom, u.dom) and alpha_equal(t.cod, u.cod)
    if k is Lam:
        return alpha_equal(t.body, u.body)
    if k is App:
        return alpha_equal(t.fn, u.fn) and alpha_equal(t.arg, u.arg)
    if k is Eq:
        return (t.strict == u.strict and alpha_equal(t.lhs, u.lhs)
                and alpha_equal(t.rhs, u.rhs))
    if k is Ann:
        return alpha_equal(t.tm, u.tm) and alpha_equal(t.ty, u.ty)
    raise AssertionError(t)


class RecursiveChecker(Checker):
    """`convert` as one recursive descent, with `alpha_equal` as its
    alpha-equality before and after weak-head normalization."""

    def convert(self, t, u, leq=False):
        if t is u or alpha_equal(t, u):
            return True
        t, u = self.whnf(t), self.whnf(u)
        if t is u or alpha_equal(t, u):
            return True
        if isinstance(t, Lam) or isinstance(u, Lam):
            tb = t.body if isinstance(t, Lam) else App(shift(t, 1), Var(0))
            ub = u.body if isinstance(u, Lam) else App(shift(u, 1), Var(0))
            return self.convert(tb, ub)
        th, ta = spine(t)
        uh, ua = spine(u)
        if isinstance(th, Const) and th.name == "pair" and len(ta) == 2:
            return (self.convert(ta[0], App(Const("fst"), u))
                    and self.convert(ta[1], App(Const("snd"), u)))
        if isinstance(uh, Const) and uh.name == "pair" and len(ua) == 2:
            return (self.convert(App(Const("fst"), t), ua[0])
                    and self.convert(App(Const("snd"), t), ua[1]))
        k = type(t)
        if k is not type(u):
            return False
        if k is App:
            return (self.convert(th, uh)
                    and len(ta) == len(ua)
                    and all(map(self.convert, ta, ua)))
        if k is Eq:
            return (t.strict == u.strict and self.convert(t.lhs, u.lhs)
                    and self.convert(t.rhs, u.rhs))
        if k is Univ:
            ok = leq and sort_leq(t, u)
            if ok and t.fib and not u.fib:
                self._use("FIB-PRE")
            return ok
        if k is Pi or k is Sig:
            return self.convert(t.dom, u.dom) and self.convert(t.cod, u.cod, leq)
        if k is Var:
            return t.idx == u.idx
        if k is Const or k is Ref:
            return t.name == u.name
        return False


def verdicts(env, options, t, u, leq):
    """(result, rules) of the worklist and of the recursive conversion."""
    out = []
    for cls in (Checker, RecursiveChecker):
        checker = cls(env=env, options=options)
        out.append((checker.convert(t, u, leq), checker.decl_rules))
    return out


KERNELS = {
    "default": None,
    "js_beta=False": KernelOptions(js_beta=False),
    "no-uip": KernelOptions(omit_consts=frozenset({"uip"})),
}


def run_corpus_sample(options, real_env):
    """`run_corpus` under `options`.  A mutant kernel's run stops at the
    prelude's theorem, so under a mutant each `tests/` file is also checked
    on `real_env`, the real prelude's environment."""
    corpus.run_corpus(options=options)
    if options is not None:
        for path in corpus.corpus_files():
            if path.parent.name != "prelude":
                corpus.check_file(Checker(env=real_env, options=options), path)


@pytest.mark.parametrize("options", KERNELS.values(), ids=KERNELS.keys())
def test_agrees_on_every_corpus_conversion(monkeypatch, options):
    """Every `(got, expected, leq)` the corpus sample asks `convert`."""
    real_env = corpus.prelude_checker()[0].env
    asked = []
    real = Checker.convert

    def recording(self, t, u, leq=False):
        asked.append((self.env, self.options, t, u, leq))
        return real(self, t, u, leq)
    monkeypatch.setattr(Checker, "convert", recording)
    run_corpus_sample(options, real_env)
    monkeypatch.undo()
    results = []
    for env, opts, t, u, leq in asked:
        new, old = verdicts(env, opts, t, u, leq)
        assert new == old, (t, u, leq)
        results.append(new)
    assert len(asked) > 300
    if options is None:     # its `fail` files refute and use subtyping
        assert {ok for ok, _ in results} == {True, False}
        assert any("FIB-PRE" in rules for _, rules in results)


ADD = ("def add : Nat -> Nat -> Nat\n"
       "  := fun m n => indNat (fun k => Nat) n (fun k r => succ r) m\n")


def _add_env():
    checker = Checker()
    for d in resolve(parse(ADD)).decls:
        assert checker.check_decl(d)["status"] == "pass"
    return checker.env


def _numeral(rng, depth, strict=None):
    """A tower of `succ`/`succS` (each level drawn unless `strict` is set)
    over `zero`, `zeroS` or a sum `add m n` of two fibrant numerals."""
    base = rng.choice(["zero", "zeroS", "add"])
    if base == "add":
        m = rng.randrange(depth + 1)
        t = App(App(Ref("add"), _numeral(rng, m, False)),
                _numeral(rng, rng.randrange(depth + 1), False))
    else:
        t = Const(base)
    for _ in range(depth):
        level = rng.random() < 0.5 if strict is None else strict
        t = App(Const("succS" if level else "succ"), t)
    return t


def _levels(t):
    """The constants of `t`'s outer tower and what they are applied to."""
    names = []
    while type(t) is App and type(t.fn) is Const:
        names.append(t.fn.name)
        t = t.arg
    return names, t


def _rebuild(names, base):
    for name in reversed(names):
        base = App(Const(name), base)
    return base


def _variant(rng, t):
    """An equal copy of `t`, or `t` with successors omitted, one level's
    constant swapped, or its base replaced."""
    names, base = _levels(t)
    how = rng.choice(["copy", "omit", "swap", "base"])
    if how == "omit" and names:
        for _ in range(rng.randint(1, min(3, len(names)))):
            del names[rng.randrange(len(names))]
    elif how == "swap" and names:
        i = rng.randrange(len(names))
        names[i] = "succ" if names[i] == "succS" else "succS"
    elif how == "base":
        base = rng.choice([Const("zero"), Const("zeroS"),
                           App(App(Ref("add"), Const("zero")), Const("zero"))])
    return _rebuild(names, base)


@pytest.mark.parametrize("seed", range(8))
def test_agrees_on_seeded_numeral_towers(seed):
    rng = random.Random(f"towers:{seed}")
    env = _add_env()
    outcomes = set()
    for _ in range(60):
        t = _numeral(rng, rng.randrange(60), rng.choice([None, False, True]))
        u = _variant(rng, t)
        if rng.random() < 0.5:
            t, u = u, t
        omit = frozenset(rng.sample(["succ", "succS", "zero", "zeroS"],
                                    rng.randrange(3)))
        new, old = verdicts(env, KernelOptions(omit_consts=omit), t, u,
                            rng.random() < 0.5)
        assert new == old, (t, u)
        outcomes.add(new[0])
    assert outcomes == {True, False}


class Watched(Checker):
    """A `Checker` that keeps the result of each `whnf` call no other
    `whnf` call made.  `convert` makes those two at a time, the left term's
    then the right's, so they come in the pairs it compares after
    weak-head normalization."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.normal, self.depth = [], 0

    def whnf(self, t):
        self.depth += 1
        try:
            t = super().whnf(t)
        finally:
            self.depth -= 1
        if not self.depth:
            self.normal.append(t)
        return t


def same_function(env, options, t, u, leq):
    """Whether `convert(t, u, leq)` meets, after weak-head normalization,
    two applications of one function node: the pairs it compares by their
    last arguments alone."""
    checker = Watched(env=env, options=options)
    checker.convert(t, u, leq)
    pairs = zip(checker.normal[::2], checker.normal[1::2])
    return any(type(a) is App and type(b) is App and a.fn is b.fn
               for a, b in pairs)


def shared(t, add):
    """The tower `t` with the leaves the parser gives it: each constant
    the node of `syntax.CONSTS` and each `add` the one node `add`."""
    k = type(t)
    if k is Const:
        return CONSTS[t.name]
    if k is Ref:
        return add
    return App(shared(t.fn, add), shared(t.arg, add))


@pytest.mark.parametrize("seed", range(8))
def test_agrees_on_seeded_shared_numeral_towers(seed):
    """The towers of `test_agrees_on_seeded_numeral_towers` with shared
    leaves, so two levels of one constant are one function node."""
    rng = random.Random(f"shared towers:{seed}")
    env, add = _add_env(), Ref("add")
    outcomes, fast = set(), 0
    for _ in range(60):
        t = _numeral(rng, rng.randrange(60), rng.choice([None, False, True]))
        u = _variant(rng, t)
        if rng.random() < 0.5:
            t, u = u, t
        t, u = shared(t, add), shared(u, add)
        omit = frozenset(rng.sample(["succ", "succS", "zero", "zeroS"],
                                    rng.randrange(3)))
        options, leq = KernelOptions(omit_consts=omit), rng.random() < 0.5
        new, old = verdicts(env, options, t, u, leq)
        assert new == old, (t, u)
        outcomes.add(new[0])
        fast += same_function(env, options, t, u, leq)
    assert outcomes == {True, False} and fast


@pytest.mark.parametrize("kind", ["add", "add+1", "toNat"])
def test_agrees_on_numeral_modules(monkeypatch, kind):
    """Every conversion the benchmark's numeral modules ask, at depths
    from 1 to 60, with the leaves the parser shares."""
    workloads = load_perfbench("workloads")
    env = corpus.prelude_checker()[0].env
    rng = random.Random(f"numeral modules:{kind}")
    asked = []
    real = Checker.convert

    def recording(self, t, u, leq=False):
        asked.append((dict(self.env), self.options, t, u, leq))
        return real(self, t, u, leq)
    monkeypatch.setattr(Checker, "convert", recording)
    for depth in (1, 2, 3, 7, 12, 20, 33, 47, 60):
        src = workloads.numeral_source(kind, depth, rng.random())[0]
        checker = Checker(env=env)
        mod = resolve(parse(src, f"{kind}-{depth}.tltt"), set(env))
        for d in mod.decls:
            checker.check_decl(d)
    monkeypatch.undo()
    outcomes, fast = set(), 0
    for env_, options, t, u, leq in asked:
        new, old = verdicts(env_, options, t, u, leq)
        assert new == old, (t, u, leq)
        outcomes.add(new[0])
        fast += same_function(env_, options, t, u, leq)
    assert len(asked) > 50 and fast
    assert outcomes == ({True, False} if kind == "add+1" else {True})


def _type(rng, depth):
    """A random term over universes, Π, Σ, `=`, variables, constants,
    lambdas and pairs, with no redex."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([
            lambda: Univ(rng.random() < 0.5, rng.randrange(2)),
            lambda: Var(rng.randrange(2)),
            lambda: Const(rng.choice(["Nat", "NatS", "zero"])),
        ])()
    d = depth - 1
    return rng.choice([
        lambda: rng.choice([Pi, Sig])("x", _type(rng, d), _type(rng, d)),
        lambda: rng.choice([Pi, Sig])("x", _type(rng, d), Univ(True, 0)),
        lambda: Eq(rng.random() < 0.5, _type(rng, d), _type(rng, d)),
        lambda: Lam("x", _type(rng, d)),
        lambda: App(Var(rng.randrange(2)), _type(rng, d)),
        lambda: App(App(Const("pair"), _type(rng, d)), _type(rng, d)),
    ])()


def _perturb(rng, t):
    """`t` rebuilt node by node, each node replaced with a small chance."""
    if rng.random() < 0.08:
        return _type(rng, 1)
    k = type(t)
    if k is Pi or k is Sig:
        return k(t.name, _perturb(rng, t.dom), _perturb(rng, t.cod))
    if k is Eq:
        return Eq(t.strict, _perturb(rng, t.lhs), _perturb(rng, t.rhs))
    if k is Lam:
        return Lam(t.name, _perturb(rng, t.body))
    if k is App:
        return App(_perturb(rng, t.fn), _perturb(rng, t.arg))
    if k is Univ and rng.random() < 0.3:    # a pretype universe above it
        return Univ(False, t.level + rng.randrange(2))
    return k(*(getattr(t, f) for f in t.__slots__))


@pytest.mark.parametrize("seed", range(8))
def test_agrees_on_seeded_types(seed):
    """Universes under `leq`, both etas and every structural case, on a
    term against a copy of it with a few nodes replaced."""
    rng = random.Random(f"types:{seed}")
    outcomes, rules = set(), set()
    for _ in range(150):
        t = _type(rng, 4)
        u = _perturb(rng, t)
        new, old = verdicts({}, None, t, u, rng.random() < 0.7)
        assert new == old, (t, u)
        outcomes.add(new[0])
        rules |= new[1]
    assert outcomes == {True, False} and rules == {"FIB-PRE"}


@pytest.mark.parametrize("seed", range(4))
def test_agrees_where_one_node_meets_different_partners(seed):
    """`_differ` records the pairs on the path to a difference under `id` of
    the left node.  One node at four positions, paired with itself, a
    renamed copy, a redex that reduces to it and a perturbed copy in a
    drawn order, on either side, gets the oracle's verdict."""
    rng = random.Random(f"shared:{seed}")
    outcomes = set()
    for _ in range(60):
        s = _type(rng, 3)
        partners = [s, renamed(s), App(Lam("z", shift(s, 1)), Const("zero")),
                    _perturb(rng, s)]
        rng.shuffle(partners)
        a, b, c, d = partners
        t = Sig("p", s, Pi("q", s, Eq(False, s, s)))
        u = Sig("p", a, Pi("q", b, Eq(False, c, d)))
        leq = rng.random() < 0.5
        for left, right in ((t, u), (u, t)):
            new, old = verdicts({}, None, left, right, leq)
            assert new == old, (left, right)
            outcomes.add(new[0])
    assert outcomes == {True, False}


def size(t):
    """The number of nodes of `t`."""
    return 1 + sum(size(getattr(t, f)) for f in type(t).__match_args__
                   if isinstance(getattr(t, f), _Node))


def changed(t):
    """`t`'s root node changed, its children kept: another index, name,
    level or strictness, or another kind of node."""
    k = type(t)
    if k is Var:
        return Var(t.idx + 1)
    if k is Ref or k is Const:
        return k(t.name + "'")
    if k is Univ:
        return Univ(t.fib, t.level + 1)
    if k is Pi or k is Sig:
        return (Sig if k is Pi else Pi)(t.name, t.dom, t.cod)
    if k is Lam:
        return Pi(t.name, t.body, t.body)
    if k is App:
        return Ann(t.fn, t.arg)
    if k is Eq:
        return Eq(not t.strict, t.lhs, t.rhs)
    return App(t.tm, t.ty)


def perturbed(t, at):
    """`t` with its node number `at`, in preorder, `changed`."""
    left = [at]

    def walk(t):
        left[0] -= 1
        if left[0] == -1:
            return changed(t)
        k = type(t)
        if k is Pi or k is Sig:
            return k(t.name, walk(t.dom), walk(t.cod))
        if k is Lam:
            return Lam(t.name, walk(t.body))
        if k is App:
            return App(walk(t.fn), walk(t.arg))
        if k is Eq:
            return Eq(t.strict, walk(t.lhs), walk(t.rhs))
        if k is Ann:
            return Ann(walk(t.tm), walk(t.ty))
        return t
    return walk(t)


class TestAlphaEquality:
    """The `==` of terms, `syntax._differ`, is `alpha_equal`."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(open_terms, open_terms, st.data())
    def test_equality_is_the_oracles(self, t, u, data):
        p = perturbed(t, data.draw(st.integers(0, size(t) - 1)))
        assert alpha_equal(t, renamed(t)) and not alpha_equal(t, p)
        for other in (renamed(t), u, p, renamed(p)):
            same = alpha_equal(t, other)
            assert (t == other) is same and (t != other) is not same
            assert (other == t) is same
