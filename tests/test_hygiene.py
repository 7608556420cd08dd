"""Source hygiene: no module of the package imports a name it never uses,
no private function or class is left that no module reads, and no public
function, class or method is left that neither the package, its tests nor
its benchmark reads."""

import ast
import dataclasses
import importlib.util
import pathlib
import sys
import typing
from types import SimpleNamespace

import pytest

import tltt
from tltt import classifier, kernel, syntax

MODULES = sorted(pathlib.Path(tltt.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).parents[1]
READERS = MODULES + sorted((ROOT / "tests").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(source: str) -> list[str]:
    """Names bound by `import` statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom x import a, b as c\n"
              "print(os.path.sep, c)\n")
    assert unused_imports(source) == ["line 3: j", "line 4: a"]


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level `_`-prefixed functions and classes that no module of
    `sources` (module name -> source) reads, by name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.endswith("__")):
                defined.append((module, node.lineno, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module} line {line}: {name}"
            for module, line, name in defined if name not in read]


def test_no_unused_private_definitions():
    assert unused_private_definitions(
        {path.name: path.read_text() for path in MODULES}) == []


def test_the_check_sees_an_unused_private_definition():
    sources = {"a.py": "def _used(): pass\ndef _left(): pass\n"
                       "class _Gone: pass\ndef __getattr__(name): pass\n",
               "b.py": "from a import _used, _left\n_used()\n"}
    assert unused_private_definitions(sources) == [
        "a.py line 2: _left", "a.py line 3: _Gone"]


def unused_public_definitions(sources: dict[str, str],
                              readers: dict[str, str]) -> list[str]:
    """Module-level functions and classes, and methods, whose names do not
    start with `_` and that no module of `readers` reads: by name, as an
    attribute, or in a string naming it (as `"Class.method"`), the way the
    benchmark's tracer looks functions up."""
    read = set()
    for source in readers.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and all(part.isidentifier()
                          for part in node.value.split("."))):
                read.update(node.value.split("."))
    unused = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                defs = [node] + [m for m in node.body
                                 if isinstance(m, FUNCTIONS)]
            elif isinstance(node, FUNCTIONS):
                defs = [node]
            else:
                continue
            unused += [f"{module} line {d.lineno}: {d.name}" for d in defs
                       if not d.name.startswith("_") and d.name not in read]
    return unused


def test_no_unused_public_definitions():
    assert unused_public_definitions(
        {path.name: path.read_text() for path in MODULES},
        {str(path): path.read_text() for path in READERS}) == []


def test_the_check_sees_an_unused_public_definition():
    sources = {"a.py": "def used(): pass\ndef left(): pass\n"
                       "class Gone:\n    def kept(self): pass\n"
                       "class Kept:\n    def traced(self): pass\n"
                       "    def gone(self): pass\n    def _own(self): pass\n"}
    readers = {**sources,
               "b.py": "from a import used, left\nused()\nx.kept()\n",
               "c.py": "SPANNED = (('a', 'Kept.traced'),)\n"}
    assert unused_public_definitions(sources, readers) == [
        "a.py line 2: left", "a.py line 3: Gone", "a.py line 7: gone"]


def callers(name: str, sources: dict[str, str]) -> set[str]:
    """Where `sources` (module name -> source) call `name`, by name or as an
    attribute: `module.function`, `module.Class.method`, or `module.<top>`
    for a call outside any function."""
    found = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for fn in members:
                where = fn.name if isinstance(fn, FUNCTIONS) else "<top>"
                if any(isinstance(n, ast.Call)
                       and name in (getattr(n.func, "id", None),
                                    getattr(n.func, "attr", None))
                       for n in ast.walk(fn)):
                    found.add(f"{module}.{prefix}{where}")
    return found


def test_diagrams_are_tabulated_in_one_place():
    """Every diagram the package builds gets its action tables from
    `categories.tabulate`, so their order is decided once; only the fixture
    loader, whose tables are input, builds a `SetDiagram` itself."""
    assert callers("SetDiagram",
                   {path.stem: path.read_text() for path in MODULES}) == {
        "categories.tabulate", "fixtures.diagram_from_json"}


def test_builtins_are_built_once():
    """Every built-in is one node, built into `syntax.CONSTS` at import;
    the parser and the kernel take it from there."""
    assert callers("Const",
                   {path.stem: path.read_text() for path in MODULES}) == {
        "syntax.<top>"}


def test_the_exponential_builds_no_intermediate_diagram():
    """`exponential_diagram` solves each Nat(F x y_d, G) from the tables, so
    the two sides of criterion 6, `limit_direct` of the exponential and
    `diagram_nat_transforms`, share only `solver.solve`, which
    `tests/test_solver.py` checks against brute force."""
    sources = {path.stem: path.read_text() for path in MODULES}
    assert [name for name in ("diagram_nat_transforms", "product_diagram",
                              "representable")
            if "categories.exponential_diagram" in callers(name, sources)
            ] == []


def test_the_check_sees_every_caller():
    sources = {"a": "D(1)\nclass K:\n    def m(self):\n        return x.D()\n"
                    "def f():\n    def g():\n        D()\n    return E()\n",
               "b": "def h(D):\n    return D\n"}
    assert callers("D", sources) == {"a.<top>", "a.K.m", "a.f"}


def _tracer():
    """The benchmark's tracer module, loaded from its file."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    """Each name the tracer wraps resolves on its `tltt` module, a
    `"Class.method"` in the class's own `__dict__`, as the tracer looks it
    up; a refactor that deletes one otherwise fails only a traced run."""
    tracer = _tracer()
    missing = []
    for module, attr, _ in tracer.SPANNED + tracer.COUNTED:
        owner = importlib.import_module(f"tltt.{module}")
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{module}.{attr}")
    assert missing == []


@pytest.mark.parametrize("workload", ["diagrams", "simplices"])
def test_every_benchmark_item_passes_its_check(workload, monkeypatch):
    """The benchmark's `diagrams` and `simplices` plans, loaded from its
    file, at a fixed seed: each item runs once and passes its own check.  A
    refactor that breaks a name or a result they read otherwise fails only
    a benchmark run."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses
    spec.loader.exec_module(workloads)
    tl = SimpleNamespace(**{p.stem: importlib.import_module(f"tltt.{p.stem}")
                            for p in MODULES if p.stem != "__init__"})
    plan = workloads.WORKLOADS[workload](tl, 0)
    assert plan.items
    assert [item.label for item in plan.items
            if not item.check(item.call())] == []


def test_one_presheaf_type():
    """A semi-simplicial set is a `SetDiagram` on the semi-simplex category:
    the package defines no second type for it, and no module of it calls
    `categories.sset_to_diagram`, which only the benchmark still reads."""
    sources = {path.stem: path.read_text() for path in MODULES}
    assert callers("sset_to_diagram", sources) == set()
    assert not any("FiniteSemiSimplicialSet" in source
                   for source in sources.values())


def test_nat_key_has_no_caller_in_the_package():
    """`categories.nat_key` is another name for `family_key`, kept only
    because the benchmark reads it; the package calls `family_key`."""
    sources = {path.stem: path.read_text() for path in MODULES}
    assert callers("nat_key", sources) == set()
    assert callers("family_key", sources) >= {
        "categories.exponential_diagram", "cli.cmd_exponential"}


WALKERS = {"syntax.py": ("subst", "_differ", "_print", "_nodes"),
           "kernel.py": ("Checker.whnf", "Checker.infer", "Checker.check",
                         "Checker.convert")}


def test_term_walkers_dispatch_without_match():
    """The eight walkers that run once per term node test `type(t)` by
    identity instead of matching class patterns.  A `match` tries its cases
    in turn, each failed `case Cls(...)` a class test, so the commonest
    node, tested late, paid for every case ahead of it; the identity tests
    took the `corpus` workload from 57.6 to 94.7 items/s (`BENCH_17.json`)."""
    found = {}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for fn in members:
                if isinstance(fn, FUNCTIONS):
                    found[path.name, prefix + fn.name] = fn
    for module, names in WALKERS.items():
        for name in names:
            fn = found[module, name]
            assert not any(isinstance(n, ast.Match) for n in ast.walk(fn)), name


def calls_in(source: str, name: str) -> set[str]:
    """The callees of module-level function `name` in `source`, each as
    written (`k`, `self.m`, `type(t)`)."""
    fn = next(node for node in ast.parse(source).body
              if isinstance(node, FUNCTIONS) and node.name == name)
    return {ast.unparse(n.func) for n in ast.walk(fn)
            if isinstance(n, ast.Call)}


def test_shift_is_subst_with_no_terms():
    """`shift` calls `subst` and nothing else, so it builds no term node of
    its own: substitution is one walker, and a second one that rebuilds
    terms cannot come back unnoticed."""
    assert calls_in(pathlib.Path(syntax.__file__).read_text(),
                    "shift") == {"subst"}


def test_the_check_sees_a_rebuild():
    source = ("def shift(t, by):\n    k = type(t)\n    if k is Var:\n"
              "        return Var(t.idx + by)\n"
              "    return k(t.name, shift(t.body, by)) if by else subst(t)\n"
              "def subst(t):\n    return App(t, t)\n")
    assert calls_in(source, "shift") == {"type", "Var", "k", "shift", "subst"}


def python_steps(source: str, name: str) -> list[str]:
    """The Python-level loops of module-level function `name` in `source`:
    what each `for` and comprehension iterates over, as written, each
    `while`, each `lambda`, and each `map` of a function defined in
    `source`."""
    tree = ast.parse(source)
    own = {node.name for node in tree.body if isinstance(node, FUNCTIONS)}
    fn = next(node for node in tree.body
              if isinstance(node, FUNCTIONS) and node.name == name)
    steps = []
    for n in ast.walk(fn):
        if isinstance(n, (ast.For, ast.comprehension)):
            steps.append(ast.unparse(n.iter))
        elif isinstance(n, (ast.While, ast.Lambda)):
            steps.append(type(n).__name__.lower())
        elif (isinstance(n, ast.Call) and ast.unparse(n.func) == "map"
              and ast.unparse(n.args[0]) in own):
            steps.append(ast.unparse(n))
    return sorted(steps)


def test_the_scan_takes_no_python_step_per_token():
    """`syntax.tokenize` iterates in Python only over the set of distinct
    texts, to classify each once: the tokens come from one `findall` and
    their columns are built in C, with no loop over the matches, which cost
    the `numerals` front end a Python step per token."""
    steps = python_steps(pathlib.Path(syntax.__file__).read_text(),
                         "tokenize")
    assert steps and all(step.startswith("set(") for step in steps), steps


def test_the_check_sees_a_loop_over_matches():
    source = ("def _kind(t):\n    return t\n"
              "def tokenize(src):\n"
              "    kinds = {t: _kind(t) for t in set(texts)}\n"
              "    for m in R.finditer(src):\n        out.append(m)\n"
              "    texts = [pair[1] for pair in R.findall(src)]\n"
              "    while i < n:\n        i += 1\n"
              "    ends = map(lambda m: m.end(), ms)\n"
              "    return list(map(_kind, texts)), list(map(len, texts))\n")
    assert python_steps(source, "tokenize") == [
        "R.findall(src)", "R.finditer(src)", "lambda", "map(_kind, texts)",
        "set(texts)", "while"]


def validates_naturality(source: str, name: str) -> bool:
    """Whether module-level function `name` in `source` calls
    `DiagramMap(...).validate()` and reads no `.action` itself."""
    fn = next(node for node in ast.parse(source).body
              if isinstance(node, FUNCTIONS) and node.name == name)
    validates = any(callee.startswith("DiagramMap(")
                    and callee.endswith(").validate")
                    for callee in calls_in(source, name))
    return validates and not any(
        isinstance(n, ast.Attribute) and n.attr == "action"
        for n in ast.walk(fn))


def test_round_trip_checks_naturality_with_validate():
    """`classifier.round_trip` builds a `DiagramMap` of its re-encoding and
    validates it: naturality is checked in one place, and a loop of its own
    over the arrows, which would read the action tables, cannot come back
    unnoticed."""
    assert validates_naturality(
        pathlib.Path(classifier.__file__).read_text(), "round_trip")


def test_the_check_sees_an_own_naturality_loop():
    loop = ("    for a in cat.arrows():\n"
            "        if eta[d.action[a][v]] != d2.action[a][eta[v]]:\n"
            "            return False\n")
    own = "def round_trip(d, d2, eta):\n    d.validate()\n" + loop
    both = ("def round_trip(d, d2, eta):\n"
            "    DiagramMap(d, d2, eta).validate()\n" + loop)
    handed = ("def round_trip(d, d2, eta):\n"
              "    DiagramMap(d, d2, eta).validate()\n")
    assert not validates_naturality(own, "round_trip")
    assert not validates_naturality(both, "round_trip")
    assert validates_naturality(handed, "round_trip")


def own_equality(cls) -> set[str]:
    """The equality and hashing methods that `cls` defines itself."""
    return {"__eq__", "__hash__"} & set(vars(cls))


def test_terms_have_one_equality():
    """No term kind defines its own `__eq__` or `__hash__`: `==` is
    `_Node`'s, the alpha-equality `_differ` that conversion uses, which no
    depth of term takes past the recursion limit, and terms do not hash.
    The generated `__eq__` of a dataclass would recurse once per level."""
    for kind in typing.get_args(syntax.Term):
        assert own_equality(kind) == set(), kind.__name__
    assert own_equality(syntax._Node) == {"__eq__", "__hash__"}


def test_the_check_sees_an_equality():
    @dataclasses.dataclass(eq=True, frozen=True)
    class Hashed:
        x: int

    class Equal(Hashed):     # defining `__eq__` sets `__hash__` to None
        def __eq__(self, other):
            return True
    assert own_equality(Hashed) == {"__eq__", "__hash__"}
    assert own_equality(Equal) == {"__eq__", "__hash__"}
    assert own_equality(type("Plain", (Equal,), {})) == set()


def test_every_term_kind_is_a_slotted_node():
    """A term kind declared as a plain or frozen dataclass would silently
    give its nodes a `__dict__`, and a frozen one a store per field through
    `object.__setattr__`."""
    for kind in typing.get_args(syntax.Term):
        assert issubclass(kind, syntax._Node), kind.__name__
        assert kind.__slots__, kind.__name__


def recursive_methods(source: str, cls: str) -> set[str]:
    """The methods of class `cls` in `source` that reach themselves through
    calls `self.<method>(...)`."""
    tree = next(node for node in ast.parse(source).body
                if isinstance(node, ast.ClassDef) and node.name == cls)
    calls = {fn.name: {n.func.attr for n in ast.walk(fn)
                       if isinstance(n, ast.Call)
                       and isinstance(n.func, ast.Attribute)
                       and isinstance(n.func.value, ast.Name)
                       and n.func.value.id == "self"}
             for fn in tree.body if isinstance(fn, FUNCTIONS)}

    def reaches_itself(start):
        seen, todo = set(), list(calls[start])
        while todo:
            name = todo.pop()
            if name == start:
                return True
            if name in calls and name not in seen:
                seen.add(name)
                todo += calls[name]
        return False
    return {name for name in calls if reaches_itself(name)}


def test_the_parser_does_not_recurse():
    """`Parser.term` nests on a stack of its own, so no method of `Parser`
    reaches itself through `self` calls, and a term nested past the
    recursion limit still parses."""
    assert recursive_methods(pathlib.Path(syntax.__file__).read_text(),
                             "Parser") == set()


def test_the_check_sees_recursion():
    source = ("class P:\n    def term(self):\n        return self.app()\n"
              "    def app(self):\n        return self.term() + self.y()\n"
              "    def x(self):\n        return self.x()\n"
              "    def leaf(self):\n        return self.app() + self.z()\n")
    assert recursive_methods(source, "P") == {"term", "app", "x"}


def test_conversion_does_not_recurse():
    """`Checker.convert` runs on a worklist and `syntax._differ`, its
    alpha-equality and the `==` of terms, on a stack of its own: neither
    reaches itself, so comparing deep terms costs no Python frame per
    level."""
    source = pathlib.Path(kernel.__file__).read_text()
    assert "convert" not in recursive_methods(source, "Checker")
    differ = next(node for node in ast.parse(
                      pathlib.Path(syntax.__file__).read_text()).body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_differ")
    assert callers("_differ", {"syntax": ast.unparse(differ)}) == set()


def self_references(source: str, cls: str) -> set[str]:
    """The methods of class `cls` in `source` that name themselves as
    `self.<method>`: a direct call, or the method handed on as a value."""
    tree = next(node for node in ast.parse(source).body
                if isinstance(node, ast.ClassDef) and node.name == cls)
    return {fn.name for fn in tree.body if isinstance(fn, FUNCTIONS)
            and any(isinstance(n, ast.Attribute) and n.attr == fn.name
                    and isinstance(n.value, ast.Name) and n.value.id == "self"
                    for n in ast.walk(fn))}


def test_reduction_does_not_call_itself():
    """`Checker.whnf` is one loop over a head and its arguments, and
    `infer_sort` types a reduced type with `infer`: neither names itself,
    and a chain of heads costs `whnf` no Python frame per link.  `_iota`
    reducing a major premise with `whnf` is the one way back in."""
    found = self_references(pathlib.Path(kernel.__file__).read_text(),
                            "Checker")
    assert found.isdisjoint({"whnf", "infer_sort"}), found


def test_the_check_sees_a_self_call():
    source = ("class C:\n    def whnf(self, t):\n"
              "        return self.whnf(t.fn)\n"
              "    def infer_sort(self, t):\n"
              "        return self.run(self.infer_sort, t)\n"
              "    def iota(self, t):\n        return self.whnf(t)\n"
              "    def other(self, t):\n        return t.other\n")
    assert self_references(source, "C") == {"whnf", "infer_sort"}
