"""Source hygiene: no module of the package imports a name it never uses,
no private function or class is left that no module reads, and no public
function, class or method is left that neither the package nor its
benchmark reads: what only tests read is a test oracle, in
`tests/oracles.py`.  Each check finds a function, class or method of a
source by name in its `definitions`."""

import ast
import dataclasses
import importlib
import pathlib
import typing
from types import SimpleNamespace

import pytest

import tltt
from counters import load_perfbench
from tltt import kernel, syntax

MODULES = sorted(pathlib.Path(tltt.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).parents[1]
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
SOURCES = {path: path.read_text() for path in READERS}
PACKAGE = {path.stem: SOURCES[path] for path in MODULES}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(source: str) -> dict[str, ast.AST]:
    """The syntax trees of `source` by name: each module-level function and
    class, each method of such a class as `"Class.method"`, and the other
    statements of the module as one tree `"<top>"`, of a class as
    `"Class.<top>"`."""
    found = {}

    def index(prefix, body, kinds):
        top = []
        for node in body:
            if isinstance(node, kinds):
                found[prefix + node.name] = node
                if isinstance(node, ast.ClassDef):
                    index(f"{node.name}.", node.body, FUNCTIONS)
            else:
                top.append(node)
        found[prefix + "<top>"] = ast.Module(top, [])
    index("", ast.parse(source).body, (ast.ClassDef, *FUNCTIONS))
    return found


def test_the_index_names_each_definition():
    source = ("import os\n@cache\ndef f(x):\n    return x\n"
              "async def g():\n    await f(1)\n"
              "class K:\n    \"\"\"A class.\"\"\"\n    n = 1\n"
              "    def m(self):\n        def inner():\n            return 0\n"
              "        return inner\n"
              "    @property\n    def p(self):\n        return 2\n"
              "X = K()\n")
    found = definitions(source)
    assert {name: type(t).__name__ for name, t in found.items()} == {
        "f": "FunctionDef", "g": "AsyncFunctionDef", "K": "ClassDef",
        "K.m": "FunctionDef", "K.p": "FunctionDef", "K.<top>": "Module",
        "<top>": "Module"}
    assert ast.unparse(found["K.<top>"]) == "\"\"\"A class.\"\"\"\nn = 1"
    assert ast.unparse(found["<top>"]) == "import os\nX = K()"
    assert found["f"].decorator_list[0].id == "cache"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_index_lists_every_function_and_method(path):
    """The functions and methods the index lists are the function
    definitions whose parent is the module or one of its classes."""
    tree = ast.parse(SOURCES[path])
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    level = [tree] + [node for node in tree.body
                      if isinstance(node, ast.ClassDef)]
    assert sorted((fn.lineno, fn.name)
                  for fn in definitions(SOURCES[path]).values()
                  if isinstance(fn, FUNCTIONS)) == sorted(
        (n.lineno, n.name) for n in ast.walk(tree)
        if isinstance(n, FUNCTIONS) and parents[n] in level)


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
    assert unused_imports(SOURCES[path]) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\nfrom x import a, b as c\n"
              "print(os.path.sep, c)\n")
    assert unused_imports(source) == ["line 3: j", "line 4: a"]


def undocumented_records(source: str) -> list[str]:
    """Module-level classes of `source` that `dataclass` or `_term` makes
    and that have no docstring of their own: `dataclasses` writes one for
    each of them at import, through `inspect.signature`."""
    return [f"line {node.lineno}: {node.name}"
            for node in definitions(source).values()
            if isinstance(node, ast.ClassDef)
            and ast.get_docstring(node) is None
            and any(ast.unparse(d).partition("(")[0].rpartition(".")[2]
                    in ("dataclass", "_term") for d in node.decorator_list)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_dataclass_and_term_class_has_a_docstring(path):
    assert undocumented_records(SOURCES[path]) == []


def test_the_check_sees_a_class_without_a_docstring():
    source = ("@dataclass\nclass A:\n    x: int\n"
              "@dataclasses.dataclass(slots=True)\nclass B:\n"
              "    \"\"\"Documented.\"\"\"\n    x: int\n"
              "@_term\nclass C(_Node):\n    x: int\n"
              "@dataclass(frozen=True)\nclass D:\n    x: int = 0\n"
              "class E:\n    x: int\n")
    assert undocumented_records(source) == [
        "line 2: A", "line 9: C", "line 12: D"]


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level `_`-prefixed functions and classes that no module of
    `sources` (module name -> source) reads, by name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        defined += [(module, node.lineno, name)
                    for name, node in definitions(source).items()
                    if name.startswith("_") and "." not in name
                    and not name.endswith("__")]
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module} line {line}: {name}"
            for module, line, name in defined if name not in read]


def test_no_unused_private_definitions():
    assert unused_private_definitions(PACKAGE) == []


def test_the_check_sees_an_unused_private_definition():
    sources = {"a.py": "def _used(): pass\ndef _left(): pass\n"
                       "class _Gone: pass\ndef __getattr__(name): pass\n",
               "b.py": "from a import _used, _left\n_used()\n"}
    assert unused_private_definitions(sources) == [
        "a.py line 2: _left", "a.py line 3: _Gone"]


def unused_public_definitions(sources: dict[str, str],
                              readers: dict) -> list[str]:
    """Module-level functions and classes, and methods, whose names do not
    start with `_` and that no module of `readers` reads.  A function or a
    class is read by name, as an attribute, or in a string naming it, the
    way the benchmark's tracer looks functions up.  A method or property
    is read only as an attribute (`x.name`) or in a string `"Class.name"`:
    a local variable or a plain string of the same name does not read it."""
    read, attrs, dotted = set(), set(), set()
    for source in readers.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
                attrs.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and all(part.isidentifier()
                          for part in node.value.split("."))):
                read.update(node.value.split("."))
                dotted.add(".".join(node.value.split(".")[-2:]))
    return [f"{module} line {node.lineno}: {own}"
            for module, source in sources.items()
            for name, node in definitions(source).items()
            for owner, _, own in [name.rpartition(".")]
            if not own.startswith(("_", "<"))
            and (own not in attrs and name not in dotted if owner
                 else own not in read)]


# Public names of the package kept for a library caller, though neither the
# package nor its benchmark reads them: name -> the reason.
LIBRARY_NAMES: dict[str, str] = {}


def test_no_unused_public_definitions():
    """Every public function, class and method of the package has a reader
    in the package or in its benchmark, where a string naming it, as in the
    tracer's `SPANNED` and `COUNTED` tables, counts; one that only tests
    read belongs in `tests/oracles.py`, and one kept for a library caller
    is listed in `LIBRARY_NAMES` with its reason."""
    assert all(LIBRARY_NAMES.values())
    unused = unused_public_definitions(PACKAGE, SOURCES)
    assert [entry for entry in unused
            if entry.rpartition(": ")[2] not in LIBRARY_NAMES] == []


def test_the_check_sees_an_unused_public_definition():
    sources = {"a.py": "def used(): pass\ndef left(): pass\n"
                       "class Gone:\n    def kept(self): pass\n"
                       "class Kept:\n    def traced(self): pass\n"
                       "    def gone(self): pass\n    def _own(self): pass\n"
                       "    @property\n    def s(self): pass\n"}
    readers = {**sources,
               "b.py": "from a import used, left\nused()\nx.kept()\n",
               "c.py": "SPANNED = (('a', 'Kept.traced'),)\n",
               "d.py": "for s in range(3):\n    print(s, 'gone', 's')\n"}
    assert unused_public_definitions(sources, readers) == [
        "a.py line 2: left", "a.py line 3: Gone", "a.py line 7: gone",
        "a.py line 10: s"]


def callers(name: str, sources: dict[str, str]) -> set[str]:
    """Where `sources` (module name -> source) call `name`, by name or as an
    attribute: `module.function`, `module.Class.method`, or `module.<top>`
    for a call outside any function."""
    return {f"{module}.{where}" for module, source in sources.items()
            for where, tree in definitions(source).items()
            if not isinstance(tree, ast.ClassDef)
            and any(isinstance(n, ast.Call)
                    and name in (getattr(n.func, "id", None),
                                 getattr(n.func, "attr", None))
                    for n in ast.walk(tree))}


def test_diagrams_are_tabulated_in_one_place():
    """Every diagram the package builds gets its action tables from
    `categories.tabulate`, so their order is decided once; only the fixture
    loader, whose tables are input, builds a `SetDiagram` itself."""
    assert callers("SetDiagram", PACKAGE) == {
        "categories.tabulate", "fixtures.diagram_from_json"}


def test_builtins_are_built_once():
    """Every built-in is one node, built into `syntax.CONSTS` at import;
    the parser and the kernel take it from there."""
    assert callers("Const", PACKAGE) == {"syntax.<top>"}


def test_variables_and_universes_are_shared():
    """Below `syntax.SHARED` every variable and universe is one node, built
    into `syntax.VARS` and `syntax.UNIVS` at import; `syntax.var` and
    `syntax.univ` hand them out and build the only other ones, above the
    bound."""
    assert callers("Var", PACKAGE) == {"syntax.<top>", "syntax.var"}
    assert callers("Univ", PACKAGE) == {"syntax.<top>", "syntax.univ"}


def bypasses(source: str) -> list[str]:
    """Where `source` builds or fills an instance past its class's
    constructor: each call of `object.__new__`, and each reach into a
    `__dict__`, through which a field is written without `__init__`."""
    found = [n for n in ast.walk(ast.parse(source))
             if isinstance(n, ast.Call)
             and ast.unparse(n.func) == "object.__new__"
             or isinstance(n, ast.Attribute) and n.attr == "__dict__"]
    return [f"line {n.lineno}: {ast.unparse(n)}"
            for n in sorted(found, key=lambda n: (n.lineno, n.col_offset))]


def test_every_instance_is_built_by_its_constructor():
    """No module of the package calls `object.__new__` or writes an
    instance's `__dict__`: a `Sieve` is built only by `Sieve(n, bits)`, and
    each function that makes one shows that its bits are downward closed
    (`tests/test_simplex.py` checks them all), so no second way in skips
    what the constructor does."""
    found = {module: bypasses(source) for module, source in PACKAGE.items()}
    assert {module: sites for module, sites in found.items() if sites} == {}


def test_the_check_sees_a_bypass():
    source = ("def closed(cls, n):\n    sv = object.__new__(cls)\n"
              "    fields = sv.__dict__\n    fields['n'] = n\n"
              "    sv.__dict__.update(bits=0)\n"
              "    return sv, cls(n), vars(cls), cls.__new__\n")
    assert bypasses(source) == ["line 2: object.__new__(cls)",
                                "line 3: sv.__dict__", "line 5: sv.__dict__"]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that `source` imports by absolute
    name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return found


def test_the_exponential_builds_no_intermediate_diagram():
    """`exponential_diagram` solves each Nat(F x y_d, G) from the tables, so
    the two sides of criterion 6, `limit_direct` of the exponential and
    `diagram_nat_transforms`, share only `solver.solve`, which
    `tests/test_solver.py` checks against brute force.  The product and the
    representable that the textbook exponential builds are test oracles,
    and no module of the package imports from the tests."""
    assert "categories.exponential_diagram" not in callers(
        "diagram_nat_transforms", PACKAGE)
    tests = {"tests"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
    found = {module: imported_modules(source) & tests
             for module, source in PACKAGE.items()}
    assert {module: names for module, names in found.items() if names} == {}


def test_the_check_sees_an_import():
    source = ("import os.path, tests.oracles\nfrom oracles import x\n"
              "from . import kernel\nfrom .syntax import Var\n"
              "def f():\n    import json\n")
    assert imported_modules(source) == {"os", "tests", "oracles", "json"}


def test_the_check_sees_every_caller():
    sources = {"a": "D(1)\nclass K:\n    def m(self):\n        return x.D()\n"
                    "def f():\n    def g():\n        D()\n    return E()\n",
               "b": "def h(D):\n    return D\n"}
    assert callers("D", sources) == {"a.<top>", "a.K.m", "a.f"}
    tables = {"t": "T = tuple(D(i) for i in range(9))\n"
                   "def d(i):\n    return T[i] if i < 9 else D(i)\n"
                   "def s(t):\n    return t if t.i < 9 else d(t.i)\n",
              "k": "def eta(t):\n    return A(t, D(0))\n"}
    assert callers("D", tables) == {"t.<top>", "t.d", "k.eta"}


def test_every_traced_name_exists():
    """Each name the tracer wraps resolves on its `tltt` module, a
    `"Class.method"` in the class's own `__dict__`, as the tracer looks it
    up; a refactor that deletes one otherwise fails only a traced run."""
    tracer = load_perfbench("tracer")
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


@pytest.mark.parametrize("workload",
                         ["corpus", "numerals", "diagrams", "simplices"])
def test_every_benchmark_item_passes_its_check(workload):
    """Each of the benchmark's plans, loaded from its file, at a fixed
    seed: each item runs once and passes its own check.  A refactor that
    breaks a name or a result they read otherwise fails only a benchmark
    run."""
    workloads = load_perfbench("workloads")
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
    assert callers("sset_to_diagram", PACKAGE) == set()
    assert not any("FiniteSemiSimplicialSet" in source
                   for source in PACKAGE.values())


def test_nat_key_has_no_caller_in_the_package():
    """`categories.nat_key` is another name for `family_key`, kept only
    because the benchmark reads it; the package calls `family_key`."""
    assert callers("nat_key", PACKAGE) == set()
    assert callers("family_key", PACKAGE) >= {
        "categories.exponential_diagram", "cli.cmd_exponential"}


WALKERS = {"syntax": ("subst", "_differ", "_print", "_nodes"),
           "kernel": ("Checker.whnf", "Checker.infer", "Checker.check",
                         "Checker.convert")}


def test_term_walkers_dispatch_without_match():
    """The eight walkers that run once per term node test `type(t)` by
    identity instead of matching class patterns.  A `match` tries its cases
    in turn, each failed `case Cls(...)` a class test, so the commonest
    node, tested late, paid for every case ahead of it; the identity tests
    took the `corpus` workload from 57.6 to 94.7 items/s (`BENCH_17.json`)."""
    for module, names in WALKERS.items():
        found = definitions(PACKAGE[module])
        for name in names:
            assert not any(isinstance(n, ast.Match)
                           for n in ast.walk(found[name])), name


def calls_in(source: str, name: str) -> set[str]:
    """The callees of module-level function `name` in `source`, each as
    written (`k`, `self.m`, `type(t)`)."""
    return {ast.unparse(n.func) for n in ast.walk(definitions(source)[name])
            if isinstance(n, ast.Call)}


def test_shift_is_subst_with_no_terms():
    """`shift` calls `subst` and nothing else, so it builds no term node of
    its own: substitution is one walker, and a second one that rebuilds
    terms cannot come back unnoticed."""
    assert calls_in(PACKAGE["syntax"], "shift") == {"subst"}


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
    `source`, or `sub` or `subn` that calls one on each match, as
    `R.sub(f, s)` and `re.sub(p, f, s)` do."""
    found = definitions(source)
    own = {defined for defined, fn in found.items()
           if "." not in defined and isinstance(fn, FUNCTIONS)}
    steps = []
    for n in ast.walk(found[name]):
        if isinstance(n, (ast.For, ast.comprehension)):
            steps.append(ast.unparse(n.iter))
        elif isinstance(n, (ast.While, ast.Lambda)):
            steps.append(type(n).__name__.lower())
        elif isinstance(n, ast.Call):
            func = ast.unparse(n.func)
            if (func == "map" or func.endswith((".sub", ".subn"))) and \
                    ast.unparse(n.args[func in ("re.sub", "re.subn")]) in own:
                steps.append(ast.unparse(n))
    return sorted(steps)


def test_the_scan_takes_no_python_step_per_token():
    """`syntax.tokenize` iterates in Python only over the set of distinct
    texts, to classify each once, and over the comments, to blank each
    ordinary one: the tokens come from one `split` and their columns are
    built in C, with no loop over the matches, which cost the `numerals`
    front end a Python step per token."""
    steps = python_steps(PACKAGE["syntax"], "tokenize")
    callbacks = [step for step in steps if not step.startswith("set(")]
    assert len(steps) > len(callbacks), steps
    assert len(callbacks) <= 1 and all(".sub(" in step
                                       for step in callbacks), steps


def test_the_check_sees_a_loop_over_matches():
    source = ("def _kind(t):\n    return t\n"
              "def tokenize(src):\n"
              "    kinds = {t: _kind(t) for t in set(texts)}\n"
              "    for m in R.finditer(src):\n        out.append(m)\n"
              "    texts = [pair[1] for pair in R.findall(src)]\n"
              "    while i < n:\n        i += 1\n"
              "    ends = map(lambda m: m.end(), ms)\n"
              "    src = re.sub('--.*', _kind, C.sub(' ', src))\n"
              "    src = C.sub(_kind, C.subn(len, src)[0])\n"
              "    src, n = C.subn(_kind, re.subn('-', '', src))\n"
              "    return list(map(_kind, texts)), list(map(len, texts))\n")
    assert python_steps(source, "tokenize") == [
        "C.sub(_kind, C.subn(len, src)[0])",
        "C.subn(_kind, re.subn('-', '', src))", "R.findall(src)",
        "R.finditer(src)", "lambda", "map(_kind, texts)",
        "re.sub('--.*', _kind, C.sub(' ', src))", "set(texts)", "while"]


def names_read(source: str, name: str) -> set[str]:
    """The names that function `name` of `source`, or method `name` as
    "Class.method", reads, by name or as an attribute."""
    fn = definitions(source)[name]
    return ({n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)})


def test_the_hot_path_works_out_no_position():
    """`syntax.tokenize` builds no offset column and `Parser.term` places
    no name: a position is worked out only where one is read, by
    `Tokens.place`.  The column and a line and column for every free name
    were most of the `numerals` front end's work, for 200 positions
    reported."""
    source = PACKAGE["syntax"]
    assert not names_read(source, "tokenize") & {"accumulate", "bisect_right"}
    assert not names_read(source, "Parser.term") & {
        "accumulate", "bisect_right", "offs", "place"}


def test_the_check_sees_a_position_read():
    source = ("def tokenize(src):\n    return accumulate(src)\n"
              "class Parser:\n    def term(self, i):\n"
              "        return bisect.bisect_right(self.starts, i)\n"
              "    def place(self, i):\n        return i\n")
    assert {"accumulate", "src"} <= names_read(source, "tokenize")
    assert "bisect_right" in names_read(source, "Parser.term")
    assert "bisect_right" not in names_read(source, "Parser.place")


def newline_scans(source: str) -> set[str]:
    """The functions of `source`, a method as "Class.method", that call
    `.count("\\n", ...)` or `.rfind("\\n", ...)`: the ones that work out
    a line or a column."""
    return {name for name, fn in definitions(source).items()
            if isinstance(fn, FUNCTIONS)
            for n in ast.walk(fn) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr in ("count", "rfind")
            and n.args and isinstance(n.args[0], ast.Constant)
            and n.args[0].value == "\n"}


def test_lines_and_columns_are_worked_out_in_one_place():
    """Every line and column that `syntax` reports, a declaration's, a
    name's or an error's, the lexer's included, is worked out by
    `Tokens.place`: no other function counts or seeks newlines."""
    assert newline_scans(PACKAGE["syntax"]) == {"Tokens.place"}


def test_the_check_sees_a_second_placer():
    source = ("class Tokens:\n    def place(self, i):\n"
              "        return self.src.rfind('\\n', 0, i)\n"
              "def tokenize(src):\n    off = 3\n"
              "    return src.count('\\n', 0, off) + 1, src.count(':')\n"
              "class Parser:\n    def err(self, i):\n"
              "        return [src.rfind('\\n') for src in self.srcs]\n")
    assert newline_scans(source) == {"Tokens.place", "tokenize", "Parser.err"}


def validates_naturality(source: str, name: str) -> bool:
    """Whether module-level function `name` in `source` calls
    `DiagramMap(...).validate()` and reads no `.action` itself."""
    validates = any(callee.startswith("DiagramMap(")
                    and callee.endswith(").validate")
                    for callee in calls_in(source, name))
    return validates and not any(
        isinstance(n, ast.Attribute) and n.attr == "action"
        for n in ast.walk(definitions(source)[name]))


def test_round_trip_checks_naturality_with_validate():
    """`classifier.round_trip` builds a `DiagramMap` of its re-encoding and
    validates it: naturality is checked in one place, and a loop of its own
    over the arrows, which would read the action tables, cannot come back
    unnoticed."""
    assert validates_naturality(PACKAGE["classifier"], "round_trip")


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


def global_calls(source: str, name: str) -> set[str]:
    """The names that module-level function `name` in `source` calls as
    plain names bound nowhere inside it (no parameter, assignment, loop
    target or nested definition): the calls that a monkeypatch of the
    module attribute reaches."""
    fn = definitions(source)[name]
    bound = {n.arg for n in ast.walk(fn) if isinstance(n, ast.arg)}
    bound |= {n.id for n in ast.walk(fn)
              if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
    bound |= {n.name for n in ast.walk(fn)
              if isinstance(n, FUNCTIONS) and n is not fn}
    return {n.func.id for n in ast.walk(fn)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id not in bound}


def test_the_pointed_comparison_calls_its_faces_by_module_name():
    """`compare_pointed_nerves` takes the faces and forgets the points
    through the module's own names, so the tests that monkeypatch one of
    them (`TestPointedComparisonCanFail` in tests/test_nerve.py) reach the
    comparison."""
    calls = global_calls(PACKAGE["nerve"], "compare_pointed_nerves")
    assert {"pointed_face", "based_face", "pointed_to_based"} <= calls, calls


def test_the_check_sees_a_local_or_qualified_name():
    source = ("def compare_pointed_nerves(u, pointed_to_based):\n"
              "    face = pointed_face\n"
              "    for based_face in faces:\n"
              "        based_face(u)\n"
              "    return face(u), nerve.pointed_face(u), "
              "pointed_to_based(u), check(u)\n")
    assert global_calls(source, "compare_pointed_nerves") == {"check"}
    assert global_calls("def compare_pointed_nerves(u):\n"
                        "    return pointed_face(based_face(u))\n",
                        "compare_pointed_nerves") == {"pointed_face",
                                                      "based_face"}


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
    calls = {fn.name: {n.func.attr for n in ast.walk(fn)
                       if isinstance(n, ast.Call)
                       and isinstance(n.func, ast.Attribute)
                       and isinstance(n.func.value, ast.Name)
                       and n.func.value.id == "self"}
             for name, fn in definitions(source).items()
             if name.startswith(f"{cls}.") and isinstance(fn, FUNCTIONS)}

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
    assert recursive_methods(PACKAGE["syntax"], "Parser") == set()


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
    assert "convert" not in recursive_methods(PACKAGE["kernel"], "Checker")
    differ = definitions(PACKAGE["syntax"])["_differ"]
    assert callers("_differ", {"syntax": ast.unparse(differ)}) == set()


def self_references(source: str, cls: str) -> set[str]:
    """The methods of class `cls` in `source` that name themselves as
    `self.<method>`: a direct call, or the method handed on as a value."""
    return {fn.name for name, fn in definitions(source).items()
            if name.startswith(f"{cls}.") and isinstance(fn, FUNCTIONS)
            and any(isinstance(n, ast.Attribute) and n.attr == fn.name
                    and isinstance(n.value, ast.Name) and n.value.id == "self"
                    for n in ast.walk(fn))}


def test_reduction_does_not_call_itself():
    """`Checker.whnf` is one loop over a head and its arguments, and
    `infer_sort` types a reduced type with `infer`: neither names itself,
    and a chain of heads costs `whnf` no Python frame per link.  `_iota`
    reducing a major premise with `whnf` is the one way back in."""
    found = self_references(PACKAGE["kernel"], "Checker")
    assert found.isdisjoint({"whnf", "infer_sort"}), found


def test_the_check_sees_a_self_call():
    source = ("class C:\n    def whnf(self, t):\n"
              "        return self.whnf(t.fn)\n"
              "    def infer_sort(self, t):\n"
              "        return self.run(self.infer_sort, t)\n"
              "    def iota(self, t):\n        return self.whnf(t)\n"
              "    def other(self, t):\n        return t.other\n")
    assert self_references(source, "C") == {"whnf", "infer_sort"}


def held_names(source: str, cls: str, methods: tuple, names) -> set[str]:
    """The strings of `names` that the methods `methods` of class `cls` in
    `source` hold as constants."""
    wanted = {f"{cls}.{method}" for method in methods}
    return {n.value for name, fn in definitions(source).items()
            if name in wanted for n in ast.walk(fn)
            if isinstance(n, ast.Constant) and n.value in names}


# the rules that find a built-in in the tables a checker builds
TABLE_READERS = ("whnf", "_iota", "infer", "_infer_tower", "check",
                 "_elim_motive")


def test_the_rules_name_no_builtin():
    """`Checker.whnf`, `_iota`, `infer`, `_infer_tower`, `check` and
    `_elim_motive` find each built-in in the checker's tables: none holds a
    built-in's name as a string (`Js` for `js_beta`, `uip` for its rule, a
    family's for its case), nor `_infer_spine`, which types every
    eliminator from its schema, an eliminator's (`kernel._ELIM_TYPES`).
    Not checked, by design: `_infer_spine`'s `Sum`, `fst`, `snd` and `refl`
    cases, `_check_intro`, `_projected_type` and `convert`'s Σ-η name their
    built-ins, and `__init__`, which drops `Js`'s ι rule, names it."""
    assert set(kernel._ELIM_TYPES) <= syntax.BUILTIN_CONSTS
    source = PACKAGE["kernel"]
    assert held_names(source, "Checker", TABLE_READERS,
                      syntax.BUILTIN_CONSTS) == set()
    assert held_names(source, "Checker", ("_infer_spine",),
                      kernel._ELIM_TYPES) == set()


def test_the_check_sees_a_builtin_name():
    source = ("class C:\n    def __init__(self):\n"
              "        self.drop = {'Js'}\n"
              "    def _iota(self, head):\n"
              "        return head.name == 'Js'\n"
              "    def infer(self, name):\n"
              "        return name == 'uip' or name == 'funextS'\n"
              "    def _elim_motive(self, family):\n"
              "        match family:\n            case 'J':\n"
              "                return 'for'\n"
              "    def _infer_spine(self, name):\n"
              "        return name in ('indNatS', 'fst')\n"
              "    def other(self):\n        return 'indEmpty'\n")
    assert held_names(source, "C", TABLE_READERS,
                      syntax.BUILTIN_CONSTS) == {"Js", "uip", "funextS", "J"}
    assert held_names(source, "C", ("_infer_spine",),
                      kernel._ELIM_TYPES) == {"indNatS"}


def options_readers(source: str, cls: str) -> set[str]:
    """The methods of class `cls` in `source`, but `__init__`, that read an
    attribute `options`."""
    return {fn.name for name, fn in definitions(source).items()
            if name.startswith(f"{cls}.") and isinstance(fn, FUNCTIONS)
            and fn.name != "__init__" and any(
                isinstance(n, ast.Attribute) and n.attr == "options"
                for n in ast.walk(fn))}


def test_options_are_applied_when_a_checker_is_built():
    """A checker's options choose its tables in `__init__`, and no rule
    tests an option."""
    assert options_readers(PACKAGE["kernel"], "Checker") == set()


def test_the_check_sees_an_options_read():
    source = ("class C:\n    def __init__(self, options):\n"
              "        self.options = options\n"
              "        self.on = options.js_beta\n"
              "    def _iota(self, head):\n"
              "        return self.options.js_beta\n"
              "    def _const_ok(self, name):\n"
              "        omit = self.options.omit_consts\n"
              "        return name in omit\n"
              "    def other(self):\n        return self.on\n")
    assert options_readers(source, "C") == {"_iota", "_const_ok"}
