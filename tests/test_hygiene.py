"""Source hygiene: no module of the package imports a name it never uses,
and no private function or class is left that no module reads."""

import ast
import pathlib

import pytest

import tltt

MODULES = sorted(pathlib.Path(tltt.__file__).parent.glob("*.py"))


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
