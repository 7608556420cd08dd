"""Source hygiene: no module of the package imports a name it never uses."""

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
