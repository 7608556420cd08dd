"""Golden parse outcomes: every shipped corpus file, cut after every
`STRIDE`-th token and with every `STRIDE`-th token deleted, parses to the
module or fails with the error pinned in `golden/parse_outcomes.json`.  A
front-end rewrite that claims to change nothing must leave every outcome
identical.

A module is pinned by a digest of its `repr` and of every declaration's
placed names (`oracles.decl_refs`); an error by its class, message, line and
column, in clear.  Tokens here are spans of the source found by `_SPAN_RE`,
not the lexer's, so the cases do not move when the lexer does.

Regenerate the file (only when a change to the outcomes is intended, and say
so) with ``PYTHONPATH=src python tests/test_parse_golden.py``.
"""

import hashlib
import json
import pathlib
import re

import pytest

from oracles import decl_refs
from tltt.corpus import CORPUS_ROOT, corpus_files
from tltt.syntax import SyntaxError_, parse

GOLDEN = pathlib.Path(__file__).parent / "golden" / "parse_outcomes.json"
STRIDE = 11
_SPAN_RE = re.compile(r"--[^\n]*|:=|=>|->|=s(?!\w)|[A-Za-z_][A-Za-z0-9_']*"
                      r"|[0-9]+|\S")


def outcome(src: str, path: str):
    """A digest of the module `src` parses to, or its error in clear."""
    try:
        mod = parse(src, path)
    except SyntaxError_ as e:
        return [type(e).__name__, e.msg, e.line, e.col]
    text = repr(mod) + "".join(repr(decl_refs(d)) for d in mod.decls)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def file_outcomes(path: pathlib.Path) -> dict:
    """Per case, keyed `cut <i>` (the source up to the end of span i) and
    `delete <i>` (the source without span i), its outcome."""
    src, name = path.read_text(), str(path.relative_to(CORPUS_ROOT))
    spans = [m.span() for m in _SPAN_RE.finditer(src)][::STRIDE]
    out = {}
    for i, (start, end) in enumerate(spans):
        out[f"cut {i * STRIDE}"] = outcome(src[:end], name)
        out[f"delete {i * STRIDE}"] = outcome(src[:start] + src[end:], name)
    return out


def all_outcomes() -> dict:
    return {str(p.relative_to(CORPUS_ROOT)): file_outcomes(p)
            for p in corpus_files()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("path", corpus_files(),
                         ids=lambda p: p.relative_to(CORPUS_ROOT).as_posix())
def test_parse_outcomes_are_unchanged(golden, path):
    want = golden[str(path.relative_to(CORPUS_ROOT))]
    got = file_outcomes(path)
    assert list(got) == list(want), "cases differ"
    for case, w in want.items():
        if got[case] != w:
            pytest.fail(f"{case}: got {got[case]}, want {w}")


def test_every_file_is_pinned(golden):
    assert list(golden) == [str(p.relative_to(CORPUS_ROOT))
                            for p in corpus_files()]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(all_outcomes(), indent=1) + "\n")
