"""Loading and running the shipped `.tltt` corpus.

Layout: ``corpus/prelude/*.tltt`` (checked in filename order into one shared
environment), ``corpus/tests/pass/*.tltt`` and ``corpus/tests/fail/*.tltt``
(each checked on top of a copy of the prelude environment).  ``fail`` files
annotate each expected rejection with ``--! expect: RULE`` and the runner
matches the fired rule against the annotation.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Optional

from .kernel import (
    Checker, KernelOptions, Report, RESTRICTED_RULES, RULES, check_module,
)
from .syntax import Module, ResolveError, SyntaxError_, parse, resolve

CORPUS_ROOT = pathlib.Path(__file__).parent / "corpus"


def corpus_files(root: Optional[pathlib.Path] = None) -> list[pathlib.Path]:
    root = root or CORPUS_ROOT
    return (sorted((root / "prelude").glob("*.tltt"))
            + sorted((root / "tests" / "pass").glob("*.tltt"))
            + sorted((root / "tests" / "fail").glob("*.tltt")))


def load_module(path: pathlib.Path, known: set[str]) -> Module:
    return resolve(parse(path.read_text(), str(path)), known)


def prelude_checker(options: Optional[KernelOptions] = None,
                    root: Optional[pathlib.Path] = None
                    ) -> tuple[Checker, list[Report]]:
    """Check all prelude files into a fresh environment."""
    root = root or CORPUS_ROOT
    ck = Checker(options=options)
    reports = []
    for p in sorted((root / "prelude").glob("*.tltt")):
        mod = load_module(p, set(ck.env))
        rep = check_module(ck, mod)
        reports.append(rep)
        if not rep.ok:
            break
    return ck, reports


def prelude_definitions() -> Module:
    """The checked base-library module."""
    path = CORPUS_ROOT / "prelude" / "01_base.tltt"
    mod = load_module(path, set())
    ck = Checker()
    rep = check_module(ck, mod)
    if not rep.ok:
        raise RuntimeError(rep.error)
    return mod


@dataclass
class CorpusReport:
    reports: list[Report] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and all(r.ok for r in self.reports)

    def coverage(self) -> dict[str, dict[str, list[str]]]:
        """Rule name -> {positive: [file:line], negative: [file:line]}."""
        table: dict[str, dict[str, list[str]]] = {
            r: {"positive": [], "negative": []} for r in RULES}
        for rep in self.reports:
            for rec in rep.records:
                if rec["status"] != "pass":
                    continue
                loc = f"{rep.path}:{rec['line']}"
                if rec["kind"] == "fail":
                    rule = rec.get("rule")
                    if rule in table:
                        table[rule]["negative"].append(loc)
                else:
                    for rule in rec.get("rules", ()):
                        if rule in table:
                            table[rule]["positive"].append(loc)
        return table

    def coverage_gaps(self) -> list[str]:
        gaps = []
        for rule, locs in self.coverage().items():
            if not locs["positive"]:
                gaps.append(f"{rule}: no positive case")
            if rule in RESTRICTED_RULES and not locs["negative"]:
                gaps.append(f"{rule}: no expected-rejection case")
        return gaps

    def to_json(self) -> dict:
        return {
            "status": "pass" if self.ok else "fail",
            "files": [r.to_json() for r in self.reports],
            "errors": self.errors,
            "coverage": self.coverage(),
            "coverage_gaps": self.coverage_gaps(),
        }


def run_corpus(paths: Optional[list[pathlib.Path]] = None,
               options: Optional[KernelOptions] = None,
               root: Optional[pathlib.Path] = None) -> CorpusReport:
    """Check prelude files into a shared environment, then every other file
    on a copy of it.  `paths` defaults to the shipped corpus."""
    root = root or CORPUS_ROOT
    out = CorpusReport()
    if paths is None:
        paths = corpus_files(root)
    if not paths:
        return out
    prelude_paths = [p for p in paths if p.parent.name == "prelude"]
    other_paths = [p for p in paths if p.parent.name != "prelude"]
    base = Checker(options=options)
    for p in sorted(prelude_paths):
        try:
            mod = load_module(p, set(base.env))
        except (SyntaxError_, ResolveError) as e:
            out.errors.append(str(e))
            return out
        rep = check_module(base, mod)
        out.reports.append(rep)
        if not rep.ok:
            out.errors.append(rep.error or f"{p}: failed")
            return out
    for p in sorted(other_paths):
        ck = Checker(env=base.env, options=options)
        try:
            mod = load_module(p, set(ck.env))
        except (SyntaxError_, ResolveError) as e:
            out.errors.append(str(e))
            continue
        rep = check_module(ck, mod)
        out.reports.append(rep)
        if rep.error:
            out.errors.append(rep.error)
    return out


def module_dependencies(mod: Module) -> dict[str, set[str]]:
    """Name -> referenced global and built-in names, for the dependency scan."""
    return {d.name: {name for name, _, _ in d.refs}
            for d in mod.decls if d.name is not None}


def transitive_deps(deps: dict[str, set[str]], start: str) -> set[str]:
    seen: set[str] = set()
    stack = [start]
    while stack:
        n = stack.pop()
        for m in deps.get(n, ()):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen
