"""Loading and running the shipped `.tltt` corpus.

Layout: ``corpus/prelude/*.tltt`` (checked in filename order into one shared
environment), ``corpus/tests/pass/*.tltt`` and ``corpus/tests/fail/*.tltt``
(each checked on top of a copy of the prelude environment); a prelude file
that fails stops the run.  ``fail`` files annotate each expected rejection
with ``--! expect: RULE`` and the runner matches the fired rule against the
annotation.  ``check_file`` parses, links and checks every file, here and
for ``tltt check``; a syntax or name error becomes the file's report error.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Optional

from .kernel import (
    Checker, KernelOptions, Report, RESTRICTED_RULES, RULES, check_module,
)
from .syntax import SyntaxError_, parse, resolve

CORPUS_ROOT = pathlib.Path(__file__).parent / "corpus"


def corpus_files(root: Optional[pathlib.Path] = None) -> list[pathlib.Path]:
    """The corpus under `root` (the shipped one by default) in check order:
    the prelude, then `tests/fail`, then `tests/pass`, each sorted."""
    root = root or CORPUS_ROOT
    return (sorted((root / "prelude").glob("*.tltt"))
            + sorted((root / "tests" / "fail").glob("*.tltt"))
            + sorted((root / "tests" / "pass").glob("*.tltt")))


def check_file(checker: Checker, path: pathlib.Path) -> Report:
    """Parse, link and check one file into `checker`'s environment.  A
    syntax or name error becomes the report's `error`."""
    try:
        mod = resolve(parse(path.read_text(encoding="utf-8"), str(path)),
                      set(checker.env))
    except SyntaxError_ as e:
        return Report(str(path), [], error=str(e))
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    return check_module(checker, mod)


def prelude_checker(options: Optional[KernelOptions] = None,
                    root: Optional[pathlib.Path] = None
                    ) -> tuple[Checker, list[Report]]:
    """Check the prelude files under `root` (the shipped corpus by default)
    into one fresh environment, stopping at the first that fails."""
    ck = Checker(options=options)
    reports = []
    for p in sorted(((root or CORPUS_ROOT) / "prelude").glob("*.tltt")):
        reports.append(check_file(ck, p))
        if not reports[-1].ok:
            break
    return ck, reports


@dataclass
class CorpusReport:
    """The report of each corpus file, in run order."""

    reports: list[Report] = field(default_factory=list)

    @property
    def errors(self) -> list[str]:
        """The error of each file that has one, in run order."""
        return [r.error for r in self.reports if r.error]

    @property
    def ok(self) -> bool:
        """No file failed.  Coverage gaps do not count here (an empty
        corpus is ok); they do fail ``to_json()["status"]``."""
        return all(r.ok for r in self.reports)

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
        return _gaps(self.coverage())

    def to_json(self) -> dict:
        table = self.coverage()
        gaps = _gaps(table)
        return {
            "status": "pass" if self.ok and not gaps else "fail",
            "files": [r.to_json() for r in self.reports],
            "errors": self.errors,
            "coverage": table,
            "coverage_gaps": gaps,
        }


def _gaps(table: dict[str, dict[str, list[str]]]) -> list[str]:
    """The rules of a coverage table with no positive case, and the
    restricted ones with no expected-rejection case."""
    gaps = []
    for rule, locs in table.items():
        if not locs["positive"]:
            gaps.append(f"{rule}: no positive case")
        if rule in RESTRICTED_RULES and not locs["negative"]:
            gaps.append(f"{rule}: no expected-rejection case")
    return gaps


def run_corpus(options: Optional[KernelOptions] = None,
               root: Optional[pathlib.Path] = None) -> CorpusReport:
    """Check prelude files into a shared environment, stopping at the first
    that fails, then every other file on a copy of it: the corpus under
    `root`, the shipped one by default."""
    base, reports = prelude_checker(options, root)
    out = CorpusReport(reports)
    if out.ok:
        out.reports += [check_file(Checker(env=base.env, options=options), p)
                        for p in corpus_files(root)
                        if p.parent.name != "prelude"]
    return out
