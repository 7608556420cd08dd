"""The shipped corpus: green run, coverage, and mutation sensitivity."""

import os
import pathlib
import subprocess
import sys

import pytest

import tltt
from oracles import decl_refs
from tltt.corpus import (
    CORPUS_ROOT, CorpusReport, corpus_files, prelude_checker, run_corpus,
)
from tltt.kernel import KernelOptions, RESTRICTED_RULES, RULES
from tltt.syntax import Module, parse, resolve


def module_dependencies(mod: Module) -> dict[str, set[str]]:
    """Name -> referenced global and built-in names, for the dependency scan."""
    return {d.name: {name for name, _, _ in decl_refs(d)}
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


@pytest.fixture(scope="module")
def report() -> CorpusReport:
    return run_corpus()


class TestCorpusRun:
    def test_everything_passes(self, report):
        assert report.ok, report.errors

    def test_every_file_reported(self, report):
        assert len(report.reports) == len(corpus_files())

    def test_empty_path_list(self, tmp_path):
        report = run_corpus(root=tmp_path)
        assert report.reports == [] and report.ok

    def test_coverage_gaps_fail_the_status(self, tmp_path):
        (tmp_path / "prelude").mkdir()
        (tmp_path / "prelude" / "01_base.tltt").write_text(
            (CORPUS_ROOT / "prelude" / "01_base.tltt").read_text())
        report = run_corpus(root=tmp_path)
        assert report.ok and report.coverage_gaps()
        assert report.to_json()["status"] == "fail"

    def test_coverage_no_gaps(self, report):
        assert report.coverage_gaps() == []

    def test_every_rule_has_positive_case(self, report):
        cov = report.coverage()
        for rule in RULES:
            assert cov[rule]["positive"], rule

    def test_every_restricted_rule_has_negative_case(self, report):
        cov = report.coverage()
        for rule in RESTRICTED_RULES:
            assert cov[rule]["negative"], rule

    def test_json_report_shape(self, report):
        doc = report.to_json()
        assert doc["status"] == "pass"
        assert set(doc["coverage"]) == set(RULES)


class TestTheorem:
    """The fibrant-replacement consequence: every fibrant type is a set."""

    def test_theorem_module_checks(self, report):
        assert any("02_fibrant_replacement" in r.path and r.ok
                   for r in report.reports)

    def test_proof_does_not_use_the_propositional_computation_axiom(self):
        """The proof relies on the judgmental reduction of Js, not on the
        postulated propositional computation rule for elimR."""
        known: set = set()
        deps: dict = {}
        for path in sorted((CORPUS_ROOT / "prelude").glob("*.tltt")):
            mod = resolve(parse(path.read_text(), str(path)), set(known))
            known |= {d.name for d in mod.decls if d.name}
            deps.update(module_dependencies(mod))
        used = transitive_deps(deps, "thm")
        assert "collapseLoop" in used and "elimR" in used and "r" in used
        assert "compR" not in used

    def test_mutation_without_js_beta_fails(self):
        rep = run_corpus(options=KernelOptions(js_beta=False))
        assert not rep.ok
        assert any("02_fibrant_replacement" in e for e in rep.errors)

    def test_mutation_without_uip_fails(self):
        rep = run_corpus(options=KernelOptions(omit_consts=frozenset({"uip"})))
        assert not rep.ok
        assert any("02_fibrant_replacement" in e for e in rep.errors)

    def test_mutations_break_nothing_before_the_theorem(self):
        """Both mutations leave the base prelude file itself green."""
        for opt in (KernelOptions(js_beta=False),
                    KernelOptions(omit_consts=frozenset({"uip"}))):
            rep = run_corpus(options=opt)
            base = [r for r in rep.reports if "01_base" in r.path]
            assert base and base[0].ok


class TestPrelude:
    def test_prelude_definitions_load(self):
        ck, reports = prelude_checker()
        assert reports and all(r.ok for r in reports)
        assert {"transport", "ap", "isSet", "isContr"} <= set(ck.env)


def test_sources_and_fixtures_name_their_encoding():
    """The corpus and every shipped fixture are read as UTF-8 whatever the
    locale: with the default-encoding warning raised as an error, running
    the corpus and loading each fixture raises nothing."""
    script = ("from tltt import corpus, fixtures\n"
              "assert corpus.run_corpus().ok\n"
              "for p in sorted(fixtures.FIXTURE_ROOT.glob('*.json')):\n"
              "    fixtures.load_fixture(p)\n")
    src = str(pathlib.Path(tltt.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-X", "warn_default_encoding",
                    "-W", "error::EncodingWarning", "-c", script],
                   env=dict(os.environ, PYTHONPATH=src), check=True)
