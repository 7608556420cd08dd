"""Golden corpus records: every declaration record and report error of the
shipped corpus, under the real kernel and both mutants of criterion 2, is
pinned in `golden/corpus_records.json`.  A kernel refactor that claims to
change nothing must leave every record identical.

Regenerate the file (only when a change to the records is intended, and say
so) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import pathlib

import pytest

from tltt.corpus import CORPUS_ROOT, run_corpus
from tltt.kernel import KernelOptions

GOLDEN = pathlib.Path(__file__).parent / "golden" / "corpus_records.json"
CONFIGS = {
    "default": KernelOptions(),
    "no_js_beta": KernelOptions(js_beta=False),
    "no_uip": KernelOptions(omit_consts=frozenset({"uip"})),
}


def _relative(text: str) -> str:
    return text.replace(f"{CORPUS_ROOT}/", "")


def corpus_records(options: KernelOptions) -> dict:
    """The corpus run under `options`: its errors and, per file (relative
    to the corpus root, in check order), its records and report error."""
    run = run_corpus(options=options)
    return {
        "errors": [_relative(e) for e in run.errors],
        "files": {_relative(rep.path): {"error": rep.error and _relative(rep.error),
                                       "records": rep.records}
                  for rep in run.reports},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("config", CONFIGS)
def test_corpus_records_are_unchanged(golden, config):
    want, got = golden[config], corpus_records(CONFIGS[config])
    assert list(got["files"]) == list(want["files"]), "checked files differ"
    for path, w in want["files"].items():
        g = got["files"][path]
        for i, (gr, wr) in enumerate(zip(g["records"], w["records"])):
            if gr != wr:
                pytest.fail(f"{config}: {path} record {i} differs:\n"
                            f"  got  {gr}\n  want {wr}")
        if len(g["records"]) != len(w["records"]):
            pytest.fail(f"{config}: {path} has {len(g['records'])} records, "
                        f"want {len(w['records'])}")
        if g["error"] != w["error"]:
            pytest.fail(f"{config}: {path} error differs:\n"
                        f"  got  {g['error']}\n  want {w['error']}")
    for i, (ge, we) in enumerate(zip(got["errors"], want["errors"])):
        if ge != we:
            pytest.fail(f"{config}: run error {i} differs:\n"
                        f"  got  {ge}\n  want {we}")
    assert len(got["errors"]) == len(want["errors"]), "run error count differs"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {name: corpus_records(opts) for name, opts in CONFIGS.items()},
        indent=1) + "\n")
