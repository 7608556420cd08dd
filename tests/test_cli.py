"""Exit codes, JSON schemas, and flag handling of the command line tool."""

import contextlib
import functools
import io
import json
import operator
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from tltt import classifier, cli, simplex
from tltt.cli import main
from tltt.corpus import CORPUS_ROOT
from tltt.fixtures import FIXTURE_ROOT

PRELUDE = sorted(str(p) for p in (CORPUS_ROOT / "prelude").glob("*.tltt"))
FIXTURES = sorted(p.name for p in FIXTURE_ROOT.glob("*.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tltt(*argv, stderr=subprocess.PIPE):
    """Run the command line tool in a fresh interpreter."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "tltt.cli", *argv],
                          stdout=subprocess.PIPE, stderr=stderr, text=True,
                          env=env)


class TestCheck:
    def test_prelude_passes(self, capsys):
        code, out, _ = run(capsys, "check", *PRELUDE)
        assert code == 0 and "pass" in out

    def test_failure_is_exit_one_with_diagnostic(self, capsys, tmp_path):
        bad = tmp_path / "bad.tltt"
        bad.write_text("def bad : U 0 := NatS\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1
        assert f"{bad}:1:" in err and "[FIB-PRE]" in err

    def test_missing_file_is_exit_two(self, capsys):
        code, _, _ = run(capsys, "check", "no/such/file.tltt")
        assert code == 2

    def test_lambda_against_a_variable_type_is_a_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.tltt"
        bad.write_text("check (fun A => fun y => y) : Pi (A : U 0), A\n")
        proc = tltt("check", str(bad))
        assert proc.returncode == 1
        assert f"{bad}:1:1: [CONV]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_json_single_document(self, capsys):
        code, out, _ = run(capsys, "check", "--json", PRELUDE[0])
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "pass"

    def test_oversized_universe_level_is_a_diagnostic(self, capsys, tmp_path):
        """A level past Python's limit on the digits of an `int` is a syntax
        error of its file: `check` exits 1 at the level, and `corpus run`
        reports that file and goes on."""
        bad = tmp_path / "tests" / "pass" / "big.tltt"
        bad.parent.mkdir(parents=True)
        bad.write_text("def x : U " + "1" * 5000 + " := Nat\n")
        (tmp_path / "tests" / "pass" / "ok.tltt").write_text(
            "def z : Nat := zero\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1
        assert f"{bad}:1:11: universe level too large" in err
        code, out, _ = run(capsys, "corpus", "run", "--json", str(tmp_path))
        doc = json.loads(out)
        assert code == 1 and [f["status"] for f in doc["files"]] == [
            "fail", "pass"]
        assert doc["errors"] == [f"{bad}:1:11: universe level too large"]

    @pytest.mark.parametrize("digits, message", [
        (4300, "1:9: universe level too large"),
        (4299, "1:1: [CONV] type mismatch: inferred `U 1000"),
    ], ids=["too-large", "largest"])
    def test_universe_level_past_the_cap_is_positioned(self, tmp_path,
                                                       digits, message):
        """A level of 4,300 digits is a syntax error at the level; the
        largest level allowed checks, and its messages print levels one and
        two above it, in a fresh interpreter with Python's default limit
        on the digits of an `int`."""
        path = tmp_path / "big.tltt"
        path.write_text(f"check U {'9' * digits} : Nat\n")
        proc = tltt("check", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"{path}:{message}" in proc.stderr


def numeral(d):
    return "succ (" * d + "zero" + ")" * d


ADD = ("def add : Nat -> Nat -> Nat\n"
       "  := fun m n => indNat (fun k => Nat) n (fun k r => succ r) m\n")


class TestDepth:
    """Terms too deep for the interpreter's stack fail with [DEPTH], exit 1,
    in a fresh interpreter whose stack holds nothing else."""

    @pytest.fixture(params=[
        "Nat -> " * 2000 + "Nat : U 0",
        "(" * 2000 + "zero" + " : Nat)" * 2000 + " : Nat",
    ], ids=["arrows", "annotations"])
    def deep_file(self, request, tmp_path):
        """The file and the checker's `[DEPTH]` message: the checker spends
        frames per Π and per annotation; the parser, which nests on a stack
        of its own, passes both."""
        path = tmp_path / "deep.tltt"
        path.write_text(f"check {request.param}\n")
        return path, "[DEPTH] terms nest too deeply to check"

    def test_depth_error_without_traceback(self, deep_file):
        path, message = deep_file
        proc = tltt("check", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"{path}:" in proc.stderr and message in proc.stderr

    def test_depth_error_json_is_one_document(self, deep_file):
        path, message = deep_file
        proc = tltt("check", "--json", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and message in proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["status"] == "fail"
        assert message in json.dumps(doc["files"])


class TestDeepNumerals:
    """Numerals check in loops: no depth wall, and time linear in depth."""

    @pytest.mark.parametrize("kind", ["add", "toNat"])
    def test_depth_2000_checks_in_under_a_second(self, tmp_path, kind):
        d = 2000
        if kind == "add":
            src = (f"{ADD}check refl ({numeral(d)}) : "
                   f"add ({numeral(d // 2)}) ({numeral(d // 2)}) = {numeral(d)}\n")
        else:
            strict = "succS (" * d + "zeroS" + ")" * d
            src = f"check refl ({numeral(d)}) : toNat ({strict}) = {numeral(d)}\n"
        path = tmp_path / f"{kind}.tltt"
        path.write_text(src)
        start = time.perf_counter()
        proc = tltt("check", *PRELUDE, str(path))
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 0, proc.stderr

    def test_a_deep_refutation_reports_conv(self, tmp_path):
        """The mismatch message prints the 2,000-deep numerals whole."""
        d = 2000
        path = tmp_path / "off_by_one.tltt"
        path.write_text(f"{ADD}check refl ({numeral(d)}) : "
                        f"add ({numeral(d // 2)}) ({numeral(d // 2 - 1)}) = "
                        f"{numeral(d)}\n")
        proc = tltt("check", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"{path}:3:1: [CONV] type mismatch" in proc.stderr
        assert "succ (" * (d - 1) + "succ zero" in proc.stderr


class TestCorpus:
    def test_run_exits_zero(self, capsys):
        code, out, _ = run(capsys, "corpus", "run")
        assert code == 0 and "corpus: pass" in out

    def test_json_has_coverage(self, capsys):
        code, out, _ = run(capsys, "corpus", "run", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["coverage_gaps"] == []
        assert "FIB-PRE" in doc["coverage"]

    def test_bad_directory_is_exit_two(self, capsys):
        code, _, _ = run(capsys, "corpus", "run", "no/such/dir")
        assert code == 2


class TestHornFactor:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "lab", "horn-factor",
                           "--n", "3", "--k", "1", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["n"] == 3 and doc["k"] == 1 and doc["length"] == 6
        for step in doc["steps"]:
            assert set(step) == {"S", "h", "inner"}

    def test_out_of_range_is_exit_two(self, capsys):
        code, _, _ = run(capsys, "lab", "horn-factor", "--n", "1", "--k", "2")
        assert code == 2

    def test_unsupported_outer_horn_is_exit_one(self, capsys):
        code, _, err = run(capsys, "lab", "horn-factor", "--n", "2", "--k", "0")
        assert code == 1 and "not contained" in err

    def test_max_dim_flag(self, capsys):
        code, _, _ = run(capsys, "lab", "horn-factor",
                         "--n", "5", "--k", "2", "--max-dim", "4")
        assert code == 2

    def test_max_dim_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TLTT_MAX_DIM", "4")
        code, _, _ = run(capsys, "lab", "horn-factor", "--n", "5", "--k", "2")
        assert code == 2


class TestLabs:
    def test_yoneda(self, capsys):
        code, out, _ = run(capsys, "lab", "yoneda", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "pass"

    def test_yoneda_bijection_tells_apart_points_that_print_alike(
            self, capsys, monkeypatch, tmp_path):
        # `1` and `"1"` print alike, so a map sending both transformations
        # to `1` looked bijective when the check compared sorted strings
        fixture = tmp_path / "alike.json"
        fixture.write_text('{"sset": {"levels": [[1, "1"]], "faces": {}}}')
        real = simplex.yoneda_bijection

        def to_one(n, x):
            nats, mapping = real(n, x)
            return nats, {i: 1 for i in mapping}

        code, out, _ = run(capsys, "lab", "yoneda", "--fixture", str(fixture),
                           "--json")
        assert code == 0 and json.loads(out)["checks"][0]["yoneda_bijective"]
        monkeypatch.setattr(simplex, "yoneda_bijection", to_one)
        code, out, _ = run(capsys, "lab", "yoneda", "--fixture", str(fixture),
                           "--json")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "fail"
        assert doc["checks"][0]["yoneda_bijective"] is False

    def test_limits_deterministic_given_seed(self, capsys):
        code1, out1, _ = run(capsys, "lab", "limits", "--seeds", "5",
                             "--seed", "42", "--json")
        code2, out2, _ = run(capsys, "lab", "limits", "--seeds", "5",
                             "--seed", "42", "--json")
        assert code1 == code2 == 0 and out1 == out2

    def test_segal_pass_and_fail(self, capsys):
        code, _, _ = run(capsys, "lab", "segal")
        assert code == 0
        code, out, _ = run(capsys, "lab", "segal",
                           "--fixture", "non_segal.json", "--json")
        assert code == 1
        assert json.loads(out)["status"] == "fail"

    def test_classifier(self, capsys):
        code, out, _ = run(capsys, "lab", "classifier",
                           "--n", "1", "--max-card", "1", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 2

    def test_exponential(self, capsys):
        code, out, _ = run(capsys, "lab", "exponential", "--json")
        assert code == 0
        assert json.loads(out) == {
            "status": "pass", "limit": 10, "nat": 10,
            "exponential_sizes": {"0": 27, "1": 324, "2": 2601}}

    def test_exponential_needs_diagrams_f_and_g(self, capsys):
        code, out, err = run(capsys, "lab", "exponential",
                             "--fixture", "poset012.json")
        assert code == 2 and out == ""
        assert err == "fixture diagrams: must define diagrams F and G\n"

    @pytest.mark.parametrize("n, max_card", [("2", "3"), ("3", "2")])
    def test_classifier_cap_is_exit_two(self, capsys, n, max_card):
        code, out, err = run(capsys, "lab", "classifier",
                             "--n", n, "--max-card", max_card)
        assert code == 2 and out == ""
        assert err == "enumeration size cap exceeded\n"

    def test_classifier_cap_json_is_one_document(self, capsys):
        code, out, err = run(capsys, "lab", "classifier",
                             "--n", "2", "--max-card", "3", "--json")
        assert code == 2 and "enumeration size cap exceeded" in err
        assert json.loads(out) == {"status": "error",
                                   "error": "enumeration size cap exceeded"}

    def test_classifier_cap_stops_the_enumeration(self, capsys, monkeypatch):
        element = classifier.ClassifierElement
        stages = []

        def recording(n, choices):
            stages.append(n)
            return element(n, choices)

        monkeypatch.setattr(classifier, "ClassifierElement", recording)
        # 262405 elements in all: the stage is refused by its count over
        # the 4 elements of stage 1, and no stage-2 element is made
        code, _, _ = run(capsys, "lab", "classifier",
                         "--n", "2", "--max-card", "3")
        assert code == 2 and stages == [0, 1, 1, 1, 1]

    @pytest.mark.parametrize("cap, want", [(85, 0), (84, 2)])
    def test_classifier_cap_boundary(self, capsys, monkeypatch, cap, want):
        # stage 2 over cardinalities up to 2 has exactly 85 elements
        monkeypatch.setattr(cli, "CLASSIFIER_CAP", cap)
        code, out, _ = run(capsys, "lab", "classifier",
                           "--n", "2", "--max-card", "2", "--json")
        assert code == want
        assert json.loads(out)["status"] == ("pass" if want == 0 else "error")

    def test_usage_error_is_exit_two(self, capsys):
        assert main(["lab", "nonsense"]) == 2
        assert main([]) == 2

    def test_usage_error_json_is_one_document(self, capsys):
        code, out, err = run(capsys, "lab", "nonsense", "--json")
        assert code == 2 and "invalid choice" in err
        doc = json.loads(out)
        assert doc["status"] == "error" and "invalid choice" in doc["error"]

    def test_help_under_json_is_one_document(self, capsys):
        code, out, err = run(capsys, "lab", "--help")
        assert code == 0 and out.startswith("usage:") and err == ""
        code, doc, text = run(capsys, "--json", "lab", "--help")
        assert code == 0 and text == out
        assert json.loads(doc) == {"status": "pass", "help": out}


class TestInterrupts:
    @pytest.mark.parametrize("error, message", [
        (KeyboardInterrupt, "interrupted"), (MemoryError, "out of memory")])
    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_an_interrupt_is_an_error(self, capsys, monkeypatch, error,
                                      message, flags):
        """Exit 2 with one stderr line and no traceback, and under
        `--json` one error document."""
        def raising(args):
            raise error()

        monkeypatch.setattr(cli, "cmd_check", raising)
        try:
            code, out, err = run(capsys, "check", *PRELUDE, *flags)
        except error:       # uncaught, a KeyboardInterrupt stops the run
            pytest.fail(f"main raised {error.__name__}")
        assert code == 2 and err == message + "\n"
        if flags:
            assert json.loads(out) == {"status": "error", "error": message}
        else:
            assert out == ""


class TestRanges:
    """Counts that would make a lab pass vacuously, or repeat a label, are
    usage errors."""

    @pytest.mark.parametrize("argv, message", [
        (["lab", "yoneda", "--max-dim", "-1"], "--max-dim"),
        (["lab", "segal", "--levels", "-5"], "--levels"),
        (["lab", "limits", "--seeds", "-1"], "--seeds"),
        (["lab", "limits", "--seeds", "0"], "--seeds"),
        (["lab", "classifier", "--max-card", "9"], "--max-card"),
        (["lab", "classifier", "--max-card", "-1"], "--max-card"),
        (["lab", "segal", "--levels", "0"], "--levels"),
        (["lab", "segal", "--max-dim", "0"], "no level to check"),
        (["lab", "yoneda", "--max-dim", "13"], "--max-dim"),
        (["lab", "horn-factor", "--n", "13", "--k", "0", "--max-dim", "20"],
         "--max-dim"),
        (["lab", "classifier", "--n", "13", "--max-dim", "13"], "--max-dim"),
    ])
    def test_out_of_range_count_is_exit_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 2 and message in err
        assert json.loads(out) == {"status": "error", "error": err.strip()}

    def test_segal_on_a_fixture_without_edges_is_exit_two(self, capsys,
                                                           tmp_path):
        path = tmp_path / "points.json"
        path.write_text('{"sset": {"levels": [["a", "b"]], "faces": {}}}')
        code, out, err = run(capsys, "lab", "segal", "--fixture", str(path),
                             "--json")
        assert code == 2 and "no level to check" in err
        assert json.loads(out) == {"status": "error", "error": err.strip()}

    @pytest.mark.parametrize("value", ["-1", "x", "", "13"])
    def test_bad_max_dim_env_names_the_variable(self, capsys, monkeypatch,
                                                value):
        monkeypatch.setenv("TLTT_MAX_DIM", value)
        code, _, err = run(capsys, "lab", "yoneda")
        assert code == 2 and "TLTT_MAX_DIM" in err

    def test_largest_universe_has_distinct_labels(self, capsys):
        code, out, _ = run(capsys, "lab", "classifier", "--n", "0",
                           "--max-card", str(len(cli._LABELS)), "--json")
        assert code == 0
        universe = cli._universe(len(cli._LABELS))
        assert len(set(universe)) == len(universe)


class TestExitCodes:
    """The exit codes and the --json error document of a real process."""

    @pytest.fixture
    def inputs(self, tmp_path):
        (tmp_path / "latin1.tltt").write_bytes(b"def caf\xe9 : Nat := zero\n")
        (tmp_path / "bad.json").write_text(
            '{"category": {"objects": [["a", null]],'
            ' "homs": [["a", "b", ["f"]]], "compose": []}}')
        (tmp_path / "cut.json").write_text('{"category": ')
        (tmp_path / "latin1.json").write_bytes(b'{"caf\xe9": 1}')
        return tmp_path

    # (argv, exit code, a text the error names or None); each case has a
    # fixed id, so that a new case or entry renames none
    @pytest.mark.parametrize("argv, code, named", [
        pytest.param(["check", "no/such/file.tltt"], 2, "no/such/file.tltt",
                     id="argv0-2"),
        pytest.param(["check", "{dir}/latin1.tltt"], 2, "latin1.tltt",
                     id="argv1-2"),
        pytest.param(["lab", "horn-factor", "--n", "2", "--k", "0"], 1, None,
                     id="argv2-1"),
        pytest.param(["lab", "yoneda", "--fixture", "{dir}/bad.json"], 2,
                     "category.homs[0][1]", id="argv3-2"),
        pytest.param(["lab", "segal", "--fixture", "nowhere/cospan.json"], 2,
                     "nowhere/cospan.json", id="argv4-2"),
        pytest.param(["lab", "yoneda", "--fixture", "{dir}/cut.json"], 2,
                     "cut.json", id="argv5-2"),
        pytest.param(["lab", "segal", "--fixture", "{dir}/latin1.json"], 2,
                     "latin1.json", id="argv6-2"),
    ])
    def test_exit_code_and_error_document(self, inputs, argv, code, named):
        proc = tltt(*(a.format(dir=inputs) for a in argv), "--json")
        assert proc.returncode == code
        assert proc.stderr and "Traceback" not in proc.stderr
        assert json.loads(proc.stdout) == {"status": "error",
                                           "error": proc.stderr.strip()}
        assert named is None or named in proc.stderr


def closed_pipe() -> int:
    """The write end of a pipe whose read end is closed."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("argv, code, status", [
    (["check", "/nonexistent.tltt"], 2, "error"),
    (["check", "{dir}/bad.tltt"], 1, "fail"),
    (["corpus", "run", "{dir}"], 1, "fail"),
    (["lab", "nope"], 2, "error"),
    (["lab", "horn-factor", "--n", "2", "--k", "0"], 1, "error"),
    (["--help"], 0, "pass"),
])
def test_closed_stderr_does_not_decide_the_exit_code(tmp_path, argv, code,
                                                      status):
    """Every diagnostic goes to a stderr whose reader is gone: the exit
    code and the one JSON document on stdout are what they would be."""
    (tmp_path / "bad.tltt").write_text("def bad : U 0 := NatS\n")
    (tmp_path / "prelude").mkdir()
    (tmp_path / "prelude" / "bad.tltt").write_text("def bad : U 0 := NatS\n")
    stderr = closed_pipe()
    try:
        proc = tltt("--json", *(a.format(dir=tmp_path) for a in argv),
                    stderr=stderr)
    finally:
        os.close(stderr)
    assert proc.returncode == code
    assert json.loads(proc.stdout)["status"] == status


# stderr is a pipe of its own, or the pipe of stdout (as in `2>&1 | head`);
# each case has a fixed id, so that a new case renames none
@pytest.mark.parametrize("mode, unbuffered, stderr", [
    pytest.param(mode, unbuffered, subprocess.PIPE,
                 id=f"mode{i}-{unbuffered}")
    for i, mode in enumerate([[], ["--json"]]) for unbuffered in ["1", ""]
] + [
    pytest.param(mode, "", subprocess.STDOUT, id=f"shared-mode{i}")
    for i, mode in enumerate([[], ["--json"]])
])
def test_closed_stdout_is_exit_two_without_traceback(mode, unbuffered, stderr):
    """The reader of stdout goes away after 10 bytes of a long output."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "tltt.cli", *mode,
         "lab", "horn-factor", "--n", "11", "--k", "5"],
        stdout=subprocess.PIPE, stderr=stderr, text=True, env=env)
    proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read() if proc.stderr else None
    assert proc.wait() == 2
    if err is not None:
        assert "Broken pipe" in err
        assert "Traceback" not in err and "Exception ignored" not in err


def _key_paths(x, path=()):
    """The path to every key of every JSON object inside x."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield path + (k,)
            yield from _key_paths(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _key_paths(v, path + (i,))


def _mutations(name: str) -> st.SearchStrategy:
    """Malformed copies of a shipped fixture, as JSON text: a key dropped,
    an object renamed where it is declared, the text truncated, or a top
    level that is not an object."""
    text = (FIXTURE_ROOT / name).read_text()

    def drop(path):
        doc = json.loads(text)
        *head, key = path
        del functools.reduce(operator.getitem, head, doc)[key]
        return json.dumps(doc)

    def rename(i):
        doc = json.loads(text)
        if "category" in doc:
            objects = doc["category"]["objects"]
            objects[i % len(objects)][0] = "renamed"
        else:
            vertices = doc["sset"]["levels"][0]
            vertices[i % len(vertices)] = "renamed"
        return json.dumps(doc)

    return st.one_of(
        st.sampled_from(list(_key_paths(json.loads(text)))).map(drop),
        st.integers(0, 100).map(rename),
        st.integers(0, len(text) - 1).map(lambda n: text[:n]),
        st.sampled_from(["0", "-3.5", "[]", "[1, 2]", "null", '"sset"']))


FIXTURE_TEXTS = st.sampled_from(FIXTURES).flatmap(_mutations)
NUMBERS = st.sampled_from(["-5", "-1", "0", "1", "2", "13", "x", "1.5", ""])
FLAG_RUNS = st.one_of(
    st.tuples(NUMBERS, NUMBERS).map(
        lambda v: ["lab", "horn-factor", "--n", v[0], "--k", v[1]]),
    st.tuples(NUMBERS, NUMBERS).map(
        lambda v: ["lab", "classifier", "--n", v[0], "--max-card", v[1]]),
    NUMBERS.map(lambda v: ["lab", "segal", "--levels", v]),
    NUMBERS.map(lambda v: ["lab", "limits", "--seeds", v]),
    NUMBERS.map(lambda v: ["lab", "yoneda", "--max-dim", v]),
    st.tuples(st.sampled_from([[], ["lab"], ["lab", "segal"], ["check"]]),
              st.sampled_from(["-h", "--help"])).map(
        lambda v: v[0] + [v[1]]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "corpus" / "prelude").mkdir(parents=True)
    return root


@settings(max_examples=100, deadline=None)
@given(case=st.one_of(
    st.tuples(st.sampled_from(["check", "corpus"]),
              st.binary(max_size=80) | st.text(max_size=80).map(str.encode)),
    st.tuples(st.sampled_from(["yoneda", "segal", "exponential"]),
              FIXTURE_TEXTS.map(str.encode)),
    st.tuples(st.just("flags"), FLAG_RUNS)),
    as_json=st.booleans())
@example(case=("check", b"def K : U 0 -> U 0 := fun X => Nat\n"
                        b"def k : K NatS := zero\n"), as_json=True)
@example(case=("check", b"check zero : (Nat : NatS)\n"), as_json=True)
@example(case=("check", b"check (fun x => zero : Nat -> Nat) Nat : Nat\n"),
         as_json=True)
@example(case=("check", b"check (fun A => fun y => y) : Pi (A : U 0), A\n"),
         as_json=True)
@example(case=("corpus", b""), as_json=True)
def test_contract_holds_on_any_input(fuzz_dir, case, as_json):
    """Exit code 0, 1 or 2, no traceback, one JSON document under --json
    whose status is "pass" exactly when the exit code is 0."""
    kind, data = case
    source = fuzz_dir / "corpus" / "prelude" / "input.tltt"
    fixture = fuzz_dir / "input.json"
    if kind == "flags":
        argv = data
    elif kind in ("check", "corpus"):
        source.write_bytes(data)
        argv = (["check", str(source)] if kind == "check"
                else ["corpus", "run", str(fuzz_dir / "corpus")])
    else:
        fixture.write_bytes(data)
        # dimension 2 keeps the valid mutations of spine_nerve.json fast
        argv = ["lab", kind, "--fixture", str(fixture), "--max-dim", "2"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json"] * as_json)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if as_json:
        assert (json.loads(out.getvalue())["status"] == "pass") == (code == 0)
