"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The end-to-end and traced tests run the benchmark in subprocesses, one
workload at a time; together they take a few minutes.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, classifier_count, numeral_source  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
NAMES = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(WORKLOADS)


def test_predictions_cite_known_names():
    doc = json.loads((HERE / "predictions.json").read_text())
    assert sorted(doc["workloads"]) == sorted(NAMES)
    metrics = set(END_TO_END) | set(PER_LAYER)
    for p in doc["predictions"]:
        assert set(p["metrics"]) <= set(PER_LAYER), p["layer"]
        assert set(p["moves"]) <= metrics, p["layer"]
        for key in ("on", "little_on", "none_on"):
            assert set(p.get(key, ())) <= set(NAMES), p["layer"]


def test_numeral_known_answers_come_from_arithmetic():
    src, accept = numeral_source("add", 5, 0.4)
    assert accept and "check refl" in src
    assert "add (succ (succ (zero))) (succ (succ (succ (zero))))" in src
    src, accept = numeral_source("add+1", 5, 0.5)
    assert not accept and "--! expect: CONV\nfail" in src
    assert numeral_source("toNat", 3, 0.0) == (
        "check refl (succ (succ (succ (zero)))) : "
        "toNat (succS (succS (succS (zeroS)))) = succ (succ (succ (zero)))\n",
        True)


def test_classifier_counts_match_criterion_9():
    assert classifier_count(1, [(), ("*",)]) == 2
    assert classifier_count(2, [(), ("*",)]) == 3
    assert classifier_count(2, [(), ("*",), ("a", "b")]) == 85


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics_present_with_units(workload):
    doc = result(bench("--workload", workload, "--seed", 7,
                       "--seconds", 1, "--trace", 0))
    assert doc["correct"] and doc["failed"] == 0
    assert doc["attempted"] >= 200
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of seed 5 per workload, made once for the module."""
    runs = {}

    def get(workload):
        if workload not in runs:
            runs[workload] = [
                result(bench("--workload", workload, "--seed", 5,
                             "--seconds", 1, "--trace", 1))
                for _ in range(2)]
        return runs[workload]

    return get


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_for_a_seed(workload, traced):
    runs = traced(workload)
    for doc in runs:
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == PER_LAYER
    counts = [{k: v["value"] for k, v in doc["metrics"].items()
               if PER_LAYER[k] not in ("s", "ratio")} for doc in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_layers_busy_where_predicted(workload, traced):
    """Every self time a prediction assigns to this workload is nonzero."""
    doc = json.loads((HERE / "predictions.json").read_text())
    wanted = {m for p in doc["predictions"] if workload in p["on"]
              for m in p["metrics"] if m.endswith(".self_s")}
    metrics = traced(workload)[0]["metrics"]
    assert sorted(m for m in wanted if not metrics[m]["value"] > 0) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = bench("--workload", NAMES[0], "--seed", 1, "--seconds", 1,
                 "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
