"""Benchmark of `tltt`: seeded workloads run against the package under `src/`.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it reports the per-layer metrics from one traced pass (see
tracer.py).  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; a readable summary goes
to standard error.  The exit code is 1 if any timed item misses its known
answer, and 2 if the run cannot start (no `src/tltt` next to this
directory, or bad arguments).

The loop is closed and single-threaded: one item at a time.  The timed loop
makes a fixed number of whole passes over the workload's fixed item set,
about `--seconds` worth.  The host is shared, and other tenants make the
same code run up to twice as slow for minutes at a time; so every wall time
is rescaled to the host's quiet speed by a fixed reference work timed
around it and, from a timer signal, inside it (see `Speed` and `Passes`).
An item's time to verdict is the median of its rescaled repeats;
`item_ms_p50` and `item_ms_p90` are taken over items, and `items_per_s` is
correct items over the sum of their times.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pathlib
import resource
import signal
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
TLTT_MODULES = ("syntax", "kernel", "corpus", "categories", "simplex",
                "nerve", "classifier", "fixtures", "cli")
SETUP_REPEATS = 9
MIN_PASSES = 2
# Passes of a run with `--seconds 20`, whatever the speed of the code under
# test, so that every version takes its medians over the same number of
# repeats.  Sized so that such a run takes 20 to 35 s of wall time on the
# 2-core host while other tenants load it; other lengths scale the count.
PASSES_PER_20_S = {"corpus": 5, "numerals": 5, "diagrams": 12,
                   "simplices": 3}
# The reference work and its wall time on that host when nothing else ran.
REFERENCE_LOOPS = 3000
REFERENCE_S = 0.0019
SLICE_S = 0.05
SAMPLE_S = 0.1


def import_tltt() -> SimpleNamespace:
    """Import `tltt` afresh from the checkout's `src/`."""
    for name in [m for m in sys.modules
                 if m == "tltt" or m.startswith("tltt.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    tl = SimpleNamespace(**{m: importlib.import_module(f"tltt.{m}")
                            for m in TLTT_MODULES})
    here = pathlib.Path(tl.syntax.__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise RuntimeError(f"imported tltt from outside the checkout: {here}")
    return tl


def setup(workload: str, seed: int):
    """Import, fixture loading, prelude reading and input generation."""
    tl = import_tltt()
    return tl, WORKLOADS[workload](tl, seed)


def passes(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(PASSES_PER_20_S[workload] * seconds / 20))


def freeze_setup() -> None:
    """Move everything set-up made into the collector's permanent generation,
    so the program's collections do not rescan the benchmark's own inputs."""
    gc.collect()
    gc.freeze()


def attempt(item, speed: "Speed") -> tuple[float, bool, str]:
    """Time one item to its verdict and compare it with the known answer.
    Reference runs made inside the item are not its time.  Exceptions,
    RecursionError included, count as wrong verdicts."""
    t0, r0 = perf_counter(), speed.ref_time
    try:
        out = item.call()
    except Exception as e:  # a failed item is counted, never fatal
        return (perf_counter() - t0 - (speed.ref_time - r0), False,
                f"{type(e).__name__}: {e}"[:200])
    dt = perf_counter() - t0 - (speed.ref_time - r0)
    try:
        ok = bool(item.check(out))
    except Exception as e:
        return dt, False, f"check raised {type(e).__name__}: {e}"[:200]
    return dt, ok, "" if ok else "wrong verdict"


class _Point:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key, self.weight = key, weight


def _reference_work() -> int:
    """A fixed piece of pure-Python work in the program's idiom: tuples,
    small objects, dict updates and frozensets."""
    table, total = {}, 0
    for i in range(REFERENCE_LOOPS):
        key = (i % 257, i % 13)
        point = _Point(key, i)
        table[key] = table.get(key, 0) + point.weight
        total += len(frozenset(point.key))
    return total + len(table)


def reference() -> float:
    """Wall time of one run of the reference work, with the collector off
    so that it never scans the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    _reference_work()
    dt = perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


class Speed:
    """How fast the host runs the reference work while timed work runs.

    `sample` runs the reference once.  Inside a `with` block a timer signal
    also samples every SAMPLE_S of wall time, in the middle of whatever item
    is running, so that a long item is rescaled by how fast the host ran
    while it ran; `attempt` leaves those samples out of the item's time."""

    def __init__(self):
        self.ref_time = 0.0     # wall time of all reference runs so far
        self.ref_runs = 0
        self._sampling = False

    def sample(self, *_signal) -> None:
        if self._sampling:      # a timer tick during an explicit sample
            return
        self._sampling = True
        self.ref_time += reference()
        self.ref_runs += 1
        self._sampling = False

    def mark(self) -> tuple[float, int]:
        return self.ref_time, self.ref_runs

    def rescale(self, dt: float, since: tuple[float, int]) -> float:
        """`dt` at the host's quiet speed: scaled by how much slower than
        REFERENCE_S the reference ran from `since` on."""
        t, n = self.ref_time - since[0], self.ref_runs - since[1]
        return dt * REFERENCE_S * n / t

    def __enter__(self) -> "Speed":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Passes:
    """A fixed number of whole passes over a workload's fixed items.

    Timed work is cut into slices of at least SLICE_S, each opened and
    closed by a reference run, and every item time is rescaled by the
    reference runs from the opening of its slice to its close, those the
    timer made inside it included.  An item's time to verdict is the median
    of its rescaled repeats; the wall times are kept for the summary."""

    def __init__(self, items):
        self.items = items
        self.times: list[list[float]] = [[] for _ in items]
        self.walls: list[list[float]] = [[] for _ in items]
        self.verified = [True] * len(items)
        self.passes = 0
        self.failures: list[str] = []

    def run(self, speed: Speed, tracer=None) -> None:
        gc.collect()
        since = speed.mark()
        speed.sample()
        pending, busy = [], 0.0
        for i, item in enumerate(self.items):
            if tracer is not None:
                tracer.item = i
            dt, ok, why = attempt(item, speed)
            if not ok:
                self.verified[i] = False
                self.failures.append(f"{item.label}: {why}")
            pending.append((i, dt))
            busy += dt
            if busy >= SLICE_S or i == len(self.items) - 1:
                close = speed.mark()
                speed.sample()
                for j, t in pending:
                    self.walls[j].append(t)
                    self.times[j].append(speed.rescale(t, since))
                since, pending, busy = close, [], 0.0
        self.passes += 1

    @property
    def attempted(self) -> int:
        return self.passes * len(self.items)

    def verdict_times(self, times=None) -> list[float]:
        return [statistics.median(t) for t in times or self.times]

    def items_per_s(self, times=None) -> float:
        """Correct verdicts per second of a pass at every item's median."""
        return sum(self.verified) / sum(self.verdict_times(times))


def run_ladder(plan) -> tuple[int, int, list[str]]:
    """Untimed depth probes: (deepest numeral checked, failures, notes)."""
    depth_max = max((it.depth for it in plan.items), default=0)
    failed, notes = 0, []
    for item in plan.ladder:
        _, ok, why = attempt(item, Speed())
        if ok:
            depth_max = max(depth_max, item.depth)
        else:
            failed += 1
            notes.append(f"{item.label}: {why}")
    return depth_max, failed, notes


def metric(name: str, value, units: dict) -> tuple[str, dict]:
    return name, {"value": value, "unit": units[name]}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups, walls, plan = [], [], None
    with Speed() as speed:
        for _ in range(SETUP_REPEATS):
            plan = None         # each set-up starts from a collected heap
            gc.collect()
            since = speed.mark()
            speed.sample()
            t0, r0 = perf_counter(), speed.ref_time
            _, plan = setup(workload, seed)
            dt = perf_counter() - t0 - (speed.ref_time - r0)
            speed.sample()
            walls.append(dt)
            setups.append(speed.rescale(dt, since))
        freeze_setup()
        timed = Passes(plan.items)
        for _ in range(passes(workload, seconds)):
            timed.run(speed)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    depth_max, ladder_failed, notes = run_ladder(plan)
    times = timed.verdict_times()
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
    metrics = dict([
        metric("items_per_s", timed.items_per_s(), END_TO_END),
        metric("item_ms_p50", statistics.median(times) * 1e3, END_TO_END),
        metric("item_ms_p90", p90 * 1e3, END_TO_END),
        metric("setup_s", statistics.median(setups), END_TO_END),
        metric("peak_rss_mb", peak_mb, END_TO_END),
    ])
    info = {"attempted": timed.attempted, "failed": len(timed.failures),
            "failures": timed.failures, "passes": timed.passes,
            "p90_samples": len(times),
            "p90_beyond": sum(t > p90 for t in times),
            "wall_items_per_s": timed.items_per_s(timed.walls),
            "wall_setup_s": statistics.median(walls),
            "depth_max": depth_max, "ladder": len(plan.ladder),
            "ladder_failed": ladder_failed, "ladder_notes": notes}
    return metrics, info


def traced(workload: str, seed: int) -> tuple[dict, dict, Tracer]:
    """One untraced pass, then setup and one pass under the tracer.  The
    work is fixed, so every count repeats exactly for a given seed."""
    tl, plan = setup(workload, seed)
    freeze_setup()
    speed = Speed()             # no timer: its samples would land in spans
    base = Passes(plan.items)
    base.run(speed)
    tracer = Tracer(vars(tl))
    tracer.install()
    try:
        tracer.item = "setup"
        plan = WORKLOADS[workload](tl, seed)
        freeze_setup()
        run = Passes(plan.items)
        run.run(speed, tracer)
    finally:
        tracer.uninstall()
    depth_max, ladder_failed, notes = run_ladder(plan)
    found = dict(tracer.counts)
    found.update(tracer.self_times())
    found["trace.overhead"] = 1 - run.items_per_s() / base.items_per_s()
    found["numerals.depth_max"] = depth_max
    found["numerals.ladder_failed"] = ladder_failed
    metrics = dict(metric(name, found.get(name, 0), PER_LAYER)
                   for name in PER_LAYER)
    failures = base.failures + run.failures
    info = {"attempted": base.attempted + run.attempted,
            "failed": len(failures), "failures": failures,
            "depth_max": depth_max, "ladder": len(plan.ladder),
            "ladder_failed": ladder_failed, "ladder_notes": notes}
    return metrics, info, tracer


def summarize(workload: str, metrics: dict, info: dict) -> None:
    err = sys.stderr
    print(f"workload {workload}: {info['attempted']} items attempted, "
          f"{info['failed']} failed", file=err)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=err)
    if "p90_samples" in info:
        print(f"  {info['passes']} passes; item_ms_p90 from "
              f"{info['p90_samples']} items, {info['p90_beyond']} beyond it",
              file=err)
        print(f"  unscaled wall time: {info['wall_items_per_s']:.6g} "
              f"items/s, set-up {info['wall_setup_s']:.6g} s", file=err)
    if info["ladder"]:
        print(f"  depth ladder: {info['ladder'] - info['ladder_failed']} of "
              f"{info['ladder']} rungs verify; deepest numeral checked "
              f"{info['depth_max']}", file=err)
        for note in info["ladder_notes"]:
            print(f"    {note}", file=err)
    for f in info["failures"][:20]:
        print(f"  FAILED {f}", file=err)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tltt" / "__init__.py").is_file():
        print(f"no tltt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        metrics, info, tracer = traced(args.workload, args.seed)
        name = f"{args.workload}-{args.seed}.json"
        tracer.write(ROOT / "perfbench" / "traces" / name,
                     {"workload": args.workload, "seed": args.seed})
    else:
        metrics, info = end_to_end(args.workload, args.seed, args.seconds)
    summarize(args.workload, metrics, info)
    correct = info["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
