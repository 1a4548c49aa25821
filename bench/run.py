#!/usr/bin/env python3
"""Benchmark of erbimatch: end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 bench/run.py                      # every workload, fresh processes
    python3 bench/run.py --workload sweep-all --seed 3 --seconds 20 --trace 0

One workload run sets up ``SETUPS`` times (inputs from ``--seed``, then one
untimed warm-up pass that also fills the graph's lazy caches), then runs
closed-loop passes, one client, for ``--seconds``.  Every pass's outputs are
checked; a pass that raises, whose CLI command exits non-zero, or whose check
fails counts as failed.  Human-readable lines, with units and sample counts,
precede the last line: one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``wall_s`` and ``setup_s`` are medians in reference seconds: each timed
interval is scaled by the time of a fixed calibration task run just before
and just after it (see :class:`Calibrated`); raw seconds are printed beside
them.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate run that alternates untraced and traced passes.  The
traced passes record spans around each call into a layer of erbimatch (see
``workloads.py``) and write them as JSON lines under ``bench/.out/``.  A layer
that a workload does not run reports 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import CheckFailed, compare
from spans import NULL, Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
EXPECTED = HERE / "expected.json"

SETUPS = 3
MIN_PASSES = 3
MIN_CYCLES = 2
CALIBRATION_REF_S = 0.25


def layer_metrics(stat) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as (value, unit, samples).  ``stat(key)`` gives the
    median over passes, and the number of passes, of a span name's total
    time or of a ``<span name>:<count>`` total; (0, 0) where absent."""
    from workloads import ALGORITHMS, FUNCTIONS

    m: dict[str, tuple[float, str, int]] = {}

    def put(name, key=None, unit="s"):
        value, n = stat(key or name)
        m[name] = (value, unit, n)

    put("ingest.read_profiles_s")
    put("ingest.read_ground_truth_s")
    for fn in FUNCTIONS:
        if fn != "raw-levenshtein":  # no public representation call
            put(f"simgen.representations_s.{fn}")
    for fn in FUNCTIONS:
        build = f"simgen.build_s.{fn}"
        seconds, n = stat(build)
        pairs, edges = stat(f"{build}:pairs")[0], stat(f"{build}:edges")[0]
        put(build)
        m[f"simgen.pairs_per_s.{fn}"] = (pairs / seconds if seconds else 0.0,
                                         "1/s", n)
        put(f"simgen.edges_kept.{fn}", f"{build}:edges", "count")
        m[f"simgen.keep_ratio.{fn}"] = (edges / pairs if pairs else 0.0,
                                        "ratio", n)
    put("graph.construct_s")
    put("graph.normalize_s")
    put("graph.edges", "graph.construct_s:edges", "count")
    put("graph.write_edge_list_s")
    put("graph.read_edge_list_s")
    put("graph.edge_list_mb", "graph.write_edge_list_s:mb", "MB")
    put("graph.prune_s")
    put("graph.adjacency_s")
    put("graph.pair_weights_s")
    for alg in ALGORITHMS:
        put(f"matchers.{alg}_s")
        put(f"matchers.{alg}.pairs", f"matchers.{alg}.match:pairs", "count")
    put("evaluation.evaluate_s")
    for alg in ALGORITHMS:
        put(f"evaluation.sweep_s.{alg}")
    for name in ("startup_s", "build_graph_s", "sweep_s", "match_s"):
        put(f"cli.{name}")
    put("trace.overhead_s")
    return m


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the CLI subprocesses and
    # the worker pools, counted once they have been waited for
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Runner:
    """Runs and checks the passes of one workload at one seed."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() \
            else {}
        self.expected = recorded.get(workload.name, {}).get(str(seed))
        self.reference = None  # (summary, results) of the first good pass

    def run_pass(self, state, rec, probe: bool = False) -> float | None:
        """One pass, timed; then its check and, with ``probe``, the
        workload's probe, untimed.  Returns the seconds, or None if the
        pass failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            with rec.span("pass"):
                outcome = self.workload.run(state, rec)
            elapsed = time.perf_counter() - start
            self.check(state, outcome)
            if probe:
                replay = self.workload.probe(state, outcome, rec)
                if replay is not None:
                    compare("replay", replay[0], self.reference[0])
                    if replay[1] != self.reference[1]:
                        raise CheckFailed("replayed sweep report differs "
                                          "from the CLI's")
            return elapsed
        except Exception:  # a failed pass is counted, and the run goes on
            self.failed += 1
            traceback.print_exc()
            return None

    def check(self, state, outcome) -> None:
        summary = self.workload.summarize(state, outcome)
        results = self.workload.results(state, outcome)
        if self.reference is None:
            if self.expected is not None:
                compare(f"seed {self.seed}", summary, self.expected)
            else:
                print(f"note: no recorded summary for {self.workload.name} "
                      f"seed {self.seed}; checking invariants and agreement "
                      "between passes only", file=sys.stderr)
            self.reference = summary, results
            return
        compare("pass", summary, self.reference[0])
        if results != self.reference[1]:
            raise CheckFailed("sweep results differ from the first pass's")


def calibration_s() -> float:
    """Seconds that a fixed pure-Python task takes now.

    The task loops over integers, then allocates and groups small batches
    of tuples, as the package's own code does; the batches are small so that
    it does not raise the process's peak memory.  It calls nothing in
    erbimatch, so a change to the package cannot move it; only the speed of
    the host can."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    for _ in range(30):
        rows = [(i, i % 97, i * 0.5) for i in range(20_000)]
        groups: dict[int, list[int]] = {}
        for left, right, _ in rows:
            groups.setdefault(right, []).append(left)
        del rows, groups
    return time.perf_counter() - start


class Calibrated:
    """Times intervals in reference seconds.

    On a shared host the speed of the same code drifts by 20% and more over
    minutes, with other tenants' load; a run's median pass moves with it,
    and no run short enough to repeat twenty times averages that out.  So
    the calibration task runs before and after every timed interval, and
    the interval is scaled by ``CALIBRATION_REF_S`` over the mean of the two:
    what the interval would have taken on a host where the task takes
    ``CALIBRATION_REF_S``.  Raw seconds are kept alongside."""

    def __init__(self, before: float | None = None):
        self.before = calibration_s() if before is None else before
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.calibrations = [self.before]

    def add(self, elapsed: float | None) -> None:
        after = calibration_s()
        self.calibrations.append(after)
        if elapsed is not None:
            self.raw.append(elapsed)
            self.scaled.append(
                elapsed * CALIBRATION_REF_S / ((self.before + after) / 2))
        self.before = after


def end_to_end(runner: Runner, seconds: float):
    setups, state = Calibrated(), None
    for _ in range(SETUPS):
        state = None  # release the previous graph before building the next
        start = time.perf_counter()
        state = runner.workload.setup(runner.seed, runner.workdir, NULL)
        if runner.run_pass(state, NULL) is None:
            raise RuntimeError("the warm-up pass failed")
        setups.add(time.perf_counter() - start)
    walls = Calibrated(setups.before)
    deadline = time.perf_counter() + seconds
    while runner.attempted < SETUPS + MIN_PASSES or \
            time.perf_counter() < deadline:
        walls.add(runner.run_pass(state, NULL))
    lines = []
    metrics = {}
    for name, timer, what in (("wall_s", walls, "passes"),
                              ("setup_s", setups, "set-ups")):
        if not timer.scaled:
            continue
        q1, med, q3 = quartiles(timer.scaled)
        metrics[name] = {"value": med, "unit": "s"}
        raw_q1, raw_med, raw_q3 = quartiles(timer.raw)
        lines.append(
            f"{name:12s} {med:10.4f} s   median of {len(timer.scaled)} "
            f"{what}, reference seconds (q1 {q1:.4f}, q3 {q3:.4f}); raw "
            f"{raw_med:.4f} (q1 {raw_q1:.4f}, q3 {raw_q3:.4f})")
    cal = setups.calibrations + walls.calibrations[1:]
    q1, med, q3 = quartiles(cal)
    lines.append(f"calibration  {med:10.4f} s   median of {len(cal)} "
                 f"(q1 {q1:.4f}, q3 {q3:.4f}); reference "
                 f"{CALIBRATION_REF_S} s")
    rss = peak_rss_mb()
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    lines.append(f"peak_rss_mb  {rss:10.1f} MB  max of self and children, "
                 "1 sample")
    return metrics, lines


def per_layer(runner: Runner, seconds: float, trace_path: Path):
    rec = Recorder()
    rec.pass_id = "setup"
    state = runner.workload.setup(runner.seed, runner.workdir, rec)
    rec.pass_id = None
    if runner.run_pass(state, NULL) is None:
        raise RuntimeError("the warm-up pass failed")
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycle < MIN_CYCLES or time.perf_counter() < deadline:
        cycle += 1
        elapsed = runner.run_pass(state, NULL)
        if elapsed is not None:
            plain.append(elapsed)
        rec.pass_id = f"pass{cycle}"
        elapsed = runner.run_pass(state, rec, probe=True)
        if elapsed is not None:
            traced.append(elapsed)
        rec.pass_id = None
    per_pass = rec.per_pass()
    if plain and traced:
        per_pass["overhead"]["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain))

    def stat(key):
        values = [totals[key] for totals in per_pass.values() if key in totals]
        return (statistics.median(values), len(values)) if values else (0.0, 0)

    metrics = {}
    lines = [f"passes: {len(traced)} traced, {len(plain)} untraced; "
             f"per-layer values are medians over the passes that ran them"]
    for name, (value, unit, n) in layer_metrics(stat).items():
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:36s} {value:14.6g} {unit:6s} n={n}"
                     + ("" if n else "  (not run by this workload)"))
    rec.write(trace_path, {"workload": runner.workload.name,
                           "seed": runner.seed, **environment()})
    lines.append(f"spans: {len(rec.spans)} written to "
                 f"{trace_path.relative_to(ROOT)}")
    return metrics, lines


def run_workload(args) -> int:
    from workloads import WORKERS, WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(workload, args.seed, workdir)
    print(f"erbimatch bench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} closed loop, 1 client")
    print("environment: " + " ".join(
        f"{k}={v}" for k, v in {**environment(), "workers": WORKERS}.items()))
    try:
        if args.trace:
            metrics, lines = per_layer(
                runner, args.seconds,
                OUT / f"trace-{workload.name}-seed{args.seed}.jsonl")
        else:
            metrics, lines = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    error_rate = runner.failed / runner.attempted
    print(f"error_rate   {error_rate:10.4f}     {runner.failed} of "
          f"{runner.attempted} passes failed")
    correct = runner.failed == 0 and (bool(args.trace) or "wall_s" in metrics)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    from workloads import WORKLOADS

    combined, status = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            status = status or proc.returncode
            try:
                combined[f"{name}/trace{trace}"] = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                status = status or 1
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, "
                        "each in a fresh process, traced and untraced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]
    if not (SRC / "erbimatch" / "__init__.py").is_file():
        print(f"error: no erbimatch sources under {SRC}; run the benchmark "
              "from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
