"""Benchmark of solfree's public API: end-to-end timings and a layer trace.

Usage (from anywhere; the package is imported from ``src/`` next to this
directory):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of the workloads in ``workloads.py``.  A run repeats passes
for about S seconds.  Each pass imports solfree afresh and builds the
workload's inputs (set-up, timed on its own), then runs the workload's job
list, checking every job's outputs after its timed call.  A fixed host
calibration runs before every job and after the last.  The host has fast
and slow phases, so each pass's times are scaled to a reference host speed
by that pass's calibrations (see ``on_reference_host``), and the metrics
are medians over passes.  The measured seconds of every pass and job, and
every calibration, are in the metadata.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate, a probe reaches every traced layer once at the end, and the
metrics are the per-layer ones.  The line before the last carries the
run's metadata (seed, ladder, host calibration) and, when traced, per-job
detail.  Metric names and units come from ``BENCHMARK.json`` at the
repository root.

``--workload all`` runs every workload in turn, each in its own process,
and prints a table of their metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.jsonl"
MIN_PASSES = 3  # untraced passes in an untraced run
MIN_TRACED_PASSES = 2  # of each kind in a traced run
CAL_REF_S = 0.04  # calibration seconds on the reference host, which defines "_ref_s"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


_CAL_INPUT = np.arange(4608, dtype=np.int64) % 251


def calibrate() -> float:
    """Seconds for a fixed mix of the kinds of work solfree does.

    The mix holds a multiset loop with dict lookups (as in Freiman
    verification), Fraction sums with 2^20 denominators (as in range
    correction), and an int64 numpy convolution (as in the kernel).  It
    takes about 35 ms on a fast host, a third in each part, and runs
    before every job and after the last, so that a pass's times can be put
    on the scale of a reference host speed.
    """
    start = time.perf_counter()
    seen = {}
    for combo in itertools.combinations_with_replacement(range(70), 3):
        s = sum(combo) % 101
        seen[s] = seen.get(s, 0) + combo[0]
    total = Fraction(0)
    for i in range(1, 4800):
        total += Fraction(i * 7919 % 1048573, 1 << 20)
    np.convolve(_CAL_INPUT, _CAL_INPUT).tolist()
    return time.perf_counter() - start


def on_reference_host(seconds, cals):
    """Seconds measured during a pass, scaled to the reference host: times
    CAL_REF_S over the mean calibration of that pass.

    The host switches between fast and slow phases lasting from under a
    second to minutes, and the same job took up to 1.8 times as long in one
    as in another.  The calibration slows with it, so the scaled time of a
    pass stays put.  The mean, not the median, weighs the phases a pass
    went through by how often the calibrations met them.
    """
    return seconds * CAL_REF_S / statistics.fmean(cals)


def set_up(name, seed):
    """Import solfree afresh and build the workload's inputs.

    Every pass sets up anew, so ``setup_s`` samples the same stretch of time
    as the passes, and no pass reuses another's caches.
    """
    start = time.perf_counter()
    sf = workloads.import_solfree(SRC)
    workload = workloads.WORKLOADS[name](sf, seed)
    return sf, workload, time.perf_counter() - start


class Checker:
    """Checks job outputs against invariants and the recorded reference."""

    def __init__(self, seed):
        self.seed = seed
        self.reference = {}
        with open(REFERENCE) as fh:
            for line in fh:
                group, job, key, record = json.loads(line)
                self.reference.setdefault(group, {}).setdefault(job, {})[key] = record
        self.attempted = 0
        self.failed = 0
        self.compared = 0
        self.unreferenced = set()
        self.problems = []

    def _reference_for(self, group, job):
        by_seed = self.reference.get(group, {}).get(job.name, {})
        return by_seed.get(str(self.seed) if job.seeded else "*")

    def check(self, group, job, out, error):
        self.attempted += 1
        if error is not None:
            problems = [f"raised {error!r}"]
        else:
            problems = checks.invariant_problems(job, out)
            ref = self._reference_for(group, job)
            if ref is None:
                self.unreferenced.add(job.name)
            else:
                self.compared += 1
                problems += checks.reference_problems(checks.RECORDS[job.kind](out), ref)
        if problems:
            self.fail(job.name, problems)

    def fail(self, name, problems):
        self.failed += 1
        self.problems.append({"job": name, "problems": problems[:5]})


def run_job(job, checker, group, on_start=None):
    """Time one job, then check its outputs outside the timed region."""
    if on_start is not None:
        on_start(job)
    out, error = None, None
    start = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # a failing job is counted, and the run goes on
        error = exc
    seconds = time.perf_counter() - start
    checker.check(group, job, out, error)
    return seconds


def run_pass(workload, checker, on_start=None):
    """Run every job once, with a host calibration before each job and
    after the last; return the pass's seconds, each job's seconds and the
    calibration seconds."""
    job_seconds, cals = {}, []
    for job in workload.jobs:
        cals.append(calibrate())
        job_seconds[job.name] = run_job(job, checker, workload.name, on_start)
    cals.append(calibrate())
    return sum(job_seconds.values()), job_seconds, cals


def traced_pass(sf, workload, checker, jobs=None, group=None):
    """One pass (or the given jobs, uncalibrated) with every traced layer
    wrapped; returns its seconds, each job's seconds, the calibration
    seconds and the tracer."""
    t = tracing.Tracer()
    t.install(tracing.solfree_modules(), tracing.layer_table(sf))

    def on_start(job):
        t.job = job.name

    try:
        if jobs is None:
            wall, job_seconds, cals = run_pass(workload, checker, on_start)
        else:
            job_seconds = {j.name: run_job(j, checker, group, on_start) for j in jobs}
            wall, cals = sum(job_seconds.values()), []
    finally:
        t.restore()
    return wall, job_seconds, cals, t


def layer_values(t: tracing.Tracer, names) -> dict:
    """Per-layer metric values from one tracer: `<span>.calls`,
    `<span>.self_s`, or a count the tracer's observers derived."""
    values = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = t.calls[span]
        elif field == "self_s":
            values[name] = t.self_s[span]
        else:
            values[name] = t.counts[name]
    return values


def growth_exponent(ladder, passes) -> float:
    """Median over passes of the log-log slope of job seconds from the
    smallest to the largest rung.  Both rungs of one pass run seconds
    apart, so a slow phase of the host mostly cancels in their ratio."""
    small, large = ladder[0], ladder[-1]
    scale = math.log(large.size / small.size)
    return statistics.median(
        math.log(job_seconds[large.name] / job_seconds[small.name]) / scale
        for _, job_seconds, *_ in passes
    )


def measure(args, spec):
    checker = Checker(args.seed)
    # seconds; (wall, job seconds, calibrations[, tracer])
    setups, untraced, traced = [], [], []
    least = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    cycles = []  # seconds of each round of passes, set-up and checks included
    started = time.perf_counter()

    def budget_left():
        if len(untraced) < least or (args.trace and len(traced) < least):
            return True
        return time.perf_counter() - started + statistics.median(cycles) <= args.seconds

    while budget_left():
        cycle_start = time.perf_counter()
        for kind in (untraced, traced) if args.trace else (untraced,):
            sf, workload, seconds = set_up(args.workload, args.seed)
            setups.append(seconds)
            if kind is traced:
                traced.append(traced_pass(sf, workload, checker))
            else:
                untraced.append(run_pass(workload, checker))
        cycles.append(time.perf_counter() - cycle_start)

    ladder = workload.ladder
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "ladder": {"parameter": workload.ladder_parameter,
                   "rungs": {j.name: j.size for j in ladder}},
        "jobs": [j.name for j in workload.jobs],
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_s": setups,
        "pass_s": [p[0] for p in untraced],
        "job_s": {job.name: [p[1][job.name] for p in untraced] for job in workload.jobs},
        "calibration_s": [p[2] for p in untraced],
        "calibration_ref_s": CAL_REF_S,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": sf.kernels.BACKEND,
    }

    if args.trace:
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_frac"]
        probe_wall, _, _, probe_tracer = traced_pass(
            sf, workload, checker, jobs=workloads.probe(sf), group="probe"
        )
        unreached = sorted({row[2] for row in tracing.layer_table(sf)} - set(probe_tracer.calls))
        if unreached:
            checker.fail("probe", [f"no call reached {unreached}"])
        per_pass = [layer_values(p[3], names) for p in traced]
        probe_values = layer_values(probe_tracer, names)
        values = {
            name: statistics.median_low(v[name] for v in per_pass) + probe_values[name]
            for name in names
        }
        values["trace.overhead_frac"] = (
            statistics.median(on_reference_host(p[0], p[2]) for p in traced)
            / statistics.median(on_reference_host(p[0], p[2]) for p in untraced)
            - 1
        )
        metrics_spec = spec["per_layer"]
        first = traced[0][3]
        per_job = {}
        for event in first.events:
            per_job.setdefault(event["job"], {}).update(
                (k, v) for k, v in event.items() if k != "job"
            )
        meta["detail"] = {
            "jobs": per_job,
            "span_total_s": dict(first.total_s),
            "probe_wall_s": probe_wall,
        }
    else:
        values = {
            "setup_s": statistics.median(
                on_reference_host(s, p[2]) for s, p in zip(setups, untraced)
            ),
            "wall_ref_s": statistics.median(on_reference_host(p[0], p[2]) for p in untraced),
            "largest_job_ref_s": statistics.median(
                on_reference_host(p[1][ladder[-1].name], p[2]) for p in untraced
            ),
            "growth_exp": growth_exponent(ladder, untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - checker.failed / checker.attempted,
        }
        metrics_spec = spec["end_to_end"]

    meta["reference"] = {
        "compared": checker.compared,
        "no_record_for_seed": sorted(checker.unreferenced),
    }
    meta["problems"] = checker.problems
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return meta, result


def run_all(args) -> int:
    """Run each workload in its own process and tabulate its metrics."""
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        rows.append((name, "correct", result["correct"], ""))
        rows.extend((name, k, m["value"], m["unit"]) for k, m in result["metrics"].items())
    for name, metric, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<20} {metric:<36} {shown:>14} {unit}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    try:
        meta, result = measure(args, spec)
    except ImportError as exc:
        print(f"cannot import solfree from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
