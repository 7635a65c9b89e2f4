"""End-to-end simulator benchmark: one workload, one JSON result line.

    python3 perfbench/run.py --workload table1_original --seed 42 \\
        --seconds 25 --trace 0

Every sample runs in a fresh single-threaded child process
(``workloads.py``), one at a time.  ``--trace 0`` repeats untraced,
unprofiled samples until ``--seconds`` have passed and reports medians
of the end-to-end metrics; timings are scaled to a reference host speed
by ``hostprobe.py``.  ``--trace 1`` runs one untraced sample of
the mirrored cell, one cProfile-d sample, then untraced samples until
``--seconds`` have passed, and reports the per-layer metrics.

A sample fails when its process fails, when a conservation identity
does not close, or when its simulated fingerprint differs from the
other samples of the run, from the untraced cell at the same seed, or
(at a seed recorded in ``reference.json``) from the reference.  The
last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

from layers import LAYERS
from workloads import UNTRACED, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: The seed a run uses unless told otherwise, and the held-out seed
#: kept for validating later claims; ``reference.json`` pins the
#: simulated fingerprint of every cell at both.
DEFAULT_SEED = 42
HOLDOUT_SEED = 20170605

#: Fewest timed samples a ``--trace 0`` run takes, however short
#: ``--seconds`` is; medians need at least this many.
MIN_SAMPLES = 3
#: A child that takes longer than this has hung.
SAMPLE_TIMEOUT = 120.0

COUNTERS = ("sim.events", "workload.requests", "workload.attempts",
            "workload.abandoned", "aggregate.completions",
            "aggregate.dispatched", "netmodel.dropped",
            "netmodel.retransmits", "netmodel.wan_retransmits",
            "core.dispatches", "core.endpoint_failures", "core.spillovers",
            "core.pick_yield", "osmodel.millibottlenecks", "tiers.completed",
            "tiers.error_responses", "tiers.cache_hit_ratio",
            "metrics.samples", "tracing.traces", "tracing.spans")


class SampleFailed(Exception):
    """One sample's process failed or its output was wrong."""


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one sample in a child process and return its record."""
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--spawned", repr(time.perf_counter())]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise SampleFailed("{} timed out".format(workload)) from None
    if proc.returncode != 0:
        raise SampleFailed("{} exited {}: {}".format(
            workload, proc.returncode, proc.stderr.strip()[-2000:]))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if record["violations"]:
        raise SampleFailed("{}: {}".format(workload, record["violations"]))
    return record


class Run:
    """Samples of one benchmark run, with the fingerprint gate."""

    def __init__(self, workload: str, seed: int, reference: dict) -> None:
        self.workload = workload
        self.seed = seed
        cell = UNTRACED.get(workload, workload)
        self.expected = reference.get(cell, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0

    def sample(self, workload: str, mode: str = "timed"):
        """One checked sample, or ``None`` if it failed."""
        self.attempted += 1
        try:
            record = spawn(workload, self.seed, mode)
            fingerprint = record["fingerprint"]
            print("{} {}: run_s {:.4f} (raw {:.4f}) setup_s {:.4f}".format(
                workload, mode, record["run_s"], record["raw_run_s"],
                record.get("setup_s", float("nan"))), file=sys.stderr)
            if self.expected is None:
                self.expected = fingerprint
            elif fingerprint != self.expected:
                raise SampleFailed("{} {} fingerprint {} != {}".format(
                    workload, mode, fingerprint, self.expected))
            return record
        except (SampleFailed, ValueError, KeyError) as exc:
            self.failed += 1
            print("sample failed: {}".format(exc), file=sys.stderr)
            return None

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0 and bool(metrics),
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run: Run, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    records = []
    while run.attempted < MIN_SAMPLES or time.perf_counter() < deadline:
        record = run.sample(run.workload)
        if record is None:
            return {}
        records.append(record)
    run_s = statistics.median(r["run_s"] for r in records)
    requests = records[0]["fingerprint"]["requests"]
    return {
        "run_s": _metric(run_s, "s"),
        "requests_per_s": _metric(requests / run_s, "req/s"),
        "setup_s": _metric(statistics.median(r["setup_s"] for r in records),
                           "s"),
        "peak_rss_mb": _metric(
            statistics.median(r["peak_rss_mb"] for r in records), "MB"),
    }


def per_layer(run: Run, seconds: float) -> dict:
    deadline = time.perf_counter() + seconds
    # The untraced, unprofiled fingerprint at this seed comes first, so
    # the profiled (and traced) samples are checked against it.
    mirror = UNTRACED.get(run.workload, run.workload)
    first = run.sample(mirror)
    timed = [first] if first is not None and mirror == run.workload else []
    profiled = run.sample(run.workload, "profiled")
    while not timed or time.perf_counter() < deadline:
        record = run.sample(run.workload)
        if record is None:
            break
        timed.append(record)
    if profiled is None or not timed:
        return {}
    profile = profiled["profile"]
    total = profile["total_s"]
    if abs(sum(profile["self_s"].values()) - total) > 1e-6 * max(total, 1):
        run.failed += 1
        print("layer self time does not sum to the profiled total",
              file=sys.stderr)
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".self_s"] = _metric(profile["self_s"][layer], "s")
        metrics[layer + ".calls"] = _metric(profile["calls"][layer], "count")
    metrics["profile.total_s"] = _metric(total, "s")
    metrics["profile.overhead"] = _metric(
        profiled["raw_run_s"]
        / statistics.median(r["raw_run_s"] for r in timed), "ratio")
    counters = profiled["counters"]
    for name in COUNTERS:
        unit = "ratio" if name.endswith(("yield", "ratio")) else "count"
        metrics[name] = _metric(counters.get(name, 0), unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end simulator benchmark (see README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("no simulator source under {}".format(ROOT / "src"),
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    run = Run(args.workload, args.seed, reference["fingerprints"])
    measure = per_layer if args.trace else end_to_end
    result = run.result(measure(run, args.seconds))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
