"""Run one benchmark workload against the kleinmackey sources in ../src.

    python3 perfbench/run.py --workload oracle-box --seed 1 --seconds 22 --trace 0

With --trace 0 the run is a closed loop with one client in this one
single-threaded process: it executes whole rounds of seeded inputs until
--seconds of query time have passed (and at least the workload's minimum
number of rounds), timing each query alone and checking its answer against
an independent reference outside the timed span.  Every time is scaled to a
reference host speed by the readings of calibrate.py taken between queries.
It prints the end-to-end metrics, one per line, then one JSON object as the
last line.

With --trace 1 it runs the workload's minimum rounds twice in this process:
once untraced, then, after emptying the package's caches, with wrappers
around each layer's public functions.  It prints the per-layer metrics and
writes the spans to perfbench/out/.

Exit status: 0 when every answer checks, 1 when one does not, 2 when the
package cannot be imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 21
# fresh interpreter to the end of the imports every CLI invocation pays
SETUP_CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import kleinmackey.cli"


def measure_setup():
    """Median time of fresh interpreters importing the package, (scaled, wall).

    Each start is scaled by calibration readings taken just before and just
    after it.  One unmeasured start first compiles the bytecode, which users
    pay once.  No timeout: with one, the wait polls the child in sleeps of up
    to 50 ms, and the times snap to that grid.
    """
    scaled, wall = [], []
    for i in range(SETUP_SPAWNS + 1):
        before = calibrate.reading()
        start = perf_counter()
        subprocess.run([sys.executable, "-I", "-c", SETUP_CODE], cwd=ROOT, check=True)
        took = perf_counter() - start
        if i:
            wall.append(took)
            scaled.append(took * calibrate.REFERENCE_S
                          / ((before + calibrate.reading()) / 2))
    return statistics.median(scaled), statistics.median(wall)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Loop:
    """Query latencies, failures and outcomes of one pass over inputs."""

    def __init__(self, workload, check=True):
        self.workload = workload
        self.check = check
        self.cal = calibrate.Calibrator()
        self.wall = []           # wall seconds per query
        self.segments = []       # calibration segment per query
        self.failed = 0
        self.outcome = Counter()
        self.inputs = []

    def run(self, inp):
        wl = self.workload
        self.inputs.append(inp)
        self.segments.append(self.cal.segment())
        start = perf_counter()
        try:
            result = wl.query(inp)
        except Exception:
            self.wall.append(perf_counter() - start)
            self.failed += 1
            print(f"query {inp!r} raised:", file=sys.stderr)
            traceback.print_exc()
            return
        self.wall.append(perf_counter() - start)
        if self.check:
            failures = wl.check(inp, result, self.outcome)
            if failures:
                self.failed += 1
                for f in failures:
                    print(f"check failed: {f}", file=sys.stderr)

    def finish(self):
        """Close the last calibration segment; returns the scaled latencies."""
        self.cal.read()
        return [t * self.cal.factor(seg) for t, seg in zip(self.wall, self.segments)]

    @property
    def timed_s(self):
        return sum(self.wall)


def percentiles(lat):
    """(p50, p90) in ms."""
    return (statistics.median(lat) * 1e3,
            statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3)


def timed_run(workload, rounds, seconds):
    setup, setup_wall = measure_setup()
    loop = Loop(workload)
    rss = None
    completed = 0
    ended = "time is up"
    for completed, batch in enumerate(rounds, start=1):
        for inp in batch:
            loop.run(inp)
        if completed == workload.min_rounds:
            rss = peak_rss_mb()
        if completed >= workload.min_rounds and loop.timed_s >= seconds:
            break
    else:
        ended = "inputs used up"
    if rss is None:
        raise SystemExit(f"{workload.name}: inputs ran out after {completed} rounds")
    lat = loop.finish()
    passed = len(lat) - loop.failed
    p50, p90 = percentiles(lat)
    metrics = {
        "throughput_qps": (passed / sum(lat), "queries/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    wall50, wall90 = percentiles(loop.wall)
    readings = loop.cal.readings
    notes = [f"{len(lat)} queries in {completed} rounds, {loop.timed_s:.2f} s timed ({ended})",
             f"times scaled to the reference speed by {len(readings)} calibration "
             f"readings: median {statistics.median(readings) * 1e3:.3f} ms, "
             f"range {min(readings) * 1e3:.3f}-{max(readings) * 1e3:.3f} ms, "
             f"reference {calibrate.REFERENCE_S * 1e3:.3f} ms",
             f"unscaled: throughput_qps {passed / loop.timed_s:.6g}, "
             f"latency_p50_ms {wall50:.6g}, latency_p90_ms {wall90:.6g}, "
             f"setup_s {setup_wall:.6g}",
             f"setup_s is the median of {SETUP_SPAWNS} fresh interpreters; "
             f"peak_rss_mb is read after {workload.min_rounds} rounds"]
    return loop, metrics, notes


def traced_run(workload, rounds, out_path):
    import tracing
    batches = list(itertools.islice(rounds, workload.min_rounds))
    plain = Loop(workload, check=False)
    for inp in itertools.chain.from_iterable(batches):
        plain.run(inp)
    plain_s = sum(plain.finish())
    tracing.clear_caches()
    tracer = tracing.Tracer()
    loop = Loop(workload)
    tracer.install()
    try:
        for qid, inp in enumerate(itertools.chain.from_iterable(batches)):
            tracer.query = qid
            loop.run(inp)
    finally:
        tracer.uninstall()
    tracer.write(out_path)
    traced_s = sum(loop.finish())
    from kleinmackey import sschart
    achievable = sschart.achievable_tuples.cache_info()
    metrics = layer_metrics(tracer, loop.outcome, achievable)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics["trace.queries"] = (len(loop.wall), "count")
    notes = [f"{len(loop.wall)} queries in {len(batches)} rounds traced, "
             f"{loop.timed_s:.2f} s traced vs {plain.timed_s:.2f} s untraced (wall); "
             f"overhead ratio from times scaled by calibration",
             f"{len(tracer.spans)} spans written to {out_path.relative_to(ROOT)}"]
    return loop, metrics, notes


def layer_metrics(tracer, outcome, achievable):
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    lookups = achievable.hits + achievable.misses

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "groups.lookups": (counts["groups.lookups"], "count"),
        "bredon.sphere_complex.self_s": (s["bredon.sphere_complex"], "s"),
        "bredon.cells": (counts["bredon.cells"], "count"),
        "bredon.with_coefficients.self_s": (s["bredon.with_coefficients"], "s"),
        "bredon.differential.self_s": (s["bredon.differential"], "s"),
        "bredon.differential.calls": (calls["bredon.differential"], "count"),
        "bredon.chain_maps.self_s": (s["bredon.chain_maps"], "s"),
        "bredon.chain_maps.calls": (calls["bredon.chain_maps"], "count"),
        "bredon.homology.self_s": (s["bredon.homology"], "s"),
        "f2.homology_reps.self_s": (s["f2.homology_reps"], "s"),
        "f2.homology_reps.calls": (calls["f2.homology_reps"], "count"),
        "f2.kernel_basis.self_s": (s["f2.kernel_basis"], "s"),
        "f2.bits_computed": (counts["f2.bits_computed"], "count"),
        "mackey.res_tr_map.self_s": (s["mackey.res_tr_map"], "s"),
        "mackey.res_tr_map.calls": (calls["mackey.res_tr_map"], "count"),
        "mackey.identify.self_s": (s["mackey.identify"], "s"),
        "mackey.identify.calls": (calls["mackey.identify"], "count"),
        "mackey.identify.hit_ratio": (
            ratio(counts["mackey.identify.hits"], calls["mackey.identify"]), "ratio"),
        "mackey.hom_space.self_s": (s["mackey.hom_space"], "s"),
        "mackey.hom_space.calls": (calls["mackey.hom_space"], "count"),
        "sschart.build_E1.self_s": (s["sschart.build_E1"], "s"),
        "sschart.solve_differentials.self_s": (s["sschart.solve_differentials"], "s"),
        "sschart.patterns": (outcome["patterns"], "count"),
        "sschart.truncated": (outcome["truncated"], "count"),
        "sschart.achievable_tuples.hit_ratio": (ratio(achievable.hits, lookups), "ratio"),
        "sschart.render.self_s": (s["sschart.render"], "s"),
        "hk.poincare_K.self_s": (s["hk.poincare_K"], "s"),
        "sschart.check_convergence.self_s": (s["sschart.check_convergence"], "s"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import kleinmackey from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    rounds = workloads.rounds(workload, args.seed)
    if args.trace:
        out = HERE / "out" / f"trace-{workload.name}-seed{args.seed}.jsonl"
        loop, metrics, notes = traced_run(workload, rounds, out)
    else:
        loop, metrics, notes = timed_run(workload, rounds, args.seconds)

    attempted = len(loop.wall)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"closed loop, 1 client, 1 process, 1 thread")
    for line in notes:
        print(f"  {line}")
    print(f"  inputs: {workload.describe(loop.inputs)}")
    if loop.outcome:
        print("  outcomes: " + " ".join(f"{k}={v}" for k, v in sorted(loop.outcome.items())))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        # not a BENCHMARK.json metric: it is 0 on working code
        print(f"error_rate {loop.failed / attempted:.6g} ratio "
              f"({loop.failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
