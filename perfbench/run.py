#!/usr/bin/env python3
"""Benchmark of the cavityqfi package, driven through its public functions.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 10 --trace 0

Workloads: presets, sweep, verify (see perfbench/README.md).  A run
repeats whole passes of the workload's operations, in one process with
BLAS/OpenMP threads pinned to 1, until --seconds have passed and the
workload's minimum op count is reached, and checks every operation's output.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs the
workload untraced and then traced, for half the time each, and reports the
per-layer metrics from the traced half plus the tracing overhead.  Every
metric is printed by name with its unit, then the environment, and the last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The exit code is 0 when that line was printed.
"""

import os

PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED_THREADS)   # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedSampler, calibrated_call  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import cavityqfi.cli; cavityqfi.cli.build_parser()")


def measure_setup():
    """Median calibrated seconds for a fresh interpreter to import
    `cavityqfi.cli` and build its parser, and the largest such
    interpreter's RSS in MB.

    One unmeasured start first compiles the bytecode caches, which a user
    pays once per install, not per command.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    start = lambda: subprocess.run(cmd, check=True, cwd=ROOT)
    start()
    times = [calibrated_call(start) for _ in range(SETUP_REPEATS)]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return statistics.median(times), rss_mb


class Phase:
    """Op timings, outputs and failures of one measured phase.

    `times` are calibrated seconds (see speed.py), `wall` the raw ones.
    """

    def __init__(self):
        self.times = []
        self.wall = []
        self.outputs = []
        self.failed = 0

    @property
    def attempted(self):
        return len(self.outputs) + self.failed

    def p50(self):
        return statistics.median(self.times)


def measure(workload, seconds, min_ops, tracer=None) -> Phase:
    """Repeat whole passes until `seconds` have passed and `min_ops` ran."""
    phase = Phase()
    spans = []
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or phase.attempted < min_ops):
            for label, run, check in workload.ops(tracer):
                if tracer is not None:
                    tracer.op += 1
                try:
                    t0 = time.perf_counter()
                    result = run()
                    spans.append((t0, time.perf_counter()))
                    phase.outputs.append(check(result))
                except Exception:   # a failed op is counted; the run goes on
                    phase.failed += 1
                    print(f"FAILED op {label}:\n{traceback.format_exc()}",
                          file=sys.stderr)
    phase.wall = [t1 - t0 for t0, t1 in spans]
    phase.times = [sampler.calibrated(t0, t1) for t0, t1 in spans]
    return phase


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(workload, phase: Phase, setup):
    setup_s, setup_rss_mb = setup
    op_s = sum(phase.times)
    return {
        "setup_s": (setup_s, "s"),
        "setup_rss_mb": (setup_rss_mb, "MB"),
        "op_p50_s": (phase.p50(), "s"),
        "op_tail_s": (nearest_rank(phase.times, workload.tail_pct), "s"),
        "values_per_s": (sum(o.values for o in phase.outputs) / op_s, "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


LAYER_SPANS = {   # span name -> the per-op fields reported for it
    "metrics.metric_series": ("calls", "self_s", "samples"),
    "dynamics.amplitude": ("calls", "self_s", "samples"),
    "presets.quantity_values": ("calls", "self_s"),
    "mesolve.evolve": ("calls", "self_s", "substeps"),
    "spectral.gamma_numeric": ("calls", "self_s"),
    "spectral.beta_numeric": ("calls", "self_s"),
    "spectral.gamma_closed": ("calls", "self_s"),
    "spectral.beta_closed": ("calls", "self_s"),
}
# field -> (index in a Tracer.summary() row, unit); the work counter of a
# span is its samples or substeps
FIELDS = {"calls": (0, "count"), "self_s": (2, "s"),
          "samples": (3, "count"), "substeps": (3, "count")}
NO_SPANS = (0, 0.0, 0.0, 0)


def per_layer(tracer, untraced: Phase, traced: Phase, suites):
    """Per-op layer metrics of the traced phase.  Counts are exact per op;
    times are seconds per op."""
    n_ops = traced.attempted
    summary = tracer.summary()
    out = {}
    for span, fields in LAYER_SPANS.items():
        row = summary.get(span, NO_SPANS)
        for field in fields:
            index, unit = FIELDS[field]
            out[f"{span}.{field}"] = (row[index] / n_ops, unit)

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    calls, _, self_s, samples = summary.get("metrics.metric_series", NO_SPANS)
    out["metrics.metric_series.ns_per_sample"] = (per(self_s, samples, 1e9),
                                                  "ns")
    calls, _, self_s, substeps = summary.get("mesolve.evolve", NO_SPANS)
    out["mesolve.evolve.us_per_substep"] = (per(self_s, substeps, 1e6), "us")
    calls, _, self_s, _ = summary.get("spectral.gamma_numeric", NO_SPANS)
    out["spectral.gamma_numeric.us_per_call"] = (per(self_s, calls, 1e6), "us")

    cli_self = sum(row[2] for name, row in summary.items()
                   if name.startswith("cli."))
    values = sum(o.values for o in traced.outputs)
    out["cli.self_s"] = (cli_self / n_ops, "s")
    out["cli.rows_written"] = (sum(o.rows for o in traced.outputs) / n_ops,
                               "count")
    out["cli.bytes_written"] = (sum(o.bytes for o in traced.outputs) / n_ops,
                                "count")
    out["cli.ns_per_value"] = (per(cli_self, values, 1e9), "ns")

    for suite in suites:
        row = summary.get(f"verify.{suite}", NO_SPANS)
        out[f"verify.{suite}.s"] = (row[1] / n_ops, "s")
    for cache, child in (("amps", "dynamics.amplitude"),
                         ("chain", "mesolve.evolve")):
        lookups, misses = tracer.misses_under(f"verify.ctx.{cache}", child)
        out[f"verify.{cache}_cache_hit_ratio"] = (
            per(lookups - misses, lookups, 1.0), "ratio")

    out["trace.untraced_op_p50_s"] = (untraced.p50(), "s")
    out["trace.op_p50_s"] = (traced.p50(), "s")
    out["trace.overhead_s"] = (traced.p50() - untraced.p50(), "s")
    out["trace.spans_per_op"] = (len(tracer.spans) / n_ops, "count")
    return out


def environment():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "threads": PINNED_THREADS,
    }


def expected_metrics(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cavityqfi" / "__init__.py").is_file():
        print(f"no package sources under {SRC}", file=sys.stderr)
        return 2
    setup = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    from tracer import Tracer
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)

    if args.trace:
        untraced = measure(workload, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        from cavityqfi.verify import SUITES
        metrics = per_layer(tracer, untraced, traced, SUITES)
        phases = (untraced, traced)
        spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "fields": ["name", "start", "end", "parent", "op", "count"],
             "spans": tracer.spans}))
    else:
        phase = measure(workload, args.seconds, workload.min_ops)
        phases = (phase,)
    if not all(p.times for p in phases):
        print("no operation completed", file=sys.stderr)
        return 1
    if not args.trace:
        metrics = end_to_end(workload, phase, setup)

    expected = expected_metrics(bool(args.trace))
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if reported != expected:
        print(f"metrics differ from BENCHMARK.json: reported {reported}, "
              f"expected {expected}", file=sys.stderr)
        return 1

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for p in phases:
        print(f"  {len(p.times)} ops timed, {p.attempted} attempted, "
              f"{p.failed} failed; median wall seconds per op "
              f"{statistics.median(p.wall):.6g}")
        print(f"op seconds, calibrated {json.dumps(p.times)}, "
              f"wall {json.dumps(p.wall)}", file=sys.stderr)
    if not args.trace:
        print(f"  op_tail_s is the p{workload.tail_pct} of "
              f"{len(phases[0].times)} ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(f"  env {json.dumps(environment())}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
