#!/usr/bin/env python3
"""Run the benchmark and record its results in BENCH_<label>.json.

Usage: python scripts/bench.py LABEL [--workload NAME ...] [--seconds S]
                               [--trace 0|1 ...] [--out DIR]

Runs `perfbench/run.py` once per workload and trace flag, each in a fresh
interpreter, and keeps two lines of its stdout: the `env {...}` line and
the last line, its JSON result.  The file, written to DIR (default: the
repository root), holds the label, the commit of the checkout and whether
`src/` or `perfbench/` differ from it (both None outside git), and one
entry per run: workload, seed, seconds, trace flag, environment and result.
Defaults: every workload of BENCHMARK.json, 10 seconds, untraced then
traced; the seed is always 1.  A run that fails or prints no result exits
1 and writes no file.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def git(*args) -> str | None:
    """``git`` output in the checkout, or None outside a git work tree."""
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run(workload: str, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run, as a record; RuntimeError if it fails."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seconds", f"{seconds:g}", "--trace", str(trace), "--seed", str(SEED)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    env = [json.loads(line.split("env ", 1)[1]) for line in lines
           if line.lstrip().startswith("env {")]
    if done.returncode != 0 or len(env) != 1:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return {"workload": workload, "seed": SEED, "seconds": seconds, "trace": bool(trace),
            "env": env[0], "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label")
    ap.add_argument("--workload", nargs="+", choices=workloads, default=workloads)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", nargs="+", type=int, choices=(0, 1), default=[0, 1])
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    try:
        runs = [run(w, args.seconds, trace)
                for trace in args.trace for w in args.workload]
    except RuntimeError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    changed = git("status", "--porcelain", "--", "src", "perfbench")
    record = {"label": args.label, "commit": git("rev-parse", "HEAD"),
              "dirty": None if changed is None else bool(changed), "runs": runs}
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
