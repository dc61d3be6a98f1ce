"""The benchmark workloads: inputs from a seed, operations, output checks.

An operation is a (label, run, check) triple.  `run` drives the package
through its public functions and is the only part that is timed; `check`
verifies what `run` produced and returns an `Output`, or raises
`CheckFailed`.  `ops()` returns one pass over the workload's inputs; the
runner repeats passes until its time is up.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cavityqfi import cli, verify
from cavityqfi.dynamics import TimeGrid, amplitude
from cavityqfi.metrics import qfi_closed
from cavityqfi.presets import CURVE_PRESETS, PRESET_NAMES, make_config

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


class CheckFailed(Exception):
    """An operation's output differs from what the package must produce."""


@dataclass(frozen=True)
class Output:
    values: int      # numeric values the operation produced
    rows: int = 0    # CSV data rows written
    bytes: int = 0   # CSV bytes written


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def scan_csv(path: Path):
    """(sha256 hex digest, data rows, bytes) of a CSV written by the CLI.

    Data rows exclude the `#` metadata lines and the header line.
    """
    digest = hashlib.sha256()
    newlines = meta = size = 0
    with open(path, "rb") as fh:
        head = fh.read(4096)
        meta = head.count(b"\n#") + head.startswith(b"#")
        chunk = head
        while chunk:
            digest.update(chunk)
            newlines += chunk.count(b"\n")
            size += len(chunk)
            chunk = fh.read(1 << 20)
    return digest.hexdigest(), newlines - meta - 1, size


def _parse_range(text: str) -> np.ndarray:
    a, b, n = text.split(":")
    return np.linspace(float(a), float(b), int(n))


class Presets:
    """All 16 figure presets in closed mode at their default grids.

    One op writes one preset CSV; a pass covers the 16 presets in a seeded
    order.  Every CSV must match its recorded SHA-256 byte for byte (the
    order does not change the bytes, so this holds on every seed).
    """

    name = "presets"
    tail_pct = 90
    min_ops = 7 * len(PRESET_NAMES)   # so that ten ops lie beyond the p90

    def __init__(self, seed: int, out_dir: Path):
        self.order = list(PRESET_NAMES)
        random.Random(seed).shuffle(self.order)
        self.out_dir = out_dir
        self.hashes = load_reference()["presets"]

    def ops(self, tracer=None):
        return [self._op(name) for name in self.order]

    def _op(self, name):
        path = self.out_dir / f"{name}.csv"
        sc = cli.Scenario(name, path)
        if name in CURVE_PRESETS:
            width = len(CURVE_PRESETS[name].couplings)
            run = lambda: cli.run_curve_preset(sc)
        else:
            width = 1
            run = lambda: cli.run_contour_preset(sc)

        def check(_):
            digest, rows, size = scan_csv(path)
            if digest != self.hashes[name]:
                raise CheckFailed(f"{name}: CSV bytes differ from the reference")
            return Output(rows * width, rows, size)

        return name, run, check


class Sweep:
    """The reference Ohmic sweep: coupling 0:1:40 x omega_c 0.1:3:40 x 500.

    Seed 0 runs the reference ranges and checks the CSV's SHA-256.  Any
    other seed shifts the omega_c range inside the model's domain; every
    seed checks the row count, that every F_phi lies in [0, 1], and the rows
    of a seeded sample of configs against a direct `amplitude` +
    `qfi_closed` evaluation.
    """

    name = "sweep"
    tail_pct = 100
    min_ops = 3
    COUPLING = "0:1:40"
    OMEGA_C = "0.1:3:40"
    T_END = 20.0
    STEPS = 500
    SAMPLE = 8
    ABS_TOL = 1e-11   # 12 significant digits of values in [0, 1]

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        omega_c = self.OMEGA_C
        if seed:
            omega_c = f"{rng.uniform(0.05, 0.3):.4f}:{rng.uniform(2.7, 3.2):.4f}:40"
        self.ranges = [self.COUPLING, omega_c]
        self.path = out_dir / "sweep.csv"
        ref = load_reference()["sweep"]
        self.digest = ref["sha256"] if self.ranges == ref["ranges"] else None
        couplings, omegas = (_parse_range(r) for r in self.ranges)
        self.n_configs = couplings.size * omegas.size
        grid = TimeGrid(self.T_END, self.STEPS)
        self.expected = {}
        for k in rng.sample(range(self.n_configs), self.SAMPLE):
            g, wc = couplings[k // omegas.size], omegas[k % omegas.size]
            cfg = make_config("ohmic", float(g), float(wc))
            self.expected[k] = qfi_closed(amplitude(cfg, grid).p, cfg.theta)[0]

    def ops(self, tracer=None):
        run = lambda: cli.run_sweep("ohmic", ["coupling", "omega_c"],
                                    self.ranges, "qfi_phi", self.T_END,
                                    self.STEPS, self.path)
        return [("sweep", run, self._check)]

    def _check(self, _):
        digest, rows, size = scan_csv(self.path)
        if self.digest is not None and digest != self.digest:
            raise CheckFailed("sweep: CSV bytes differ from the reference")
        if rows != self.n_configs * self.STEPS:
            raise CheckFailed(f"sweep: {rows} rows, expected "
                              f"{self.n_configs * self.STEPS}")
        row = -1
        with open(self.path, "rb") as fh:
            for line in fh:
                if row < 0:     # metadata lines, then the header
                    row += not line.startswith(b"#")
                    continue
                value = float(line.rpartition(b",")[2])
                if not 0.0 <= value <= 1.0:
                    raise CheckFailed(f"sweep: row {row} value {value} "
                                      "outside [0, 1]")
                want = self.expected.get(row // self.STEPS)
                if want is not None and \
                        abs(value - want[row % self.STEPS]) > self.ABS_TOL:
                    raise CheckFailed(f"sweep: row {row} is {value}, direct "
                                      f"evaluation gives {want[row % self.STEPS]}")
                row += 1
        return Output(rows, rows, size)


class Verify:
    """All 12 verification suites through `run_suites()`.

    One op runs every suite, in the CLI's order, with a fresh
    `VerifyContext`.  Each suite must PASS and report its recorded worst
    value to within the suite's own tolerance.  Its values are the 12
    worst values the suites report.  The inputs are fixed: the seed is not
    used, because the suite order decides what the caches hold at once and
    so moves peak memory.
    """

    name = "verify"
    tail_pct = 100
    min_ops = 1

    def __init__(self, seed: int, out_dir: Path):
        self.names = list(verify.SUITES)
        self.worst = load_reference()["verify"]

    def ops(self, tracer=None):
        def run():
            ctx = verify.VerifyContext()
            if tracer is not None:
                tracer.trace_context(ctx)
            return verify.run_suites(self.names, ctx)

        return [("verify", run, self._check)]

    def _check(self, results):
        if sorted(r.name for r in results) != sorted(self.worst):
            raise CheckFailed("verify: suite set differs from the reference")
        for r in results:
            if not r.passed:
                raise CheckFailed(f"verify: {r.line()}")
            if not abs(r.worst - self.worst[r.name]) <= r.tolerance:
                raise CheckFailed(f"verify: {r.name} worst {r.worst:.6e} vs "
                                  f"reference {self.worst[r.name]:.6e} exceeds "
                                  f"tolerance {r.tolerance:.1e}")
        return Output(len(results))


WORKLOADS = {w.name: w for w in (Presets, Sweep, Verify)}
