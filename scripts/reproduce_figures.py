#!/usr/bin/env python3
"""Write every figure preset to CSV in one go.

Usage: python scripts/reproduce_figures.py [OUTDIR]
"""

import sys
import time
from pathlib import Path

from cavityqfi.cli import Scenario, run_contour_preset, run_curve_preset
from cavityqfi.presets import CURVE_PRESETS, PRESET_NAMES


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("figures")
    outdir.mkdir(parents=True, exist_ok=True)
    for name in PRESET_NAMES:  # the curves, then the contours
        run = run_curve_preset if name in CURVE_PRESETS else run_contour_preset
        t0 = time.perf_counter()
        path = run(Scenario(name, outdir / f"{name}.csv"))
        print(f"{name}: {path}  [{time.perf_counter() - t0:.2f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
