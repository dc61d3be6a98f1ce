"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record.py

Writes perfbench/reference.json: the SHA-256 of every preset CSV and of the
reference sweep, and the worst value of every verify suite.  Run it only on
the commit whose outputs define the reference; later commits must reproduce
these outputs, so re-recording on them would hide a change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cavityqfi import cli, verify  # noqa: E402
from cavityqfi.presets import CURVE_PRESETS, PRESET_NAMES  # noqa: E402
from workloads import REFERENCE_FILE, Sweep, scan_csv  # noqa: E402


def main() -> int:
    out = ROOT / ".bench_out" / "record"
    out.mkdir(parents=True, exist_ok=True)
    ref = {"presets": {}, "sweep": {}, "verify": {}}
    for name in PRESET_NAMES:
        sc = cli.Scenario(name, out / f"{name}.csv")
        run = cli.run_curve_preset if name in CURVE_PRESETS else cli.run_contour_preset
        ref["presets"][name] = scan_csv(run(sc))[0]
    ranges = [Sweep.COUPLING, Sweep.OMEGA_C]
    path = cli.run_sweep("ohmic", ["coupling", "omega_c"], ranges, "qfi_phi",
                         Sweep.T_END, Sweep.STEPS, out / "sweep.csv")
    ref["sweep"] = {"ranges": ranges, "sha256": scan_csv(path)[0]}
    ref["verify"] = {r.name: float(r.worst) for r in verify.run_suites()}
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
