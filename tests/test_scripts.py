import hashlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def test_convergence_study_shows_fourth_order(capsys):
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "convergence_study.py"), run_name="__main__")
    assert done.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:]]
    assert len(rows) == 5
    assert rows[0][2] == "-"
    for _, dev, ratio in rows[1:]:
        if float(dev) > 1e-10:  # above the floor the 4th-order ratio must show
            assert float(ratio) >= 8.0


def test_reproduce_figures_matches_reference_digests(tmp_path, monkeypatch):
    # the 16 default preset CSVs, byte for byte, against the digests the
    # benchmark checks (read only here)
    want = json.loads((ROOT / "perfbench" / "reference.json").read_text())["presets"]
    monkeypatch.setattr(sys, "argv", ["reproduce_figures.py", str(tmp_path)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "reproduce_figures.py"), run_name="__main__")
    assert done.value.code == 0
    got = {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.glob("*.csv")}
    assert got == want


def test_bench_records_a_presets_run(tmp_path):
    # one short untraced run; the file keeps the run's environment and result
    done = subprocess.run([sys.executable, str(SCRIPTS / "bench.py"), "smoke", "--workload",
                           "presets", "--seconds", "1", "--trace", "0", "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record.keys() == {"label", "commit", "dirty", "runs"}
    assert record["label"] == "smoke"
    [run] = record["runs"]
    assert {k: run[k] for k in ("workload", "seed", "seconds", "trace")} == {
        "workload": "presets", "seed": 1, "seconds": 1.0, "trace": False}
    assert {"python", "numpy", "scipy", "nproc", "cpu"} <= run["env"].keys()
    result = run["result"]
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
