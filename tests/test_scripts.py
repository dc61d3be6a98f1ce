import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
