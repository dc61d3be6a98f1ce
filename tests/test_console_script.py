"""The command line in a fresh interpreter, one row per case.

Each row runs ``[sys.executable, *flags, *argv]`` in a directory of its own
and checks the exit code and the exact stderr line count and prefix.  A success
row's ``--out`` file must have its SHA-256 and no ``\\r``; a failure row must
leave the directory as it was: no output and no ``*.tmp``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from test_presets_cli import GOLDEN, GOLDEN_IDS

SRC = str(Path(__file__).resolve().parents[1] / "src")
OUT = "out.csv"
ERR = "configuration error: "
# a file opened in text mode with no encoding would take the locale's, which
# these flags make an error; the CSV is bytes written in binary mode
NO_LOCALE = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
W_ERROR = ("-W", "error")


class Row(NamedTuple):
    argv: list
    code: int = 0
    n_err: int = 0
    prefix: str = ""
    digest: str | None = None
    flags: tuple = ()
    link: str | None = None  # --out is first made a symlink to this path


def cli(args):
    return ["-m", "cavityqfi.cli", *args.split(), "--out", OUT]


def golden(case):
    argv, digest = dict(zip(GOLDEN_IDS, GOLDEN))[case]
    return Row(cli(" ".join(argv)), digest=digest, flags=NO_LOCALE)


# numpy warns on the way to the NaN these reject, so they also run with -W error
SPAN = cli("sweep --model lorentzian --param detuning --range=-1e308:1e308:3")
UNDERFLOW = cli("sweep --model ohmic --param omega_c --range 1e-150:1e-149:2 "
                "--fix coupling=1 --steps 3")
NAN_TIME = ("import sys; sys.tracebacklimit = 0; "  # the error line alone
            "from cavityqfi import SpectralModel, gamma_numeric; "
            "gamma_numeric(SpectralModel.ohmic_lorentz_drude(3.0), 1.0, float('nan'))")

ROWS = {
    "numeric-fig1a": Row(cli("run fig1a --mode numeric --steps 5"),
                         digest="2e97b4a71275e0a48f82e21c19ab744c8cfb28b11a994bc17606d552f6775ce3"),
    "locale-fig1a": golden("fig1a"),
    "locale-sweep": golden("sweep"),
    # --steps/--t-end on a contour preset and on run custom, and a curve of
    # 3 couplings x 20000 times in 4 tiles
    "fig2b-overrides": golden("fig2b-overrides"),
    "custom-overrides": golden("custom-overrides"),
    "custom-multi-tile": golden("custom-multi-tile"),
    "locale-ohmic": Row(cli("sweep --model ohmic --param coupling --range 0:1:3 --steps 11"),
                        digest="a797d46eb2c9c19693d774a7766e552c43975763b2fef27c4d3d43b0d1e4bdbe",
                        flags=NO_LOCALE),
    "sweep-ohmic": Row(cli("sweep --model ohmic --param coupling --range 0:1:5 --steps 20"),
                       digest="69b3bfb736ff4801b360f9be551f8e078796fb6dd7a16712b89504362ff285c2"),
    # past the numeric time domain, and below it, where Lorentzian tails overflow
    "t-end-past-domain": Row(cli("run fig1a --mode numeric --steps 3 --t-end 1e20"),
                             2, 1, ERR + "t_end="),
    "t-end-below-domain": Row(cli("run fig4a --mode numeric --steps 3 --t-end 1e-200"),
                              2, 1, ERR + "t_end="),
    # a width so small that a quadrature tail starts at, or too near, omega_j
    "collapsed-ohmic": Row(cli("run custom --family ohmic --omega-c 1e-150 --coupling 0.5 "
                               "--mode numeric --steps 3"), 2, 1, ERR + "omega_c=1e-150 "),
    "collapsed-lorentzian": Row(cli("run custom --family lorentzian --width 1e-150 "
                                    "--coupling 0.5 --mode numeric --steps 3"),
                                2, 1, ERR + "width=1e-150 "),
    "collapsed-ohmic-wj0": Row(cli("run custom --family ohmic --omega-c 1e-100 --coupling 1.0 "
                                   "--mode numeric --steps 3"), 2, 1, ERR + "t_end="),
    "repeated-coupling": Row(cli("run custom --family ohmic --omega-c 3 --coupling 0.5 "
                                 "--coupling 0.5"), 2, 1, ERR + "--coupling 0.5: "),
    # 10^15 values, and 10^18 configs, that cannot be allocated
    "range-count": Row(cli("sweep --model ohmic --param coupling --range 0:1:1000000000000000 "
                           "--steps 2"), 2, 1, ERR + "--range for coupling: "),
    "param-product": Row(cli("sweep --model ohmic --param coupling --range 0:1:1000000 --param "
                             "omega_c --range 0.1:3:1000000 --param theta --range 0:1:1000000 "
                             "--steps 2"), 2, 1, ERR + "--param "),
    "range-span": Row(SPAN, 2, 1, ERR + "--range for detuning"),
    "range-span-W-error": Row(SPAN, 2, 1, ERR + "--range for detuning", flags=W_ERROR),
    "omega-c-underflow": Row(UNDERFLOW, 2, 1, ERR + "coupling=1.0, omega_c=1e-150"),
    "omega-c-underflow-W-error": Row(UNDERFLOW, 2, 1, ERR + "coupling=1.0, omega_c=1e-150",
                                     flags=W_ERROR),
    # a NaN time must raise before quadpack, which crashes on it (exit 139)
    "nan-time-gamma-numeric": Row(["-c", NAN_TIME], 1, 1, "ValueError: t must be finite"),
    "quadrature-tolerance": Row(cli("run custom --family ohmic --omega-c 300 --coupling 0.5 "
                                    "--mode numeric --steps 2 --t-end 1e5"),
                                1, 1, "tolerance error: "),
    # a NaN amplitude from coupling 0.8 on, in the 9th block
    "late-block-nan": Row(cli("sweep --model ohmic --param coupling --range 0:1:41 "
                              "--steps 4096 --t-end 1e308"), 2, 1, ERR + "coupling=0.8"),
    "dangling-symlink": Row(cli("run fig1a"), 2, 1, ERR + f"--out {OUT}: directory ",
                            link="missing/x.csv"),
}


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_console_script(tmp_path, row):
    if row.link:
        (tmp_path / OUT).symlink_to(tmp_path / row.link)
    before = sorted(os.listdir(tmp_path))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, *row.flags, *row.argv], cwd=tmp_path, text=True,
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True, timeout=120)
    assert (run.returncode, len(run.stderr.splitlines())) == (row.code, row.n_err), run.stderr
    assert run.stderr.startswith(row.prefix), run.stderr
    if row.digest is None:
        assert sorted(os.listdir(tmp_path)) == before and not (tmp_path / OUT).exists()
    else:
        data = (tmp_path / OUT).read_bytes()
        assert os.listdir(tmp_path) == [OUT] and b"\r" not in data
        assert hashlib.sha256(data).hexdigest() == row.digest
