"""The package's exports, and start-up imports: closed-mode commands never
load scipy.

Each start-up check runs in a fresh interpreter, because the test process
itself has imported scipy through other tests.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import cavityqfi

SRC = str(Path(cavityqfi.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


def run_fresh(code: str, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1])\n"
         + code, SRC], cwd=cwd, capture_output=True, text=True, timeout=120)


def test_every_export_resolves():
    # a name left in __all__ after its object is gone breaks `import *`
    assert all(hasattr(cavityqfi, name) for name in cavityqfi.__all__)
    namespace = {}
    exec("from cavityqfi import *", namespace)
    assert set(cavityqfi.__all__) <= set(namespace)


def test_every_export_is_read_or_documented():
    # an exported name that no package module reads, as a name or an
    # attribute, must have a README line naming it in backticks
    read = set()
    for path in Path(cavityqfi.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Load)):
                    read.add(node.attr)
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    documented = {word for span in re.findall(r"`([^`]*)`", prose)
                  for word in re.findall(r"\w+", span)}
    orphans = [name for name in cavityqfi.__all__
               if name != "__version__" and name not in read | documented]
    assert orphans == [], f"exported but neither read nor documented: {orphans}"


def test_closed_commands_do_not_import_scipy(tmp_path):
    proc = run_fresh("""
from cavityqfi.cli import build_parser, main
build_parser()
assert main(["run", "fig1a", "--steps", "5", "--out", "run.csv"]) == 0
assert main(["sweep", "--model", "ohmic", "--param", "coupling",
             "--range", "0:1:3", "--steps", "5", "--out", "sweep.csv"]) == 0
assert "scipy" not in sys.modules
""", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run.csv").exists() and (tmp_path / "sweep.csv").exists()


def test_verify_imports_the_quadrature_backend(tmp_path):
    proc = run_fresh("""
import cavityqfi.verify
assert "scipy.integrate" in sys.modules
""", tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_numeric_mode_loads_scipy_on_first_use(tmp_path):
    proc = run_fresh("""
from cavityqfi.cli import main
code = main(["run", "fig1a", "--mode", "numeric", "--steps", "5",
             "--out", "n.csv"])
assert code == 0, code
assert "scipy.integrate" in sys.modules
""", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "n.csv").exists()
