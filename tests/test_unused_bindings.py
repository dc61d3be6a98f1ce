"""Imports kept only for the benchmark tracer stay unused and wrapped.

`perfbench/tracer.py` wraps functions under the names the package modules
bound at import time, so a module may import a function it never calls.
Such a package-relative import carries `# noqa: F401`.  For every name it
binds, the module must not use the name, and the tracer's ``TARGETS`` must
wrap it under that module.  A binding that gains a caller fails here until
its `noqa` and comment go.  Side-effect imports of other packages (such as
`scipy.integrate` in `verify`) are not bindings and are not checked.  The
test parses the sources and the tracer; it imports neither.
"""

import ast
from pathlib import Path

import cavityqfi

SRC = Path(cavityqfi.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    """{(module name, attribute)} of the tracer's ``TARGETS`` list."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return {(row.elts[0].id, row.elts[1].value)
                    for row in node.value.elts}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def tracer_only_bindings(path):
    """(names bound by `# noqa: F401` relative imports, names the module
    reads anywhere else)."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            statement = lines[node.lineno - 1:node.end_lineno]
            if any("noqa: F401" in line for line in statement):
                bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return bound, used


def test_tracer_only_bindings_are_unused_and_wrapped():
    targets = tracer_targets()
    seen = []
    for path in sorted(SRC.glob("*.py")):
        bound, used = tracer_only_bindings(path)
        for name in bound:
            assert name not in used, (
                f"{path.stem}.{name} is called: drop its noqa: F401")
            assert (path.stem, name) in targets, (
                f"{path.stem}.{name}: noqa: F401 but not wrapped by the tracer")
            seen.append(f"{path.stem}.{name}")
    # the parse finds the bindings the tracer wraps that no module calls
    assert "presets.amplitude" in seen and "mesolve.amplitude" in seen
