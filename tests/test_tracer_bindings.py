"""The traced benchmark run wraps package functions by their bound names.

`perfbench/tracer.py` replaces each (module, attribute) pair it lists with a
recording wrapper.  A renamed or removed binding must fail here, in the
tier-1 suite, rather than only under `perfbench/run.py --trace 1`.  The test
reads the tracer and changes nothing in it.
"""

import importlib.util
from pathlib import Path

from cavityqfi import verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores_every_binding():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bound = [(m, a, getattr(m, a)) for m, a, _, _ in tracer.TARGETS]
    suites = dict(verify.SUITES)

    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(m, a) is not fn for m, a, fn in bound)
    finally:
        t.uninstall()
    assert all(getattr(m, a) is fn for m, a, fn in bound)
    assert verify.SUITES == suites
