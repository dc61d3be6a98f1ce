"""The traced benchmark run wraps package functions by their bound names.

`perfbench/tracer.py` replaces each (module, attribute) pair it lists with a
recording wrapper, and wraps the lookups of a `VerifyContext`.  A renamed or
removed binding or lookup must fail here, in the tier-1 suite, rather than
only under `perfbench/run.py --trace 1`.  The tests read the tracer and
change nothing in it.
"""

import importlib.util
from pathlib import Path

from cavityqfi import verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_installs_and_restores_every_binding():
    tracer = load_tracer()
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


def test_tracer_wraps_the_context_lookups():
    # a traced verify run wraps ctx.amps and ctx.chain; a suite that builds
    # its cases reaches their amplitudes through ctx.amps
    t = load_tracer().Tracer()
    ctx = t.trace_context(verify.VerifyContext())
    [result] = verify.run_suites(["stable-asymptote"], ctx)
    assert result.passed
    assert t.summary()["verify.ctx.amps"][0] == 1
