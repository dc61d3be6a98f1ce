"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: `install` replaces public
functions under the names the calling modules bound at import time (for
example `presets.amplitude` or `mesolve.gamma_closed`) with wrappers that
record (name, start, end, parent, op, count).  Nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import math
import time

from cavityqfi import cli, dynamics, mesolve, presets, spectral, verify


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _grid_points(args, kwargs):
    return _arg(args, kwargs, 1, "grid").n_points


def _series_samples(args, kwargs):
    return len(_arg(args, kwargs, 1, "amps").times)


def _evolve_substeps(args, kwargs):
    """Exact RK4 substep count of one `evolve` call, from its grid and step."""
    grid, icfg = _arg(args, kwargs, 1, "grid"), _arg(args, kwargs, 2, "icfg")
    if grid.n_points < 2:
        return 0
    k = max(1, math.ceil(grid.dt / icfg.step - 1e-9))
    return k * (grid.n_points - 1)


# (module, attribute, span name, work counter).  Each binding is wrapped
# separately, so a call is traced once, under the name its caller used.
TARGETS = [
    (cli, "run_curve_preset", "cli.run_curve_preset", None),
    (cli, "run_contour_preset", "cli.run_contour_preset", None),
    (cli, "run_sweep", "cli.run_sweep", None),
    (cli, "curve_table", "presets.curve_table", None),
    (cli, "contour_table", "presets.contour_table", None),
    (cli, "make_config", "presets.make_config", None),
    (cli, "quantity_values", "presets.quantity_values", None),
    (presets, "quantity_values", "presets.quantity_values", None),
    (presets, "amplitude", "dynamics.amplitude", _grid_points),
    (presets, "decoherence_rate", "dynamics.decoherence_rate", None),
    (presets, "metric_series", "metrics.metric_series", _series_samples),
    (verify, "amplitude", "dynamics.amplitude", _grid_points),
    (verify, "metric_series", "metrics.metric_series", _series_samples),
    (verify, "gamma_closed", "spectral.gamma_closed", None),
    (verify, "beta_closed", "spectral.beta_closed", None),
    (verify, "gamma_numeric", "spectral.gamma_numeric", None),
    (verify, "beta_numeric", "spectral.beta_numeric", None),
    (mesolve, "evolve", "mesolve.evolve", _evolve_substeps),
    (mesolve, "timelocal_residual", "mesolve.timelocal_residual", None),
    (mesolve, "amplitude", "dynamics.amplitude", _grid_points),
    (mesolve, "gamma_closed", "spectral.gamma_closed", None),
    (dynamics, "beta_closed", "spectral.beta_closed", None),
    (dynamics, "gamma_closed", "spectral.gamma_closed", None),
    (dynamics, "beta_numeric", "spectral.beta_numeric", None),
    (dynamics, "gamma_numeric", "spectral.gamma_numeric", None),
    # catches the per-sample calls beta_numeric makes inside spectral
    (spectral, "gamma_numeric", "spectral.gamma_numeric", None),
]

SUITE_PREFIX = "verify."


class Tracer:
    """Records spans in memory; `op` tags every span of one operation."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, op, count]
        self._stack = []
        self._saved = []
        self.op = -1

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    counter(args, kwargs) if counter else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        for module, attr, name, counter in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, counter))
        for suite, fn in list(verify.SUITES.items()):
            self._saved.append((verify.SUITES, suite, fn))
            verify.SUITES[suite] = self.wrap(SUITE_PREFIX + suite, fn)

    def uninstall(self):
        for owner, key, fn in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._saved.clear()

    def trace_context(self, ctx):
        """Trace the cache lookups of one `VerifyContext` instance."""
        ctx.amps = self.wrap("verify.ctx.amps", ctx.amps)
        ctx.chain = self.wrap("verify.ctx.chain", ctx.chain)
        return ctx

    def summary(self):
        """{name: [calls, total_s, self_s, count]} over all recorded spans.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, count) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_s[i]
            row[3] += count
        return out

    def misses_under(self, parent_name, child_name):
        """(lookups, misses): spans named parent_name, and how many of them
        called child_name directly (the cache had to compute)."""
        lookups = [i for i, s in enumerate(self.spans) if s[0] == parent_name]
        parents = set(lookups)
        missed = {s[3] for s in self.spans
                  if s[0] == child_name and s[3] in parents}
        return len(lookups), len(missed)
