"""Open-system metrology of a two-level atom in a lossy cavity.

Amplitude damping through a structured reservoir (Ohmic Lorentz-Drude or
Lorentzian), the induced decoherence rate and frequency shift, and the
derived quantum Fisher information and l1 coherence, with independent
numerical oracles for every closed form.
"""

__version__ = "0.1.0"

from .dynamics import (
    AmplitudeRangeError,
    AmplitudeSeries,
    SystemConfig,
    TimeGrid,
    amplitude,
    atom_state,
    decoherence_rate,
    lamb_shift,
    physicality,
)
from .mesolve import (
    IntegratorConfig,
    evolve,
    initial_dressed,
    partial_trace_cavity,
    timelocal_residual,
)
from .metrics import (
    PureStateSingularityError,
    coherence_l1,
    qfi_closed,
    qfi_general_2x2,
)
from .presets import metric_series
from .spectral import (
    QuadratureConvergenceError,
    SpectralKind,
    SpectralModel,
    beta_closed,
    beta_numeric,
    eval_density,
    gamma_closed,
    gamma_numeric,
    numeric_rates,
)

__all__ = [
    "AmplitudeRangeError",
    "AmplitudeSeries",
    "IntegratorConfig",
    "PureStateSingularityError",
    "QuadratureConvergenceError",
    "SpectralKind",
    "SpectralModel",
    "SystemConfig",
    "TimeGrid",
    "amplitude",
    "atom_state",
    "beta_closed",
    "beta_numeric",
    "coherence_l1",
    "decoherence_rate",
    "eval_density",
    "evolve",
    "gamma_closed",
    "gamma_numeric",
    "initial_dressed",
    "lamb_shift",
    "metric_series",
    "numeric_rates",
    "partial_trace_cavity",
    "physicality",
    "qfi_closed",
    "qfi_general_2x2",
    "timelocal_residual",
    "__version__",
]
