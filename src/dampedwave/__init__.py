"""Numerical laboratory for the semilinear damped wave equation.

Exact Fourier-multiplier propagation of the linear flow, Duhamel-based
semilinear stepping with blow-up detection, polynomially weighted energy
functionals and decay norms, weighted-interpolation inequality checks,
and a reproducible experiment CLI.
"""

__version__ = "0.1.0"

from .exponents import (
    CknParams,
    CknVerdict,
    ExponentSet,
    ProblemParams,
    admissible_range,
    ckn_admissible,
    fujita_exponent,
    interpolation_exponents,
    suggested_weight_power,
    weight_power_threshold,
)
from .spectral import Grid, RealField, greens_multipliers
from .propagator import LinearState, decay_profile, linear_evolve
from .solver import Nonlinearity, RunOutcome, RunStatus, SolverConfig, run
from .weights import (
    WeightParams,
    decay_norm,
    energy_audit,
    residual_audit,
    source_bound_audit,
    weight_base,
    weight_dt,
    weight_residual,
    weight_value,
    weighted_energy,
    weighted_l2,
)
from .inequalities import TestFunction, ckn_ratio, ratio_sweep
from .timeseries import TimeSeries, decay_fit

__all__ = [
    "CknParams",
    "CknVerdict",
    "ExponentSet",
    "Grid",
    "LinearState",
    "Nonlinearity",
    "ProblemParams",
    "RealField",
    "RunOutcome",
    "RunStatus",
    "SolverConfig",
    "TestFunction",
    "TimeSeries",
    "WeightParams",
    "admissible_range",
    "ckn_admissible",
    "ckn_ratio",
    "decay_fit",
    "decay_norm",
    "decay_profile",
    "energy_audit",
    "fujita_exponent",
    "greens_multipliers",
    "interpolation_exponents",
    "linear_evolve",
    "ratio_sweep",
    "residual_audit",
    "run",
    "source_bound_audit",
    "suggested_weight_power",
    "weight_base",
    "weight_dt",
    "weight_power_threshold",
    "weight_residual",
    "weight_value",
    "weighted_energy",
    "weighted_l2",
]
