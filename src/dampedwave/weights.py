"""Space-time weight, weighted energy, decay norm, and trajectory audits.

The weight is base(t,x)^power with base(t,x) = offset + |x|^2/(1+t).
It decreases in time pointwise, and under offset >= power/2 it obeys

    |grad weight|^2 / (-d/dt weight)  <=  2 * weight,

where the left-hand ratio is *defined* through its algebraic
simplification ``power * base^(power-1)`` (at x = 0 numerator and
denominator both vanish and only the simplified form is meaningful).
:func:`weight_residual` returns the slack of that bound; the Monte-Carlo
audit samples it over the whole parameter box.

The weighted energy of a state (u, u_t) is the h^dim quadrature of
(|u_t|^2 + |grad u|^2) * weight, with the gradient computed spectrally.
:func:`spectral_energy` is the one kernel for it: the run loop's
diagnostics and :func:`weighted_energy` both call it.
The decay norm of a trajectory is the running supremum of the sum of
four components: the square root of the weighted energy and the three
polynomially time-weighted L^2 norms of u_t, grad u and u.
"""

from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass

import numpy as np

from .spectral import Grid


@dataclass(frozen=True)
class WeightParams:
    """Offset (the additive constant) and power of the weight.

    Construction enforces power > 0 and offset >= power/2.  Tests may
    pass ``validate=False`` to build the degenerate power = 0 weight,
    which reduces every weighted quantity to its unweighted counterpart.
    """

    offset: float
    power: float
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        if not validate:
            return
        if not self.power > 0.0:
            raise ValueError(f"weight power must be > 0, got {self.power}")
        if self.offset < 0.5 * self.power:
            raise ValueError(
                f"weight offset {self.offset} violates offset >= power/2 "
                f"(power {self.power})"
            )


def weight_base(t, r_sq, w: WeightParams):
    """offset + |x|^2/(1+t); always >= offset."""
    return w.offset + np.asarray(r_sq) / (1.0 + t)


def weight_value(t, r_sq, w: WeightParams):
    return weight_base(t, r_sq, w) ** w.power


def weight_dt(t, r_sq, w: WeightParams):
    """Closed-form time derivative -power * |x|^2/(1+t)^2 * base^(power-1).

    Evaluated analytically, never by finite differences, so the audits
    carry no differentiation error.  Nonpositive everywhere.
    """
    r_sq = np.asarray(r_sq)
    base = weight_base(t, r_sq, w)
    return -w.power * r_sq / (1.0 + t) ** 2 * base ** (w.power - 1.0)


def weight_residual(t, r_sq, w: WeightParams):
    """Slack 2*weight - power*base^(power-1) of the gradient/decay bound.

    Nonnegative for every valid parameter set, with equality exactly at
    base = power/2 (offset = power/2, x = 0, t arbitrary).
    """
    base = weight_base(t, r_sq, w)
    return 2.0 * base**w.power - w.power * base ** (w.power - 1.0)


@dataclass
class ResidualAudit:
    samples: int
    min_residual: float
    equality_gap: float

    @property
    def passed(self) -> bool:
        return self.min_residual >= -1e-12 and self.equality_gap < 1e-12

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def residual_audit(
    samples: int = 1_000_000,
    seed: int = 0,
    t_max: float = 100.0,
    radius_max: float = 50.0,
    power_max: float = 10.0,
) -> ResidualAudit:
    """Monte-Carlo audit of the slack over the full parameter box.

    Samples t in [0, t_max], |x| <= radius_max, power in (0, power_max],
    offset in [power/2, 10*power], and additionally evaluates the
    equality corner offset = power/2, x = 0, t = 0 for a few small
    powers where the arithmetic is exact in floating point.
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, t_max, samples)
    r_sq = rng.uniform(0.0, radius_max, samples) ** 2
    power = rng.uniform(0.0, power_max, samples)
    power = np.where(power == 0.0, power_max, power)  # (0, power_max]
    offset = rng.uniform(0.5, 10.0, samples) * power

    base = offset + r_sq / (1.0 + t)
    residual = 2.0 * base**power - power * base ** (power - 1.0)
    min_residual = float(np.min(residual))

    gap = 0.0
    for p in (0.5, 1.0, 2.0, 3.0):
        corner = WeightParams(offset=0.5 * p, power=p)
        gap = max(gap, abs(float(weight_residual(0.0, 0.0, corner))))
    return ResidualAudit(samples=samples, min_residual=min_residual, equality_gap=gap)


# ---------------------------------------------------------------------------
# Weighted energy
# ---------------------------------------------------------------------------

def gradient_sq(grid: Grid, u_coeffs: np.ndarray) -> np.ndarray:
    """|grad u|^2 on the grid from the FFT coefficients of u (one inverse
    transform per axis)."""
    xi = grid.axis_freqs()
    out = np.zeros(grid.shape)
    for axis in range(grid.dim):
        out += np.fft.ifftn(1j * grid.along(xi, axis) * u_coeffs).real ** 2
    return out


def spectral_energy(
    grid: Grid,
    t: float,
    u_coeffs: np.ndarray,
    ut_values: np.ndarray,
    w: WeightParams,
) -> float:
    """Weighted energy from the FFT coefficients of u and the values of
    u_t."""
    density = ut_values**2 + gradient_sq(grid, u_coeffs)
    psi = weight_value(t, grid.radius_sq(), w)
    return float(grid.cell_volume * np.sum(density * psi))


def weighted_energy(state, w: WeightParams) -> float:
    """Weighted energy of a :class:`~dampedwave.propagator.LinearState`."""
    grid = state.u.grid
    return spectral_energy(grid, state.t, np.fft.fftn(state.u.values), state.ut.values, w)


def weighted_l2(state, w: WeightParams) -> float:
    """|| weight^(1/2) u ||_{L^2}: the companion norm of the local theory
    (the weighted energy controls u_t and the gradient, this one u)."""
    grid = state.u.grid
    psi = weight_value(state.t, grid.radius_sq(), w)
    return float(np.sqrt(grid.cell_volume * np.sum(state.u.values**2 * psi)))


# ---------------------------------------------------------------------------
# Decay norm and trajectory audits
# ---------------------------------------------------------------------------

def decay_norm(series) -> float:
    """Supremum over the recorded times of the sum of the four decay-norm
    components.  Blow-up marker rows are excluded."""
    rows = series.finite_rows()
    if len(rows) == 0:
        raise ValueError("empty trajectory")
    total = (
        rows["xn_energy"] + rows["xn_ut"] + rows["xn_grad"] + rows["xn_l2"]
    )
    return float(np.max(total))


@dataclass
class EnergyAudit:
    """Result of checking the integrated energy inequality on a stored
    trajectory.

    ``discrepancy`` is the largest signed violation (left side minus
    right side, relative to the energy scale); negative values mean the
    inequality held with slack everywhere.  ``violation`` clips it at
    zero.  ``signed_source_min`` reports how negative the signed source
    integral ever became; sign-changing solutions are thereby visible in
    the audit rather than silently folded in.
    """

    snapshots: int
    scale: float
    discrepancy: float
    violation: float
    worst_time: float
    signed_source_min: float

    def to_dict(self) -> dict:
        return asdict(self)


def _weighted_integrals(snapshots, times, w: WeightParams, density, rate):
    """Per-snapshot integral of density(u) against the weight, and the
    running time integral (trapezoid over the snapshot times) of
    density(u) against rate(d/dt weight)."""
    grid = snapshots[0].u.grid
    r_sq = grid.radius_sq()
    h = grid.cell_volume
    against_weight = np.empty(len(snapshots))
    against_dt = np.empty(len(snapshots))
    for i, state in enumerate(snapshots):
        f = density(state.u.values)
        against_weight[i] = h * np.sum(f * weight_value(state.t, r_sq, w))
        against_dt[i] = h * np.sum(f * rate(weight_dt(state.t, r_sq, w)))
    cumulative = np.concatenate(
        ([0.0], np.cumsum(np.diff(times) * 0.5 * (against_dt[1:] + against_dt[:-1])))
    )
    return against_weight, cumulative


def energy_audit(snapshots, w: WeightParams, p: float, min_snapshots: int = 50) -> EnergyAudit:
    """Check the integrated weighted-energy inequality on snapshots.

    For every snapshot time t the recorded energy must not exceed

        E(0) - c*S(0) + c*S(t) - c * int_0^t Sdt(s) ds,

    where c = 2/(p+1), S is the weighted signed source integral and Sdt
    its counterpart against the weight's time derivative; the time
    integral uses the trapezoid rule over the snapshot times.  The
    tolerance budget for reported violations reflects that quadrature
    error; refine the snapshot cadence to shrink it.
    """
    if len(snapshots) < min_snapshots:
        raise ValueError(
            f"need at least {min_snapshots} snapshots for the audit, "
            f"got {len(snapshots)}"
        )
    times = np.array([s.t for s in snapshots])
    if np.any(np.diff(times) <= 0):
        raise ValueError("snapshot times must be strictly increasing")

    energies = np.array([weighted_energy(s, w) for s in snapshots])
    # signed integrand |u|^p u and signed d/dt weight, as in the energy identity
    with_weight, cumulative = _weighted_integrals(
        snapshots, times, w, lambda u: np.abs(u) ** p * u, lambda dt_weight: dt_weight
    )
    c = 2.0 / (p + 1.0)
    rhs = energies[0] - c * with_weight[0] + c * with_weight - c * cumulative
    scale = float(max(np.max(energies), 1e-300))
    signed = (energies - rhs) / scale
    worst = int(np.argmax(signed))
    discrepancy = float(signed[worst])
    return EnergyAudit(
        snapshots=len(snapshots),
        scale=scale,
        discrepancy=discrepancy,
        violation=max(discrepancy, 0.0),
        worst_time=float(times[worst]),
        signed_source_min=float(np.min(with_weight)),
    )


@dataclass
class SourceBoundAudit:
    """Largest ratio of the accumulated source functionals to the p+1
    power of the decay norm; finite and refinement-stable when the decay
    machinery applies.  ``applicable`` is False for the zero solution."""

    applicable: bool
    max_ratio: float
    argmax_time: float

    def to_dict(self) -> dict:
        return asdict(self)


def source_bound_audit(snapshots, series, w: WeightParams, p: float) -> SourceBoundAudit:
    """Ratio audit of int |u|^(p+1) * weight + time-integrated
    int |u|^(p+1) * |d/dt weight| against decay_norm^(p+1)."""
    if len(snapshots) == 0:
        raise ValueError("empty trajectory")
    times = np.array([s.t for s in snapshots])
    instant, cumulative = _weighted_integrals(
        snapshots, times, w, lambda u: np.abs(u) ** (p + 1.0), np.abs
    )
    numerator = instant + cumulative

    norm = decay_norm(series)
    if norm == 0.0:
        return SourceBoundAudit(applicable=False, max_ratio=0.0, argmax_time=0.0)
    ratios = numerator / norm ** (p + 1.0)
    worst = int(np.argmax(ratios))
    return SourceBoundAudit(
        applicable=True,
        max_ratio=float(ratios[worst]),
        argmax_time=float(times[worst]),
    )
