"""Space-time weight, weighted energy, decay norm, and trajectory audits.

The weight is base(t,x)^power with base(t,x) = offset + |x|^2/(1+t).
It decreases in time pointwise, and under offset >= power/2 it obeys

    |grad weight|^2 / (-d/dt weight)  <=  2 * weight,

where the left-hand ratio is *defined* through its algebraic
simplification ``power * base^(power-1)`` (at x = 0 numerator and
denominator both vanish and only the simplified form is meaningful).
:func:`weight_residual` returns the slack of that bound; the Monte-Carlo
:func:`residual_audit` samples it over the whole parameter box, and
:func:`slack_audit` evaluates it for one run's own weight and grid.

The weighted energy of a state (u, u_t) is the h^dim quadrature of
(|u_t|^2 + |grad u|^2) * weight, with the gradient computed spectrally.
:func:`spectral_energy` is the one kernel for it: the run's records and
snapshots and :func:`weighted_energy` all call it.  The trajectory audits
read one :class:`SnapshotIntegrals` row per snapshot, computed by the
run's snapshot job from its own copy of the state.
The decay norm of a trajectory is the running supremum of the sum of
four components: the square root of the weighted energy and the three
polynomially time-weighted L^2 norms of u_t, grad u and u.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass
from typing import NamedTuple

import numpy as np

from .spectral import Grid, gather

# The trajectory audits need at least this many snapshots; runs with
# fewer skip them.
MIN_AUDIT_SNAPSHOTS = 50

# The parameter box that residual_audit samples.
AUDIT_T_MAX = 100.0
AUDIT_RADIUS_MAX = 50.0
AUDIT_POWER_MAX = 10.0


@dataclass(frozen=True)
class WeightParams:
    """Offset (the additive constant) and power of the weight.

    Construction enforces power > 0 and a finite offset >= power/2.  Tests may
    pass ``validate=False`` to build the degenerate power = 0 weight,
    which reduces every weighted quantity to its unweighted counterpart.
    """

    offset: float
    power: float
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        if not validate:
            return
        if not math.isfinite(self.offset):
            raise ValueError(f"weight offset must be finite, got {self.offset}")
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


def weight_on_grid(weight_fn, t, grid: Grid, w: WeightParams, out=None) -> np.ndarray:
    """``weight_fn(t, grid.radius_sq(), w)`` for ``weight_value`` or
    ``weight_dt``, evaluated once per distinct |x|^2 and gathered onto
    the grid (into ``out`` when given); the floats are the same.  A
    column of k times gives k weights in one evaluation, shape
    (k, *grid.shape)."""
    return gather(weight_fn(t, grid.radius_levels(), w), grid.radius_index(), out=out)


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


def residual_audit(samples: int = 1_000_000, seed: int = 0) -> ResidualAudit:
    """Monte-Carlo audit of the slack over the full parameter box.

    Samples t in [0, AUDIT_T_MAX], |x| <= AUDIT_RADIUS_MAX, power in
    (0, AUDIT_POWER_MAX], offset in [power/2, 10*power], and evaluates the
    equality corner offset = power/2, x = 0, t = 0 for a few small
    powers where the arithmetic is exact in floating point.

    Draws t, r, power and offset in that order, each in full, from one
    ``default_rng(seed)``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, AUDIT_T_MAX, samples)
    r_sq = rng.uniform(0.0, AUDIT_RADIUS_MAX, samples) ** 2
    power = rng.uniform(0.0, AUDIT_POWER_MAX, samples)
    power = np.where(power == 0.0, AUDIT_POWER_MAX, power)  # (0, max]
    offset = rng.uniform(0.5, 10.0, samples) * power
    residual = weight_residual(t, r_sq, WeightParams(offset, power, validate=False))
    min_residual = np.min(residual)  # NaN propagates

    gap = 0.0
    for p in (0.5, 1.0, 2.0, 3.0):
        corner = WeightParams(offset=0.5 * p, power=p)
        gap = max(gap, abs(float(weight_residual(0.0, 0.0, corner))))
    return ResidualAudit(samples=samples, min_residual=float(min_residual), equality_gap=gap)


@dataclass
class SlackAudit:
    points: int
    min_residual: float

    @property
    def passed(self) -> bool:
        return self.min_residual >= -1e-12

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def slack_audit(t: float, grid: Grid, w: WeightParams) -> SlackAudit:
    """The slack of one run's weight at every distinct |x|^2 of its grid
    at time t.  At each |x| the base falls with t, and where base >=
    power/2 the slack base^(power-1) * (2*base - power) rises with the
    base, so the minimum at a run's last time bounds every earlier one.
    A weight with offset < power/2 fails at x = 0 at every t."""
    residual = weight_residual(t, grid.radius_levels(), w)
    return SlackAudit(points=residual.size, min_residual=float(np.min(residual)))


# ---------------------------------------------------------------------------
# Weighted energy
# ---------------------------------------------------------------------------

class Scratch(NamedTuple):
    """Arrays of one grid that :func:`spectral_energy` and
    ``diagnostics.measure`` fill instead of allocating: three fields and
    one set of half-spectrum coefficients, each with the leading axes
    ``lead`` of the stack of states they serve."""

    density: np.ndarray
    field: np.ndarray
    ut_values: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def for_grid(cls, grid: Grid, lead: tuple[int, ...] = ()) -> Scratch:
        fields = (np.empty(lead + grid.shape) for _ in range(3))
        return cls(*fields, np.empty(lead + grid.half_shape, dtype=complex))


def gradient_sq(grid: Grid, u_coeffs: np.ndarray, scratch: Scratch | None = None) -> np.ndarray:
    """|grad u|^2 on the grid from the real-FFT coefficients of u (one
    inverse transform per axis; the Nyquist mode of each derivative is
    zero, as for the derivative of any real field).  It is written into
    ``scratch.density``, with ``field`` and ``coeffs`` as work space."""
    if scratch is None:
        scratch = Scratch.for_grid(grid)
    xi = grid.derivative_freqs()
    out = scratch.density
    out.fill(0.0)
    for axis in range(grid.dim):
        coeffs = np.multiply(1j * grid.half_along(xi, axis), u_coeffs, out=scratch.coeffs)
        derivative = grid.inverse(coeffs, scratch.field, coeffs)
        out += np.square(derivative, out=derivative)
    return out


def spectral_energy(
    grid: Grid,
    u_coeffs: np.ndarray,
    ut_values: np.ndarray,
    psi: np.ndarray,
    scratch: Scratch | None = None,
) -> np.ndarray:
    """Weighted energy of each state of a stack (leading axes ``lead``,
    none for one state) from the real-FFT coefficients of u, the values
    of u_t and the weight values ``psi`` on the grid (broadcast against
    the stack); an array of shape ``lead``.  The work arrays are
    ``scratch``'s ``density``, ``field`` and ``coeffs``.  Each state's
    density is summed along its own contiguous run of entries, so a
    stack gives every state the float it gets alone."""
    lead = ut_values.shape[: ut_values.ndim - grid.dim]
    if scratch is None:
        scratch = Scratch.for_grid(grid, lead)
    density = gradient_sq(grid, u_coeffs, scratch)
    density += np.square(ut_values, out=scratch.field)
    density *= psi
    return grid.cell_volume * np.sum(density.reshape(*lead, -1), axis=-1)


def weighted_energy(state, w: WeightParams) -> float:
    """Weighted energy of a :class:`~dampedwave.propagator.LinearState`."""
    grid = state.u.grid
    psi = weight_on_grid(weight_value, state.t, grid, w)
    return float(spectral_energy(grid, grid.forward(state.u.values), state.ut.values, psi))


# ---------------------------------------------------------------------------
# Decay norm and trajectory audits
# ---------------------------------------------------------------------------

def decay_norm(series) -> float:
    """Supremum over the recorded times of the sum of the four decay-norm
    components.  Blow-up marker rows are excluded."""
    rows = series.finite_rows()
    if len(rows["t"]) == 0:
        raise ValueError("empty trajectory")
    total = (
        rows["xn_energy"] + rows["xn_ut"] + rows["xn_grad"] + rows["xn_l2"]
    )
    return float(np.max(total))


@dataclass
class EnergyAudit:
    """Result of checking the integrated energy inequality on the
    snapshot rows of a trajectory.

    ``discrepancy`` is the largest signed violation (left side minus
    right side, relative to the energy scale) over every row, t = 0
    included.  At t = 0 both sides are E(0), so the excess there is zero
    up to rounding and ``discrepancy`` never reports slack: it is at
    least about zero even when the inequality holds everywhere else.
    ``violation`` clips it at zero.  ``signed_source_min`` reports how
    negative the signed source integral ever became; sign-changing
    solutions are thereby visible in the audit rather than silently
    folded in.
    """

    snapshots: int
    scale: float
    discrepancy: float
    violation: float
    worst_time: float
    signed_source_min: float

    def to_dict(self) -> dict:
        return asdict(self)


class SnapshotIntegrals(NamedTuple):
    """One snapshot's audit inputs: the weighted energy; |u|^p u against
    the weight (``signed``) and its time derivative (``signed_dt``); and
    |u|^(p+1) against the weight (``source``) and |d/dt weight| (``source_dt``)."""

    t: float
    energy: float
    signed: float
    signed_dt: float
    source: float
    source_dt: float


def member_powers(f: np.ndarray, powers: list[float]) -> np.ndarray:
    """``f`` (|u| of a stack of members) raised in place to each member's
    own power p; returns ``f``."""
    for member, p in zip(f, powers):
        # a scalar exponent per member keeps numpy's p = 2 square path
        member **= p
    return f


def snapshot_integrals(
    grid: Grid,
    t: float,
    u_values: np.ndarray,
    psi: np.ndarray,
    w: WeightParams,
    powers: list[float],
    scratch: Scratch | None = None,
) -> list[SnapshotIntegrals]:
    """The audit rows at time t of a stack of states (members,
    *grid.shape) of u values, each member with its own power, and the
    weight ``psi`` on the grid at t.  Their energy is NaN: the caller
    adds it with :func:`spectral_energy` once ``scratch`` (made for the
    members) is free.  ``density`` receives |u|^p u, then its products
    with the weight's time derivative; ``field`` receives the products
    with the weight, then the derivative itself in its first member, and
    may hold ``u_values``.  The source products are the absolute values
    of the signed ones (the weight is nonnegative, and |a*b| is |a|*|b|
    in floating point)."""
    if scratch is None:
        scratch = Scratch.for_grid(grid, u_values.shape[:1])
    signed = member_powers(np.abs(u_values, out=scratch.density), powers)
    signed *= u_values
    h = grid.cell_volume

    def sums(products: np.ndarray) -> list[tuple[float, float]]:
        return [(float(h * np.sum(x)), float(h * np.sum(np.abs(x, out=x)))) for x in products]

    on_psi = sums(np.multiply(signed, psi, out=scratch.field))
    psi_dt = weight_on_grid(weight_dt, t, grid, w, out=scratch.field[0])
    on_psi_dt = sums(np.multiply(signed, psi_dt, out=signed))
    return [
        SnapshotIntegrals(t, np.nan, signed_sum, signed_dt, source, source_dt)
        for (signed_sum, source), (signed_dt, source_dt) in zip(on_psi, on_psi_dt)
    ]


def _cumulative_trapezoid(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of ``values`` over ``times``, from 0."""
    steps = np.diff(times) * 0.5 * (values[1:] + values[:-1])
    return np.concatenate(([0.0], np.cumsum(steps)))


def energy_audit(rows, p: float) -> EnergyAudit:
    """Check the integrated weighted-energy inequality on snapshot rows.

    For every snapshot time t the recorded energy must not exceed

        E(0) - c*S(0) + c*S(t) - c * int_0^t Sdt(s) ds,

    where c = 2/(p+1), S is the weighted signed source integral and Sdt
    its counterpart against the weight's time derivative; the time
    integral uses the trapezoid rule over the snapshot times.  The
    tolerance budget for reported violations reflects that quadrature
    error; refine the snapshot cadence to shrink it.  At least
    MIN_AUDIT_SNAPSHOTS rows are required.
    """
    if len(rows) < MIN_AUDIT_SNAPSHOTS:
        raise ValueError(
            f"need at least {MIN_AUDIT_SNAPSHOTS} snapshots for the audit, "
            f"got {len(rows)}"
        )
    times, energies, signed, signed_dt, _, _ = np.array(rows, dtype=float).T
    if np.any(np.diff(times) <= 0):
        raise ValueError("snapshot times must be strictly increasing")

    c = 2.0 / (p + 1.0)
    cumulative = _cumulative_trapezoid(times, signed_dt)
    rhs = energies[0] - c * signed[0] + c * signed - c * cumulative
    scale = float(max(np.max(energies), 1e-300))
    excess = (energies - rhs) / scale
    worst = int(np.argmax(excess))
    discrepancy = float(excess[worst])
    return EnergyAudit(
        snapshots=len(rows),
        scale=scale,
        discrepancy=discrepancy,
        violation=max(discrepancy, 0.0),
        worst_time=float(times[worst]),
        signed_source_min=float(np.min(signed)),
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


def source_bound_audit(rows, series, p: float) -> SourceBoundAudit:
    """Ratio audit of int |u|^(p+1) * weight + time-integrated
    int |u|^(p+1) * |d/dt weight| against decay_norm^(p+1)."""
    if len(rows) == 0:
        raise ValueError("empty trajectory")
    times, _, _, _, source, source_dt = np.array(rows, dtype=float).T
    numerator = source + _cumulative_trapezoid(times, source_dt)

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
