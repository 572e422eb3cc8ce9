import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedwave.initial_data import gaussian_field, zero_field
from dampedwave.propagator import LinearState, decay_profile
from dampedwave.spectral import Grid, RealField
from dampedwave.exponents import ProblemParams
from dampedwave.solver import Nonlinearity, SolverConfig, run
from dampedwave.weights import (
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
)


def test_weight_params_validation():
    WeightParams(1.0, 2.0)
    with pytest.raises(ValueError):
        WeightParams(0.9, 2.0)  # offset below power/2
    with pytest.raises(ValueError):
        WeightParams(1.0, 0.0)
    # degenerate unweighted case is reachable for tests only
    w = WeightParams(1.0, 0.0, validate=False)
    assert w.power == 0.0


def test_weight_spot_values():
    w = WeightParams(1.0, 2.0)
    assert weight_base(0.0, 0.0, w) == 1.0
    assert weight_value(0.0, 0.0, w) == 1.0
    assert weight_base(0.0, 3.0, w) == 4.0
    assert weight_value(0.0, 3.0, w) == 16.0


def test_weight_monotone_to_offset_in_time():
    w = WeightParams(2.0, 1.5)
    r_sq = 9.0
    previous = weight_base(0.0, r_sq, w)
    for t in (1.0, 10.0, 100.0, 1e4, 1e8):
        current = weight_base(t, r_sq, w)
        assert current < previous
        previous = current
    assert weight_base(1e12, r_sq, w) == pytest.approx(w.offset, rel=1e-10)


@settings(deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=100.0),
    r=st.floats(min_value=0.0, max_value=50.0),
    power=st.floats(min_value=1e-3, max_value=10.0),
    ratio=st.floats(min_value=0.5, max_value=10.0),
)
def test_weight_time_derivative_nonpositive(t, r, power, ratio):
    w = WeightParams(offset=ratio * power, power=power)
    assert weight_dt(t, r * r, w) <= 0.0


def test_residual_equality_corner():
    # offset = power/2, x = 0, t = 0 is the equality case of the bound
    for power in (0.5, 1.0, 2.0, 3.0):
        w = WeightParams(0.5 * power, power)
        assert abs(weight_residual(0.0, 0.0, w)) < 1e-12


def test_residual_spot_value():
    # offset = power: residual 2*base^2 - 2*base at base = 2 gives 4
    w = WeightParams(2.0, 2.0)
    assert weight_residual(0.0, 0.0, w) == pytest.approx(4.0, abs=1e-14)


def test_residual_audit_small():
    audit = residual_audit(samples=100_000, seed=1)
    assert audit.min_residual >= -1e-12
    assert audit.equality_gap < 1e-12
    assert audit.passed


# ---------------------------------------------------------------------------
# Weighted energy
# ---------------------------------------------------------------------------

def test_energy_zero_for_constant_state():
    g = Grid(1, 10.0, 64)
    state = LinearState(
        0.0, RealField(g, np.full(g.shape, 3.0)), zero_field(g)
    )
    assert weighted_energy(state, WeightParams(1.0, 2.0)) == pytest.approx(0.0, abs=1e-20)


def test_energy_gaussian_oracle_unweighted():
    # with the degenerate weight the energy is || u_t ||^2 and the
    # Gaussian integral gives sqrt(pi/2)
    g = Grid(1, 12.0, 256)
    x = g.axis_coords()
    state = LinearState(0.0, zero_field(g), RealField(g, np.exp(-(x**2))))
    w = WeightParams(1.0, 0.0, validate=False)
    assert weighted_energy(state, w) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)


def test_energy_degenerate_weight_equals_unweighted_exactly():
    g = Grid(1, 15.0, 128)
    state = LinearState(0.0, gaussian_field(g, 1.0, 2.0), gaussian_field(g, 0.5, 1.5))
    degenerate = weighted_energy(state, WeightParams(1.0, 0.0, validate=False))
    # recompute without any weight factor
    from dampedwave.weights import gradient_sq

    density = state.ut.values**2 + gradient_sq(g, np.fft.fftn(state.u.values))
    unweighted = g.cell_volume * np.sum(density)
    assert degenerate == unweighted


def test_weighted_l2_gaussian_oracle():
    # || psi^(1/2) u ||^2 with power 1: int (A + x^2) e^{-2x^2}
    #   = A sqrt(pi/2) + sqrt(pi/2)/4
    from dampedwave.weights import weighted_l2

    g = Grid(1, 12.0, 256)
    x = g.axis_coords()
    state = LinearState(0.0, RealField(g, np.exp(-(x**2))), zero_field(g))
    w = WeightParams(2.0, 1.0)
    want = math.sqrt(2.0 * math.sqrt(math.pi / 2) + math.sqrt(math.pi / 2) / 4.0)
    assert weighted_l2(state, w) == pytest.approx(want, rel=1e-12)


def test_energy_dominates_offset_power_times_unweighted():
    g = Grid(1, 15.0, 128)
    state = LinearState(0.0, gaussian_field(g, 1.0, 2.0), gaussian_field(g, 0.5, 1.5))
    w = WeightParams(4.0, 2.0)
    weighted = weighted_energy(state, w)
    unweighted = weighted_energy(state, WeightParams(1.0, 0.0, validate=False))
    assert weighted >= w.offset**w.power * unweighted


def test_linear_flow_energy_monotone():
    g = Grid(1, 60.0, 512)
    w = WeightParams(4.0, 2.0)  # offset >= 2*power keeps the flow dissipative
    times = np.arange(0.0, 30.0 + 0.25, 0.5)
    series = decay_profile(
        (gaussian_field(g, 1.0, 2.0), gaussian_field(g, 0.3, 3.0)), times, weight=w
    )
    e = series.column("weighted_energy")
    assert np.all(np.diff(e) <= e[:-1] * 1e-8)


# ---------------------------------------------------------------------------
# Decay norm and audits
# ---------------------------------------------------------------------------

def _small_run(t_end=12.5, amplitude=0.01, snapshot_every=0.25, grid=None):
    grid = grid or Grid(1, 40.0, 256)
    problem = ProblemParams(grid.dim, 4.0, 2.0)
    w = WeightParams(4.0, 2.0)
    cfg = SolverConfig(
        problem=problem, grid=grid, weight=w, dt=0.05, t_end=t_end, record_every=5
    )
    data = (gaussian_field(grid, amplitude, 2.0), zero_field(grid))
    return run(cfg, data, snapshot_every=snapshot_every), w


def test_decay_norm_zero_solution():
    g = Grid(1, 10.0, 64)
    series = decay_profile((zero_field(g), zero_field(g)), [0.0, 1.0])
    assert decay_norm(series) == 0.0


def test_decay_norm_empty_trajectory():
    from dampedwave.timeseries import TimeSeries

    with pytest.raises(ValueError):
        decay_norm(TimeSeries())


def test_energy_audit_semilinear_run():
    outcome, w = _small_run()
    audit = energy_audit(outcome.snapshots, w, 4.0)
    assert audit.violation <= 1e-4
    assert audit.snapshots == len(outcome.snapshots)


def test_energy_audit_refinement_does_not_worsen():
    outcome, w = _small_run()
    fine = energy_audit(outcome.snapshots, w, 4.0)
    coarse = energy_audit(outcome.snapshots[::2], w, 4.0, min_snapshots=20)
    assert fine.violation <= coarse.violation + 1e-15


def test_energy_audit_linear_flow_reduces_to_monotonicity():
    problem = ProblemParams(1, 4.0, 2.0)
    grid = Grid(1, 40.0, 256)
    w = WeightParams(4.0, 2.0)
    cfg = SolverConfig(
        problem=problem,
        grid=grid,
        weight=w,
        dt=0.05,
        t_end=10.0,
        record_every=5,
        nonlinearity=Nonlinearity.NONE,
    )
    outcome = run(cfg, (gaussian_field(grid, 1.0, 2.0), zero_field(grid)), snapshot_every=0.2)
    audit = energy_audit(outcome.snapshots, w, 4.0)
    # with the source off the right side is E(0): monotone decay
    assert audit.violation <= 1e-8


def test_energy_audit_zero_data():
    problem = ProblemParams(1, 4.0, 2.0)
    grid = Grid(1, 40.0, 128)
    w = WeightParams(4.0, 2.0)
    cfg = SolverConfig(problem=problem, grid=grid, weight=w, dt=0.05, t_end=10.0)
    outcome = run(cfg, (zero_field(grid), zero_field(grid)), snapshot_every=0.2)
    audit = energy_audit(outcome.snapshots, w, 4.0)
    assert audit.violation == 0.0


def test_energy_audit_needs_enough_snapshots():
    outcome, w = _small_run(snapshot_every=5.0)
    with pytest.raises(ValueError):
        energy_audit(outcome.snapshots, w, 4.0)


def test_source_bound_audit_finite():
    outcome, w = _small_run()
    audit = source_bound_audit(outcome.snapshots, outcome.series, w, 4.0)
    assert audit.applicable
    assert np.isfinite(audit.max_ratio)
    assert audit.max_ratio > 0.0


def test_source_bound_audit_zero_solution_not_applicable():
    problem = ProblemParams(1, 4.0, 2.0)
    grid = Grid(1, 40.0, 128)
    w = WeightParams(4.0, 2.0)
    cfg = SolverConfig(problem=problem, grid=grid, weight=w, dt=0.05, t_end=5.0)
    outcome = run(cfg, (zero_field(grid), zero_field(grid)), snapshot_every=0.5)
    audit = source_bound_audit(outcome.snapshots, outcome.series, w, 4.0)
    assert not audit.applicable


def test_energy_audit_negative_solution():
    # nonpositive data make the signed source integral negative; the
    # audit folds it in exactly as signed and still certifies the bound
    problem = ProblemParams(1, 4.0, 2.0)
    grid = Grid(1, 40.0, 256)
    w = WeightParams(4.0, 2.0)
    cfg = SolverConfig(
        problem=problem, grid=grid, weight=w, dt=0.05, t_end=12.5, record_every=5
    )
    data = (gaussian_field(grid, -0.02, 2.0), zero_field(grid))
    outcome = run(cfg, data, snapshot_every=0.25)
    audit = energy_audit(outcome.snapshots, w, 4.0)
    assert audit.violation <= 1e-4
    assert audit.signed_source_min < 0.0


@pytest.mark.parametrize(
    "grid", [Grid(1, 40.0, 256), Grid(2, 16.0, 32), Grid(3, 12.0, 16)], ids=["1d", "2d", "3d"]
)
def test_recorded_energy_matches_snapshot_recomputation(grid):
    # the run loop measures the weighted energy from spectral state; the
    # weights module recomputes it from stored physical snapshots through
    # the same kernel -- the two routes must agree in every dimension
    outcome, w = _small_run(grid=grid)
    times = outcome.series.column("t")
    recorded = outcome.series.column("weighted_energy")
    by_time = {s.t: s for s in outcome.snapshots}
    compared = 0
    for t, value in zip(times, recorded):
        if t in by_time:
            recomputed = weighted_energy(by_time[t], w)
            assert value == pytest.approx(recomputed, rel=1e-12)
            compared += 1
    assert compared >= 50


def test_decay_norm_scales_linearly_in_small_regime():
    base, _ = _small_run(amplitude=0.005, snapshot_every=None)
    doubled, _ = _small_run(amplitude=0.01, snapshot_every=None)
    ratio = decay_norm(doubled.series) / decay_norm(base.series)
    assert ratio == pytest.approx(2.0, rel=0.2)
