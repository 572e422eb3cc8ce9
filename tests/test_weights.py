import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedwave.initial_data import gaussian_field, zero_field
from dampedwave.propagator import LinearState, decay_profile
from dampedwave.spectral import Grid, RealField
from dampedwave.snapshots import read_snapshot
from dampedwave.solver import Nonlinearity, SolverConfig, run
from dampedwave.weights import (
    MIN_AUDIT_SNAPSHOTS,
    ResidualAudit,
    Scratch,
    WeightParams,
    decay_norm,
    energy_audit,
    residual_audit,
    slack_audit,
    snapshot_integrals,
    source_bound_audit,
    spectral_energy,
    weight_base,
    weight_dt,
    weight_on_grid,
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


def _one_shot_residual_audit(samples, seed, t_max=100.0, radius_max=50.0, power_max=10.0):
    """The audit's draws written out: t, r, power and offset, each in
    full from one generator.  The audit must reproduce it bit for bit."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, t_max, samples)
    r_sq = rng.uniform(0.0, radius_max, samples) ** 2
    power = rng.uniform(0.0, power_max, samples)
    power = np.where(power == 0.0, power_max, power)
    offset = rng.uniform(0.5, 10.0, samples) * power
    base = offset + r_sq / (1.0 + t)
    residual = 2.0 * base**power - power * base ** (power - 1.0)
    gap = 0.0
    for p in (0.5, 1.0, 2.0, 3.0):
        gap = max(gap, abs(float(weight_residual(0.0, 0.0, WeightParams(0.5 * p, p)))))
    return ResidualAudit(samples=samples, min_residual=float(np.min(residual)), equality_gap=gap)


@pytest.mark.parametrize(
    "samples", [1, 8_191, 8_192, 8_193, 65_535, 65_536, 65_537, 196_615, 200_000, 1_000_000]
)
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_streamed_residual_audit_equals_one_shot(samples, seed):
    expected = _one_shot_residual_audit(samples, seed).to_dict()
    assert residual_audit(samples, seed).to_dict() == expected


def test_residual_audit_prints_the_pinned_minimum():
    # acceptance criterion 1's line: 1e6 samples of seed 0
    audit = residual_audit(samples=1_000_000, seed=0)
    assert audit.min_residual == pytest.approx(0.003027460636158663, rel=1e-12, abs=0.0)
    assert audit.equality_gap == 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_slack_audit_reads_the_run_weight_on_its_grid(dim):
    grid = Grid(dim, 10.0, 16)
    w = WeightParams(2.0, 1.65)
    audit = slack_audit(5.0, grid, w)
    levels = grid.radius_levels()
    assert audit.points == levels.size
    assert audit.min_residual == np.min(weight_residual(5.0, levels, w)) > 0.0
    expected = {"points": levels.size, "min_residual": audit.min_residual, "passed": True}
    assert audit.to_dict() == expected
    # the minimum at the last time bounds every earlier time
    for t in (0.0, 1.0, 4.9):
        assert np.min(weight_residual(t, levels, w)) >= audit.min_residual
    # at the equality corner the slack is zero at x = 0, and passes
    assert slack_audit(5.0, grid, WeightParams(1.0, 2.0)).passed
    # offset < power/2: the x = 0 level is negative at every time
    bad = WeightParams(0.9, 2.0, validate=False)
    for t in (0.0, 5.0, 1e6):
        audit = slack_audit(t, grid, bad)
        assert not audit.passed and not audit.to_dict()["passed"]
        assert audit.min_residual == pytest.approx(0.9 * (1.8 - 2.0))


@pytest.mark.parametrize("samples", [0, -3])
def test_residual_audit_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        residual_audit(samples=samples)


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

    density = state.ut.values**2 + gradient_sq(g, np.fft.rfftn(state.u.values, axes=g.axes))
    unweighted = g.cell_volume * np.sum(density)
    assert degenerate == unweighted


@pytest.mark.parametrize("dim, points", [(2, 16), (3, 8)])
def test_gradient_matches_complex_transform_with_nyquist_content(dim, points):
    # the derivative of a real field has no Nyquist mode; the complex
    # transform drops it by taking the real part, the real one must not
    # pick it up on the non-last axes
    from dampedwave.weights import gradient_sq

    g = Grid(dim, 4.0, points)
    u = np.random.default_rng(11).standard_normal(g.shape)
    u_hat = np.fft.fftn(u)
    assert np.max(np.abs(u_hat[(points // 2,) * dim])) > 0.0
    xi = g.axis_freqs()
    want = sum(
        np.fft.ifftn(1j * g.along(xi, axis) * u_hat).real ** 2 for axis in range(dim)
    )
    got = gradient_sq(g, np.fft.rfftn(u, axes=g.axes))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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

def _small_run(
    snapshot_dir=None, t_end=12.5, amplitude=0.01, snapshot_every=0.25, grid=None
):
    grid = grid or Grid(1, 40.0, 256)
    w = WeightParams(4.0, 2.0)
    cfg = SolverConfig(
        p=4.0, grid=grid, weight=w, dt=0.05, t_end=t_end, record_every=5
    )
    data = (gaussian_field(grid, amplitude, 2.0), zero_field(grid))
    return run(cfg, data, snapshot_every=snapshot_every, snapshot_dir=snapshot_dir), w


def test_decay_norm_zero_solution():
    g = Grid(1, 10.0, 64)
    series = decay_profile((zero_field(g), zero_field(g)), [0.0, 1.0])
    assert decay_norm(series) == 0.0


def test_decay_norm_empty_trajectory():
    from dampedwave.timeseries import TimeSeries

    with pytest.raises(ValueError, match="empty trajectory"):
        decay_norm(TimeSeries())


def test_decay_norm_of_a_blowup_marker_alone_is_empty():
    from dampedwave.timeseries import TimeSeries

    series = TimeSeries()
    series.append_blowup_marker(0.5)
    with pytest.raises(ValueError, match="empty trajectory"):
        decay_norm(series)


def test_energy_audit_semilinear_run(tmp_path):
    outcome, _ = _small_run(tmp_path)
    audit = energy_audit(outcome.snapshots, 4.0)
    assert audit.violation <= 1e-4
    assert audit.snapshots == len(outcome.snapshots)


def test_energy_audit_refinement_does_not_worsen(tmp_path):
    # 101 snapshots, so every other one still meets the audit minimum
    outcome, _ = _small_run(tmp_path, snapshot_every=0.125)
    assert len(outcome.snapshots[::2]) >= MIN_AUDIT_SNAPSHOTS
    fine = energy_audit(outcome.snapshots, 4.0)
    coarse = energy_audit(outcome.snapshots[::2], 4.0)
    assert fine.violation <= coarse.violation + 1e-15


def test_energy_audit_linear_flow_reduces_to_monotonicity(tmp_path):
    grid = Grid(1, 40.0, 256)
    w = WeightParams(4.0, 2.0)
    cfg = SolverConfig(
        p=4.0,
        grid=grid,
        weight=w,
        dt=0.05,
        t_end=10.0,
        record_every=5,
        nonlinearity=Nonlinearity.NONE,
    )
    data = (gaussian_field(grid, 1.0, 2.0), zero_field(grid))
    outcome = run(cfg, data, snapshot_every=0.2, snapshot_dir=tmp_path)
    audit = energy_audit(outcome.snapshots, 4.0)
    # with the source off the right side is E(0): monotone decay
    assert audit.violation <= 1e-8


def test_energy_audit_zero_data(tmp_path):
    grid = Grid(1, 40.0, 128)
    w = WeightParams(4.0, 2.0)
    cfg = SolverConfig(p=4.0, grid=grid, weight=w, dt=0.05, t_end=10.0)
    data = (zero_field(grid), zero_field(grid))
    outcome = run(cfg, data, snapshot_every=0.2, snapshot_dir=tmp_path)
    audit = energy_audit(outcome.snapshots, 4.0)
    assert audit.violation == 0.0


def test_energy_audit_needs_enough_snapshots(tmp_path):
    outcome, _ = _small_run(tmp_path, snapshot_every=5.0)
    with pytest.raises(ValueError):
        energy_audit(outcome.snapshots, 4.0)


def test_source_bound_audit_finite(tmp_path):
    outcome, _ = _small_run(tmp_path)
    audit = source_bound_audit(outcome.snapshots, outcome.series, 4.0)
    assert audit.applicable
    assert np.isfinite(audit.max_ratio)
    assert audit.max_ratio > 0.0


def _identity_rows(p: float) -> list[tuple]:
    """MIN_AUDIT_SNAPSHOTS rows (t, E, S, S_dt, source, source_dt) whose
    energy meets energy_audit's right side with c = 2/(p+1) exactly, S
    rising and S_dt < 0, so every term of that side moves the energy."""
    c = 2.0 / (p + 1.0)
    times = np.linspace(0.0, 5.0, MIN_AUDIT_SNAPSHOTS)
    signed, signed_dt = 1.0 + times, -np.exp(-times)
    integral = [0.0]
    for k in range(1, len(times)):
        step = 0.5 * (times[k] - times[k - 1]) * (signed_dt[k] + signed_dt[k - 1])
        integral.append(integral[-1] + step)
    energies = 10.0 - c * signed[0] + c * signed - c * np.array(integral)
    source, source_dt = 2.0 + times**2, np.exp(-times)
    return list(zip(times, energies, signed, signed_dt, source, source_dt))


def test_energy_audit_holds_on_rows_that_meet_its_identity():
    audit = energy_audit(_identity_rows(3.0), 3.0)
    assert audit.snapshots == MIN_AUDIT_SNAPSHOTS
    assert audit.violation <= 1e-12


def test_source_bound_audit_is_the_trapezoid_ratio():
    from dampedwave.timeseries import COLUMNS, TimeSeries

    p, rows = 3.0, _identity_rows(3.0)
    series = TimeSeries()
    for t in (0.0, 1.0):
        series.append((t,) + (0.5,) * (len(COLUMNS) - 1))  # decay norm 4 * 0.5
    numerator, integral = [rows[0][4]], 0.0
    for before, after in zip(rows, rows[1:]):
        integral += 0.5 * (after[0] - before[0]) * (after[5] + before[5])
        numerator.append(after[4] + integral)
    audit = source_bound_audit(rows, series, p)
    assert audit.applicable
    assert audit.max_ratio == pytest.approx(max(numerator) / 2.0 ** (p + 1.0), rel=1e-13)
    assert audit.argmax_time == rows[-1][0]


@pytest.mark.parametrize("t", [0.5, 3.0, 40.0])
def test_weight_dt_is_the_time_derivative_of_the_weight(t):
    w = WeightParams(2.0, 1.5)
    r_sq = np.array([0.5, 4.0, 30.0])
    h = 1e-4 * (1.0 + t)
    central = (weight_value(t + h, r_sq, w) - weight_value(t - h, r_sq, w)) / (2.0 * h)
    np.testing.assert_allclose(weight_dt(t, r_sq, w), central, rtol=1e-6)


def test_source_bound_audit_zero_solution_not_applicable(tmp_path):
    grid = Grid(1, 40.0, 128)
    w = WeightParams(4.0, 2.0)
    cfg = SolverConfig(p=4.0, grid=grid, weight=w, dt=0.05, t_end=5.0)
    data = (zero_field(grid), zero_field(grid))
    outcome = run(cfg, data, snapshot_every=0.5, snapshot_dir=tmp_path)
    audit = source_bound_audit(outcome.snapshots, outcome.series, 4.0)
    assert not audit.applicable


def test_energy_audit_negative_solution(tmp_path):
    # nonpositive data make the signed source integral negative; the
    # audit folds it in exactly as signed and still certifies the bound
    grid = Grid(1, 40.0, 256)
    w = WeightParams(4.0, 2.0)
    cfg = SolverConfig(
        p=4.0, grid=grid, weight=w, dt=0.05, t_end=12.5, record_every=5
    )
    data = (gaussian_field(grid, -0.02, 2.0), zero_field(grid))
    outcome = run(cfg, data, snapshot_every=0.25, snapshot_dir=tmp_path)
    audit = energy_audit(outcome.snapshots, 4.0)
    assert audit.violation <= 1e-4
    assert audit.signed_source_min < 0.0


@pytest.mark.parametrize(
    "grid", [Grid(1, 40.0, 256), Grid(2, 16.0, 32), Grid(3, 12.0, 16)], ids=["1d", "2d", "3d"]
)
def test_recorded_energy_matches_snapshot_recomputation(grid, tmp_path):
    # the run loop measures the weighted energy from spectral state; the
    # weights module recomputes it from the written physical snapshots
    # through the same kernel -- the two routes must agree in every dimension
    outcome, w = _small_run(tmp_path, grid=grid)
    times = outcome.series.column("t")
    recorded = outcome.series.column("weighted_energy")
    states = [read_snapshot(path)[0] for path in sorted(tmp_path.glob("*.dwsn"))]
    by_time = {s.t: s for s in states}
    compared = 0
    for t, value in zip(times, recorded):
        if t in by_time:
            recomputed = weighted_energy(by_time[t], w)
            assert value == pytest.approx(recomputed, rel=1e-12)
            compared += 1
    assert compared >= 50


@pytest.mark.parametrize(
    "grid", [Grid(1, 40.0, 256), Grid(2, 16.0, 32), Grid(3, 12.0, 16)], ids=["1d", "2d", "3d"]
)
def test_streamed_rows_match_written_snapshots(grid, tmp_path):
    # every row the run loop keeps is the row of the file it wrote
    outcome, w = _small_run(tmp_path, grid=grid)
    paths = sorted(tmp_path.glob("*.dwsn"))
    assert len(paths) == len(outcome.snapshots) >= MIN_AUDIT_SNAPSHOTS
    for row, path in zip(outcome.snapshots, paths):
        state, meta = read_snapshot(path)
        u_coeffs = grid.forward(state.u.values)
        psi = weight_on_grid(weight_value, state.t, grid, w)
        (again,) = snapshot_integrals(grid, state.t, state.u.values[None], psi, w, [meta.p])
        energy = float(spectral_energy(grid, u_coeffs, state.ut.values, psi))
        assert again._replace(energy=energy) == pytest.approx(row, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("grid", [Grid(1, 40.0, 256), Grid(2, 16.0, 32)], ids=["1d", "2d"])
@pytest.mark.parametrize("p", [2.0, 2.5, 4.0])
def test_snapshot_integrals_in_scratch_equal_fresh_arrays(grid, p):
    # the row written through the scratch arrays, with u in the scratch's
    # own field (which the products overwrite) and the energy taken after
    # from u_t in its own u_t array, is the row of the allocating
    # expressions; a second member with another power gets its own row
    rng = np.random.default_rng(5)
    w = WeightParams(4.0, 2.0)
    t = 1.25
    u_values = rng.standard_normal(grid.shape)
    ut_source = rng.standard_normal(grid.shape)
    u_coeffs = grid.forward(u_values)
    psi = weight_on_grid(weight_value, t, grid, w)
    psi_dt = weight_on_grid(weight_dt, t, grid, w)
    signed = np.abs(u_values) ** p * u_values
    source = np.abs(signed)
    h = grid.cell_volume
    energy = spectral_energy(grid, u_coeffs, ut_source, psi)
    expected = (
        t,
        energy,
        float(h * np.sum(signed * psi)),
        float(h * np.sum(signed * psi_dt)),
        float(h * np.sum(source * psi)),
        float(h * np.sum(source * np.abs(psi_dt))),
    )
    other = 2.0 * u_values
    (expected_other,) = snapshot_integrals(grid, t, other[None], psi, w, [p + 0.5])
    scratch = Scratch.for_grid(grid, (2,))
    scratch.field[...] = u_values, other
    scratch.ut_values[0] = ut_source
    row, row_other = snapshot_integrals(grid, t, scratch.field, psi, w, [p, p + 0.5], scratch)
    first = scratch._make(a[0] for a in scratch)
    energy = spectral_energy(grid, u_coeffs, first.ut_values, psi, first)
    assert tuple(row._replace(energy=float(energy))) == expected
    assert np.isnan(row_other.energy) and np.isnan(expected_other.energy)
    assert row_other[2:] == expected_other[2:]
    assert row_other[2:] != row[2:]


def test_decay_norm_scales_linearly_in_small_regime():
    base, _ = _small_run(amplitude=0.005, snapshot_every=None)
    doubled, _ = _small_run(amplitude=0.01, snapshot_every=None)
    ratio = decay_norm(doubled.series) / decay_norm(base.series)
    assert ratio == pytest.approx(2.0, rel=0.2)
