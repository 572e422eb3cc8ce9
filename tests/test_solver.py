import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dampedwave.exponents import ProblemParams
from dampedwave.initial_data import gaussian_field, zero_field
from dampedwave import propagator, solver
from dampedwave.propagator import decay_profile
from dampedwave.solver import (
    Nonlinearity,
    RunStatus,
    SolverConfig,
    Stepper,
    run,
    source_term,
)
from dampedwave.spectral import Grid, RealField, greens_multipliers
from dampedwave.snapshots import read_snapshot
from dampedwave.weights import SnapshotIntegrals, WeightParams, weighted_energy

WEIGHT = WeightParams(4.0, 2.0)


def make_cfg(p=4.0, grid=None, **kwargs):
    grid = grid or Grid(1, 40.0, 256)
    defaults = dict(dt=0.05, t_end=10.0, record_every=5)
    defaults.update(kwargs)
    return SolverConfig(
        problem=ProblemParams(1, p, 2.0),
        grid=grid,
        weight=WEIGHT,
        **defaults,
    )


# ---------------------------------------------------------------------------
# Source term
# ---------------------------------------------------------------------------

def test_source_zero():
    assert np.all(source_term(np.zeros(8), 3.0) == 0.0)


def test_source_is_absolute_power():
    # |-2|^3 = 8, not -8: the source is sign definite
    values = source_term(np.full(4, -2.0), 3.0)
    np.testing.assert_array_equal(values, 8.0)


def test_source_signed_variant():
    values = source_term(np.full(4, -2.0), 3.0, signed=True)
    np.testing.assert_array_equal(values, -8.0)


def test_source_matches_elementwise_square():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(64)
    np.testing.assert_allclose(source_term(u, 2.0), u * u, rtol=1e-15)


def test_source_noninteger_power_zero_limit():
    u = np.array([0.0, 1e-200, 2.0])
    out = source_term(u, 2.5)
    assert out[0] == 0.0
    assert np.isfinite(out).all()


def test_source_rejects_p_at_most_one():
    with pytest.raises(ValueError):
        source_term(np.ones(4), 1.0)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def test_constant_state_matches_ode_oracle():
    # spatially constant data reduce the scheme to v'' + v' = |v|^p;
    # 1000 steps are compared against an adaptive high-order integrator
    # (the boundary monitor flags constant fields by construction, so
    # the status is not checked)
    p = 3.0
    v0, v1 = 0.1, 0.02
    grid = Grid(1, 10.0, 32)
    cfg = make_cfg(p=p, grid=grid, dt=0.005, t_end=5.0, dealias=False)
    data = (
        RealField(grid, np.full(grid.shape, v0)),
        RealField(grid, np.full(grid.shape, v1)),
    )
    state = run(cfg, data).final_state
    assert state.t == pytest.approx(5.0, abs=1e-12)
    sol = solve_ivp(
        lambda t, y: [y[1], -y[1] + abs(y[0]) ** p],
        (0.0, 5.0),
        [v0, v1],
        rtol=1e-12,
        atol=1e-14,
    )
    assert state.u.values.flat[0] == pytest.approx(sol.y[0, -1], abs=1e-6)
    assert state.ut.values.flat[0] == pytest.approx(sol.y[1, -1], abs=1e-6)


def test_self_convergence_second_order():
    grid = Grid(1, 40.0, 256)
    data = (gaussian_field(grid, 0.1, 2.0), zero_field(grid))

    def final(dt):
        cfg = make_cfg(grid=grid, dt=dt, t_end=10.0)
        return run(cfg, data).final_state.u.values

    coarse, mid, fine = final(0.2), final(0.1), final(0.05)
    d1 = np.sqrt(np.sum((coarse - mid) ** 2))
    d2 = np.sqrt(np.sum((mid - fine) ** 2))
    assert 3.5 <= d1 / d2 <= 4.5


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def test_run_zero_data():
    cfg = make_cfg()
    outcome = run(cfg, (zero_field(cfg.grid), zero_field(cfg.grid)))
    assert outcome.status is RunStatus.COMPLETED
    assert outcome.blowup_time is None
    assert np.all(outcome.series.column("l2_u") == 0.0)
    assert np.all(outcome.series.column("weighted_energy") == 0.0)


def test_run_without_source_matches_decay_profile():
    cfg = make_cfg(nonlinearity=Nonlinearity.NONE, t_end=8.0)
    data = (gaussian_field(cfg.grid, 1.0, 2.0), gaussian_field(cfg.grid, 0.2, 3.0))
    outcome = run(cfg, data)
    times = outcome.series.column("t")
    reference = decay_profile(data, times, weight=cfg.weight)
    for column in ("l2_u", "l2_grad_u", "l2_ut", "weighted_energy"):
        got = outcome.series.column(column)
        want = reference.column(column)
        scale = np.max(np.abs(want)) + 1e-300
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_run_mean_nondecreasing_for_positive_data():
    cfg = make_cfg(t_end=20.0)
    data = (gaussian_field(cfg.grid, 0.5, 2.0), gaussian_field(cfg.grid, 0.1, 2.0))
    outcome = run(cfg, data)
    means = outcome.series.column("mean_u")
    assert np.all(np.diff(means) >= -1e-8 * np.max(np.abs(means)))


def test_run_determinism():
    cfg = make_cfg(t_end=5.0)
    data = (gaussian_field(cfg.grid, 0.05, 2.0), zero_field(cfg.grid))
    first = run(cfg, data)
    second = run(cfg, data)
    for column in first.series.finite_rows():
        np.testing.assert_array_equal(
            first.series.column(column), second.series.column(column)
        )


def test_run_blow_up_detection():
    grid = Grid(1, 20.0, 256)
    cfg = make_cfg(p=2.0, grid=grid, dt=0.005, t_end=5.0)
    data = (gaussian_field(grid, 5.0, 2.0), zero_field(grid))
    outcome = run(cfg, data)
    assert outcome.status is RunStatus.BLEW_UP
    assert outcome.blowup_time is not None
    assert 0.0 < outcome.blowup_time <= cfg.t_end
    # terminal marker row carries the blow-up time
    last = outcome.series.rows[-1]
    assert last["t"] == outcome.blowup_time
    assert np.isinf(last["linf_u"])
    # everything before the marker is finite
    finite = outcome.series.finite_rows()
    assert np.all(np.isfinite(finite["linf_u"]))


def test_run_blow_up_on_overflowing_source():
    # the step to t = 1.525 leaves u finite (max |u| ~ 2.8e213) below the
    # threshold, but |u|^2 overflows: that step is the blow-up step, and
    # the overflowed source is never transformed (warnings are errors)
    grid = Grid(1, 20.0, 256)
    cfg = make_cfg(p=2.0, grid=grid, dt=0.005, t_end=5.0, blowup_threshold=1e308)
    data = (gaussian_field(grid, 5.0, 2.0), zero_field(grid))
    outcome = run(cfg, data)
    assert outcome.status is RunStatus.BLEW_UP
    assert outcome.blowup_time == pytest.approx(1.5225, abs=1e-12)
    # u_{n+1} of the blow-up step is not kept: the final state is its start
    state = outcome.final_state
    assert state.t == pytest.approx(1.52)
    assert np.all(np.isfinite(state.u.values)) and np.all(np.isfinite(state.ut.values))


def test_run_rejects_overflowing_initial_source():
    cfg = make_cfg(p=2.0)
    data = (gaussian_field(cfg.grid, 1e200, 2.0), zero_field(cfg.grid))
    with pytest.raises(ValueError, match="overflows"):
        run(cfg, data)


@pytest.mark.parametrize("every", [0.0, -0.5])
def test_run_rejects_nonpositive_snapshot_spacing(every, tmp_path):
    cfg = make_cfg(t_end=1.0)
    data = (gaussian_field(cfg.grid, 0.01, 2.0), zero_field(cfg.grid))
    with pytest.raises(ValueError, match="snapshot_every must be positive"):
        run(cfg, data, snapshot_every=every, snapshot_dir=tmp_path)


def test_run_snapshot_cadence_needs_directory(tmp_path):
    cfg = make_cfg(t_end=1.0)
    data = (gaussian_field(cfg.grid, 0.01, 2.0), zero_field(cfg.grid))
    with pytest.raises(ValueError, match="together"):
        run(cfg, data, snapshot_every=0.5)
    with pytest.raises(ValueError, match="together"):
        run(cfg, data, snapshot_dir=tmp_path)
    assert not list(tmp_path.iterdir())


def test_run_snapshot_cadence(tmp_path):
    cfg = make_cfg(t_end=5.0)
    data = (gaussian_field(cfg.grid, 0.01, 2.0), zero_field(cfg.grid))
    outcome = run(cfg, data, snapshot_every=0.5, snapshot_dir=tmp_path / "snaps")
    times = [s.t for s in outcome.snapshots]
    assert times[0] == 0.0
    assert len(times) == 11
    np.testing.assert_allclose(np.diff(times), 0.5, atol=1e-12)
    files = sorted((tmp_path / "snaps").glob("*.dwsn"))
    assert [f.name for f in files] == [f"snap_{i:06d}.dwsn" for i in range(11)]
    assert [read_snapshot(f)[0].t for f in files] == times


def test_run_signed_variant_differs():
    cfg_source = make_cfg(t_end=5.0)
    cfg_signed = make_cfg(t_end=5.0, nonlinearity=Nonlinearity.SIGNED)
    data = (gaussian_field(cfg_source.grid, -0.5, 2.0), zero_field(cfg_source.grid))
    u_source = run(cfg_source, data).final_state.u.values
    u_signed = run(cfg_signed, data).final_state.u.values
    assert np.max(np.abs(u_source - u_signed)) > 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(dt=0.6)
    with pytest.raises(ValueError):
        make_cfg(dt=0.2, t_end=0.1)
    with pytest.raises(ValueError):
        make_cfg(blowup_threshold=0.5)
    with pytest.raises(ValueError):
        make_cfg(record_every=0)


def test_config_rejects_partial_final_step():
    # 1.0 / 0.3 is not a whole number of steps; rounding would silently
    # end the run at t = 0.9
    with pytest.raises(ValueError, match=r"t_end 1\.0 .* dt 0\.3"):
        make_cfg(dt=0.3, t_end=1.0)
    assert make_cfg(dt=0.1, t_end=0.3).t_end == 0.3  # 3 steps up to roundoff


def test_dealias_default_tracks_power():
    assert make_cfg(p=4.0).dealias_active
    assert not make_cfg(p=2.5).dealias_active
    assert make_cfg(p=2.5, dealias=True).dealias_active
    assert not make_cfg(p=4.0, dealias=False).dealias_active


def test_run_rejects_mismatched_data_grid():
    cfg = make_cfg()
    other = Grid(1, 40.0, 128)
    with pytest.raises(ValueError):
        run(cfg, (zero_field(other), zero_field(other)))


def test_run_dim2_semilinear_smoke():
    grid = Grid(2, 30.0, 128)
    cfg = SolverConfig(
        problem=ProblemParams(2, 3.0, 1.5),
        grid=grid,
        weight=WeightParams(3.0, 1.5),
        dt=0.1,
        t_end=5.0,
        record_every=10,
    )
    outcome = run(cfg, (gaussian_field(grid, 0.05, 3.0), zero_field(grid)))
    assert outcome.status is RunStatus.COMPLETED
    means = outcome.series.column("mean_u")
    assert np.all(np.diff(means) >= -1e-10)  # positive source, u1 = 0


def test_run_dim3_smoke():
    grid = Grid(3, 16.0, 64)
    cfg = SolverConfig(
        problem=ProblemParams(3, 2.5, 2.0),
        grid=grid,
        weight=WEIGHT,
        dt=0.1,
        t_end=1.0,
        record_every=5,
    )
    outcome = run(cfg, (gaussian_field(grid, 0.05, 2.0), zero_field(grid)))
    assert outcome.status is RunStatus.COMPLETED
    assert np.all(np.isfinite(outcome.series.column("l2_u")))


def test_run_flags_boundary_contamination():
    # a box too small for the travel time: the wave reaches the shell
    grid = Grid(1, 10.0, 128)
    cfg = make_cfg(grid=grid, t_end=15.0, nonlinearity=Nonlinearity.NONE)
    outcome = run(cfg, (gaussian_field(grid, 1.0, 2.0), zero_field(grid)))
    assert outcome.status is RunStatus.BOUNDARY_CONTAMINATED
    assert outcome.blowup_time is None


# ---------------------------------------------------------------------------
# Run-path invariants of the real-FFT core
# ---------------------------------------------------------------------------

def test_run_evaluates_source_once_per_step(monkeypatch):
    # f* at the end of step n is carried in as f_n of step n+1, so the
    # source is evaluated for f_0 and once per step after that
    calls = []
    original = Stepper.source_coeffs

    def counted(self, u_values):
        calls.append(1)
        return original(self, u_values)

    monkeypatch.setattr(Stepper, "source_coeffs", counted)
    cfg = make_cfg(t_end=2.0)
    outcome = run(cfg, (gaussian_field(cfg.grid, 0.05, 2.0), zero_field(cfg.grid)))
    assert outcome.status is RunStatus.COMPLETED
    assert len(calls) == round(cfg.t_end / cfg.dt) + 1


def test_multipliers_evaluated_once_per_lag(monkeypatch):
    calls = []

    def counted(t, xi_sq):
        calls.append(t)
        return greens_multipliers(t, xi_sq)

    monkeypatch.setattr(solver, "greens_multipliers", counted)
    monkeypatch.setattr(propagator, "greens_multipliers", counted)
    cfg = make_cfg(t_end=2.0)
    data = (gaussian_field(cfg.grid, 0.05, 2.0), zero_field(cfg.grid))
    assert run(cfg, data).status is RunStatus.COMPLETED
    assert calls == [cfg.dt]
    calls.clear()
    times = [0.0, 0.5, 1.0, 4.0]
    assert len(decay_profile(data, times)) == len(times)
    assert calls == times


def test_run_path_uses_only_real_transforms(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("complex FFT on a real field")

    monkeypatch.setattr(np.fft, "fftn", refuse)
    monkeypatch.setattr(np.fft, "ifftn", refuse)
    cfg = make_cfg(t_end=1.0)
    data = (gaussian_field(cfg.grid, 0.05, 2.0), gaussian_field(cfg.grid, 0.01, 3.0))
    outcome = run(cfg, data, snapshot_every=0.5, snapshot_dir=tmp_path)
    assert outcome.status is RunStatus.COMPLETED
    assert len(decay_profile(data, [0.0, 1.0, 2.0])) == 3
    assert weighted_energy(outcome.final_state, cfg.weight) > 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_snapshot_fields_own_their_memory(dim, tmp_path):
    # a real view of a complex inverse transform would pin a buffer twice
    # the size of each stored field; snapshots keep no fields at all
    grid = Grid(dim, 20.0, 32)
    cfg = make_cfg(grid=grid, t_end=1.0)
    data = (gaussian_field(grid, 0.05, 2.0), zero_field(grid))
    outcome = run(cfg, data, snapshot_every=0.5, snapshot_dir=tmp_path)
    assert len(outcome.snapshots) == 3
    assert all(isinstance(row, SnapshotIntegrals) for row in outcome.snapshots)
    for field in (outcome.final_state.u, outcome.final_state.ut):
        base = field.values.base
        assert base is None or base.nbytes == field.values.nbytes


def test_snapshot_memory_does_not_grow_with_count(tmp_path):
    # each snapshot is written and reduced to a row while the loop holds
    # it, so 101 snapshots take no more memory than 2
    grid = Grid(2, 20.0, 64)
    cfg = make_cfg(grid=grid, t_end=5.0)
    data = (gaussian_field(grid, 0.05, 2.0), zero_field(grid))
    run(cfg, data, snapshot_every=4.0, snapshot_dir=tmp_path / "warm-up")
    peaks = {}
    for every in (4.0, 0.05):
        tracemalloc.start()
        try:
            outcome = run(cfg, data, snapshot_every=every, snapshot_dir=tmp_path / str(every))
            peaks[len(outcome.snapshots)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sorted(peaks) == [2, 101]
    assert peaks[101] - peaks[2] < 10 * grid.size * 8
