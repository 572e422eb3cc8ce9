import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dampedwave.exponents import ProblemParams
from dampedwave.initial_data import gaussian_field, zero_field
from dampedwave import diagnostics, propagator, solver, weights
from dampedwave.diagnostics import RECORD_BLOCK_POINTS
from dampedwave.propagator import decay_profile, evolve_coeffs
from dampedwave.solver import (
    Nonlinearity,
    RunStatus,
    SolverConfig,
    Stepper,
    run,
    run_ensemble,
    source_term,
)
from dampedwave.spectral import Grid, RealField, greens_multipliers
from dampedwave.snapshots import read_snapshot, write_snapshot
from dampedwave.weights import SnapshotIntegrals, WeightParams, weight_value, weighted_energy

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

    def counted(self, u_values, *buffers):
        calls.append(1)
        return original(self, u_values, *buffers)

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


def test_ensemble_evaluates_weight_once_per_record_time(monkeypatch):
    # the members share the weight and the record times, so one
    # evaluation per record time serves them all (a block of record
    # times is evaluated in one call with a column of times)
    calls = []
    original = weights.weight_value

    def counted(t, r_sq, w):
        calls.extend(np.ravel(t))
        return original(t, r_sq, w)

    for module in (weights, diagnostics, solver):
        monkeypatch.setattr(module, "weight_value", counted, raising=False)
    cfgs = [make_cfg(p=p, t_end=2.0) for p in (2.5, 3.0, 3.5, 4.0)]
    data = (gaussian_field(cfgs[0].grid, 0.05, 2.0), zero_field(cfgs[0].grid))
    outcomes = run_ensemble(cfgs, [data] * len(cfgs))
    assert all(o.status is RunStatus.COMPLETED for o in outcomes)
    assert calls == list(outcomes[0].series.column("t"))


def test_ensemble_evaluates_snapshot_weights_once_per_time(monkeypatch, tmp_path):
    # the members share the weight and the snapshot times: one weight and
    # one weight_dt evaluation per snapshot time, and a snapshot time that
    # is also a record time reuses the record's weight
    calls = {"value": [], "dt": []}

    def counting(name, original):
        def counted(t, r_sq, w):
            calls[name].extend(np.ravel(t))
            return original(t, r_sq, w)

        return counted

    for name, attr in (("value", "weight_value"), ("dt", "weight_dt")):
        counted = counting(name, getattr(weights, attr))
        for module in (weights, diagnostics, solver):
            monkeypatch.setattr(module, attr, counted, raising=False)
    cfgs = [make_cfg(p=p, t_end=2.0) for p in (2.5, 3.0, 3.5, 4.0)]
    data = (gaussian_field(cfgs[0].grid, 0.05, 2.0), zero_field(cfgs[0].grid))
    dirs = [tmp_path / f"m{i}" for i in range(len(cfgs))]
    outcomes = run_ensemble(cfgs, [data] * len(cfgs), snapshot_every=0.4, snapshot_dirs=dirs)
    assert all(o.status is RunStatus.COMPLETED for o in outcomes)
    snapshot_times = [row.t for row in outcomes[0].snapshots]
    record_times = list(outcomes[0].series.column("t"))
    assert len(snapshot_times) == 6
    assert calls["dt"] == snapshot_times
    assert calls["value"] == sorted(set(record_times) | set(snapshot_times))


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


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

# (p, amplitude, dealias): mixed powers and dealiasing, blow-ups at three
# different steps, members flagged for boundary contamination (the box is
# small for t_end) and a zero member that completes
MEMBERS = [
    (2.0, 3.0, None),
    (2.5, 0.05, True),
    (3.0, 0.05, None),
    (4.0, 4.0, False),
    (2.0, 0.05, None),
    (4.0, 2.5, None),
    (3.0, 0.0, None),
]
ENSEMBLE_GRIDS = {
    1: (Grid(1, 10.0, 64), 12.0),
    2: (Grid(2, 10.0, 32), 12.0),
    3: (Grid(3, 8.0, 16), 8.0),
}


def _mixed_ensemble(dim):
    """Configs and data of the MEMBERS on the grid of ENSEMBLE_GRIDS[dim],
    recording every 4 steps of 0.05."""
    grid, t_end = ENSEMBLE_GRIDS[dim]
    cfgs = [
        SolverConfig(
            problem=ProblemParams(dim, p, 2.0),
            grid=grid,
            weight=WEIGHT,
            dt=0.05,
            t_end=t_end,
            dealias=dealias,
            record_every=4,
        )
        for p, _, dealias in MEMBERS
    ]
    datas = [(gaussian_field(grid, a, 1.5), zero_field(grid)) for _, a, _ in MEMBERS]
    return cfgs, datas


@pytest.mark.parametrize("dim", [1, 2, 3], ids=["1d", "2d", "3d"])
def test_ensemble_members_match_single_runs(dim, tmp_path):
    cfgs, datas = _mixed_ensemble(dim)
    dirs = [tmp_path / "ensemble" / str(i) for i in range(len(MEMBERS))]
    outcomes = run_ensemble(cfgs, datas, snapshot_every=1.0, snapshot_dirs=dirs)
    statuses = [outcome.status for outcome in outcomes]
    assert statuses.count(RunStatus.COMPLETED) == 1
    assert RunStatus.BOUNDARY_CONTAMINATED in statuses
    assert len({o.blowup_time for o in outcomes if o.blowup_time is not None}) == 3
    for i, (cfg, data, outcome) in enumerate(zip(cfgs, datas, outcomes)):
        alone = run(cfg, data, snapshot_every=1.0, snapshot_dir=tmp_path / "alone" / str(i))
        assert outcome.status is alone.status
        assert outcome.blowup_time == alone.blowup_time
        assert outcome.series.rows == alone.series.rows
        assert outcome.snapshots == alone.snapshots
        state, alone_state = outcome.final_state, alone.final_state
        assert state.t == alone_state.t
        np.testing.assert_array_equal(state.u.values, alone_state.u.values)
        np.testing.assert_array_equal(state.ut.values, alone_state.ut.values)
        written = sorted(dirs[i].iterdir())
        assert [f.read_bytes() for f in written] == [
            f.read_bytes() for f in sorted((tmp_path / "alone" / str(i)).iterdir())
        ]


def _measure_alone(grid, t, u_coeffs, ut_coeffs, peak):
    """One record measured alone, as before records were measured in
    blocks: Parseval sums by np.vdot, the weight at every grid point, a
    fresh array for every intermediate and np.sum over the state."""

    def l2(coeffs, xi_sq=None):
        weighted = coeffs if xi_sq is None else xi_sq * coeffs
        total = (
            2.0 * np.vdot(coeffs, weighted)
            - np.vdot(coeffs[..., 0], weighted[..., 0])
            - np.vdot(coeffs[..., -1], weighted[..., -1])
        )
        return float(np.sqrt(grid.cell_volume * total.real / grid.size))

    xi = grid.derivative_freqs()
    density = np.zeros(grid.shape)
    for axis in range(grid.dim):
        density += grid.inverse(1j * grid.half_along(xi, axis) * u_coeffs) ** 2
    density += grid.inverse(ut_coeffs) ** 2
    density *= weight_value(t, grid.radius_sq(), WEIGHT)
    energy = float(grid.cell_volume * np.sum(density))
    l2_u, l2_grad, l2_ut = l2(u_coeffs), l2(u_coeffs, grid.freq_sq()), l2(ut_coeffs)
    quarter, growth = 0.25 * grid.dim, 1.0 + t
    return {
        "t": t,
        "l2_u": l2_u,
        "l2_grad_u": l2_grad,
        "l2_ut": l2_ut,
        "linf_u": peak,
        "weighted_energy": energy,
        "xn_energy": float(np.sqrt(max(energy, 0.0))),
        "xn_ut": growth ** (quarter + 1.0) * l2_ut,
        "xn_grad": growth ** (quarter + 0.5) * l2_grad,
        "xn_l2": growth**quarter * l2_u,
        "mean_u": float(u_coeffs.flat[0].real / grid.size),
    }


def _one_at_a_time(grid, times, u_coeffs, ut_coeffs, psi, peaks, scratch, ut_values=None):
    """``diagnostics.measure`` with every state of the stack measured
    alone by :func:`_measure_alone`."""
    lead = u_coeffs.shape[: u_coeffs.ndim - grid.dim]
    times, peaks = np.broadcast_to(times, lead), np.broadcast_to(peaks, lead)
    return [
        _measure_alone(grid, float(times[i]), u_coeffs[i], ut_coeffs[i], float(peaks[i]))
        for i in np.ndindex(lead)
    ]


@pytest.mark.parametrize("dim", [1, 2, 3], ids=["1d", "2d", "3d"])
def test_record_blocks_equal_single_records(dim, monkeypatch, tmp_path):
    # blocks of 1 (each record measured at once), 2, 3 and all record
    # times give the rows of the reference that measures every state
    # alone; the members blow up at three different steps, one is
    # contaminated, and snapshots fall on and off record steps
    grid, t_end = ENSEMBLE_GRIDS[dim]
    cfgs, datas = _mixed_ensemble(dim)

    def run_with(points, measure, name):
        monkeypatch.setattr(diagnostics, "RECORD_BLOCK_POINTS", points)
        monkeypatch.setattr(solver, "measure", measure)
        dirs = [tmp_path / name / str(i) for i in range(len(cfgs))]
        return run_ensemble(cfgs, datas, snapshot_every=0.3, snapshot_dirs=dirs)

    expected = run_with(0, _one_at_a_time, "alone")
    statuses = [outcome.status for outcome in expected]
    assert RunStatus.BOUNDARY_CONTAMINATED in statuses
    assert len({o.blowup_time for o in expected if o.blowup_time is not None}) == 3
    record_times = round(t_end / 0.05) // 4 + 1
    completed = expected[statuses.index(RunStatus.COMPLETED)]
    snapshot_times = {row.t for row in completed.snapshots}
    assert 0 < len(snapshot_times & set(completed.series.column("t"))) < len(snapshot_times)
    for times in (1, 2, 3, record_times):
        got = run_with(times * len(cfgs) * grid.size, diagnostics.measure, f"block_{times}")
        for outcome, want in zip(got, expected, strict=True):
            assert outcome.status is want.status
            assert outcome.blowup_time == want.blowup_time
            assert outcome.series.rows == want.series.rows
            assert outcome.snapshots == want.snapshots


@pytest.mark.parametrize(
    "grid, members",
    [(Grid(1, 20.0, 64), 1), (Grid(1, 160.0, 1024), 1), (Grid(1, 40.0, 512), 8),
     (Grid(1, 40.0, 1024), 8), (Grid(2, 10.0, 32), 3), (Grid(2, 200.0, 256), 1)],
)
def test_record_block_stays_within_its_points(grid, members):
    cfg = make_cfg(grid=grid)
    recorder = solver._Recorder(cfg, [solver._Member(i, cfg, None) for i in range(members)])
    per_time = members * grid.size
    if 2 * per_time > RECORD_BLOCK_POINTS:
        # no block: the work arrays hold one record time
        assert recorder.capacity == 0
        assert recorder.scratch.density.shape == (1, members, *grid.shape)
        return
    assert 2 <= recorder.capacity <= RECORD_BLOCK_POINTS // per_time
    block = (recorder.u_coeffs, recorder.ut_coeffs, recorder.psi, *recorder.scratch)
    assert all(array.size <= RECORD_BLOCK_POINTS for array in block)


def test_3d_records_are_measured_from_the_live_arrays(monkeypatch):
    # a 48^3 record time does not fit twice in a block, so each record
    # is measured from the stepper's own arrays and nothing is copied
    grid = Grid(3, 24.0, 48)
    cfg = SolverConfig(
        problem=ProblemParams(3, 2.5, 1.65), grid=grid, weight=WeightParams(2.0, 1.65),
        dt=0.05, t_end=0.5, record_every=5,
    )
    stepped, measured = [], []
    advance = Stepper.advance

    def recording_advance(self, *args):
        step = advance(self, *args)
        stepped.append(step[0])
        return step

    def recording_measure(grid, times, u_coeffs, *args):
        measured.append(u_coeffs)
        return diagnostics.measure(grid, times, u_coeffs, *args)

    monkeypatch.setattr(Stepper, "advance", recording_advance)
    monkeypatch.setattr(solver, "measure", recording_measure)
    outcome = run(cfg, (gaussian_field(grid, 0.05, 3.0), zero_field(grid)))
    assert len(outcome.series) == len(measured) == 3
    for u_coeffs in measured[1:]:
        assert any(np.shares_memory(u_coeffs, own) for own in stepped)


def _lagging(function, seconds=0.002):
    """``function`` called after a sleep, so a worker running it lags
    behind the loop before it reads its arguments."""

    def lagging(*args, **kwargs):
        time.sleep(seconds)
        return function(*args, **kwargs)

    return lagging


@pytest.mark.parametrize("record_every", [4, 1])
@pytest.mark.parametrize("dim", [2, 3], ids=["2d", "3d"])
def test_worker_jobs_equal_inline_jobs(dim, record_every, monkeypatch, tmp_path):
    # without blocks every record and snapshot is a job for the worker
    # thread; the members blow up at three different steps, one is
    # contaminated, and snapshots fall on and off record steps (records
    # every step post a job before the last one is waited for at a step).
    # With the worker lagging and threads switching as often as they
    # can, the outcomes and files equal those of running every job inline
    cfgs, datas = _mixed_ensemble(dim)
    cfgs = [replace(cfg, record_every=record_every) for cfg in cfgs]
    monkeypatch.setattr(diagnostics, "RECORD_BLOCK_POINTS", 0)

    def run_into(name):
        dirs = [tmp_path / name / str(i) for i in range(len(cfgs))]
        return run_ensemble(cfgs, datas, snapshot_every=0.3, snapshot_dirs=dirs), dirs

    with monkeypatch.context() as inline:
        inline.setattr(solver._Recorder, "_submit", lambda self, job: job())
        expected, expected_dirs = run_into("inline")
    statuses = [outcome.status for outcome in expected]
    assert RunStatus.BOUNDARY_CONTAMINATED in statuses
    assert len({o.blowup_time for o in expected if o.blowup_time is not None}) == 3
    completed = expected[statuses.index(RunStatus.COMPLETED)]
    snapshot_times = {row.t for row in completed.snapshots}
    on_records = len(snapshot_times & set(completed.series.column("t")))
    assert 0 < on_records < len(snapshot_times) or record_every == 1

    monkeypatch.setattr(solver, "measure", _lagging(diagnostics.measure))
    monkeypatch.setattr(solver, "spectral_energy", _lagging(weights.spectral_energy))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got, dirs = run_into("worker")
    finally:
        sys.setswitchinterval(interval)
    for outcome, want, folder, want_folder in zip(got, expected, dirs, expected_dirs, strict=True):
        assert outcome.status is want.status
        assert outcome.blowup_time == want.blowup_time
        assert outcome.series.rows == want.series.rows
        assert outcome.snapshots == want.snapshots
        written = sorted(folder.iterdir())
        assert [f.name for f in written] == [f.name for f in sorted(want_folder.iterdir())]
        assert all(f.read_bytes() == (want_folder / f.name).read_bytes() for f in written)


def _at_once_run():
    """A 3-D 32^3 run whose records do not fit twice in a block."""
    grid = Grid(3, 16.0, 32)
    cfg = SolverConfig(
        problem=ProblemParams(3, 2.5, 1.65), grid=grid, weight=WeightParams(2.0, 1.65),
        dt=0.05, t_end=0.5, record_every=2,
    )
    return cfg, (gaussian_field(grid, 0.05, 3.0), zero_field(grid))


@pytest.mark.parametrize("failing", ["write", "measure"])
def test_run_errors_propagate_and_stop_the_worker(failing, monkeypatch, tmp_path):
    # the third snapshot write fails on the loop thread while the worker
    # measures, or the third measurement fails on the worker; either way
    # run raises the error and leaves no thread behind
    cfg, data = _at_once_run()
    calls, threads = [], []

    def fail_third(function):
        def failing_call(*args):
            calls.append(1)
            threads.append(threading.active_count())
            if len(calls) == 3:
                raise OSError("no space left")
            return function(*args)

        return failing_call

    measure = _lagging(diagnostics.measure)
    if failing == "write":
        monkeypatch.setattr(solver, "write_snapshot", fail_third(write_snapshot))
    else:
        measure = fail_third(measure)
    monkeypatch.setattr(solver, "measure", measure)
    before = threading.active_count()
    with pytest.raises(OSError, match="no space left"):
        run(cfg, data, snapshot_every=0.1, snapshot_dir=tmp_path)
    assert threads[-1] == before + 1
    assert threading.active_count() == before


def test_only_runs_without_record_blocks_start_a_thread(monkeypatch, tmp_path):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    cfg = make_cfg(t_end=2.0)
    data = (gaussian_field(cfg.grid, 0.05, 2.0), zero_field(cfg.grid))
    assert run(cfg, data, snapshot_every=0.5, snapshot_dir=tmp_path / "1d").series
    assert len(decay_profile(data, [0.0, 0.5, 1.0])) == 3
    assert started == []
    cfg, data = _at_once_run()
    run(cfg, data, snapshot_every=0.1, snapshot_dir=tmp_path / "3d")
    assert len(started) == 1
    assert len(decay_profile(data, [0.0, 0.5, 1.0])) == 3
    assert len(started) == 2 and not any(thread.is_alive() for thread in started)


def _allocating_advance(stepper, u_coeffs, ut_coeffs, f_hat):
    """One step with a fresh array for every intermediate, as the
    stepper computed it before it wrote into arrays of its own."""
    grid, half_dt = stepper.cfg.grid, 0.5 * stepper.cfg.dt
    signed = stepper.cfg.nonlinearity is Nonlinearity.SIGNED
    ut_coeffs = ut_coeffs + half_dt * f_hat
    stiffness = stepper.xi_sq * stepper.g
    u_new, ut_new = evolve_coeffs(u_coeffs, ut_coeffs, stepper.g, stepper.gdt, stiffness)
    u_values = grid.inverse(u_new)
    peaks = np.max(np.abs(u_values), axis=grid.axes)
    f = np.empty_like(u_values)
    with np.errstate(over="ignore", invalid="ignore"):
        for row, p in enumerate(stepper.powers):
            magnitude = np.abs(u_values[row])
            f[row] = magnitude ** (p - 1.0) * u_values[row] if signed else magnitude**p
    overflow = ~np.all(np.isfinite(f), axis=grid.axes)
    f[overflow] = 0.0
    peaks[overflow] = np.inf
    f_star = grid.forward(f)
    if stepper.dealias_mask is not None:
        f_star = np.where(stepper.dealias_mask, f_star, 0.0)
    return u_new, ut_new + half_dt * f_star, u_values, f_star, peaks


@pytest.mark.parametrize("kind", [Nonlinearity.SOURCE, Nonlinearity.SIGNED])
@pytest.mark.parametrize("dim", [1, 2, 3], ids=["1d", "2d", "3d"])
def test_step_arrays_give_the_allocating_step(dim, kind):
    # steps write into arrays made once (the coefficients into two pairs
    # in turn); the floats are those of the step that allocates them all
    grid, _ = ENSEMBLE_GRIDS[dim]
    cfgs = [
        SolverConfig(
            problem=ProblemParams(dim, p, 2.0),
            grid=grid,
            weight=WEIGHT,
            dt=0.05,
            t_end=1.0,
            dealias=dealias,
            nonlinearity=kind,
        )
        for p, _, dealias in MEMBERS
    ]
    stepper = Stepper(cfgs)
    u_values = np.stack([gaussian_field(grid, a, 1.5).values for _, a, _ in MEMBERS])
    u_coeffs = grid.forward(u_values)
    ut_coeffs = grid.forward(0.1 * u_values)
    f_hat, _ = stepper.source_coeffs(u_values)
    state = expected = (u_coeffs, ut_coeffs, u_values, f_hat)
    written = []
    for _ in range(6):
        expected = _allocating_advance(stepper, expected[0], expected[1], expected[3])
        state = stepper.advance(state[0], state[1], state[3])
        for got, want in zip(state, expected):
            assert np.array_equal(got, want)
        written.append(state[:4])
    for earlier, later in zip(written, written[2:]):
        assert all(a is b for a, b in zip(earlier, later))


@pytest.mark.parametrize("kind", [Nonlinearity.SOURCE, Nonlinearity.SIGNED])
def test_overflow_limit_keeps_the_full_check_above_it(kind):
    # the largest peak, 1e100, is above the limit of the p = 4 member
    # (1e75): only that member's source overflows, though every peak is
    # finite, and the step matches the one that always scans the source
    grid = Grid(1, 20.0, 64)
    cfgs = [make_cfg(p=p, grid=grid, dealias=False, nonlinearity=kind) for p in (2.0, 4.0)]
    stepper = Stepper(cfgs)
    assert stepper.overflow_limit == pytest.approx(1e75)
    u_values = np.stack([gaussian_field(grid, a, 3.0).values for a in (1e50, 1e100)])
    f_hat, overflow = stepper.source_coeffs(u_values, peak=1e100)
    assert overflow.tolist() == [False, True]
    assert not f_hat[1].any() and np.all(np.isfinite(f_hat[0]))
    state = expected = (grid.forward(u_values), np.zeros_like(f_hat), u_values, f_hat)
    state = stepper.advance(state[0], state[1], state[3])
    expected = _allocating_advance(stepper, expected[0], expected[1], expected[3])
    for got, want in zip(state, expected):
        assert np.array_equal(got, want)
    peaks = state[-1]
    assert np.isfinite(peaks[0]) and peaks[1] == np.inf


def test_overflow_limit_lets_nan_through_to_the_check():
    grid = Grid(1, 20.0, 64)
    stepper = Stepper([make_cfg(p=p, grid=grid) for p in (2.0, 3.0)])
    u_values = np.stack([gaussian_field(grid, 0.1, 3.0).values] * 2)
    u_values[1, 7] = np.nan
    peak = np.abs(u_values).max()
    f_hat, overflow = stepper.source_coeffs(u_values, peak=peak)
    assert overflow.tolist() == [False, True]
    assert not f_hat[1].any()
    # below the limit the source is not scanned, and the floats are the same
    u_values[1, 7] = 0.0
    scanned, none = stepper.source_coeffs(u_values)
    quiet, skipped = stepper.source_coeffs(u_values, peak=0.1)
    assert none is None and skipped is None
    assert np.array_equal(quiet, scanned)


def test_steps_allocate_no_full_size_results():
    # a step allocates nothing of grid size; fresh results and temporaries
    # took about 12 fields, and irfftn's intermediates 2
    grid = Grid(3, 8.0, 32)
    cfg = SolverConfig(
        problem=ProblemParams(3, 2.5, 2.0), grid=grid, weight=WEIGHT, dt=0.05, t_end=1.0
    )
    stepper = Stepper([cfg])
    u_values = gaussian_field(grid, 0.05, 1.5).values[None]
    f_hat, _ = stepper.source_coeffs(u_values)
    state = (grid.forward(u_values), np.zeros_like(f_hat), u_values, f_hat)
    for _ in range(3):
        state = stepper.advance(state[0], state[1], state[3])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            state = stepper.advance(state[0], state[1], state[3])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < grid.size * 8


@pytest.mark.parametrize("snapshots", [False, True], ids=["records", "snapshots"])
def test_run_holds_each_full_size_array_once(snapshots, tmp_path):
    # the initial stacks live in the step arrays, a step keeps no kick
    # array, inverse transforms use work arrays the run holds, snapshots
    # invert u_t into the record scratch and the final states are built
    # without the recorder: the second run (the grid's cached arrays
    # exist) peaks at about 16.4 fields, 17.4 with snapshots, where fresh
    # initial stacks, a kick array, irfftn's intermediates and a fresh
    # u_t stack per snapshot reached 22.6 and 23.6
    grid = Grid(3, 16.0, 32)
    cfg = SolverConfig(
        problem=ProblemParams(3, 2.5, 1.65), grid=grid, weight=WeightParams(2.0, 1.65),
        dt=0.05, t_end=0.5, record_every=2,
    )
    data = (gaussian_field(grid, 0.05, 3.0), zero_field(grid))
    kwargs = dict(snapshot_every=0.2, snapshot_dir=tmp_path) if snapshots else {}
    run(cfg, data, **kwargs)
    tracemalloc.start()
    try:
        run(cfg, data, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * grid.size * 8


def test_ensemble_initial_overflow_stays_per_member():
    cfgs = [make_cfg(p=2.0, t_end=1.0), make_cfg(p=4.0, t_end=1.0)]
    grid = cfgs[0].grid
    datas = [
        (gaussian_field(grid, 1e200, 2.0), zero_field(grid)),
        (gaussian_field(grid, 0.01, 2.0), zero_field(grid)),
    ]
    failed, outcome = run_ensemble(cfgs, datas)
    assert isinstance(failed, ValueError) and "overflows" in str(failed)
    assert outcome.status is RunStatus.COMPLETED
    assert outcome.series.rows == run(cfgs[1], datas[1]).series.rows


@pytest.mark.parametrize("dim", [1, 3], ids=["1d", "3d"])
def test_ensemble_members_own_their_arrays_after_retain(dim, tmp_path):
    # the middle member's source overflows at its initial data, so the
    # others step on from retained copies (f_0 included) before the step
    # arrays exist; the first member blows up mid-run and leaves again
    grid, _ = ENSEMBLE_GRIDS[dim]
    members = [(2.0, 6.0), (2.0, 1e200), (3.0, 0.05)]
    cfgs = [
        SolverConfig(
            problem=ProblemParams(dim, p, 2.0), grid=grid, weight=WEIGHT, dt=0.05,
            t_end=3.0, record_every=4,
        )
        for p, _ in members
    ]
    datas = [(gaussian_field(grid, a, 1.5), zero_field(grid)) for _, a in members]
    dirs = [tmp_path / "ensemble" / str(i) for i in range(len(members))]
    outcomes = run_ensemble(cfgs, datas, snapshot_every=0.3, snapshot_dirs=dirs)
    assert outcomes[0].status is RunStatus.BLEW_UP
    assert isinstance(outcomes[1], ValueError)
    assert outcomes[2].status is not RunStatus.BLEW_UP
    for i, (cfg, data, outcome) in enumerate(zip(cfgs, datas, outcomes)):
        alone_dir = tmp_path / "alone" / str(i)
        if isinstance(outcome, ValueError):
            with pytest.raises(ValueError, match=str(outcome)):
                run(cfg, data, snapshot_every=0.3, snapshot_dir=alone_dir)
        else:
            alone = run(cfg, data, snapshot_every=0.3, snapshot_dir=alone_dir)
            assert outcome.status is alone.status
            assert outcome.blowup_time == alone.blowup_time
            assert outcome.series.rows == alone.series.rows
            assert outcome.snapshots == alone.snapshots
            np.testing.assert_array_equal(outcome.final_state.u.values, alone.final_state.u.values)
        written = [f.read_bytes() for f in sorted(dirs[i].iterdir())]
        assert written == [f.read_bytes() for f in sorted(alone_dir.iterdir())]
        assert (len(written) > 1) is not isinstance(outcome, ValueError)


@pytest.mark.parametrize(
    "change",
    [
        dict(dt=0.1),
        dict(t_end=5.0),
        dict(record_every=2),
        dict(blowup_threshold=1e8),
        dict(weight=WeightParams(5.0, 2.0)),
        dict(nonlinearity=Nonlinearity.SIGNED),
        dict(grid=Grid(1, 40.0, 128)),
    ],
    ids=["dt", "t_end", "record_every", "threshold", "weight", "nonlinearity", "grid"],
)
def test_ensemble_members_must_share_settings(change):
    base = make_cfg(p=4.0)
    other = replace(make_cfg(p=2.0, dealias=True), **change)
    data = (zero_field(base.grid), zero_field(base.grid))
    assert len(run_ensemble([base, make_cfg(p=2.0, dealias=True)], [data, data])) == 2
    with pytest.raises(ValueError, match="differ only in p and dealias"):
        run_ensemble([base, other], [data, data])


def test_ensemble_needs_one_data_pair_and_directory_per_member(tmp_path):
    cfg = make_cfg(t_end=1.0)
    data = (zero_field(cfg.grid), zero_field(cfg.grid))
    assert run_ensemble([], []) == []
    with pytest.raises(ValueError):
        run_ensemble([cfg, cfg], [data])
    with pytest.raises(ValueError):
        run_ensemble([cfg, cfg], [data, data], snapshot_every=0.5, snapshot_dirs=[tmp_path])
