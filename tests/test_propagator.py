import math
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dampedwave
from dampedwave import diagnostics, propagator
from dampedwave.diagnostics import measure
from dampedwave.initial_data import gaussian_field, zero_field
from dampedwave.propagator import LinearState, decay_profile, evolve_coeffs, linear_evolve
from dampedwave.spectral import Grid, RealField, greens_multipliers
from dampedwave.timeseries import COLUMNS, TimeSeries, decay_fit
from dampedwave.weights import Scratch, WeightParams, weight_value

SRC = Path(dampedwave.__file__).resolve().parents[1]


def random_state(grid, seed=0):
    rng = np.random.default_rng(seed)
    return LinearState(
        0.0,
        RealField(grid, rng.standard_normal(grid.shape)),
        RealField(grid, rng.standard_normal(grid.shape)),
    )


def test_zero_step_is_identity():
    g = Grid(1, 10.0, 64)
    s = random_state(g)
    out = linear_evolve(s, 0.0)
    np.testing.assert_allclose(out.u.values, s.u.values, atol=1e-14)
    np.testing.assert_allclose(out.ut.values, s.ut.values, atol=1e-14)
    assert out.t == 0.0


def test_constant_state_matches_scalar_ode():
    # spatially constant data solve v'' + v' = 0:
    # v(t) = c + d(1 - e^-t), v'(t) = d e^-t
    g = Grid(1, 5.0, 16)
    c, d = 1.3, -0.7
    s = LinearState(0.0, RealField(g, np.full(g.shape, c)), RealField(g, np.full(g.shape, d)))
    out = linear_evolve(s, 2.5)
    want_u = c + d * (1 - math.exp(-2.5))
    want_ut = d * math.exp(-2.5)
    np.testing.assert_allclose(out.u.values, want_u, rtol=1e-14)
    np.testing.assert_allclose(out.ut.values, want_ut, rtol=1e-14)


def test_group_property():
    g = Grid(1, 50.0, 256)
    s = random_state(g, seed=5)
    for t1, t2 in ((0.5, 5.0), (5.0, 50.0), (0.5, 50.0)):
        two_steps = linear_evolve(linear_evolve(s, t1), t2)
        one_step = linear_evolve(s, t1 + t2)
        num = np.sqrt(np.sum((two_steps.u.values - one_step.u.values) ** 2))
        den = np.sqrt(np.sum(one_step.u.values**2))
        assert num / den < 1e-10


LAG = st.floats(min_value=0.0, max_value=50.0, exclude_min=True, allow_nan=False)


@pytest.mark.parametrize("grid", [Grid(1, 50.0, 256), Grid(2, 20.0, 32)], ids=["1d", "2d"])
@settings(max_examples=40, deadline=None)
@given(dt1=LAG, dt2=LAG)
def test_group_property_random_lags(grid, dt1, dt2):
    # random data carries content in the Nyquist row of the non-last axis
    s = random_state(grid, seed=7)
    two_steps = linear_evolve(linear_evolve(s, dt1), dt2)
    one_step = linear_evolve(s, dt1 + dt2)
    for got, want in ((two_steps.u, one_step.u), (two_steps.ut, one_step.ut)):
        num = np.sqrt(np.sum((got.values - want.values) ** 2))
        den = np.sqrt(np.sum(want.values**2))
        assert num <= 1e-10 * den


def test_energy_dissipation():
    g = Grid(1, 30.0, 256)
    s = LinearState(
        0.0, gaussian_field(g, 1.0, 2.0), gaussian_field(g, -0.5, 3.0)
    )

    # Parseval on the half spectrum: interior columns stand for two modes
    parseval = np.full(g.half_shape, 2.0)
    parseval[..., 0] = parseval[..., -1] = 1.0

    def energy(state):
        coeffs = np.fft.rfftn(state.u.values, axes=g.axes)
        ut = np.fft.rfftn(state.ut.values, axes=g.axes)
        xi_sq = g.freq_sq()
        return float(np.sum(parseval * (np.abs(ut) ** 2 + xi_sq * np.abs(coeffs) ** 2)))

    previous = energy(s)
    for dt in (0.1, 0.4, 1.0, 5.0, 20.0):
        s = linear_evolve(s, dt)
        current = energy(s)
        assert current <= previous * (1 + 1e-12)
        previous = current


def test_mean_evolution_exact():
    g = Grid(1, 10.0, 64)
    s = random_state(g, seed=9)
    m0 = s.u.mean()
    m1 = s.ut.mean()
    for t in (0.5, 3.0, 12.0):
        out = linear_evolve(s, t)
        want = m0 + (1 - math.exp(-t)) * m1
        assert out.u.mean() == pytest.approx(want, abs=1e-13)


def test_grid_refinement_agreement():
    # the same smooth data on a 4x finer grid gives the same L2 norm
    t = 10.0
    norms = []
    for points in (512, 2048):
        g = Grid(1, 40.0, points)
        s = LinearState(0.0, gaussian_field(g, 1.0, 2.0), zero_field(g))
        norms.append(linear_evolve(s, t).u.l2_norm())
    assert norms[0] == pytest.approx(norms[1], rel=1e-8)


def test_decay_profile_zero_data():
    g = Grid(1, 10.0, 64)
    series = decay_profile((zero_field(g), zero_field(g)), [0.0, 1.0, 2.0])
    assert np.all(series.column("l2_u") == 0.0)
    assert np.all(series.column("weighted_energy") == 0.0)


def test_decay_profile_rates_quick():
    # coarse version of the rate check; the acceptance suite runs the
    # full-resolution one
    g = Grid(1, 120.0, 512)
    times = np.unique(np.concatenate([[0.0], np.geomspace(1.0, 60.0, 30)]))
    series = decay_profile(
        (gaussian_field(g, 1.0, 2.0), zero_field(g)),
        times,
        weight=WeightParams(4.0, 2.0),
    )
    slope, _ = decay_fit(series, "l2_u", 6.0)
    assert slope == pytest.approx(-0.25, abs=0.06)


def test_decay_profile_rejects_unsorted_times():
    g = Grid(1, 10.0, 64)
    data = (zero_field(g), zero_field(g))
    with pytest.raises(ValueError):
        decay_profile(data, [1.0, 0.5])


def test_decay_profile_boundary_warning():
    g = Grid(1, 8.0, 64)
    data = (gaussian_field(g, 1.0, 2.0), zero_field(g))
    with pytest.warns(UserWarning, match="boundary"):
        decay_profile(data, [0.0, 20.0])


def test_decay_profile_boundary_warning_with_a_job_thread():
    # 96^2 points do not fit twice in a record block, so a job thread
    # measures; the warning is still raised on the caller's thread, at
    # the caller's line
    g = Grid(2, 8.0, 96)
    assert diagnostics.block_rows(g.size) == 0
    data = (gaussian_field(g, 1.0, 2.0), zero_field(g))
    with pytest.warns(UserWarning, match="boundary") as caught:
        series = decay_profile(data, [0.0, 10.0, 20.0])
    assert len(series) == 3 and len(caught) == 1
    assert caught[0].filename == __file__


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_decay_profile_rejects_non_finite_times(value, monkeypatch):
    g = Grid(2, 30.0, 96)
    data = (gaussian_field(g, 1.0, 4.0), zero_field(g))
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    monkeypatch.setattr(Grid, "forward", lambda *args, **kwargs: pytest.fail("transformed"))
    with pytest.raises(ValueError, match="finite"):
        decay_profile(data, [0.0, value])
    with pytest.raises(ValueError, match="finite"):
        decay_profile(data, [value])
    assert started == []
    with pytest.raises(ValueError, match="finite"):
        greens_multipliers(value, 1.0)


def _lagging(function, seconds=0.002):
    """``function`` called after a sleep, so a job thread running it
    lags behind the caller before it reads its arguments."""

    def lagging(*args, **kwargs):
        time.sleep(seconds)
        return function(*args, **kwargs)

    return lagging


@pytest.mark.filterwarnings("ignore:boundary shell contaminated")
@pytest.mark.parametrize("grid", [Grid(2, 30.0, 96), Grid(3, 16.0, 24)], ids=["2d", "3d"])
def test_decay_profile_thread_jobs_equal_inline_jobs(grid, monkeypatch):
    # the grid does not fit twice in a record block, so each time is
    # measured by a job on the thread while the caller evolves the next;
    # with the jobs lagging and threads switching as often as they can,
    # the rows equal those of measuring every time inline
    assert diagnostics.block_rows(grid.size) == 0
    data = (gaussian_field(grid, 1.0, 3.0), gaussian_field(grid, 0.4, 2.5))
    times = [0.0, 0.1, 0.35, 0.5, 1.0, 1.7, 2.0, 3.5, 5.0]
    weight = WeightParams(3.0, 1.5)
    with monkeypatch.context() as inline:
        inline.setattr(diagnostics, "RECORD_BLOCK_POINTS", 2 * grid.size)
        expected = decay_profile(data, times, weight)

    threads = []

    def recording_measure(*args):
        threads.append(threading.current_thread())
        return measure(*args)

    monkeypatch.setattr(propagator, "measure", _lagging(recording_measure))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = decay_profile(data, times, weight)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == len(times)
    assert threading.main_thread() not in threads and len(set(threads)) == 1
    assert got.rows == expected.rows


def test_decay_profile_errors_propagate_and_stop_the_thread(monkeypatch):
    # the third measurement raises on the job thread; decay_profile
    # raises it on the caller's thread and leaves no thread behind
    g = Grid(2, 30.0, 96)
    data = (gaussian_field(g, 1.0, 3.0), zero_field(g))
    threads = []

    def failing_measure(*args):
        threads.append(threading.active_count())
        if len(threads) == 3:
            raise OSError("measure failed")
        return measure(*args)

    monkeypatch.setattr(propagator, "measure", _lagging(failing_measure))
    before = threading.active_count()
    with pytest.raises(OSError, match="measure failed"):
        decay_profile(data, np.linspace(0.0, 5.0, 8))
    assert threads == [before + 1] * 3
    assert threading.active_count() == before


def test_state_grid_mismatch_rejected():
    g1 = Grid(1, 10.0, 64)
    g2 = Grid(1, 10.0, 128)
    with pytest.raises(ValueError):
        LinearState(0.0, zero_field(g1), zero_field(g2))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_decay_profile_matches_full_grid_reference(dim):
    # the reference evaluates the multipliers and the weight at every
    # grid point and allocates fresh arrays for every time
    g = Grid(dim, 30.0, 48)
    u0, u1 = gaussian_field(g, 1.0, 4.0), gaussian_field(g, 0.3, 5.0)
    w = WeightParams(3.0, 1.5)
    times = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    u_coeffs, ut_coeffs = g.forward(u0.values), g.forward(u1.values)
    expected = TimeSeries()
    for t in times:
        g_t, gdt_t = greens_multipliers(t, g.freq_sq())
        u_t, ut_t = evolve_coeffs(u_coeffs, ut_coeffs, (g_t, gdt_t, g.freq_sq() * g_t))
        peak = np.max(np.abs(g.inverse(u_t)))
        psi = weight_value(t, g.radius_sq(), w)
        (record,) = measure(g, t, u_t, ut_t, psi, peak, Scratch.for_grid(g))
        expected.append(record)
    got = decay_profile((u0, u1), times, weight=w)
    for column in COLUMNS:
        assert np.array_equal(got.column(column), expected.column(column)), column


def _run_python(code: str) -> str:
    env = {"PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return proc.stdout


def test_linear_decay_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma lazily, about 1.7 MB of resident memory;
    # the radial levels are built without it
    config = tmp_path / "run.cfg"
    config.write_text(
        "problem.dim = 2\nproblem.p = 3.0\nweight.lambda = 1.5\nweight.A = 3.0\n"
        "grid.L = 80.0\ngrid.M = 64\nsolver.dt = 0.1\nsolver.t_end = 5.0\n"
        "solver.record_every = 2\n"
        "data.amplitude = 1.0\ndata.width = 3.0\nfit.t_min = 0.5\n"
    )
    out = _run_python(
        "import sys\n"
        "from dampedwave.cli import main\n"
        f"assert main(['linear-decay', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == "False"


FAULT_PROBE = """
import resource
import numpy as np
from dampedwave.initial_data import gaussian_field
from dampedwave.propagator import decay_profile
from dampedwave.spectral import Grid
from dampedwave.weights import WeightParams

grid = Grid(2, 200.0, 256)
data = (gaussian_field(grid, 1.0, 3.25), gaussian_field(grid, 0.5, 3.25))
times = np.linspace(0.0, 20.0, 20)
weight = WeightParams(3.0, 1.5)
decay_profile(data, times, weight)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
decay_profile(data, times, weight)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults as Linux counts them")
def test_decay_profile_reuses_its_arrays():
    # Minor page faults of a second call, in a fresh interpreter so the
    # heap's state is the same every time; the count repeats exactly
    # from run to run.  Measured on Linux, Python 3.11, numpy 2.4: 18,241
    # when every time allocated its own temporaries (freed and re-faulted
    # as glibc trims the heap), 5,347 with the arrays allocated once but
    # np.take's default mode staging every gather in a copy of ``out``,
    # and 741 with no full-size allocation per time.
    assert int(_run_python(FAULT_PROBE)) < 3_000
