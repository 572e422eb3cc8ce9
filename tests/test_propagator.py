import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedwave.initial_data import gaussian_field, zero_field
from dampedwave.propagator import LinearState, decay_profile, linear_evolve
from dampedwave.spectral import Grid, RealField
from dampedwave.timeseries import decay_fit
from dampedwave.weights import WeightParams


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


def test_state_grid_mismatch_rejected():
    g1 = Grid(1, 10.0, 64)
    g2 = Grid(1, 10.0, 128)
    with pytest.raises(ValueError):
        LinearState(0.0, zero_field(g1), zero_field(g2))
