import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedwave.diagnostics import spectral_l2
from dampedwave.spectral import (
    Grid,
    RealField,
    boundary_contaminated,
    greens_multipliers,
)


# ---------------------------------------------------------------------------
# Grids and fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=4, half_width=1.0, points=16),
        dict(dim=1, half_width=0.0, points=16),
        dict(dim=1, half_width=1.0, points=15),
        dict(dim=1, half_width=1.0, points=4),
        dict(dim=3, half_width=1.0, points=256),
    ],
)
def test_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        Grid(**kwargs)


def test_grid_frequencies_are_pi_k_over_l():
    g = Grid(dim=1, half_width=math.pi, points=8)
    np.testing.assert_allclose(
        g.axis_freqs(), [0, 1, 2, 3, -4, -3, -2, -1], atol=1e-15
    )


def test_grid_spacing_and_coords():
    g = Grid(dim=1, half_width=2.0, points=8)
    assert g.spacing == 0.5
    assert g.axis_coords()[0] == -2.0
    assert g.axis_coords()[-1] == 1.5  # right endpoint excluded


def test_field_rejects_nonfinite():
    g = Grid(dim=1, half_width=1.0, points=8)
    values = np.zeros(8)
    values[3] = np.nan
    with pytest.raises(ValueError):
        RealField(g, values)


# ---------------------------------------------------------------------------
# Multipliers
# ---------------------------------------------------------------------------

def test_multiplier_zero_frequency_closed_forms():
    for t in (0.1, 1.0, 10.0, 100.0):
        g, gdt = greens_multipliers(t, 0.0)
        assert g == pytest.approx(1 - math.exp(-t), abs=1e-14)
        assert gdt == pytest.approx(math.exp(-t), abs=1e-14)


def test_multiplier_branch_point_value():
    # sinh(x)/x -> 1, so the branch-point value is t*exp(-t/2)
    assert greens_multipliers(2.0, 0.25)[0] == pytest.approx(2 * math.exp(-1), rel=1e-12)


def test_multiplier_high_frequency_value():
    # frozen 40-digit evaluation of e^{-1/2} sin(sqrt(3)/2)/(sqrt(3)/2)
    assert greens_multipliers(1.0, 1.0)[0] == pytest.approx(
        0.53350719511469298276, rel=1e-14
    )


def test_multiplier_dt_high_frequency_value():
    # frozen 40-digit evaluation of e^{-1/2}(cos(sqrt 2) - sin(sqrt 2)/(2 sqrt 2))
    assert greens_multipliers(1.0, 2.25)[1] == pytest.approx(
        -0.11723285675258601093, rel=1e-13
    )


def test_multiplier_deep_decay_log_space():
    # sinh branch far into the decay regime, frozen 40-digit value;
    # a naive exp(-t/2)*sinh(t*omega) evaluation would lose it entirely
    assert greens_multipliers(100.0, 0.2499999999)[0] == pytest.approx(
        1.9287501694222418499e-20, rel=1e-9
    )


def test_multiplier_initial_conditions():
    xi_sq = np.concatenate([np.linspace(0, 5, 100), [0.25, 0.25 + 1e-12]])
    g, gdt = greens_multipliers(0.0, xi_sq)
    np.testing.assert_array_equal(g, 0.0)
    np.testing.assert_allclose(gdt, 1.0, atol=1e-15)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0, 100.0])
def test_multiplier_branch_continuity(t):
    center = np.array(greens_multipliers(t, 0.25))
    for xi_sq in (0.25 + 1e-9, 0.25 - 1e-9):
        assert np.all(np.abs(np.array(greens_multipliers(t, xi_sq)) - center) < 1e-7)


def test_multiplier_series_matches_exact_across_switch():
    # compare the series branch against the closed forms just outside
    # the switching window; the closed forms themselves carry a few
    # ulps of cancellation there, hence the 1e-9 tolerance
    for t in (0.5, 3.0, 50.0):
        for sign in (+1, -1):
            just_out = 0.25 - sign * 1.0001e-8
            just_in = 0.25 - sign * 0.9999e-8
            assert greens_multipliers(t, just_in)[0] == pytest.approx(
                greens_multipliers(t, just_out)[0], rel=1e-9
            )


@settings(deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=500.0),
    xi_sq=st.floats(min_value=0.25, max_value=1e4),
)
def test_multiplier_high_frequency_envelope(t, xi_sq):
    # past the branch point |sin(t nu)/nu| <= t (up to roundoff)
    value = greens_multipliers(t, xi_sq)[0]
    assert abs(value) <= t * math.exp(-0.5 * t) * (1 + 1e-12) + 1e-300


def test_multiplier_no_overflow_large_t():
    xi_sq = np.linspace(0.0, 100.0, 10001)
    for t in (100.0, 250.0, 500.0):
        g, gdt = greens_multipliers(t, xi_sq)
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(gdt))
        assert np.max(np.abs(g)) <= 1.0 + 1e-12


def test_multiplier_rejects_negative_time():
    with pytest.raises(ValueError):
        greens_multipliers(-1.0, 0.1)


def test_multiplier_alone_does_not_compose():
    # only the full (u, u_t) state map forms a one-parameter group; the
    # scalar multiplier by itself satisfies no semigroup law
    xi_sq = 0.04
    product = greens_multipliers(1.0, xi_sq)[0] * greens_multipliers(2.0, xi_sq)[0]
    direct = greens_multipliers(3.0, xi_sq)[0]
    assert abs(product - direct) > 1e-3


# ---------------------------------------------------------------------------
# Transform conventions the diagnostics rely on
# ---------------------------------------------------------------------------

def test_shift_theorem():
    # sign and scale of Grid.axis_freqs match numpy's forward transform
    g = Grid(dim=1, half_width=10.0, points=256)
    x = g.axis_coords()
    shift = 1.25
    plain = np.fft.fftn(np.exp(-(x**2)))
    shifted = np.fft.fftn(np.exp(-((x - shift) ** 2)))
    modulated = plain * np.exp(-1j * g.axis_freqs() * shift)
    np.testing.assert_allclose(shifted, modulated, atol=1e-10)


@pytest.mark.parametrize("dim, points", [(1, 128), (2, 32), (3, 16)], ids=["1d", "2d", "3d"])
def test_parseval_after_multiplier(dim, points):
    # spectral_l2 of unscaled half-spectrum coefficients equals the
    # h-weighted physical L^2 norm of their inverse transform
    g = Grid(dim=dim, half_width=5.0, points=points)
    rng = np.random.default_rng(3)
    coeffs = np.fft.rfftn(rng.standard_normal(g.shape), axes=g.axes) * greens_multipliers(
        1.0, g.freq_sq()
    )[0]
    physical = RealField(g, np.fft.irfftn(coeffs, s=g.shape, axes=g.axes))
    assert physical.l2_norm() == pytest.approx(spectral_l2(coeffs, g), rel=1e-12)


GRID_ARRAYS = (
    Grid.freq_sq,
    Grid.derivative_freqs,
    Grid.dealias_mask,
    Grid.radius_sq,
    Grid.boundary_mask,
)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_arrays_built_once_and_read_only(dim):
    g = Grid(dim=dim, half_width=2.0, points=8)
    for method in GRID_ARRAYS:
        array = method(g)
        assert method(g) is array
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = array[(0,) * array.ndim]
    # a filled cache is invisible to equality and hashing, and pickling
    # (the sweep pool pickles setups) drops it
    fresh = Grid(dim=dim, half_width=2.0, points=8)
    assert g == fresh and hash(g) == hash(fresh)
    back = pickle.loads(pickle.dumps(g))
    assert back == fresh and hash(back) == hash(fresh)
    assert "_arrays" not in back.__dict__
    for method in GRID_ARRAYS:
        np.testing.assert_array_equal(method(back), method(g))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_half_spectrum_layout_matches_full_layout(dim):
    # freq_sq and the 2/3 dealias mask on the real-FFT layout are the
    # full-layout arrays cut to the first M/2+1 entries of the last axis
    g = Grid(dim=dim, half_width=3.0, points=12)
    assert np.fft.rfftn(np.zeros(g.shape), axes=g.axes).shape == g.half_shape
    k = np.fft.fftfreq(g.points) * g.points
    xi_sq = g.axis_freqs() ** 2
    full_mask = np.ones(g.shape, dtype=bool)
    full_xi_sq = np.zeros(g.shape)
    for axis in range(dim):
        full_mask &= g.along(np.abs(k) <= g.points / 3.0, axis)
        full_xi_sq = full_xi_sq + g.along(xi_sq, axis)
    half = (..., slice(0, g.points // 2 + 1))
    np.testing.assert_array_equal(g.dealias_mask(), full_mask[half])
    np.testing.assert_array_equal(g.freq_sq(), full_xi_sq[half])


def test_boundary_contamination_flag():
    g = Grid(dim=1, half_width=1.0, points=16)
    quiet = np.zeros(g.shape)
    quiet[8] = 1.0
    assert not boundary_contaminated(quiet, g)
    loud = quiet.copy()
    loud[0] = 1e-6
    assert boundary_contaminated(loud, g)
