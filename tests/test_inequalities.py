import math

import numpy as np
import pytest

from dampedwave.exponents import CknParams, ProblemParams, ckn_weighted_source
from dampedwave.inequalities import (
    TestFunction,
    ckn_ratio,
    ckn_ratio_unchecked,
    gaussian_width_family,
    ratio_sweep,
    weighted_norm,
)

GN_CASE = CknParams(p=2, q=2, r=3, alpha=0, beta=0, sigma=0, a=1.0 / 6.0, dim=1)


def gauss_norm(width, r):
    """|| e^{-x^2/width^2} ||_{L^r(R)} in closed form."""
    return (width * math.sqrt(math.pi / r)) ** (1.0 / r)


def test_norm_oracle_plain_gaussian():
    u = TestFunction("gaussian", width=2.0)
    for r in (0.75, 1.0, 2.0, 3.0, 5.0):
        assert weighted_norm(u, 0.0, r) == pytest.approx(gauss_norm(2.0, r), rel=1e-12)


def test_norm_oracle_weighted_gaussian():
    # int |x|^2 e^{-2 x^2 / w^2} dx = sqrt(pi) / (2 a^{3/2}), a = 2/w^2
    w = 2.0
    a = 2.0 / w**2
    want = (math.sqrt(math.pi) / (2.0 * a**1.5)) ** 0.5
    u = TestFunction("gaussian", width=w)
    assert weighted_norm(u, 1.0, 2.0) == pytest.approx(want, rel=1e-12)


def test_norm_oracle_gradient():
    # || d/dx e^{-x^2} ||_2^2 = int 4 x^2 e^{-2x^2} = sqrt(pi/2)
    u = TestFunction("gaussian", width=1.0)
    want = math.sqrt(math.sqrt(math.pi / 2.0))
    assert weighted_norm(u, 0.0, 2.0, gradient=True) == pytest.approx(want, rel=1e-12)


def test_norm_radial_dimensions():
    # || e^{-|x|^2} ||_{L^2(R^N)} = (pi/2)^{N/4}
    for dim in (1, 2, 3):
        u = TestFunction("gaussian", width=1.0)
        want = (math.pi / 2.0) ** (dim / 4.0)
        assert weighted_norm(u, 0.0, 2.0, dim=dim) == pytest.approx(want, rel=1e-11)


def test_norm_rejects_offcenter_radial():
    u = TestFunction("gaussian", width=1.0, center=1.0)
    with pytest.raises(ValueError):
        weighted_norm(u, 0.0, 2.0, dim=2)


def test_norm_rejects_nonintegrable_weight():
    u = TestFunction("gaussian", width=1.0)
    with pytest.raises(ValueError):
        weighted_norm(u, -1.5, 1.0)  # c = -1.5 at the origin


def test_bump_compact_support_and_smoothness():
    u = TestFunction("bump", width=2.0)
    x = np.array([-2.5, -2.0, 0.0, 1.9999, 2.0, 3.0])
    values = u(x)
    assert values[0] == 0.0 and values[-1] == 0.0
    assert values[2] == 1.0  # normalized peak
    assert np.all(np.isfinite(u.derivative(x)))
    assert u.support_radius(2.0) == 2.0


def test_hermite_profile_matches_recurrence():
    u = TestFunction("hermite_gaussian", width=1.0, degree=2)
    x = np.linspace(-3, 3, 31)
    # H_2(s) = 4s^2 - 2
    want = (4 * x**2 - 2) * np.exp(-0.5 * x**2)
    np.testing.assert_allclose(u(x), want, rtol=1e-12)
    # derivative via H_2' = 4 H_1 = 8s
    want_d = (8 * x - x * (4 * x**2 - 2)) * np.exp(-0.5 * x**2)
    np.testing.assert_allclose(u.derivative(x), want_d, rtol=1e-12, atol=1e-12)


def test_polynomial_gaussian_derivative():
    # the product rule of A * P(s) * exp(-c s^2) for both polynomial bases
    x = np.linspace(-4, 4, 41)
    h = 1e-6
    for kind in ("polynomial_gaussian", "hermite_gaussian"):
        for degree in range(6):
            u = TestFunction(kind, width=1.5, degree=degree)
            numeric = (u(x + h) - u(x - h)) / (2 * h)
            np.testing.assert_allclose(
                u.derivative(x), numeric, rtol=1e-7, atol=1e-9, err_msg=f"{kind} {degree}"
            )


def test_plain_gaussian_floats_are_the_closed_form():
    # the ckn-check verb and its acceptance criterion use only this kind
    amplitude, width, center = 1.3, 1.7, 0.2
    u = TestFunction("gaussian", amplitude=amplitude, width=width, center=center)
    x = np.linspace(-10.0, 10.0, 2001)
    s = (x - center) / width
    assert np.array_equal(u(x), amplitude * np.exp(-(s**2)))
    assert np.array_equal(
        u.derivative(x), amplitude * (-2.0 * s) * np.exp(-(s**2)) / width
    )


# ---------------------------------------------------------------------------
# Ratios
# ---------------------------------------------------------------------------

def test_ratio_identity_when_a_zero():
    # a = 0 with gamma = beta forces r = q and the ratio is exactly 1
    c = CknParams(p=2, q=2, r=2, alpha=0.0, beta=0.5, sigma=0.0, a=0.0, dim=1)
    for u in (TestFunction("gaussian"), TestFunction("bump", width=3.0)):
        assert ckn_ratio(u, c) == pytest.approx(1.0, rel=1e-12)


def test_ratio_scale_invariance_balanced():
    u = TestFunction("gaussian", width=1.0)
    base = ckn_ratio(u, GN_CASE)
    for mu in (0.25, 0.5, 2.0, 4.0):
        assert ckn_ratio(u.rescaled(mu), GN_CASE) == pytest.approx(base, rel=1e-6)


def test_ratio_gaussian_regression_value():
    # frozen quadrature baseline for the unweighted interpolation case
    value = ckn_ratio(TestFunction("gaussian", width=1.0), GN_CASE)
    assert value == pytest.approx(0.9001360052544245, rel=1e-10)


def test_ratio_rejects_inadmissible():
    bad = CknParams(p=2, q=2, r=3.2, alpha=0, beta=0, sigma=0, a=1.0 / 6.0, dim=1)
    with pytest.raises(ValueError):
        ckn_ratio(TestFunction("gaussian"), bad)


def test_ratio_zero_denominator():
    c = CknParams(p=2, q=2, r=2, alpha=0.0, beta=0.0, sigma=0.0, a=0.0, dim=1)
    silent = TestFunction("gaussian", amplitude=0.0)
    with pytest.raises(ZeroDivisionError):
        ckn_ratio(silent, c)


def test_sweep_balanced_family_flat():
    report = ratio_sweep(gaussian_width_family(), GN_CASE)
    spread = max(report.ratios) / min(report.ratios) - 1.0
    assert spread < 1e-6
    assert np.isfinite(report.max_ratio)


def test_sweep_unbalanced_drifts_monotonically():
    # bend the balance by shifting alpha by 0.01 while keeping the rest
    unbalanced = CknParams(
        p=2, q=2, r=3, alpha=0.01, beta=0, sigma=0.06, a=1.0 / 6.0, dim=1
    )
    family = gaussian_width_family()
    ratios = [ckn_ratio_unchecked(u, unbalanced) for u in family]
    diffs = np.diff(ratios)
    assert np.all(diffs > 0) or np.all(diffs < 0)
    # and the drift is visible, not roundoff
    assert max(ratios) / min(ratios) > 1.01


def test_sweep_weighted_source_case_finite_and_stable():
    c = ckn_weighted_source(ProblemParams(1, 4.0, 2.0))
    family = gaussian_width_family()
    report = ratio_sweep(family, c)
    assert np.isfinite(report.max_ratio)
    refined = ratio_sweep(family, c, nodes=64, panels=96)
    assert report.max_ratio == pytest.approx(refined.max_ratio, rel=1e-10)


def test_quadrature_refinement_self_consistency():
    # positive profiles stay smooth after |.|^r, so refinement changes
    # nothing at the 1e-10 level
    u = TestFunction("gaussian", width=1.3)
    base = weighted_norm(u, 0.7, 2.5)
    finer = weighted_norm(u, 0.7, 2.5, nodes=64, panels=96)
    assert base == pytest.approx(finer, rel=1e-10)
    # sign-changing profiles keep that accuracy for even integer powers
    # (fractional powers of |.| lose smoothness at the zeros)
    h = TestFunction("hermite_gaussian", width=1.3, degree=4)
    base_h = weighted_norm(h, 0.7, 2.0)
    finer_h = weighted_norm(h, 0.7, 2.0, nodes=64, panels=96)
    assert base_h == pytest.approx(finer_h, rel=1e-10)


def test_weighted_ratio_is_translation_sensitive():
    # weighted norms pin the origin, so translating the profile changes
    # the ratio; only the scaling symmetry may ever be asserted
    c = ckn_weighted_source(ProblemParams(1, 4.0, 2.0))
    centered = ckn_ratio(TestFunction("gaussian", width=1.0), c)
    shifted = ckn_ratio(TestFunction("gaussian", width=1.0, center=2.0), c)
    assert abs(shifted - centered) > 1e-3 * centered


def test_sweep_empty_family_rejected():
    with pytest.raises(ValueError):
        ratio_sweep([], GN_CASE)


def test_test_function_validation():
    with pytest.raises(ValueError):
        TestFunction("sinusoid")
    with pytest.raises(ValueError):
        TestFunction("gaussian", width=0.0)
    with pytest.raises(ValueError):
        TestFunction("gaussian").rescaled(0.0)
