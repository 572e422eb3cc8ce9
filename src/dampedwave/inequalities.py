"""Numerical verification of weighted interpolation inequalities.

Ratios of the form

    || |x|^gamma u ||_r  /  ( || |x|^alpha grad u ||_p^a
                              * || |x|^beta u ||_q^(1-a) )

are evaluated on analytic test-function families by quadrature that is
independent of the solver grid: dyadic Gauss-Legendre panels graded
toward the origin, which handles the |x|^c weights (possibly singular at
0 when c < 0) together with the rapid decay of the test functions.  For
admissible (balanced) parameter sets the ratio is scale invariant, so a
width sweep probes the inequality constant; deliberately unbalanced
parameters make the ratio drift across the family, which is the
empirical face of the necessity direction (demonstrated, not proven).

Dimensions 2 and 3 are supported for radial (center = 0) test functions
through the surface-measure reduction; general centers are available in
dimension 1 only.  Weighted ratios are deliberately *not* translation
invariant, so the suite asserts scaling behaviour only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import hermite as _hermite

from .exponents import CknParams, ckn_admissible

KINDS = ("gaussian", "bump", "polynomial_gaussian", "hermite_gaussian")


@dataclass(frozen=True)
class TestFunction:
    """Smooth rapidly decaying profile with analytic derivative."""

    __test__ = False  # not a pytest collectable despite the name

    kind: str
    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0
    degree: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown test-function kind {self.kind!r}")
        if not self.width > 0.0:
            raise ValueError(f"width must be positive, got {self.width}")
        if self.degree < 0:
            raise ValueError(f"degree must be nonnegative, got {self.degree}")

    def __call__(self, x) -> np.ndarray:
        s = (np.asarray(x, dtype=float) - self.center) / self.width
        if self.kind == "gaussian":
            return self.amplitude * np.exp(-(s**2))
        if self.kind == "polynomial_gaussian":
            return self.amplitude * s**self.degree * np.exp(-(s**2))
        if self.kind == "hermite_gaussian":
            coeffs = np.zeros(self.degree + 1)
            coeffs[self.degree] = 1.0
            return self.amplitude * _hermite.hermval(s, coeffs) * np.exp(-0.5 * s**2)
        # bump: compactly supported on |s| < 1, normalized to amplitude at 0
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - si**2))
        return out

    def derivative(self, x) -> np.ndarray:
        s = (np.asarray(x, dtype=float) - self.center) / self.width
        if self.kind == "gaussian":
            return self.amplitude * (-2.0 * s) * np.exp(-(s**2)) / self.width
        if self.kind == "polynomial_gaussian":
            d = self.degree
            poly = -2.0 * s ** (d + 1)
            if d > 0:
                poly = poly + d * s ** (d - 1)
            return self.amplitude * poly * np.exp(-(s**2)) / self.width
        if self.kind == "hermite_gaussian":
            d = self.degree
            coeffs = np.zeros(d + 1)
            coeffs[d] = 1.0
            h_d = _hermite.hermval(s, coeffs)
            if d > 0:
                lower = np.zeros(d)
                lower[d - 1] = 1.0
                h_prime = 2.0 * d * _hermite.hermval(s, lower)
            else:
                h_prime = np.zeros_like(s)
            return (
                self.amplitude
                * (h_prime - s * h_d)
                * np.exp(-0.5 * s**2)
                / self.width
            )
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = (
            self.amplitude
            * np.exp(1.0 - 1.0 / (1.0 - si**2))
            * (-2.0 * si / (1.0 - si**2) ** 2)
            / self.width
        )
        return out

    def support_radius(self, power: float) -> float:
        """Radius beyond which |u|^power is negligible (< ~1e-40 of its
        peak), used as the outer quadrature cutoff."""
        if self.kind == "bump":
            return abs(self.center) + self.width
        slack = math.sqrt(self.degree + 1.0)
        if self.kind == "hermite_gaussian":
            reach = math.sqrt(2.0 * 120.0 / power)
        else:
            reach = math.sqrt(120.0 / power)
        return abs(self.center) + self.width * (reach + 2.0 * slack)

    def rescaled(self, mu: float) -> "TestFunction":
        """Profile x -> u(mu * x)."""
        if not mu > 0.0:
            raise ValueError(f"scale must be positive, got {mu}")
        return replace(self, width=self.width / mu, center=self.center / mu)


@functools.lru_cache(maxsize=None)
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _power_integral(fn, c: float, cutoff: float, nodes: int, panels: int) -> float:
    """integral_0^cutoff s^c * fn(s) ds on dyadic panels graded toward 0.

    ``fn`` must be smooth on (0, cutoff]; the stub below the innermost
    panel is closed analytically with fn frozen at 0, which needs
    c > -1.
    """
    if not c > -1.0:
        raise ValueError(f"power weight exponent {c} is not integrable at 0")
    x, w = _gauss_nodes(nodes)
    uppers = cutoff * 2.0 ** (-np.arange(panels, dtype=float))
    lowers = 0.5 * uppers
    mids = 0.5 * (uppers + lowers)
    half = 0.5 * (uppers - lowers)
    s = mids[:, None] + half[:, None] * x[None, :]
    values = s**c * fn(s)
    total = float(np.sum(half[:, None] * w[None, :] * values))
    # analytic closure of the stub [0, cutoff*2^-panels]
    delta = lowers[-1]
    total += float(fn(np.array([0.0]))[0]) * delta ** (c + 1.0) / (c + 1.0)
    return total


_SPHERE_SURFACE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def weighted_norm(
    u: TestFunction,
    weight_exp: float,
    r: float,
    dim: int = 1,
    gradient: bool = False,
    nodes: int = 32,
    panels: int = 64,
) -> float:
    """|| |x|^weight_exp v ||_{L^r(R^dim)} with v = u or its gradient.

    Dimension 1 integrates both half-lines (general centers allowed);
    dimensions 2 and 3 use the radial reduction and require center = 0,
    where the gradient magnitude is |u'(|x|)|.
    """
    if dim not in _SPHERE_SURFACE:
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if not r > 0.0:
        raise ValueError(f"Lebesgue exponent must be positive, got {r}")
    if dim > 1 and u.center != 0.0:
        raise ValueError("dimensions 2 and 3 need radial profiles (center = 0)")
    profile = u.derivative if gradient else u
    c = weight_exp * r + (dim - 1)
    cutoff = u.support_radius(r)

    if dim == 1:
        def fn(s):
            return np.abs(profile(s)) ** r + np.abs(profile(-s)) ** r
        integral = _power_integral(fn, c, cutoff, nodes, panels)
    else:
        def fn(s):
            return np.abs(profile(s)) ** r
        integral = _SPHERE_SURFACE[dim] * _power_integral(fn, c, cutoff, nodes, panels)
    return integral ** (1.0 / r)


def ckn_ratio_unchecked(
    u: TestFunction, c: CknParams, nodes: int = 32, panels: int = 64
) -> float:
    """Raw left/right ratio without the admissibility gate.

    Exists so that the necessity demonstration can evaluate deliberately
    unbalanced parameter sets; use :func:`ckn_ratio` everywhere else.
    """
    numerator = weighted_norm(u, c.gamma, c.r, c.dim, nodes=nodes, panels=panels)
    denominator = 1.0
    if c.a > 0.0:
        grad = weighted_norm(
            u, c.alpha, c.p, c.dim, gradient=True, nodes=nodes, panels=panels
        )
        if grad == 0.0:
            raise ZeroDivisionError("gradient factor vanishes on this profile")
        denominator *= grad**c.a
    if c.a < 1.0:
        plain = weighted_norm(u, c.beta, c.q, c.dim, nodes=nodes, panels=panels)
        if plain == 0.0:
            raise ZeroDivisionError("plain factor vanishes on this profile")
        denominator *= plain ** (1.0 - c.a)
    return numerator / denominator


def ckn_ratio(u: TestFunction, c: CknParams, nodes: int = 32, panels: int = 64) -> float:
    """Weighted-interpolation ratio for an admissible parameter set."""
    verdict = ckn_admissible(c)
    if not verdict:
        raise ValueError(f"inadmissible parameters: {verdict.reason}")
    return ckn_ratio_unchecked(u, c, nodes=nodes, panels=panels)


@dataclass
class SweepReport:
    ratios: list[float]
    max_ratio: float
    argmax: TestFunction


def ratio_sweep(
    family: list[TestFunction],
    c: CknParams,
    nodes: int = 32,
    panels: int = 64,
) -> SweepReport:
    """Evaluate the ratio over a family; the maximum is an empirical
    lower bound for the best constant and must stay finite."""
    if not family:
        raise ValueError("test-function family is empty")
    ratios = [ckn_ratio(u, c, nodes=nodes, panels=panels) for u in family]
    worst = int(np.argmax(ratios))
    return SweepReport(ratios=ratios, max_ratio=float(ratios[worst]), argmax=family[worst])


def gaussian_width_family(
    log2_min: int = -5, log2_max: int = 5, per_octave: int = 1
) -> list[TestFunction]:
    exponents = np.linspace(
        log2_min, log2_max, (log2_max - log2_min) * per_octave + 1
    )
    return [TestFunction("gaussian", width=float(2.0**e)) for e in exponents]
