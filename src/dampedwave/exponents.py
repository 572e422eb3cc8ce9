"""Closed-form exponent algebra for the semilinear damped wave problem.

Everything in this module is scalar arithmetic on the problem parameters
(space dimension ``N``, nonlinearity power ``p``, weight power ``lam``):
the Fujita exponent, the admissible range of ``p``, the minimal weight
power needed by the decay machinery, the interpolation exponents used in
the a priori estimates, the associated time-decay budgets, and the
admissibility test for Caffarelli--Kohn--Nirenberg (CKN) interpolation
inequalities.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Absolute tolerance for the floating-point equality tests in the CKN
# admissibility conditions (the underlying relations are exact algebra).
BALANCE_TOL = 1e-12
WEIGHT_POWER_MARGIN = 0.1  # of suggested_weight_power, relative to the threshold


def fujita_exponent(dim: int) -> float:
    """Critical power 1 + 2/N separating small-data global existence
    (above) from generic blow-up (at or below)."""
    if dim < 1:
        raise ValueError(f"space dimension must be >= 1, got {dim}")
    return 1.0 + 2.0 / dim


def admissible_range(dim: int) -> tuple[float, float]:
    """Range of nonlinearity powers handled by the global theory.

    Returns ``(lower, upper)`` where the lower bound is open (the Fujita
    exponent) and the upper bound is closed: ``inf`` for N <= 2 and
    N/(N-2) for N >= 3.
    """
    if dim < 1:
        raise ValueError(f"space dimension must be >= 1, got {dim}")
    upper = math.inf if dim <= 2 else dim / (dim - 2)
    return fujita_exponent(dim), upper


def _sobolev_q(dim: int, p: float) -> float:
    """Auxiliary Lebesgue exponent max{2, N(p-1)/2} used throughout."""
    return max(2.0, 0.5 * dim * (p - 1.0))


def weight_power_threshold(dim: int, p: float) -> float:
    """Supremum of the inadmissible weight powers for given (N, p).

    A weight power ``lam`` is usable only if strictly greater than this
    value.  The threshold is the maximum of five closed-form quantities;
    the two involving 1/(p - p_F) force ``p`` strictly above the Fujita
    exponent.
    """
    lo, hi = admissible_range(dim)
    if not (lo < p <= hi and math.isfinite(p)):
        raise ValueError(
            f"p={p} outside the admissible range ({lo}, {hi}] for dim={dim}"
        )
    pf = fujita_exponent(dim)
    q = _sobolev_q(dim, p)
    gap = p - pf
    terms = (
        1.0,
        dim / 2.0,
        (2.0 * dim - (dim - 2.0) * p) / (2.0 * p),
        (2.0 * dim - 8.0 / dim - (dim - 2.0) * p) / (4.0 * gap),
        ((q - 1.0) / q) * (dim + 2.0 - (dim - 2.0) * p) / (2.0 * gap),
    )
    return max(terms)


def suggested_weight_power(dim: int, p: float) -> float:
    """Weight power comfortably above the threshold: threshold*(1+WEIGHT_POWER_MARGIN)."""
    return weight_power_threshold(dim, p) * (1.0 + WEIGHT_POWER_MARGIN)


@dataclass(frozen=True)
class ProblemParams:
    """Scalar parameters of one problem instance.

    ``weight_power`` is the exponent of the space-time weight
    (A + |x|^2/(1+t))^weight_power used by the energy functionals.
    """

    dim: int
    p: float
    weight_power: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"p must be > 1 and finite, got {self.p}")
        if not self.weight_power > 0.0:
            raise ValueError(f"weight_power must be > 0, got {self.weight_power}")


@dataclass(frozen=True)
class ExponentSet:
    """All derived exponents for one (N, p, lam) triple.

    theta_gn       interpolation exponent for the L^{p+1} norm between
                   the gradient and the plain L^2 norm
    theta_weighted interpolation exponent for the |x|^{2*lam/(p+1)}-weighted
                   L^{p+1} norm (weighted-gradient route)
    mu             exponent for the auxiliary L^q norm
    theta_lp       exponent of the L^p estimate; for p < 2 it is the
                   weighted, lam-dependent form, for p >= 2 the plain one
    theta_l2p      exponent for the L^{2p} norm
    budget_*       time-decay budgets of the corresponding estimates;
                   the first must be < 0, the other two < -1
    """

    p_fujita: float
    p_max: float
    q: float
    lambda_min: float
    theta_gn: float
    theta_weighted: float
    mu: float
    theta_lp: float
    theta_l2p: float
    budget_weighted: float
    budget_lp: float
    budget_l2p: float


def interpolation_exponents(params: ProblemParams) -> ExponentSet:
    """Populate the full exponent table for valid (N, p, lam).

    Raises ValueError if ``p`` is outside the admissible range, if the
    weight power does not exceed its threshold, if any interpolation
    exponent leaves [0, 1], or if a decay budget violates its sign
    condition.
    """
    dim, p, lam = params.dim, params.p, params.weight_power
    threshold = weight_power_threshold(dim, p)  # also validates p
    if not lam > threshold:
        raise ValueError(
            f"weight power {lam} must exceed the threshold "
            f"{threshold} for dim={dim}, p={p}"
        )
    pf, p_max = admissible_range(dim)
    q = _sobolev_q(dim, p)

    theta_gn = dim * (p - 1.0) / (2.0 * (p + 1.0))
    mu = dim * (0.5 - 1.0 / q)
    theta_weighted = (
        1.0 / (p + 1.0) + 2.0 * lam / (dim * (p + 1.0)) - 1.0 / q
    ) / (0.5 - 1.0 / q + (lam - 1.0) / dim)
    if p < 2.0:
        theta_lp = dim * (2.0 - p) / (2.0 * p * (lam - 1.0))
        budget_lp = 0.5 * lam * p * theta_lp - 0.25 * dim * p * (1.0 - theta_lp)
    else:
        theta_lp = dim * (p - 2.0) / (2.0 * p)
        budget_lp = (
            -(0.25 * dim + 0.5) * p * theta_lp - 0.25 * dim * p * (1.0 - theta_lp)
        )
    theta_l2p = dim * (p - 1.0) / (2.0 * p)

    budget_weighted = lam * (0.5 * (p + 1.0) * theta_weighted - 1.0) - (
        0.25 * dim + 0.5 * mu
    ) * (1.0 - theta_weighted) * (p + 1.0)
    budget_l2p = (
        -(0.25 * dim + 0.5) * p * theta_l2p - 0.25 * dim * p * (1.0 - theta_l2p)
    )

    named = {
        "theta_gn": theta_gn,
        "theta_weighted": theta_weighted,
        "mu": mu,
        "theta_lp": theta_lp,
        "theta_l2p": theta_l2p,
    }
    for name, value in named.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(
                f"{name}={value} leaves [0, 1] for dim={dim}, p={p}, lam={lam}"
            )
    if not budget_weighted < 0.0:
        raise ValueError(
            f"weighted decay budget {budget_weighted} is not negative "
            f"for dim={dim}, p={p}, lam={lam}"
        )
    if not budget_lp < -1.0:
        raise ValueError(f"L^p decay budget {budget_lp} is not < -1")
    if not budget_l2p < -1.0:
        raise ValueError(f"L^2p decay budget {budget_l2p} is not < -1")

    return ExponentSet(
        p_fujita=pf,
        p_max=p_max,
        q=q,
        lambda_min=threshold,
        theta_gn=theta_gn,
        theta_weighted=theta_weighted,
        mu=mu,
        theta_lp=theta_lp,
        theta_l2p=theta_l2p,
        budget_weighted=budget_weighted,
        budget_lp=budget_lp,
        budget_l2p=budget_l2p,
    )


# ---------------------------------------------------------------------------
# CKN admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CknParams:
    """Parameter set of a weighted interpolation inequality

        || |x|^gamma u ||_r  <=  C || |x|^alpha grad u ||_p^a
                                   * || |x|^beta u ||_q^(1-a)

    with gamma = a*sigma + (1-a)*beta.  ``dim`` is the space dimension.
    """

    p: float
    q: float
    r: float
    alpha: float
    beta: float
    sigma: float
    a: float
    dim: int

    @property
    def gamma(self) -> float:
        return self.a * self.sigma + (1.0 - self.a) * self.beta

    def validate(self) -> None:
        """Raise ValueError on a malformed parameter set.

        A failure here means the inequality is not even well posed, which
        is distinct from being inadmissible.
        """
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        for name in ("p", "q", "r", "alpha", "beta", "sigma", "a"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.p < 1.0 or self.q < 1.0:
            raise ValueError(f"p, q must be >= 1, got p={self.p}, q={self.q}")
        if not self.r > 0.0:
            raise ValueError(f"r must be > 0, got {self.r}")
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"a must lie in [0, 1], got {self.a}")
        n = self.dim
        if not 1.0 / self.p + self.alpha / n > 0.0:
            raise ValueError("integrability fails: 1/p + alpha/N <= 0")
        if not 1.0 / self.q + self.beta / n > 0.0:
            raise ValueError("integrability fails: 1/q + beta/N <= 0")
        if not 1.0 / self.r + self.gamma / n > 0.0:
            raise ValueError("integrability fails: 1/r + gamma/N <= 0")


@dataclass(frozen=True)
class CknVerdict:
    admissible: bool
    reason: str

    def __bool__(self) -> bool:
        return self.admissible


def ckn_admissible(c: CknParams) -> CknVerdict:
    """Decide whether the CKN inequality holds for a parameter set.

    The three conditions, tested with absolute tolerance BALANCE_TOL:
    (i) the dimensional balance relating (r, gamma) to the two right-hand
    factors, (ii) alpha - sigma >= 0 when a > 0, and (iii) alpha - sigma
    <= 1 when a > 0 and the gradient factor sits exactly on the balance
    line.  Malformed parameters raise ValueError instead.
    """
    c.validate()
    n = c.dim
    lhs = 1.0 / c.r + c.gamma / n
    grad_side = 1.0 / c.p + (c.alpha - 1.0) / n
    rhs = c.a * grad_side + (1.0 - c.a) * (1.0 / c.q + c.beta / n)
    if abs(lhs - rhs) > BALANCE_TOL:
        return CknVerdict(
            False,
            f"dimensional balance fails: 1/r + gamma/N = {lhs} but the "
            f"right-hand side gives {rhs}",
        )
    if c.a > 0.0:
        if c.alpha - c.sigma < -BALANCE_TOL:
            return CknVerdict(
                False, f"alpha - sigma = {c.alpha - c.sigma} is negative"
            )
        if abs(grad_side - lhs) <= BALANCE_TOL and c.alpha - c.sigma > 1.0 + BALANCE_TOL:
            return CknVerdict(
                False,
                f"alpha - sigma = {c.alpha - c.sigma} exceeds 1 on the "
                "balance line",
            )
    return CknVerdict(True, "admissible")


# ---------------------------------------------------------------------------
# Standard instantiations used by the energy machinery
# ---------------------------------------------------------------------------

def ckn_plain_interpolation(dim: int, r: float) -> CknParams:
    """Unweighted interpolation of L^r between the gradient and L^2
    (the Gagliardo--Nirenberg case alpha = beta = gamma = 0)."""
    a = dim * (0.5 - 1.0 / r)
    return CknParams(p=2.0, q=2.0, r=r, alpha=0.0, beta=0.0, sigma=0.0, a=a, dim=dim)


def ckn_weighted_source(params: ProblemParams) -> CknParams:
    """Weighted L^{p+1} bound used for the far-field part of the source.

    Target norm || |x|^(2*lam/(p+1)) u ||_{p+1}, interpolated between the
    |x|^lam-weighted gradient in L^2 and the plain L^q norm.  sigma is
    recovered from the balance since beta = 0.  The closed form for the
    interpolation exponent is rechecked against the balance here; a
    discrepancy is surfaced as an error rather than silently adjusted.
    """
    exps = interpolation_exponents(params)
    lam, p = params.weight_power, params.p
    a = exps.theta_weighted
    gamma = 2.0 * lam / (p + 1.0)
    sigma = gamma / a
    built = CknParams(
        p=2.0, q=exps.q, r=p + 1.0, alpha=lam, beta=0.0, sigma=sigma,
        a=a, dim=params.dim,
    )
    verdict = ckn_admissible(built)
    if not verdict:
        raise ValueError(
            "closed-form interpolation exponent disagrees with the "
            f"admissibility conditions: {verdict.reason}"
        )
    return built

