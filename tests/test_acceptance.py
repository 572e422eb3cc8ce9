"""Acceptance suite.

One test per shipped criterion; each prints a single
``ACCEPTANCE <n> PASS ...`` line with the measured quantities (run
pytest with ``-s`` or read the captured output).  Expensive runs are
shared through module-scoped fixtures.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dampedwave.exponents import ProblemParams, ckn_weighted_source, weight_power_threshold
from dampedwave.inequalities import TestFunction, ckn_ratio, gaussian_width_family, ratio_sweep
from dampedwave.initial_data import gaussian_field, modulated_gaussian_field, zero_field
from dampedwave.propagator import LinearState, decay_profile, linear_evolve
from dampedwave.solver import RunStatus, SolverConfig, run
from dampedwave.spectral import Grid, RealField, greens_multipliers
from dampedwave.timeseries import decay_fit
from dampedwave.weights import (
    WeightParams,
    decay_norm,
    energy_audit,
    residual_audit,
)

PROBLEM = ProblemParams(1, 4.0, 2.0)
WEIGHT = WeightParams(4.0, 2.0)


def announce(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} {verdict} {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def global_run_fine(tmp_path_factory):
    """dim 1, p = 4, amplitude 0.01 run to T = 200 with dense snapshots."""
    grid = Grid(1, 160.0, 1024)
    cfg = SolverConfig(
        p=PROBLEM.p, grid=grid, weight=WEIGHT, dt=0.05, t_end=200.0, record_every=5
    )
    data = (gaussian_field(grid, 0.01, 2.0), zero_field(grid))
    snapshot_dir = tmp_path_factory.mktemp("global_run_fine")
    return run(cfg, data, snapshot_every=0.25, snapshot_dir=snapshot_dir)


@pytest.fixture(scope="module")
def global_run_doubled():
    grid = Grid(1, 160.0, 2048)
    cfg = SolverConfig(
        p=PROBLEM.p, grid=grid, weight=WEIGHT, dt=0.05, t_end=200.0, record_every=5
    )
    data = (gaussian_field(grid, 0.01, 2.0), zero_field(grid))
    return run(cfg, data)


def test_criterion_1_weight_inequality():
    start = time.perf_counter()
    audit = residual_audit(samples=1_000_000, seed=0)
    elapsed = time.perf_counter() - start
    ok = audit.min_residual >= -1e-12 and audit.equality_gap < 1e-12 and elapsed < 10.0
    announce(
        1,
        ok,
        f"min residual {audit.min_residual:.3e} over {audit.samples} samples, "
        f"equality gap {audit.equality_gap:.1e}, {elapsed:.2f}s",
    )


def test_criterion_2_multipliers():
    start = time.perf_counter()
    worst_zero = 0.0
    for t in (0.1, 1.0, 10.0, 100.0):
        g, gdt = greens_multipliers(t, 0.0)
        worst_zero = max(worst_zero, abs(g - (1 - np.exp(-t))), abs(gdt - np.exp(-t)))
    worst_branch = 0.0
    for t in (0.1, 1.0, 10.0, 100.0):
        center = np.array(greens_multipliers(t, 0.25))
        for xi_sq in (0.25 + 1e-9, 0.25 - 1e-9):
            offset = np.abs(np.array(greens_multipliers(t, xi_sq)) - center)
            worst_branch = max(worst_branch, float(np.max(offset)))
    xi_sq = np.linspace(0.0, 400.0, 100_001)
    finite = all(np.all(np.isfinite(m)) for m in greens_multipliers(500.0, xi_sq))
    elapsed = time.perf_counter() - start
    ok = worst_zero < 1e-14 and worst_branch < 1e-7 and finite and elapsed < 1.0
    announce(
        2,
        ok,
        f"zero-frequency error {worst_zero:.1e}, branch gap {worst_branch:.1e}, "
        f"finite at t=500: {finite}, {elapsed:.2f}s",
    )


def test_criterion_3_group_property():
    start = time.perf_counter()
    grid = Grid(1, 50.0, 512)
    rng = np.random.default_rng(42)
    state = LinearState(
        0.0,
        RealField(grid, rng.standard_normal(grid.shape)),
        RealField(grid, rng.standard_normal(grid.shape)),
    )
    worst = 0.0
    for t1 in (0.5, 5.0, 50.0):
        for t2 in (0.5, 5.0, 50.0):
            composed = linear_evolve(linear_evolve(state, t1), t2)
            direct = linear_evolve(state, t1 + t2)
            num = np.sqrt(np.sum((composed.u.values - direct.u.values) ** 2))
            den = np.sqrt(np.sum(direct.u.values**2))
            worst = max(worst, num / den)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    announce(3, ok, f"worst composition error {worst:.2e} in L2, {elapsed:.2f}s")


def test_criterion_4_decay_rates():
    start = time.perf_counter()
    grid1 = Grid(1, 200.0, 1024)
    times1 = np.arange(0.0, 100.0 + 0.25, 0.5)
    series1 = decay_profile(
        (gaussian_field(grid1, 1.0, 2.0), zero_field(grid1)), times1, weight=WEIGHT
    )
    grid2 = Grid(2, 200.0, 256)
    times2 = np.arange(0.0, 100.0 + 0.5, 1.0)
    series2 = decay_profile(
        (gaussian_field(grid2, 1.0, 3.25), zero_field(grid2)),
        times2,
        weight=WeightParams(3.0, 1.5),
    )
    checks = []
    for column, want, tol in (
        ("l2_u", -0.25, 0.05),
        ("l2_grad_u", -0.75, 0.05),
        ("l2_ut", -1.25, 0.05),
    ):
        slope, _ = decay_fit(series1, column, 10.0)
        checks.append((f"dim1 {column}", slope, want, tol))
    for column, want, tol in (
        ("l2_u", -0.5, 0.08),
        ("l2_grad_u", -1.0, 0.08),
        ("l2_ut", -1.5, 0.08),
    ):
        slope, _ = decay_fit(series2, column, 10.0)
        checks.append((f"dim2 {column}", slope, want, tol))
    elapsed = time.perf_counter() - start
    ok = all(abs(slope - want) <= tol for _, slope, want, tol in checks) and elapsed < 120.0
    detail = ", ".join(f"{name} {slope:+.3f} (want {want:+.2f})" for name, slope, want, _ in checks)
    announce(4, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_5_linear_energy_monotone():
    start = time.perf_counter()
    grid = Grid(1, 80.0, 512)
    datasets = [
        ((gaussian_field(grid, 1.0, 2.0), gaussian_field(grid, 0.5, 3.0)), WeightParams(4.0, 2.0)),
        ((zero_field(grid), gaussian_field(grid, 1.0, 1.5)), WeightParams(3.0, 1.5)),
        (
            (modulated_gaussian_field(grid, 1.0, 3.0), modulated_gaussian_field(grid, -1.0, 3.0)),
            WeightParams(6.0, 3.0),
        ),
    ]
    times = np.arange(0.0, 50.0 + 0.25, 0.5)
    worst = -np.inf
    for data, weight in datasets:
        series = decay_profile(data, times, weight=weight)
        energy = series.column("weighted_energy")
        worst = max(worst, float(np.max(np.diff(energy) / energy[:-1])))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    announce(
        5, ok, f"max relative energy increase {worst:.2e} over 3 data sets, {elapsed:.1f}s"
    )


def test_criterion_6_semilinear_energy_audit(global_run_fine):
    start = time.perf_counter()
    snaps = [s for s in global_run_fine.snapshots if s.t <= 50.0 + 1e-9]
    fine = energy_audit(snaps, PROBLEM.p)
    coarse = energy_audit(snaps[::2], PROBLEM.p)
    elapsed = time.perf_counter() - start
    ok = (
        coarse.violation <= 1e-4
        and fine.violation <= coarse.violation + 1e-15
        and len(snaps) >= 50
    )
    announce(
        6,
        ok,
        f"violation {coarse.violation:.2e} at spacing 0.5, {fine.violation:.2e} "
        f"at 0.25 ({len(snaps)} snapshots), audit {elapsed:.1f}s",
    )


def test_criterion_7_global_existence_surrogate(global_run_fine, global_run_doubled):
    ok_status = global_run_fine.status is RunStatus.COMPLETED
    rows = global_run_fine.series.finite_rows()
    total = rows["xn_energy"] + rows["xn_ut"] + rows["xn_grad"] + rows["xn_l2"]
    running = np.maximum.accumulate(total)
    at_100 = running[np.searchsorted(rows["t"], 100.0)]
    growth = running[-1] / at_100 - 1.0
    x_fine = decay_norm(global_run_fine.series)
    x_doubled = decay_norm(global_run_doubled.series)
    grid_change = abs(x_doubled - x_fine) / x_fine
    ok = ok_status and np.isfinite(x_fine) and growth < 0.01 and grid_change < 0.02
    announce(
        7,
        ok,
        f"status {global_run_fine.status.value}, x_norm {x_fine:.6g}, "
        f"sup growth over [100,200] {growth:.2e}, grid-doubling change {grid_change:.2e}",
    )


def test_criterion_8_subcritical_blowup_stability():
    start = time.perf_counter()

    def blowup_time(points, dt):
        grid = Grid(1, 20.0, points)
        cfg = SolverConfig(
            p=2.0,
            grid=grid,
            weight=WEIGHT,
            dt=dt,
            t_end=5.0,
            record_every=20,
        )
        outcome = run(cfg, (gaussian_field(grid, 5.0, 2.0), zero_field(grid)))
        assert outcome.status is RunStatus.BLEW_UP
        return outcome.blowup_time

    base = blowup_time(512, 0.005)
    halved_dt = blowup_time(512, 0.0025)
    doubled_m = blowup_time(1024, 0.005)
    elapsed = time.perf_counter() - start
    dt_shift = abs(halved_dt - base) / base
    m_shift = abs(doubled_m - base) / base
    ok = dt_shift < 0.10 and m_shift < 0.10 and elapsed < 300.0
    announce(
        8,
        ok,
        f"blow-up at t={base:.4f}; dt/2 shift {dt_shift:.2%}, 2M shift {m_shift:.2%}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_solver_order():
    start = time.perf_counter()
    grid = Grid(1, 40.0, 512)
    data = (gaussian_field(grid, 0.1, 2.0), zero_field(grid))

    def final(dt):
        cfg = SolverConfig(
            p=PROBLEM.p, grid=grid, weight=WEIGHT, dt=dt, t_end=10.0, record_every=50
        )
        return run(cfg, data).final_state.u.values

    coarse, mid, fine = final(0.2), final(0.1), final(0.05)
    d1 = np.sqrt(np.sum((coarse - mid) ** 2))
    d2 = np.sqrt(np.sum((mid - fine) ** 2))
    factor = d1 / d2
    elapsed = time.perf_counter() - start
    ok = 3.5 <= factor <= 4.5 and elapsed < 120.0
    announce(9, ok, f"self-convergence factor {factor:.3f} at t=10, {elapsed:.1f}s")


def test_criterion_10_ckn_lab():
    start = time.perf_counter()
    family = gaussian_width_family()
    params = ckn_weighted_source(PROBLEM)
    report = ratio_sweep(family, params)
    spread = max(report.ratios) / min(report.ratios) - 1.0
    refined = ratio_sweep(family, params, nodes=64, panels=96)
    stability = abs(refined.max_ratio - report.max_ratio) / report.max_ratio
    base = ckn_ratio(TestFunction("gaussian", width=1.0), params)
    scale_err = max(
        abs(ckn_ratio(TestFunction("gaussian", width=1.0).rescaled(mu), params) - base)
        / base
        for mu in (0.25, 0.5, 2.0, 4.0)
    )
    elapsed = time.perf_counter() - start
    ok = (
        spread < 1e-6
        and scale_err < 1e-6
        and np.isfinite(report.max_ratio)
        and stability < 1e-8
        and elapsed < 30.0
    )
    announce(
        10,
        ok,
        f"width-family spread {spread:.1e}, rescaling error {scale_err:.1e}, "
        f"max ratio {report.max_ratio:.6g} (refinement shift {stability:.1e}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_11_exponent_algebra():
    from dampedwave.exponents import interpolation_exponents

    start = time.perf_counter()
    threshold = weight_power_threshold(1, 4.0)
    script = Path(__file__).resolve().parents[1] / "scripts" / "exponent_crosscheck.py"
    names = (
        "p_fujita",
        "q",
        "lambda_min",
        "theta_gn",
        "theta_weighted",
        "mu",
        "theta_lp",
        "theta_l2p",
        "budget_weighted",
        "budget_lp",
        "budget_l2p",
    )
    worst = 0.0
    budgets_ok = True
    in_range_ok = True
    for dim, p, lam, problem in (
        (1, "4", "2", ProblemParams(1, 4.0, 2.0)),
        (2, "3", "3/2", ProblemParams(2, 3.0, 1.5)),
    ):
        proc = subprocess.run(
            [sys.executable, str(script), "--dim", str(dim), "--p", p, "--lambda", lam],
            capture_output=True,
            text=True,
            check=True,
        )
        reference = {}
        for line in proc.stdout.splitlines():
            name, _, value = line.partition(" = ")
            reference[name] = value
        exps = interpolation_exponents(problem)
        for name in names:
            worst = max(worst, abs(getattr(exps, name) - float(reference[name])))
        for name in ("theta_gn", "theta_weighted", "mu", "theta_lp", "theta_l2p"):
            in_range_ok = in_range_ok and 0.0 <= getattr(exps, name) <= 1.0
        budgets_ok = (
            budgets_ok
            and exps.budget_weighted < 0.0
            and exps.budget_lp < -1.0
            and exps.budget_l2p < -1.0
            and proc.returncode == 0  # the oracle verifies the same signs
        )
    elapsed = time.perf_counter() - start
    ok = threshold == 1.75 and worst <= 1e-12 and budgets_ok and in_range_ok
    announce(
        11,
        ok,
        f"lambda_min(1,4) = {threshold}, max |library - rational oracle| = {worst:.1e} "
        f"over 2 parameter sets, budgets negative, {elapsed:.2f}s",
    )
