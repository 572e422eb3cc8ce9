"""Command-line interface.

Verbs:
    simulate      semilinear run with artifacts and audits
    linear-decay  exact linear flow plus decay-rate regression
    energy-audit  run with dense snapshots and the trajectory audits
    ckn-check     admissibility and ratio sweeps for the inequalities
    sweep         (p, amplitude) grid of runs with an aggregate CSV
    exponents     print the exponent table for given dim, p (and lambda)

Exit codes: 0 success, 1 runtime failure (including blow-up under
--expect-global), 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import ConfigError, load_setup
from .exponents import (
    admissible_range,
    fujita_exponent,
    interpolation_exponents,
    suggested_weight_power,
    weight_power_threshold,
    ProblemParams,
)
from . import experiments

_G = "%.17g"


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _add_common(parser: argparse.ArgumentParser, snapshots: bool = False) -> None:
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized audits")
    parser.add_argument(
        "--expect-global",
        action="store_true",
        help="treat blow-up as a failure (exit code 1)",
    )
    if snapshots:
        parser.add_argument(
            "--snapshots",
            type=_positive,
            metavar="EVERY",
            default=None,
            help="store binary snapshots every EVERY time units",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dampedwave",
        description="semilinear damped wave equation laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    _add_common(sub.add_parser("simulate", help="semilinear run"), snapshots=True)
    _add_common(sub.add_parser("linear-decay", help="linear decay rates"))
    audit = sub.add_parser("energy-audit", help="trajectory energy audits")
    _add_common(audit, snapshots=True)
    _add_common(sub.add_parser("ckn-check", help="inequality ratio sweeps"))
    sweep = sub.add_parser("sweep", help="(p, amplitude) phase sweep")
    _add_common(sweep)
    sweep.add_argument("--workers", type=int, default=None, help="parallel workers")

    exps = sub.add_parser("exponents", help="print the exponent table")
    exps.add_argument("--dim", type=int, required=True)
    exps.add_argument("--p", type=float, required=True)
    exps.add_argument("--lambda", dest="lam", type=float, default=None)
    return parser


def _print_warnings(setup) -> None:
    for message in setup.warnings:
        print(f"warning: {message}", file=sys.stderr)


def _exponents_verb(args) -> int:
    lo, hi = admissible_range(args.dim)
    print(f"p_fujita = {_G % fujita_exponent(args.dim)}")
    print(f"p_admissible = ({_G % lo}, {'inf' if hi == float('inf') else _G % hi}]")
    try:
        threshold = weight_power_threshold(args.dim, args.p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"lambda_min = {_G % threshold}")
    lam = args.lam if args.lam is not None else suggested_weight_power(args.dim, args.p)
    print(f"lambda = {_G % lam}")
    try:
        exps = interpolation_exponents(ProblemParams(args.dim, args.p, lam))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in (
        "q",
        "theta_gn",
        "theta_weighted",
        "mu",
        "theta_lp",
        "theta_l2p",
        "budget_weighted",
        "budget_lp",
        "budget_l2p",
    ):
        print(f"{name} = {_G % getattr(exps, name)}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verb == "exponents":
        return _exponents_verb(args)

    try:
        setup = load_setup(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _print_warnings(setup)

    try:
        if args.verb == "simulate":
            report = experiments.simulate(
                setup, args.out, snapshot_every=args.snapshots, seed=args.seed
            )
        elif args.verb == "linear-decay":
            report = experiments.linear_decay(setup, args.out)
        elif args.verb == "energy-audit":
            report = experiments.energy_audit_experiment(
                setup, args.out, snapshot_every=args.snapshots, seed=args.seed
            )
        elif args.verb == "ckn-check":
            report = experiments.ckn_check(setup, args.out)
        elif args.verb == "sweep":
            if not setup.sweep_p or not setup.sweep_amplitude:
                print(
                    "config error: key 'sweep.p'/'sweep.amplitude': sweep "
                    "needs nonempty value lists",
                    file=sys.stderr,
                )
                return 2
            rows = experiments.sweep(setup, args.out, workers=args.workers)
            failures = [row for row in rows if str(row["status"]).startswith("error")]
            for row in failures:
                print(
                    f"sweep point p={row['p']} amplitude={row['amplitude']} "
                    f"failed: {row['status']}",
                    file=sys.stderr,
                )
            print(f"sweep finished: {len(rows)} points, {len(failures)} failures")
            return 0
        else:  # pragma: no cover - argparse enforces the verb set
            return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    status = report.get("outcome", {}).get("status")
    if status is not None:
        print(f"status: {status}")
    if args.expect_global and status == "blew_up":
        print("error: run blew up but --expect-global was set", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
