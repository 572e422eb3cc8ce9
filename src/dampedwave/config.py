"""Flat key = value experiment configs.

The format is deliberately tiny: one ``namespace.key = value`` pair per
line, ``#`` comments, blank lines ignored.  It diffs cleanly and needs
no parser dependency.  Keys are validated strictly; unknown or missing
keys raise :class:`ConfigError` with the offending key and line so the
CLI can fail with a precise diagnostic (exit code 2).

Parameters outside the small-data global-existence range (p at or below
the Fujita exponent, weight power at or below its threshold) produce a
prominent warning but are accepted: the blow-up experiments need them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from .exponents import (
    ProblemParams,
    admissible_range,
    fujita_exponent,
    weight_power_threshold,
)
from .solver import Nonlinearity, SolverConfig
from .spectral import Grid
from .weights import WeightParams


class ConfigError(Exception):
    """Invalid configuration; carries the key and line when known."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        self.key = key
        self.line = line
        prefix = ""
        if key is not None:
            prefix += f"key {key!r}"
        if line is not None:
            prefix += f" (line {line})"
        super().__init__(f"{prefix}: {message}" if prefix else message)


@dataclass(frozen=True)
class DataSpec:
    kind: str
    amplitude: float
    width: float
    center: float
    u1_amplitude: float
    u1_width: float


@dataclass
class RunSetup:
    problem: ProblemParams
    weight: WeightParams
    grid: Grid
    solver: SolverConfig
    data: DataSpec
    fit_t_min: float
    sweep_p: list[float] = field(default_factory=list)
    sweep_amplitude: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    raw: dict[str, str] = field(default_factory=dict)

    @property
    def hash(self) -> str:
        return _pairs_hash(self.raw)


def config_hash(text: str) -> str:
    """Stable digest of the canonicalized config (comments and blank
    lines stripped, pairs sorted)."""
    return _pairs_hash(parse_pairs(text))


def _pairs_hash(pairs: dict[str, str]) -> str:
    lines = sorted(f"{k}={v}" for k, v in pairs.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def parse_pairs(text: str) -> dict[str, str]:
    return {k: v for k, (v, _) in _parse_with_lines(text).items()}


def _parse_with_lines(text: str) -> dict[str, tuple[str, int]]:
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError("empty key or value", key=key or None, line=lineno)
        if key in pairs:
            raise ConfigError("duplicate key", key=key, line=lineno)
        pairs[key] = (value, lineno)
    return pairs


def _to_bool_or_auto(value: str):
    lowered = value.lower()
    if lowered == "auto":
        return None
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected true/false/auto")


def _to_float_list(value: str) -> list[float]:
    return [float(part.strip()) for part in value.split(",") if part.strip()]


def _to_data_kind(value: str) -> str:
    if value not in ("gaussian", "modulated_gaussian"):
        raise ValueError(f"unknown data kind {value!r}")
    return value


# Every key, in the order it is read: its conversion and its default, as
# config text or as a function of the values read before it.  A key
# without a default is required.
_KEYS = {
    "problem.dim": (int, None),
    "problem.p": (float, None),
    "weight.lambda": (float, None),
    "weight.A": (float, None),
    "grid.L": (float, None),
    "grid.M": (int, None),
    "solver.dt": (float, None),
    "solver.t_end": (float, None),
    "solver.blowup_threshold": (float, "1e6"),
    "solver.dealias": (_to_bool_or_auto, "auto"),
    "solver.record_every": (int, "10"),
    "solver.nonlinearity": (Nonlinearity, "source"),
    "data.kind": (_to_data_kind, "gaussian"),
    "data.amplitude": (float, None),
    "data.width": (float, None),
    "data.center": (float, "0.0"),
    "data.u1_amplitude": (float, "0.0"),
    "data.u1_width": (float, lambda values: values["data.width"]),
    "fit.t_min": (float, lambda values: values["solver.t_end"] / 10.0),
    "sweep.p": (_to_float_list, ""),
    "sweep.amplitude": (_to_float_list, ""),
}


def load_setup_text(text: str) -> RunSetup:
    pairs = _parse_with_lines(text)
    for key, (_, lineno) in pairs.items():
        if key not in _KEYS:
            raise ConfigError("unknown key", key=key, line=lineno)
    values = {}
    for key, (convert, default) in _KEYS.items():
        if key in pairs:
            value, lineno = pairs[key]
            try:
                values[key] = convert(value)
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"cannot parse value {value!r}: {exc}", key=key, line=lineno)
        elif default is None:
            raise ConfigError("required key is missing", key=key)
        else:
            values[key] = default(values) if callable(default) else convert(default)
    for key in ("sweep.p", "sweep.amplitude"):
        if len(set(values[key])) < len(values[key]):
            raise ConfigError("repeated value", key=key, line=pairs[key][1])

    dim, lam = values["problem.dim"], values["weight.lambda"]
    try:
        problem = ProblemParams(dim=dim, p=values["problem.p"], weight_power=lam)
        weight = WeightParams(offset=values["weight.A"], power=lam)
        grid = Grid(dim=dim, half_width=values["grid.L"], points=values["grid.M"])
        solver = SolverConfig(
            p=problem.p,
            grid=grid,
            weight=weight,
            dt=values["solver.dt"],
            t_end=values["solver.t_end"],
            blowup_threshold=values["solver.blowup_threshold"],
            dealias=values["solver.dealias"],
            record_every=values["solver.record_every"],
            nonlinearity=values["solver.nonlinearity"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    _check_data(values, pairs)

    data = DataSpec(*(values[f"data.{f.name}"] for f in fields(DataSpec)))
    return RunSetup(
        problem=problem,
        weight=weight,
        grid=grid,
        solver=solver,
        data=data,
        fit_t_min=values["fit.t_min"],
        sweep_p=values["sweep.p"],
        sweep_amplitude=values["sweep.amplitude"],
        warnings=_range_warnings(problem),
        raw={key: value for key, (value, _) in pairs.items()},
    )


def _check_data(values: dict, pairs: dict) -> None:
    """Refuse the data and fit values that no solver object checks."""
    half = values["grid.L"]
    rules = {
        "data.amplitude": (math.isfinite, "be finite"),
        "data.width": (lambda v: 0.0 < v < math.inf, "be positive and finite"),
        "data.center": (lambda v: -half <= v < half, f"lie in the box [-{half}, {half})"),
        "data.u1_amplitude": (math.isfinite, "be finite"),
        "data.u1_width": (lambda v: 0.0 < v < math.inf, "be positive and finite"),
        "fit.t_min": (math.isfinite, "be finite"),
    }
    for key, (holds, rule) in rules.items():
        if not holds(values[key]):
            line = pairs[key][1] if key in pairs else None
            raise ConfigError(f"must {rule}, got {values[key]}", key=key, line=line)


def load_setup(path) -> RunSetup:
    with open(path, "r", encoding="utf-8") as fh:
        return load_setup_text(fh.read())


def _range_warnings(problem: ProblemParams) -> list[str]:
    warnings = []
    lo, hi = admissible_range(problem.dim)
    if not (lo < problem.p <= hi):
        warnings.append(
            f"p = {problem.p} lies outside the small-data global-existence "
            f"range ({lo}, {hi}] for dim = {problem.dim} (Fujita exponent "
            f"{fujita_exponent(problem.dim)}); expect blow-up for sizable data"
        )
    else:
        threshold = weight_power_threshold(problem.dim, problem.p)
        if not problem.weight_power > threshold:
            warnings.append(
                f"weight power {problem.weight_power} is at or below its "
                f"threshold {threshold}; the decay bookkeeping is outside "
                "its guaranteed regime"
            )
    return warnings
