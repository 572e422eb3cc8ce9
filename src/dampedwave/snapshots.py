"""Binary field snapshots.

Layout (all little-endian):

    magic    4 bytes   b"DWSN"
    version  u16       currently 1
    dim      u32
    points   u32       samples per axis
    L        f64       box half-width
    t        f64       snapshot time
    p        f64       nonlinearity power
    A        f64       weight offset
    lambda   f64       weight power
    payload  2 * points^dim f64: u then u_t, row-major

Snapshots round-trip losslessly; the reader validates magic, version,
the grid (before it sizes the payload) and payload length.
"""

from __future__ import annotations

import struct
from dataclasses import astuple, dataclass

import numpy as np

from .propagator import LinearState
from .spectral import Grid, RealField
from .weights import WeightParams

MAGIC = b"DWSN"
VERSION = 1
_HEADER = struct.Struct("<4sHIIddddd")


@dataclass(frozen=True)
class SnapshotMeta:
    """The header's fields, in file order after the magic."""

    version: int
    dim: int
    points: int
    half_width: float
    t: float
    p: float
    weight_offset: float
    weight_power: float


def write_snapshot(
    path,
    grid: Grid,
    t: float,
    u_values: np.ndarray,
    ut_values: np.ndarray,
    p: float,
    weight: WeightParams,
) -> None:
    """Write the fields (u, u_t) at time t in the layout above, from their own buffers."""
    meta = SnapshotMeta(
        VERSION, grid.dim, grid.points, grid.half_width, t, p, weight.offset, weight.power
    )
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, *astuple(meta)))
        fh.write(np.ascontiguousarray(u_values, dtype="<f8"))
        fh.write(np.ascontiguousarray(ut_values, dtype="<f8"))


def read_snapshot(path) -> tuple[LinearState, SnapshotMeta]:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"truncated snapshot header in {path}")
        magic, *fields = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r} in {path}")
        meta = SnapshotMeta(*fields)
        if meta.version != VERSION:
            raise ValueError(f"unsupported snapshot version {meta.version} in {path}")
        payload = fh.read()
    grid = Grid(dim=meta.dim, half_width=meta.half_width, points=meta.points)
    expected = 2 * grid.size * 8
    if len(payload) != expected:
        raise ValueError(
            f"snapshot payload is {len(payload)} bytes, expected {expected}"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    u = flat[: grid.size].reshape(grid.shape).astype(np.float64)
    ut = flat[grid.size :].reshape(grid.shape).astype(np.float64)
    state = LinearState(t=meta.t, u=RealField(grid, u), ut=RealField(grid, ut))
    return state, meta
