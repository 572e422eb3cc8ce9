import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedwave.propagator import LinearState
from dampedwave.snapshots import MAGIC, read_snapshot, write_snapshot
from dampedwave.spectral import Grid, RealField
from dampedwave.weights import WeightParams


def make_state(seed=0, dim=1, points=16, t=1.5):
    grid = Grid(dim, 3.0, points)
    rng = np.random.default_rng(seed)
    return LinearState(
        t,
        RealField(grid, rng.standard_normal(grid.shape) * 10.0 ** rng.integers(-8, 8)),
        RealField(grid, rng.standard_normal(grid.shape)),
    )


def write_state(path, state, p, weight):
    write_snapshot(path, state.grid, state.t, state.u.values, state.ut.values, p, weight)


def test_round_trip_bit_exact(tmp_path):
    state = make_state()
    path = tmp_path / "state.dwsn"
    write_state(path, state, p=4.0, weight=WeightParams(4.0, 2.0))
    loaded, meta = read_snapshot(path)
    np.testing.assert_array_equal(loaded.u.values, state.u.values)
    np.testing.assert_array_equal(loaded.ut.values, state.ut.values)
    assert loaded.t == state.t
    assert meta.p == 4.0
    assert meta.weight_offset == 4.0
    assert meta.weight_power == 2.0
    assert meta.points == 16
    assert meta.dim == 1


def test_round_trip_dim2(tmp_path):
    state = make_state(seed=3, dim=2, points=8, t=0.0)
    path = tmp_path / "state2.dwsn"
    write_state(path, state, p=3.0, weight=WeightParams(1.0, 1.0))
    loaded, meta = read_snapshot(path)
    np.testing.assert_array_equal(loaded.u.values, state.u.values)
    assert loaded.grid == state.grid


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_round_trip_random(seed, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("snaps")
    state = make_state(seed=seed)
    path = tmp / f"s{seed}.dwsn"
    write_state(path, state, p=2.5, weight=WeightParams(2.0, 1.5))
    loaded, _ = read_snapshot(path)
    np.testing.assert_array_equal(loaded.u.values, state.u.values)
    np.testing.assert_array_equal(loaded.ut.values, state.ut.values)


def test_header_layout(tmp_path):
    state = make_state(points=16)
    path = tmp_path / "state.dwsn"
    write_state(path, state, p=4.0, weight=WeightParams(4.0, 2.0))
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    version, dim, points = struct.unpack_from("<HII", blob, 4)
    assert (version, dim, points) == (1, 1, 16)
    # payload: u then ut as little-endian doubles
    header_size = struct.calcsize("<4sHIIddddd")
    assert len(blob) == header_size + 2 * 16 * 8
    u0 = struct.unpack_from("<d", blob, header_size)[0]
    assert u0 == state.u.values[0]


def test_reader_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.dwsn"
    state = make_state()
    write_state(path, state, p=4.0, weight=WeightParams(4.0, 2.0))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(path)


def test_reader_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.dwsn"
    write_state(path, make_state(), p=4.0, weight=WeightParams(4.0, 2.0))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<H", blob, 4, 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        read_snapshot(path)


def test_reader_rejects_truncated_payload(tmp_path):
    path = tmp_path / "bad.dwsn"
    write_state(path, make_state(), p=4.0, weight=WeightParams(4.0, 2.0))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_snapshot(path)
