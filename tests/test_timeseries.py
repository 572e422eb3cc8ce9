import math

import numpy as np
import pytest

from dampedwave.timeseries import COLUMNS, TimeSeries, decay_fit


def make_row(t, value=1.0):
    return (t,) + (value,) * (len(COLUMNS) - 1)


def power_law_series(exponent, coefficient=2.0, n=60, t_max=100.0):
    series = TimeSeries()
    for t in np.linspace(0.0, t_max, n):
        series.append(make_row(t, coefficient * (1.0 + t) ** exponent))
    return series


def test_append_requires_increasing_time():
    series = TimeSeries()
    series.append(make_row(0.0))
    series.append(make_row(0.5))
    with pytest.raises(ValueError):
        series.append(make_row(0.5))


def test_append_requires_all_columns():
    series = TimeSeries()
    for size in (len(COLUMNS) - 2, len(COLUMNS) + 1):
        with pytest.raises(ValueError, match=rf"^record has {size} values, not {len(COLUMNS)}$"):
            series.append((0.0,) + (1.0,) * (size - 1))
    assert len(series) == 0


def test_append_stores_exactly_the_columns_as_floats():
    series = TimeSeries()
    series.append(make_row(np.float64(0.25), np.float32(2.0)))
    (stored,) = series.rows
    assert type(stored) is tuple and len(stored) == len(COLUMNS)
    assert all(type(value) is float for value in stored)
    assert stored[COLUMNS.index("t")] == 0.25 and stored[COLUMNS.index("l2_u")] == 2.0


@pytest.mark.parametrize("times", [[math.nan], [0.0, math.nan], [math.inf], [0.0, math.inf]])
def test_append_rejects_a_time_that_is_not_finite(times):
    series = TimeSeries()
    for t in times[:-1]:
        series.append(make_row(t))
    with pytest.raises(ValueError, match="is not a finite time past"):
        series.append(make_row(times[-1]))
    assert len(series) == len(times) - 1


@pytest.mark.parametrize("column", COLUMNS[1:])
def test_append_rejects_a_nan_value(column):
    series = TimeSeries()
    series.append(make_row(0.0))
    row = list(make_row(0.5))
    row[COLUMNS.index(column)] = math.nan
    with pytest.raises(ValueError, match=r"^record at t = 0.5 holds a NaN$"):
        series.append(row)
    series.append(make_row(1.0))  # the refused row is no marker
    assert series.finite_rows()["t"].tolist() == [0.0, 1.0]


@pytest.mark.parametrize("values", [
    {"linf_u": math.inf},
    {"linf_u": -math.inf},
    {column: math.inf for column in COLUMNS[1:] if column != "mean_u"},
    {column: -math.inf for column in COLUMNS[1:]},
], ids=["linf_u", "minus_linf_u", "all_but_one", "minus_marker"])
def test_append_rejects_an_infinite_linf_u_outside_a_marker(values):
    series = TimeSeries()
    series.append(make_row(0.0))
    row = list(make_row(0.5))
    for column, value in values.items():
        row[COLUMNS.index(column)] = value
    with pytest.raises(ValueError, match=r"^record at t = 0.5 has linf_u -?inf but is no marker$"):
        series.append(row)
    assert len(series) == 1


def test_csv_rejects_a_nan_linf_u(tmp_path):
    # a NaN linf_u is refused, not taken for the blow-up marker
    path = tmp_path / "series.csv"
    rows = [make_row(0.0), make_row(0.5, math.nan)]
    path.write_text(
        ",".join(COLUMNS) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    )
    with pytest.raises(ValueError, match="holds a NaN"):
        TimeSeries.from_csv(path)


def test_blowup_marker_is_terminal():
    series = TimeSeries()
    series.append(make_row(0.0))
    series.append_blowup_marker(0.75)
    assert np.isinf(series.rows[-1][COLUMNS.index("linf_u")])
    with pytest.raises(ValueError):
        series.append(make_row(1.0))
    finite = series.finite_rows()
    assert len(finite["t"]) == 1


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    series = TimeSeries()
    t = 0.0
    for _ in range(25):
        values = rng.standard_normal(len(COLUMNS)) * 10.0 ** rng.integers(-12, 12)
        series.append((t, *np.abs(values[1:])))
        t += float(np.abs(rng.standard_normal())) + 1e-3
    path = tmp_path / "series.csv"
    series.to_csv(path)
    loaded = TimeSeries.from_csv(path)
    assert len(loaded) == len(series)
    for name in COLUMNS:
        np.testing.assert_array_equal(loaded.column(name), series.column(name))


def test_csv_header_fixed(tmp_path):
    series = TimeSeries()
    series.append(make_row(0.0))
    path = tmp_path / "series.csv"
    series.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(COLUMNS)
    assert header.startswith("t,l2_u,l2_grad_u,l2_ut,linf_u,weighted_energy")


def test_csv_round_trips_infinite_marker(tmp_path):
    series = TimeSeries()
    series.append(make_row(0.0))
    series.append_blowup_marker(1.5)
    path = tmp_path / "series.csv"
    series.to_csv(path)
    loaded = TimeSeries.from_csv(path)
    assert loaded.rows[-1] == (1.5,) + (math.inf,) * (len(COLUMNS) - 1)


def test_csv_writes_17_digits_and_an_infinite_marker(tmp_path):
    series = TimeSeries()
    series.append((0.1, 1.0, 2.5, 1e-300, -0.0, 3e20, 1 / 3, 7.0, 8.0, 9.0, -2.0))
    series.append_blowup_marker(0.35)
    path = tmp_path / "series.csv"
    series.to_csv(path)
    assert path.read_bytes() == (
        b"t,l2_u,l2_grad_u,l2_ut,linf_u,weighted_energy,xn_energy,xn_ut,xn_grad,xn_l2,mean_u\n"
        b"0.10000000000000001,1,2.5,1e-300,-0,3e+20,"
        b"0.33333333333333331,7,8,9,-2\n"
        b"0.34999999999999998,inf,inf,inf,inf,inf,inf,inf,inf,inf,inf\n"
    )


def test_csv_rejects_a_time_that_is_not_finite(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text(
        ",".join(COLUMNS) + "\n"
        + "".join(",".join([t] + ["1"] * (len(COLUMNS) - 1)) + "\n" for t in ["0", "nan", "0.5"])
    )
    with pytest.raises(ValueError, match="record time nan is not a finite time past 0.0"):
        TimeSeries.from_csv(path)


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        TimeSeries.from_csv(path)


def test_decay_fit_exact_power_law():
    series = power_law_series(-0.25)
    slope, stderr = decay_fit(series, "l2_u", 1.0)
    assert slope == pytest.approx(-0.25, abs=1e-10)
    assert stderr < 1e-10


def test_decay_fit_constant_series():
    series = power_law_series(0.0)
    slope, _ = decay_fit(series, "l2_u", 1.0)
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_decay_fit_requires_window_population():
    series = power_law_series(-0.5, n=12, t_max=10.0)
    with pytest.raises(ValueError, match="at least 10"):
        decay_fit(series, "l2_u", 9.0)


def test_decay_fit_names_offending_time():
    series = TimeSeries()
    for t in np.linspace(0.0, 20.0, 15):
        value = 1.0 if t < 10.0 else 0.0
        series.append(make_row(t, value))
    with pytest.raises(ValueError) as err:
        decay_fit(series, "l2_u", 0.0)
    assert "10.0" in str(err.value)


def test_decay_fit_unknown_column():
    series = power_law_series(-1.0)
    with pytest.raises(KeyError):
        series.column("not_a_column")
