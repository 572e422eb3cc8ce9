import pytest

from dampedwave.config import ConfigError, config_hash, load_setup_text
from dampedwave.solver import Nonlinearity

GOOD = """
# supercritical baseline
problem.dim = 1
problem.p = 4.0
weight.lambda = 2.0
weight.A = 4.0
grid.L = 40.0
grid.M = 256
solver.dt = 0.05
solver.t_end = 10.0
data.amplitude = 0.01
data.width = 2.0
"""


def test_load_good_config():
    setup = load_setup_text(GOOD)
    assert setup.problem.dim == 1
    assert setup.problem.p == 4.0
    assert setup.weight.offset == 4.0
    assert setup.grid.points == 256
    assert setup.solver.dt == 0.05
    assert setup.warnings == []
    # every optional key at its default
    assert setup.solver.blowup_threshold == 1e6
    assert setup.solver.dealias is None
    assert setup.solver.record_every == 10
    assert setup.solver.nonlinearity is Nonlinearity.SOURCE
    assert setup.data.kind == "gaussian"
    assert setup.data.center == 0.0
    assert setup.data.u1_amplitude == 0.0
    assert setup.data.u1_width == setup.data.width == 2.0
    assert setup.fit_t_min == setup.solver.t_end / 10.0 == 1.0
    assert setup.sweep_p == [] and setup.sweep_amplitude == []


def test_missing_key_names_it():
    text = "\n".join(
        line for line in GOOD.splitlines() if not line.startswith("problem.p")
    )
    with pytest.raises(ConfigError) as err:
        load_setup_text(text)
    assert "problem.p" in str(err.value)


def test_unknown_key_reports_line():
    text = GOOD + "\nspooky.key = 3\n"
    with pytest.raises(ConfigError) as err:
        load_setup_text(text)
    assert "spooky.key" in str(err.value)
    assert "line" in str(err.value)


def test_unknown_key_is_reported_before_a_missing_one():
    # a misspelt required key is an unknown key on its line, not a
    # missing grid.M
    text = GOOD.replace("grid.M = 256", "grid.m = 256")
    with pytest.raises(ConfigError) as err:
        load_setup_text(text)
    assert (err.value.key, err.value.line) == ("grid.m", 8)
    assert "unknown key" in str(err.value)


def test_bad_value_reports_key_and_line():
    for key, value, text in (
        ("grid.M", "many", GOOD.replace("grid.M = 256", "grid.M = many")),
        ("solver.nonlinearity", "signed", GOOD + "\nsolver.nonlinearity = signed\n"),
    ):
        with pytest.raises(ConfigError) as err:
            load_setup_text(text)
        message = str(err.value)
        assert key in message and value in message and "line" in message


def test_duplicate_key_rejected():
    text = GOOD + "\nproblem.p = 5.0\n"
    with pytest.raises(ConfigError) as err:
        load_setup_text(text)
    assert "duplicate" in str(err.value)


def test_invalid_combination_rejected():
    text = GOOD.replace("solver.dt = 0.05", "solver.dt = 0.9")
    with pytest.raises(ConfigError):
        load_setup_text(text)


def test_partial_final_step_rejected():
    text = GOOD.replace("solver.t_end = 10.0", "solver.t_end = 10.02")
    with pytest.raises(ConfigError) as err:
        load_setup_text(text)
    assert "10.02" in str(err.value) and "0.05" in str(err.value)


def test_subcritical_power_warns_but_loads():
    text = GOOD.replace("problem.p = 4.0", "problem.p = 2.0")
    setup = load_setup_text(text)
    assert setup.warnings
    assert "global-existence" in setup.warnings[0]


def test_low_weight_power_warns():
    text = GOOD.replace("weight.lambda = 2.0", "weight.lambda = 1.5").replace(
        "weight.A = 4.0", "weight.A = 1.0"
    )
    setup = load_setup_text(text)
    assert any("threshold" in w for w in setup.warnings)


def test_dealias_flag_parsing():
    assert load_setup_text(GOOD).solver.dealias is None
    on = load_setup_text(GOOD + "\nsolver.dealias = true\n")
    assert on.solver.dealias is True
    off = load_setup_text(GOOD + "\nsolver.dealias = false\n")
    assert off.solver.dealias is False
    auto = load_setup_text(GOOD + "\nsolver.dealias = auto\n")
    assert auto.solver.dealias is None


def test_sweep_lists():
    text = GOOD + "\nsweep.p = 2.0, 2.5, 3.5\nsweep.amplitude = 0.01, 5\n"
    setup = load_setup_text(text)
    assert setup.sweep_p == [2.0, 2.5, 3.5]
    assert setup.sweep_amplitude == [0.01, 5.0]


def test_hash_ignores_comments_and_order():
    reordered = "\n".join(sorted(l for l in GOOD.splitlines() if "=" in l))
    commented = GOOD + "\n# trailing remark\n"
    assert config_hash(GOOD) == config_hash(reordered) == config_hash(commented)
    changed = GOOD.replace("data.amplitude = 0.01", "data.amplitude = 0.02")
    assert config_hash(changed) != config_hash(GOOD)


def test_malformed_line_reports_number():
    text = GOOD + "\nthis line has no equals\n"
    with pytest.raises(ConfigError) as err:
        load_setup_text(text)
    assert "line" in str(err.value)
