"""A non-finite number in a config is a config error (exit 2), not a NaN row."""

import json

import pytest

from cmvspec.cli import ConfigError, config_number, main

NON_FINITE = [float("nan"), float("inf"), float("-inf")]
TWO_MODE = {"sampling": {"preset": "strong_coupling"}, "frequency": {"preset": "sqrt"}}


def _run(tmp_path, command, block):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**TWO_MODE, **block}))   # NaN and Infinity as JSON tokens
    out = tmp_path / "o"
    return main([command, "--config", str(path), "--out", str(out), "--seed", "1"]), out


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("cast", [float, int, complex])
def test_config_number_rejects_non_finite(value, cast):
    with pytest.raises(ConfigError, match="'x'"):
        config_number(value, "x", cast)


@pytest.mark.parametrize("value", [0, -2.5, 1e300, "3"])
def test_config_number_keeps_finite_values(value):
    assert config_number(value, "x") == float(value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_lyapunov_theta(tmp_path, value, capsys):
    rc, out = _run(tmp_path, "lyapunov",
                   {"lyapunov": {"thetas": [value], "scales": [10], "samples": 2}})
    assert rc == 2
    assert "'thetas'" in capsys.readouterr().err
    assert not (out / "lyapunov.csv").exists() and not (out / "manifest.json").exists()


@pytest.mark.parametrize("key", ["samples", "scales"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_lyapunov_integer_keys(tmp_path, key, value, capsys):
    block = {"thetas": [1.0], "scales": [10], "samples": 2}
    block[key] = [value] if key == "scales" else value
    rc, out = _run(tmp_path, "lyapunov", {"lyapunov": block})
    assert rc == 2
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", NON_FINITE)
def test_ldt_tau(tmp_path, value, capsys):
    rc, out = _run(tmp_path, "ldt", {"ldt": {"n_list": [10], "samples": 4, "tau": value}})
    assert rc == 2
    assert "'tau'" in capsys.readouterr().err
    assert not (out / "ldt_matrix.csv").exists()


@pytest.mark.parametrize("value", NON_FINITE)
def test_spectrum_arc(tmp_path, value, capsys):
    cfg = {"sampling": {"preset": "constant", "value": 0.5, "dim": 1},
           "frequency": {"preset": "golden"},
           "spectrum": {"arc": [value, 1.0], "grid": 8, "window": 10}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["spectrum-scan", "--config", str(path), "--out", str(out)]) == 2
    assert "'arc'" in capsys.readouterr().err
    assert not (out / "coverage.csv").exists()


def test_finite_config_still_runs(tmp_path):
    rc, out = _run(tmp_path, "lyapunov",
                   {"lyapunov": {"thetas": [1.0], "scales": [10], "samples": 2}})
    assert rc == 0
    json.loads((out / "manifest.json").read_text())
