"""Configs the CLI refuses: two names of which the reader would leave one
unread, and a window half-width whose 2N + 1 sites exceed
``spectral.DEFAULT_MAX_DIM``."""

import json

import pytest

from cmvspec.cli import ConfigError, config_half_width, main

BASE = {"sampling": {"preset": "constant", "value": 0.5, "dim": 1},
        "frequency": {"preset": "golden"}}
LOCALIZATION = {"sampling": {"preset": "localization"}, "frequency": {"preset": "sqrt"}}


def _run(tmp_path, command, cfg):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    code = main([command, "--config", str(path), "--out", str(out)])
    assert not list(out.glob("*"))
    return code


@pytest.mark.parametrize("command,cfg,name,other", [
    ("lyapunov", {**BASE, "lyapunov": {"thetas": [0.5], "theta_grid": 7, "scales": [10],
                                       "samples": 2}}, "thetas", "theta_grid"),
    ("localize", {**LOCALIZATION, "localize": {"n0": 4, "scan_grid": 2, "gamma": 0.5,
                                               "gamma_samples": 2}}, "gamma", "gamma_samples"),
], ids=["lyapunov", "localize"])
def test_a_name_the_reader_leaves_unread_exits_2(tmp_path, capsys, command, cfg, name,
                                                 other):
    assert _run(tmp_path, command, cfg) == 2
    assert f"config error: '{name}' and '{other}' are both given" in capsys.readouterr().err


@pytest.mark.parametrize("block,message", [
    ({"thetas": [0.5], "theta_grid": 2.5}, "'theta_grid' must be an integer, got 2.5"),
    ({"thetas": ["x"], "theta_grid": 7}, "'thetas' must be a number, got 'x'"),
], ids=["theta_grid", "thetas"])
def test_each_name_is_parsed_before_the_pair_is_refused(tmp_path, capsys, block, message):
    cfg = {**BASE, "lyapunov": {**block, "scales": [10], "samples": 2}}
    assert _run(tmp_path, "lyapunov", cfg) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command,cfg,name", [
    ("spectrum-scan", {**BASE, "spectrum": {"window": 2 ** 62}}, "window"),
    ("spectrum-scan", {**BASE, "spectrum": {"window": 2048}}, "window"),
    ("localize", {**LOCALIZATION, "localize": {"n0": 2 ** 62}}, "n0"),
    ("multiscale", {**LOCALIZATION, "multiscale": {"n0": 2 ** 62}}, "n0"),
], ids=["window-2^62", "window-2048", "localize-n0", "multiscale-n0"])
def test_a_half_width_past_2047_exits_2(tmp_path, capsys, command, cfg, name):
    assert _run(tmp_path, command, cfg) == 2
    assert f"config error: '{name}' must be at most 2047" in capsys.readouterr().err


def test_2047_is_the_largest_half_width():
    assert config_half_width(2047, "window", 0) == 2047
    with pytest.raises(ConfigError):
        config_half_width(2048, "window", 0)
