"""Configs the CLI refuses: two names of which the reader would leave one
unread, a window half-width whose 2N + 1 sites exceed
``spectral.DEFAULT_MAX_DIM``, and a count past ``cli.MAX_COUNT``."""

import json

import pytest

from cmvspec.cli import MAX_COUNT, ConfigError, config_count, config_half_width, main

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


BIG = 2 ** 62


@pytest.mark.parametrize("command,cfg,name", [
    ("spectrum-scan", {**BASE, "spectrum": {"grid": BIG}}, "grid"),
    ("spectrum-scan", {**BASE, "spectrum": {"phase_samples": BIG}}, "phase_samples"),
    ("lyapunov", {**BASE, "lyapunov": {"theta_grid": BIG}}, "theta_grid"),
    ("lyapunov", {**BASE, "lyapunov": {"thetas": [0.5], "scales": [10, BIG]}}, "scales"),
    ("lyapunov", {**BASE, "lyapunov": {"thetas": [0.5], "samples": BIG}}, "samples"),
    ("ldt", {**BASE, "ldt": {"n_list": [BIG]}}, "n_list"),
    ("ldt", {**BASE, "ldt": {"samples": BIG}}, "samples"),
    ("localize", {**LOCALIZATION, "localize": {"gamma_samples": BIG}}, "gamma_samples"),
    ("localize", {**LOCALIZATION, "localize": {"scan_grid": BIG}}, "scan_grid"),
    ("multiscale", {**LOCALIZATION, "multiscale": {"scan_grid": BIG}}, "scan_grid"),
    ("multiscale", {**LOCALIZATION, "multiscale": {"samples": BIG}}, "samples"),
    ("identity-suite", {**BASE, "identity": {"cases": BIG}}, "cases"),
], ids=["grid", "phase_samples", "theta_grid", "scales", "lyapunov-samples", "n_list",
        "ldt-samples", "gamma_samples", "localize-scan_grid", "multiscale-scan_grid",
        "multiscale-samples", "cases"])
def test_a_count_past_2_to_the_20_exits_2(tmp_path, capsys, command, cfg, name):
    assert _run(tmp_path, command, cfg) == 2
    assert f"config error: '{name}' must be at most {MAX_COUNT}, got {BIG}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["localize", "multiscale"])
def test_a_center_scan_past_2_to_the_16_windows_exits_2(tmp_path, capsys, command):
    # 257^2 windows at d = 2; 256^2 = 2^16 is the largest scan
    cfg = {**LOCALIZATION, command: {"scan_grid": 257}}
    assert _run(tmp_path, command, cfg) == 2
    assert "config error: 'scan_grid' ^ dim must be at most 65536, got 257^2" \
        in capsys.readouterr().err


def test_2_to_the_20_is_the_largest_count():
    assert config_count(MAX_COUNT, "grid", 2) == MAX_COUNT
    with pytest.raises(ConfigError):
        config_count(MAX_COUNT + 1, "grid", 2)
