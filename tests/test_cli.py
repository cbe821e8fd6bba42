import json
import subprocess
import sys

import numpy as np
import pytest

from cmvspec.cli import main
from cmvspec.cocycle import SpectralPoint, lyapunov_finite
from cmvspec.presets import sqrt_frequency, strong_coupling
from cmvspec.util import format_float

BASE = {
    "sampling": {"preset": "constant", "value": 0.5, "dim": 1},
    "frequency": {"preset": "golden"},
    "seed": 0,
}


def run_cli(args):
    return main(list(args))


def write_cfg(tmp_path, name, extra):
    cfg = dict(BASE)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestLyapunov:
    def test_zero_function_all_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "sampling": {"preset": "zero", "dim": 1},
            "lyapunov": {"thetas": [0.0, 1.0], "scales": [20], "samples": 5},
        })
        out = tmp_path / "out"
        assert run_cli(["lyapunov", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "lyapunov.csv").read_text().splitlines()
        assert lines[0] == "theta,n,L_n,std_error,method"
        for line in lines[1:]:
            assert abs(float(line.split(",")[2])) < 1e-12

    def test_floquet_row(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "lyapunov": {"thetas": [0.0], "scales": [100], "samples": 10},
        })
        out = tmp_path / "out"
        assert run_cli(["lyapunov", "--config", str(cfg), "--out", str(out)]) == 0
        row = (out / "lyapunov.csv").read_text().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(np.log(np.sqrt(3)), abs=1e-3)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "lyapunov": {"thetas": [0.5], "scales": [30], "samples": 8},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["lyapunov", "--config", str(cfg), "--out", str(out1)]) == 0
        # rerun from the manifest with a different worker hint
        assert run_cli(["lyapunov", "--config", str(out1 / "manifest.json"),
                        "--out", str(out2), "--workers", "3"]) == 0
        assert (out1 / "lyapunov.csv").read_bytes() == \
               (out2 / "lyapunov.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == \
               (out2 / "manifest.json").read_bytes()

    def test_rows_are_the_per_theta_estimates(self, tmp_path):
        thetas, scales, samples, seed = [2.0, 0.5, 2.0, 7.0, 0.0], [30, 12], 6, 9
        cfg = write_cfg(tmp_path, "c.json", {
            "sampling": {"preset": "strong_coupling"},
            "frequency": {"preset": "sqrt"},
            "lyapunov": {"thetas": thetas, "scales": scales, "samples": samples},
        })
        out = tmp_path / "out"
        assert run_cli(["lyapunov", "--config", str(cfg), "--out", str(out),
                        "--seed", str(seed)]) == 0
        f, freq = strong_coupling(), sqrt_frequency()
        want = ["theta,n,L_n,std_error,method"]
        for theta in thetas:
            z = SpectralPoint(theta)
            for n in scales:
                est = lyapunov_finite(f, freq, z, n, samples, seed)
                want.append(",".join([format_float(z.theta), str(n),
                                      format_float(est.value),
                                      format_float(est.std_error), est.method]))
        assert (out / "lyapunov.csv").read_text().splitlines() == want

    def test_workers_environment_variable_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CMVSPEC_WORKERS", "not-a-number")
        cfg = write_cfg(tmp_path, "c.json", {
            "lyapunov": {"thetas": [0.5], "scales": [30], "samples": 8},
        })
        assert run_cli(["lyapunov", "--config", str(cfg),
                        "--out", str(tmp_path / "out")]) == 0


class TestSpectrumScan:
    def test_constant_gap_summary(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "spectrum": {"arc": [0.0, 2 * np.pi], "grid": 90, "window": 60,
                         "tol": 0.06, "phase_samples": 1},
        })
        out = tmp_path / "out"
        assert run_cli(["spectrum-scan", "--config", str(cfg),
                        "--out", str(out)]) == 0
        summary = json.loads((out / "arc_summary.json").read_text())
        assert len(summary["covered_arcs"]) == 1
        lo, hi = summary["covered_arcs"][0]
        assert lo == pytest.approx(np.pi / 3, abs=0.1)
        assert hi == pytest.approx(5 * np.pi / 3, abs=0.1)
        header = (out / "coverage.csv").read_text().splitlines()[0]
        assert header.startswith("theta,covered,best_dist,phase_x0")

    def test_malformed_arc_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "spectrum": {"arc": [1.0, 1.0], "grid": 8, "window": 10},
        })
        assert run_cli(["spectrum-scan", "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 2


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert run_cli(["ldt", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run_cli(["ldt", "--config", str(p)]) == 2

    def test_missing_block(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {})
        assert run_cli(["ldt", "--config", str(cfg)]) == 2

    def test_bad_preset(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "sampling": {"preset": "bogus"},
            "ldt": {"n_list": [10]},
        })
        assert run_cli(["ldt", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("freq", ["golden", "sqrt"])
    def test_preset_frequency_dimension_mismatch(self, tmp_path, freq):
        sampling = ({"preset": "two_mode"} if freq == "golden"
                    else {"preset": "constant", "value": 0.5, "dim": 1})
        cfg = write_cfg(tmp_path, "c.json", {
            "sampling": sampling,
            "frequency": {"preset": freq},
            "lyapunov": {"thetas": [0.5], "scales": [10], "samples": 3},
        })
        assert run_cli(["lyapunov", "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command,extra", [
        ("spectrum-scan", {"spectrum": {"grid": 1}}),
        ("spectrum-scan", {"spectrum": {"grid": "x"}}),
        ("spectrum-scan", {"spectrum": {"window": -3}}),
        ("spectrum-scan", {"spectrum": {"phase_samples": 0}}),
        ("spectrum-scan", {"spectrum": {"tol": "a"}}),
        ("lyapunov", {"lyapunov": {"samples": 0}}),
        ("lyapunov", {"lyapunov": {"scales": [0]}}),
        ("ldt", {"ldt": {"samples": 0}}),
        ("ldt", {"ldt": {"n_list": [0]}}),
        ("lyapunov", {"sampling": {"preset": "constant", "value": 1.5},
                      "lyapunov": {}}),
    ], ids=["grid-1", "grid-x", "window", "phase_samples", "tol", "lyapunov-samples",
            "scales", "ldt-samples", "n_list", "preset-value"])
    def test_bad_value_exits_2(self, tmp_path, command, extra):
        cfg = write_cfg(tmp_path, "c.json", extra)
        assert run_cli([command, "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 2

    def test_manifest_command_mismatch(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "lyapunov": {"thetas": [0.5], "scales": [10], "samples": 3},
        })
        out = tmp_path / "out"
        run_cli(["lyapunov", "--config", str(cfg), "--out", str(out)])
        assert run_cli(["ldt", "--config", str(out / "manifest.json")]) == 2


class TestLdtCommand:
    def test_writes_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", {
            "ldt": {"theta": 0.0, "n_list": [20, 40], "tau": 0.3,
                    "samples": 20, "determinant": True},
        })
        out = tmp_path / "out"
        assert run_cli(["ldt", "--config", str(cfg), "--out", str(out)]) == 0
        mat = (out / "ldt_matrix.csv").read_text().splitlines()
        assert mat[0] == "n,estimate,wilson_lo,wilson_hi,L_n"
        assert len(mat) == 3
        assert (out / "ldt_determinant.csv").exists()


class TestLocalizeCommand:
    def test_profile_written(self, tmp_path):
        cfg = {
            "sampling": {"preset": "localization"},
            "frequency": {"preset": "sqrt"},
            "seed": 0,
            "localize": {"theta": 2.5, "n0": 12, "gamma_samples": 20,
                         "overrides": {"box_radius": 1e-4, "arc_radius": 1e-4}},
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = run_cli(["localize", "--config", str(p), "--out", str(out)])
        assert rc == 0
        verdict = json.loads((out / "localize.json").read_text())
        assert verdict["eigenvalue_distance"] < 1e-9
        profile = (out / "profile.csv").read_text().splitlines()
        assert profile[0] == "s,log_abs_u"
        assert len(profile) == 26    # 25 sites for n0=12


    def test_unreachable_edge_bound_exits_4(self, tmp_path):
        # no window eigenvector decays to 1e-30 at its edges: a hypothesis
        # failure, not a numeric one
        cfg = {
            "sampling": {"preset": "localization"},
            "frequency": {"preset": "sqrt"},
            "localize": {"theta": 2.5, "n0": 12, "gamma_samples": 20,
                         "overrides": {"proximity": 1e-30}},
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run_cli(["localize", "--config", str(p),
                        "--out", str(tmp_path / "o")]) == 4


class TestIdentitySuite:
    def test_passes_on_default_corpus(self, tmp_path, capsys):
        cfg = {
            "sampling": {"preset": "two_mode", "coupling": 0.45},
            "frequency": {"preset": "sqrt"},
            "seed": 1,
            "identity": {"cases": 8},
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli(["identity-suite", "--config", str(p),
                        "--out", str(out)]) == 0
        results = json.loads((out / "identity_suite.json").read_text())["results"]
        names = {r["case"] for r in results}
        assert names == {"unitarity", "factorization", "determinant_transfer",
                         "green_ratio", "poisson"}
        for r in results:
            assert r["residual"] <= r["threshold"]


class TestMultiscaleCommand:
    def test_depth0_report(self, tmp_path):
        cfg = {
            "sampling": {"preset": "localization"},
            "frequency": {"preset": "sqrt"},
            "seed": 0,
            "multiscale": {"theta": 2.5, "n0": 12, "depth": 0, "samples": 6,
                           "schedule": {"growth": 1.5, "overrides": {
                               "separation": 1e-4, "good_dist": 1e-4,
                               "box_radius": 1e-4, "arc_radius": 1e-4,
                               "c_threshold": 5e-4, "upsilon_floor": 1e-4,
                               "d_floor_log": -8.0, "solver_tol": 1e-9}}},
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = run_cli(["multiscale", "--config", str(p), "--out", str(out)])
        assert rc == 0
        data = json.loads((out / "multiscale.json").read_text())
        assert "depth0" in data and "advance" not in data
        assert set(data["depth0"]) == {"A", "B", "C", "D", "all_ok"}

    def test_bad_schedule_exits_2(self, tmp_path):
        cfg = {
            "sampling": {"preset": "localization"},
            "frequency": {"preset": "sqrt"},
            "multiscale": {"schedule": {"c0": 3.0, "c2": 3.5}},
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run_cli(["multiscale", "--config", str(p),
                        "--out", str(tmp_path / "o")]) == 2

    def test_unreachable_depth1_scale_exits_2(self, tmp_path):
        # without 'growth' the paper-faithful scale N0^(1/beta) overflows
        # max_scale, which is a config error, not a traceback
        cfg = {
            "sampling": {"preset": "localization"},
            "frequency": {"preset": "sqrt"},
            "multiscale": {"n0": 10, "depth": 1},
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run_cli(["multiscale", "--config", str(p),
                        "--out", str(tmp_path / "o")]) == 2


def test_identity_threshold_violation_exits_3(tmp_path):
    cfg = {
        "sampling": {"preset": "two_mode", "coupling": 0.45},
        "frequency": {"preset": "sqrt"},
        "seed": 1,
        "identity": {"cases": 3, "threshold": 0.0},
    }
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert run_cli(["identity-suite", "--config", str(p),
                    "--out", str(tmp_path / "o")]) == 3


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "cmvspec.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "cmvspec" in proc.stdout


LOCALIZATION = {"sampling": {"preset": "localization"}, "frequency": {"preset": "sqrt"}}


@pytest.mark.parametrize("command,extra", [
    ("localize", {**LOCALIZATION, "localize": {"gamma_samples": 0}}),
    ("localize", {**LOCALIZATION, "localize": {"gamma": "x"}}),
    ("localize", {**LOCALIZATION, "localize": {"n0": "x"}}),
    ("localize", {**LOCALIZATION, "localize": {"overrides": {"proximity": "x"}}}),
    ("multiscale", {**LOCALIZATION, "multiscale": {"n0": "x"}}),
    ("multiscale", {**LOCALIZATION, "multiscale": {"theta": "x"}}),
    ("multiscale", {**LOCALIZATION, "multiscale": {"samples": 0}}),
    ("multiscale", {**LOCALIZATION, "multiscale": {"gamma": "x"}}),
    ("multiscale", {**LOCALIZATION, "multiscale": {"scan_grid": "x"}}),
    ("multiscale", {**LOCALIZATION, "multiscale": {"schedule": {"nu_prime": "x"}}}),
    ("multiscale", {**LOCALIZATION, "multiscale": {"schedule": {"growth": "x"}}}),
    ("multiscale", {**LOCALIZATION, "multiscale": {
        "schedule": {"overrides": {"box_radius": "x"}}}}),
    ("identity-suite", {"identity": {"cases": "x"}}),
    ("identity-suite", {"identity": {"threshold": "x"}}),
    ("lyapunov", {"lyapunov": {"theta_grid": "x"}}),
    ("lyapunov", {"lyapunov": {"thetas": ["x"]}}),
    ("ldt", {"ldt": {"theta": "x"}}),
    ("spectrum-scan", {"spectrum": {"arc": ["a", "b"]}}),
    ("lyapunov", {"seed": "x", "lyapunov": {"thetas": [0.5], "samples": 3}}),
], ids=["localize-gamma_samples", "localize-gamma", "localize-n0",
        "localize-overrides", "multiscale-n0", "multiscale-theta",
        "multiscale-samples", "multiscale-gamma", "multiscale-scan_grid",
        "schedule-nu_prime", "schedule-growth", "schedule-overrides",
        "identity-cases", "identity-threshold", "theta_grid", "thetas",
        "ldt-theta", "arc", "seed"])
def test_every_config_number_exits_2(tmp_path, capsys, command, extra):
    cfg = write_cfg(tmp_path, "c.json", extra)
    assert run_cli([command, "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra", [
    ("lyapunov", {"lyapunov": {"thetas": 0.5, "samples": 3}}),
    ("lyapunov", {"lyapunov": {"thetas": [0.5], "scales": 20, "samples": 3}}),
    ("ldt", {"ldt": {"n_list": 20, "samples": 3}}),
    ("identity-suite", {"identity": [1]}),
], ids=["thetas", "scales", "n_list", "identity"])
def test_every_config_list_exits_2(tmp_path, capsys, command, extra):
    cfg = write_cfg(tmp_path, "c.json", extra)
    assert run_cli([command, "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("boundary", [
    {"beta": "x"}, {"beta": [1]}, {"beta": [1, "x"]}, {"beta": None},
    {"eta": "x"}, {"eta": [1]}, {"eta": [1, "x"]}, {"eta": None}, [1],
], ids=["beta-string", "beta-short", "beta-part", "beta-null", "eta-string",
        "eta-short", "eta-part", "eta-null", "not-object"])
def test_every_boundary_value_exits_2(tmp_path, capsys, boundary):
    cfg = write_cfg(tmp_path, "c.json", {
        "boundary": boundary,
        "spectrum": {"arc": [0.0, 1.0], "grid": 4, "window": 10}})
    assert run_cli(["spectrum-scan", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", [-1.0, 0.0], ids=["negative", "zero"])
@pytest.mark.parametrize("command", ["localize", "multiscale"])
def test_a_gamma_that_is_not_positive_exits_2(tmp_path, capsys, command, gamma):
    # exp(-gamma |s| / 20) >= 1 >= |u(s)| would pass every decay check
    cfg = write_cfg(tmp_path, "c.json", {**LOCALIZATION,
                                         command: {"n0": 10, "gamma": gamma}})
    assert run_cli([command, "--config", str(cfg), "--seed", "1",
                    "--out", str(tmp_path / "o")]) == 2
    assert "'gamma' must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("depth", [-1, 2])
def test_multiscale_depth_outside_0_1_exits_2(tmp_path, capsys, depth):
    cfg = write_cfg(tmp_path, "c.json", {**LOCALIZATION,
                                         "multiscale": {"n0": 10, "depth": depth}})
    assert run_cli(["multiscale", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2
    assert "supported range 0-1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", "true", 1, 0, None, [True]],
                         ids=["string-false", "string-true", "one", "zero", "null",
                              "list"])
def test_ldt_determinant_must_be_boolean(tmp_path, capsys, value):
    cfg = write_cfg(tmp_path, "c.json", {
        "ldt": {"n_list": [10], "samples": 3, "determinant": value}})
    out = tmp_path / "o"
    assert run_cli(["ldt", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'determinant' must be true or false" in capsys.readouterr().err
    assert not (out / "ldt_determinant.csv").exists()


@pytest.mark.parametrize("command,extra", [
    ("ldt", {"ldt": {"n_list": [], "samples": 3}}),
    ("lyapunov", {"lyapunov": {"thetas": [0.5], "scales": [], "samples": 3}}),
    ("lyapunov", {"lyapunov": {"thetas": [], "scales": [10], "samples": 3}}),
], ids=["n_list", "scales", "thetas"])
def test_empty_config_list_exits_2(tmp_path, capsys, command, extra):
    cfg = write_cfg(tmp_path, "c.json", extra)
    out = tmp_path / "o"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "must not be empty" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("top", [[1, 2], "x", 3, "config command", None],
                         ids=["list", "string", "number", "key-string", "null"])
@pytest.mark.parametrize("manifest", [False, True], ids=["config", "manifest"])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, top, manifest):
    # a manifest's 'config' is checked like a config file's top level
    body = {"command": "lyapunov", "config": top, "seed": 0} if manifest else top
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(body))
    out = tmp_path / "o"
    assert run_cli(["lyapunov", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_a_mode_with_the_wrong_number_of_entries_exits_2(tmp_path, capsys):
    # with dim 2, the modes [1] and [2] are not the mode (1, 2)
    cfg = write_cfg(tmp_path, "c.json", {
        "sampling": {"dim": 2, "coeffs": [{"k": [1], "re": 0.3, "im": 0.0},
                                          {"k": [2], "re": 0.3, "im": 0.0}]},
        "frequency": {"preset": "sqrt"},
        "lyapunov": {"thetas": [0.5], "scales": [10], "samples": 3}})
    out = tmp_path / "o"
    assert run_cli(["lyapunov", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Fourier mode [1]" in err and "dim = 2" in err
    assert not list(out.glob("*.csv"))


D1_MODE = {"dim": 1, "coeffs": [{"k": [1], "re": 0.3, "im": 0.0}]}
GOLDEN_SPEC = {"coords": [(np.sqrt(5.0) - 1.0) / 2.0], "p": 0.2, "q": 2.0, "k_max": 1000}


@pytest.mark.parametrize("sampling,frequency,named", [
    ({**D1_MODE, "coeffs": [{"k": [1.5], "re": 0.3, "im": 0.0}]}, None, "got 1.5"),
    ({**D1_MODE, "coeffs": [{"k": [True], "re": 0.3, "im": 0.0}]}, None, "got True"),
    ({**D1_MODE, "coeffs": [{"k": ["1"], "re": 0.3, "im": 0.0}]}, None, "got '1'"),
    ({**D1_MODE, "coeffs": [{"k": [float("inf")], "re": 0.3, "im": 0.0}]}, None, "got inf"),
    ({**D1_MODE, "coeffs": [{"k": [1e300], "re": 0.3, "im": 0.0}]}, None,
     "bad sampling spec"),
    ({**D1_MODE, "coeffs": [{"k": [1], "re": float("nan"), "im": 0.0}]}, None,
     "sup bound nan"),
    ({**D1_MODE, "dim": 1.7}, None, "dim must be an integer, got 1.7"),
    ({**D1_MODE, "h": float("nan")}, None, "strip width nan"),
    ({**D1_MODE, "h": -1}, None, "strip width -1"),
    (D1_MODE, {**GOLDEN_SPEC, "k_max": 1.5}, "k_max must be an integer, got 1.5"),
    (D1_MODE, {**GOLDEN_SPEC, "k_max": True}, "k_max must be an integer, got True"),
    (D1_MODE, {**GOLDEN_SPEC, "q": float("nan")}, "got nan"),
    (D1_MODE, {**GOLDEN_SPEC, "q": float("inf")}, "got inf"),
], ids=["k-fraction", "k-bool", "k-string", "k-infinite", "k-huge", "re-nan", "dim-fraction",
        "h-nan", "h-negative", "k_max-fraction", "k_max-bool", "q-nan", "q-infinite"])
def test_a_malformed_sampling_or_frequency_spec_exits_2(tmp_path, capsys, sampling,
                                                        frequency, named):
    cfg = write_cfg(tmp_path, "c.json", {
        "sampling": sampling, "frequency": frequency or GOLDEN_SPEC,
        "lyapunov": {"thetas": [0.5], "scales": [10], "samples": 3}})
    out = tmp_path / "o"
    assert run_cli(["lyapunov", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not list(out.glob("*.csv"))


SCAN_BLOCK = {"grid": 4, "window": 4, "phase_samples": 1}
LYAPUNOV_BLOCK = {"thetas": [0.5], "scales": [10], "samples": 2}
LOCALIZE_BLOCK = {"n0": 4, "gamma_samples": 2, "scan_grid": 2, "gamma": 0.5}
MULTISCALE_BLOCK = {"n0": 4, "scan_grid": 2, "samples": 1, "gamma": 0.5}


@pytest.mark.parametrize("command,extra,field,got", [
    ("spectrum-scan", {"spectrum": {**SCAN_BLOCK, "grid": 4.5}}, "grid", "4.5"),
    ("spectrum-scan", {"spectrum": {**SCAN_BLOCK, "phase_samples": 1.9}},
     "phase_samples", "1.9"),
    ("spectrum-scan", {"spectrum": {**SCAN_BLOCK, "grid": "6"}}, "grid", "'6'"),
    ("spectrum-scan", {"spectrum": {**SCAN_BLOCK, "window": True}}, "window", "True"),
    ("lyapunov", {"lyapunov": {"scales": [10], "samples": 2, "theta_grid": 2.5}},
     "theta_grid", "2.5"),
    ("lyapunov", {"lyapunov": {**LYAPUNOV_BLOCK, "scales": [10.5]}}, "scales", "10.5"),
    ("lyapunov", {"lyapunov": {**LYAPUNOV_BLOCK, "samples": True}}, "samples", "True"),
    ("ldt", {"ldt": {"n_list": [10.5], "samples": 2}}, "n_list", "10.5"),
    ("ldt", {"ldt": {"n_list": [10], "samples": 2.5}}, "samples", "2.5"),
    ("localize", {**LOCALIZATION, "localize": {**LOCALIZE_BLOCK, "n0": 4.5}},
     "n0", "4.5"),
    ("localize", {**LOCALIZATION, "localize": {**LOCALIZE_BLOCK, "gamma_samples": 2.5}},
     "gamma_samples", "2.5"),
    ("multiscale", {**LOCALIZATION, "multiscale": {**MULTISCALE_BLOCK, "n0": 4.5}},
     "n0", "4.5"),
    ("multiscale", {**LOCALIZATION, "multiscale": {**MULTISCALE_BLOCK, "depth": 0.5}},
     "depth", "0.5"),
    ("multiscale", {**LOCALIZATION, "multiscale": {**MULTISCALE_BLOCK, "scan_grid": 2.5}},
     "scan_grid", "2.5"),
    ("multiscale", {**LOCALIZATION, "multiscale": {**MULTISCALE_BLOCK, "samples": 1.5}},
     "samples", "1.5"),
    ("identity-suite", {"identity": {"cases": 1.5}}, "cases", "1.5"),
    ("lyapunov", {"seed": 1.5, "lyapunov": LYAPUNOV_BLOCK}, "seed", "1.5"),
], ids=["grid-fraction", "phase_samples-fraction", "grid-string", "window-bool",
        "theta_grid", "scales", "lyapunov-samples-bool", "n_list", "ldt-samples",
        "localize-n0", "localize-gamma_samples", "multiscale-n0", "multiscale-depth",
        "multiscale-scan_grid", "multiscale-samples", "identity-cases", "seed"])
def test_an_integer_field_that_is_not_an_integer_exits_2(tmp_path, capsys, command,
                                                         extra, field, got):
    # neither truncated nor coerced: 4.5 is not 4, "6" not 6, true not 1
    cfg = write_cfg(tmp_path, "c.json", extra)
    out = tmp_path / "o"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: '{field}' must be an integer, got {got}" \
        in capsys.readouterr().err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("command,extra,field,got", [
    ("spectrum-scan", {"spectrum": {**SCAN_BLOCK, "grid": 1e300}}, "grid", "1e+300"),
    ("spectrum-scan", {"spectrum": {**SCAN_BLOCK, "window": 10 ** 30}}, "window",
     str(10 ** 30)),
    ("lyapunov", {"lyapunov": {**LYAPUNOV_BLOCK, "scales": [-1e300]}}, "scales", "-1e+300"),
    ("lyapunov", {"seed": 1e300, "lyapunov": LYAPUNOV_BLOCK}, "seed", "1e+300"),
    ("lyapunov", {"seed": 2 ** 63, "lyapunov": LYAPUNOV_BLOCK}, "seed", str(2 ** 63)),
], ids=["grid-1e300", "window-int-1e30", "scales-negative", "seed", "seed-2pow63"])
def test_an_integer_field_beyond_int64_exits_2(tmp_path, capsys, command, extra, field,
                                               got):
    # not a traceback from np.isfinite on a Python int numpy cannot hold
    cfg = write_cfg(tmp_path, "c.json", extra)
    out = tmp_path / "o"
    assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: '{field}' must fit in a 64-bit integer, got {got}" \
        in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_an_integral_float_is_an_integer_field(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"spectrum": {**SCAN_BLOCK, "grid": 4.0}})
    out = tmp_path / "o"
    assert run_cli(["spectrum-scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert len((out / "coverage.csv").read_text().splitlines()) == 1 + 4
