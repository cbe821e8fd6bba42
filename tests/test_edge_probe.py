"""The coverage edge probe: one solve at a known eigenvalue, factors
evaluated once per window, one seeded start per size, and the scan's
``tol`` and one-site windows handled without numeric noise."""

import json
import warnings

import numpy as np
import pytest

import cmvspec.coverage as cov
from cmvspec.cli import main
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.coverage import interval_coverage_scan, nearest_eigen_banded
from cmvspec.spectral import edge_value, eigensolve, hermitian_eigenphases
from cmvspec.torus import Phase
from cmvspec.util import counter_rng


@pytest.fixture(scope="module")
def readme_pairs(f_const, freq1):
    """The README scan's 801-site window at the phase of seed 0, its seed
    spectrum as the scan computes it, and its dense eigenpairs."""
    x = Phase(tuple(counter_rng(0, 0).random(1)))
    m = build_finite_cmv(VerblunskySequence(f_const, freq1, x), -400, 400)
    return m, hermitian_eigenphases(m), eigensolve(m)


def _counted_solves(monkeypatch):
    calls = []
    solve = cov.solve_banded

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cov, "solve_banded", counted)
    return calls


# w[400] is exactly -1, an eigenvalue of the real window: its pencil is
# exactly singular, so the probe nudges the shift and solves once more
@pytest.mark.parametrize("k,solves", [(0, 1), (150, 1), (399, 1), (400, 2),
                                      (650, 1)])
def test_edge_probe_at_a_seed_eigenvalue_converges_at_once(readme_pairs, k, solves,
                                                      monkeypatch):
    m, w, pairs = readme_pairs
    assert (w[k] == -1.0) == (k == 400)
    calls = _counted_solves(monkeypatch)
    lam, vec, res = nearest_eigen_banded(m, w[k])
    assert len(calls) == solves
    assert res < 1e-10
    dense = min(pairs, key=lambda p: abs(p.value - w[k]))
    assert abs(lam - dense.value) < 1e-10
    assert abs(edge_value(vec) - edge_value(dense.vector)) < 1e-10


def test_probe_deep_in_a_gap_runs_every_step(readme_pairs, monkeypatch):
    # a real window's spectrum is closed under conjugation, so z = 1, in the
    # middle of the constant-alpha gap, is equally far from its two nearest
    # eigenvalues and inverse iteration cannot pick one
    m, w, _ = readme_pairs
    d = np.sort(np.abs(w - 1.0))
    assert d[0] > 0.5 and d[1] - d[0] < 1e-12
    calls = _counted_solves(monkeypatch)
    products = []
    apply = cov.apply_cmv
    monkeypatch.setattr(cov, "apply_cmv",
                        lambda *args: products.append(1) or apply(*args))
    _, _, res = nearest_eigen_banded(m, 1.0 + 0j)
    assert len(calls) == cov._PROBE_ITERS
    assert res >= cov._PROBE_RES_TOL
    # its growth never passes 1/_PROBE_RES_TOL: no residual before step 3
    assert len(products) == cov._PROBE_ITERS - 2


@pytest.mark.parametrize("n", [1, 3, 801])
def test_start_vector_is_the_seeded_draw(n):
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    start = cov._start(n)
    assert start.tobytes() == v.tobytes()
    assert cov._start(n) is start
    with pytest.raises(ValueError):
        start[0] = 0.0


def test_factor_memo_matches_a_fresh_window(f_two_mode, freq2):
    x = Phase((0.37, 0.81))

    def build():
        return build_finite_cmv(VerblunskySequence(f_two_mode, freq2, x), -40, 40)

    m = build()
    z = np.exp(0.7j)
    for _ in range(3):          # the first call fills the memo, later ones read it
        assert m.lstar_banded().tobytes() == build().lstar_banded().tobytes()
        assert m.zlstar_minus_m_banded(z).tobytes() == \
            build().zlstar_minus_m_banded(z).tobytes()
    with pytest.raises(ValueError):
        m._factors[0][0][0] = 0.0


def test_rows_of_a_batch_do_not_share_a_factor_memo(f_two_mode, freq2):
    xs = np.array([[0.37, 0.81], [0.12, 0.55]])
    batch = build_finite_cmv(VerblunskySequence(f_two_mode, freq2, xs), -30, 30)
    r0, r1 = batch.row(0), batch.row(1)
    assert r0.lstar_banded().tobytes() != r1.lstar_banded().tobytes()
    for k, r in enumerate((r0, r1)):
        alone = build_finite_cmv(
            VerblunskySequence(f_two_mode, freq2, Phase(tuple(xs[k]))), -30, 30)
        assert r.lstar_banded().tobytes() == alone.lstar_banded().tobytes()
        assert r.zlstar_minus_m_banded(2j).tobytes() == \
            alone.zlstar_minus_m_banded(2j).tobytes()
    assert r0._factors is not r1._factors


BAD_TOLS = [-0.01, 0.0, float("nan"), float("inf")]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_scan_rejects_a_bad_tol(f_const, freq1, tol):
    with pytest.raises(ValueError, match="tol"):
        interval_coverage_scan(f_const, freq1, (0.0, 1.0), grid=4, window=5,
                               tol=tol, phase_samples=1)


def _scan_cfg(tmp_path, spectrum):
    cfg = {"sampling": {"preset": "constant", "value": 0.5, "dim": 1},
           "frequency": {"preset": "golden"}, "spectrum": spectrum}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))        # NaN and Infinity as JSON tokens
    return path


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_cli_bad_tol_is_a_config_error(tmp_path, tol, capsys):
    path = _scan_cfg(tmp_path, {"arc": [0.0, 1.0], "grid": 4, "window": 5,
                                "tol": tol})
    out = tmp_path / "o"
    assert main(["spectrum-scan", "--config", str(path), "--out", str(out)]) == 2
    assert "'tol'" in capsys.readouterr().err
    assert not (out / "arc_summary.json").exists()


def test_one_site_window_scan_is_warning_free(tmp_path):
    # the window's one eigenvalue is -1 (beta = eta = 1), a grid point here,
    # so its edge test shifts exactly at it and the 1x1 solve divides by zero
    path = _scan_cfg(tmp_path, {"arc": [0.0, 2 * np.pi], "grid": 36,
                                "window": 0, "tol": 0.05, "phase_samples": 2})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum-scan", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "coverage.csv").read_text().splitlines()[1:]
    at_pi = rows[18].split(",")
    assert float(at_pi[2]) < 1e-15            # best_dist: -1 is the eigenvalue
    assert float(at_pi[-1]) == 1.0            # a 1-site vector cannot decay
    assert all(r.split(",")[1] == "0" for r in rows)
