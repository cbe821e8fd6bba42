"""Windows and determinants over an (N, d) array of phases: every row equals
the window of its phase alone, bit for bit."""

import json
import warnings

import numpy as np
import pytest

from cmvspec import ldt, util
from cmvspec.cli import main
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.cocycle import SpectralPoint
from cmvspec.determinants import char_det, log_normalized_phi
from cmvspec.presets import single_mode
from cmvspec.torus import Phase, SamplingFunction
from cmvspec.util import counter_phases

from conftest import random_unit


def _sequences(f, omega, xs, overrides=None):
    """The batched sequence over xs and the single-phase one of each row."""
    return (VerblunskySequence(f, omega, xs, overrides=overrides),
            [VerblunskySequence(f, omega, Phase(tuple(x)), overrides=overrides)
             for x in xs])


def _cases(f, omega, rng):
    """(batch, singles, a, b, beta, eta): even and odd a, unit and natural
    cuts, with and without overrides, windows of 1 to 60 sites."""
    cut = (random_unit(rng), random_unit(rng))
    for a, b in [(0, 0), (3, 3), (0, 1), (-7, 20), (1, 49), (4, 63)]:
        for beta, eta in [cut, (None, None), (None, cut[1]), (cut[0], None)]:
            for overrides in (None, {a + 1: -1j, b - 1: 1.0}, {a - 1: 1j}):
                xs = rng.random((5, f.dim))
                yield (*_sequences(f, omega, xs, overrides), a, b, beta, eta)


@pytest.fixture(scope="module")
def f_three_mode():
    return SamplingFunction(2, {(1, 0): 0.3 + 0.1j, (0, 1): -0.2j,
                                (2, -1): 0.15, (-1, 1): 0.05 + 0.05j})


@pytest.fixture(params=["d1", "d2", "d2-three-mode"])
def sampling(request, freq1, f_two_mode, freq2, f_three_mode):
    return {"d1": (single_mode(), freq1), "d2": (f_two_mode, freq2),
            "d2-three-mode": (f_three_mode, freq2)}[request.param]


class TestBatchedSequence:
    def test_values_rows_are_single_phase_values(self, sampling):
        f, omega = sampling
        xs = np.random.default_rng(1).random((6, f.dim))
        batch, singles = _sequences(f, omega, xs, overrides={2: 1j})
        for lo, hi in [(-3, 9), (2, 2), (5, 40)]:
            raw, vals = batch.raw_values(lo, hi), batch.values(lo, hi)
            assert raw.shape == vals.shape == (6, hi - lo + 1)
            for k, one in enumerate(singles):
                assert np.array_equal(raw[k], one.raw_values(lo, hi))
                assert np.array_equal(vals[k], one.values(lo, hi))

    def test_one_coefficient_evaluation_per_batch(self, f_two_mode, freq2,
                                                  monkeypatch):
        calls = []
        original = SamplingFunction.alpha
        monkeypatch.setattr(SamplingFunction, "alpha",
                            lambda self, *args: calls.append(1) or original(self, *args))
        xs = np.random.default_rng(2).random((9, 2))
        log_normalized_phi(VerblunskySequence(f_two_mode, freq2, xs), 0, 29,
                           np.exp(1j))
        assert len(calls) == 1


class TestBatchedWindow:
    def test_rows_are_single_phase_windows(self, sampling):
        f, omega = sampling
        rng = np.random.default_rng(3)
        for batch, singles, a, b, beta, eta in _cases(f, omega, rng):
            m = build_finite_cmv(batch, a, b, beta=beta, eta=eta, _allow_natural=True)
            assert m.size == b - a + 1
            assert m.bands.shape == (len(singles), 5, m.size)
            for k, seq in enumerate(singles):
                one = build_finite_cmv(seq, a, b, beta=beta, eta=eta,
                                       _allow_natural=True)
                for name in ("bands", "alpha", "rho", "sampled_rho"):
                    got, want = getattr(m, name)[k], getattr(one, name)
                    assert got.dtype == want.dtype, (name, a, b)
                    assert np.array_equal(got, want), (name, a, b, beta, eta)


class TestBatchedDeterminant:
    def test_rows_are_single_phase_determinants(self, sampling):
        f, omega = sampling
        rng = np.random.default_rng(4)
        for batch, singles, a, b, beta, eta in _cases(f, omega, rng):
            z = complex(rng.choice([random_unit(rng), 0.8 * random_unit(rng)]))
            det = char_det(batch, a, b, z, beta=beta, eta=eta)
            logs = log_normalized_phi(batch, a, b, z, beta=beta, eta=eta)
            assert logs.shape == (len(singles),)
            for k, seq in enumerate(singles):
                one = char_det(seq, a, b, z, beta=beta, eta=eta)
                assert det.log_abs[k] == one.log_abs
                assert det.phase[k] == one.phase
                assert det.singular[k] == one.singular
                assert det.log_rho[k] == one.log_rho
                assert logs[k] == log_normalized_phi(seq, a, b, z, beta=beta, eta=eta)

    def test_single_phase_types_unchanged(self, f_two_mode, freq2):
        seq = VerblunskySequence(f_two_mode, freq2, Phase((0.37, 0.81)))
        det = char_det(seq, 0, 19, np.exp(1j))
        assert type(det.log_abs) is float and type(det.phase) is complex
        assert type(det.singular) is bool and type(det.log_rho) is float
        assert type(log_normalized_phi(seq, 0, 19, np.exp(1j))) is float

    def test_exactly_singular_window_gives_minus_inf_per_row(self, f_zero, freq1):
        # the free 3-site window has -1 as an exact eigenvalue
        batch, singles = _sequences(f_zero, freq1,
                                    np.random.default_rng(5).random((7, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            det = char_det(batch, 0, 2, -1.0 + 0j)
            logs = log_normalized_phi(batch, 0, 2, -1.0 + 0j)
        assert det.singular.all()
        assert np.array_equal(logs, np.full(7, -np.inf))
        assert all(log_normalized_phi(s, 0, 2, -1.0 + 0j) == -np.inf for s in singles)

    def test_mixed_singular_rows(self, f_two_mode, freq2):
        # z is the exact entry of the first row's one-site pure truncation, so
        # only that row is singular and the others keep their finite values
        xs = np.random.default_rng(6).random((4, 2))
        batch, singles = _sequences(f_two_mode, freq2, xs)
        z = complex(build_finite_cmv(singles[0], 0, 0, beta=None, eta=None,
                                     _allow_natural=True).bands[2, 0])
        det = char_det(batch, 0, 0, z, beta=None, eta=None)
        logs = log_normalized_phi(batch, 0, 0, z, beta=None, eta=None)
        for k, seq in enumerate(singles):
            one = char_det(seq, 0, 0, z, beta=None, eta=None)
            assert (det.singular[k], det.phase[k]) == (one.singular, one.phase)
            assert logs[k] == log_normalized_phi(seq, 0, 0, z, beta=None, eta=None)
        assert det.singular.tolist() == [True, False, False, False]
        assert logs[0] == -np.inf and np.isfinite(logs[1:]).all()


def _oracle_statistic(f, omega, z, xs, n, beta, eta):
    """The determinant statistic one window at a time."""
    vals = np.array([log_normalized_phi(VerblunskySequence(f, omega, Phase(tuple(x))),
                                        0, n - 1, z.z, beta=beta, eta=eta)
                     for x in xs])
    return np.where(np.isfinite(vals), vals, -np.inf)


class TestDeterminantScan:
    @pytest.mark.parametrize("chunk", [ldt._CHUNK, 64])
    def test_statistic_equals_per_window_oracle(self, f_two_mode, freq2,
                                                monkeypatch, chunk):
        # chunk 64 gives widths 6 and 3: 40 samples leave a partial chunk
        monkeypatch.setattr(ldt, "_CHUNK", chunk)
        z, beta, eta = SpectralPoint(1.0), np.exp(0.4j), np.exp(-0.9j)
        seen = {}
        original = ldt.log_normalized_phi

        def spy(seq, a, b, *args, **kwargs):
            out = original(seq, a, b, *args, **kwargs)
            seen.setdefault(b + 1, []).append(out)
            return out
        monkeypatch.setattr(ldt, "log_normalized_phi", spy)
        scan = ldt.ldt_determinant_scan(f_two_mode, freq2, z, [10, 21], tau=0.3,
                                        samples=40, seed=3, beta=beta, eta=eta)
        monkeypatch.setattr(ldt, "log_normalized_phi", original)
        oracle = ldt._scan(
            f_two_mode, freq2, z, [10, 21], 0.3, 40, 3,
            lambda xs, n, products: _oracle_statistic(f_two_mode, freq2, z, xs, n,
                                                      beta, eta), "log|phi|")
        for n in (10, 21):
            want = _oracle_statistic(f_two_mode, freq2, z,
                                     counter_phases(2, 40, 3, n), n, beta, eta)
            assert len(seen[n]) == -(-40 // max(1, chunk // n))
            assert np.array_equal(np.concatenate(seen[n]), want)
        assert scan.estimates == oracle.estimates
        assert scan.l_values == oracle.l_values

    def test_measure_scan_phases_are_reused(self, f_two_mode, freq2, monkeypatch):
        z = SpectralPoint(1.0)
        measure = ldt.ldt_measure_scan(f_two_mode, freq2, z, [10, 21], tau=0.3,
                                       samples=40, seed=3)
        fresh = ldt.ldt_determinant_scan(f_two_mode, freq2, z, [10, 21], tau=0.3,
                                         samples=40, seed=3)
        monkeypatch.setattr(ldt, "counter_phases", None)     # no draw may happen
        reused = ldt.ldt_determinant_scan(f_two_mode, freq2, z, [10, 21], tau=0.3,
                                          samples=40, seed=3, measure=measure)
        assert reused.estimates == fresh.estimates
        assert reused.l_values == fresh.l_values
        for n in (10, 21):
            assert np.array_equal(reused.phases[n], counter_phases(2, 40, 3, n))


def test_ldt_command_draws_each_phase_stream_once(tmp_path, monkeypatch):
    calls = []
    original = util.counter_rng
    monkeypatch.setattr(util, "counter_rng",
                        lambda *key: calls.append(key) or original(*key))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "sampling": {"preset": "strong_coupling"}, "frequency": {"preset": "sqrt"},
        "ldt": {"theta": 1.0, "n_list": [10, 21, 30], "samples": 12,
                "determinant": True}}))
    assert main(["ldt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "ldt_determinant.csv").exists()
    assert len(calls) == 12 * 3
    assert len(set(calls)) == len(calls)
