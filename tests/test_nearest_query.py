"""Failure channels and start vector of the banded nearest-value query.

The query factors H - lambda_max once (``lapack.zgbtrf``) and takes the top
two eigenvalues of H from ``lapack.zhbevx``; these tests make each LAPACK
call report failure and check where the query goes, and check that the
inverse-iteration start vector is the fixed seeded draw at every size.
"""

import json

import numpy as np
import pytest
from scipy.linalg import lapack

from cmvspec import spectral
from cmvspec.cli import main
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.spectral import (DEFAULT_MAX_DIM, eigenphases, nearest_eigenpair,
                              nearest_eigenvalue)
from cmvspec.torus import Phase


@pytest.fixture(scope="module")
def windows(freq2, f_two_mode):
    rng = np.random.default_rng(14)
    out = []
    for n in (21, 91):
        seq = VerblunskySequence(f_two_mode, freq2, Phase(tuple(rng.random(2))))
        beta, eta = np.exp(2j * np.pi * rng.random(2))
        out.append(build_finite_cmv(seq, -(n // 2), n - 1 - n // 2, beta=beta, eta=eta))
    return out


def test_singular_factorization_takes_dense_fallback(windows, monkeypatch):
    # true factors reported as singular: only the info check can send the
    # query to the dense path, the residual certificate would pass
    calls, factor = [], lapack.zgbtrf

    def singular(ab, kl, ku):
        calls.append(ab.shape)
        return *factor(ab, kl, ku)[:2], 1

    monkeypatch.setattr(lapack, "zgbtrf", singular)
    for m in windows:
        w = eigenphases(m)
        for z in np.exp(2j * np.pi * np.array([0.1, 0.45, 0.8])):
            lam, vec, res = nearest_eigenpair(m, z)
            assert lam == w[int(np.argmin(np.abs(w - z)))]
            assert vec is None and res == 0.0
    assert calls == [(7, 21)] * 3 + [(7, 91)] * 3


def failing_zhbevx(ab, vl, vu, il, iu, **kwargs):
    n = ab.shape[1]
    return np.zeros(n), np.zeros((1, 1), dtype=complex), 0, np.zeros(1, np.int32), 1


def test_eigenvalue_failure_raises(windows, monkeypatch):
    monkeypatch.setattr(lapack, "zhbevx", failing_zhbevx)
    with pytest.raises(np.linalg.LinAlgError):
        nearest_eigenvalue(windows[0], np.exp(1j))


def test_eigenvalue_failure_is_a_numeric_exit(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "sampling": {"preset": "localization"}, "frequency": {"preset": "sqrt"},
        "multiscale": {"theta": 2.5, "n0": 10, "depth": 0, "samples": 6}}))
    monkeypatch.setattr(lapack, "zhbevx", failing_zhbevx)
    assert main(["multiscale", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("n", [3, 21, 91, DEFAULT_MAX_DIM])
def test_start_vector_is_the_seeded_draw(n):
    ref = np.random.default_rng(1234).standard_normal(n)
    assert spectral._START[:n].tobytes() == ref.tobytes()


def test_longer_window_draws_its_own_start(windows, monkeypatch):
    m = windows[0]
    z = np.exp(2.5j)
    lam, vec, res = nearest_eigenpair(m, z)
    assert vec is not None
    monkeypatch.setattr(spectral, "_START", spectral._START[:m.size - 1])
    lam2, vec2, res2 = nearest_eigenpair(m, z)
    assert (lam2, res2) == (lam, res)
    assert vec2.tobytes() == vec.tobytes()
