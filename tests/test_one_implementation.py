"""Each job has one implementation: the CLI writes files only through its two
writers, each identity of the suite is one table row, ``check_ln_monotonicity``
reports ``lyapunov_finite``'s estimates, a 1-site window takes the Schur path,
and ``edge_value`` reads a stack of vectors as each vector alone."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from cmvspec.cli import main
from cmvspec.cmv import VerblunskySequence, build_finite_cmv
from cmvspec.cocycle import SpectralPoint, check_ln_monotonicity, lyapunov_finite
from cmvspec.determinants import relation_residual
from cmvspec.green import green_value, poisson_residual
from cmvspec.presets import sqrt_frequency, strong_coupling
from cmvspec.spectral import edge_value, eigensolve
from cmvspec.torus import Phase
from cmvspec.util import counter_rng

CLI = Path(__file__).resolve().parents[1] / "src" / "cmvspec" / "cli.py"
WRITERS = {"write_csv", "write_json"}


def _writes(call: ast.Call) -> bool:
    """A call that writes a file: a path's write method, json.dump, or open
    with a mode other than reading."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes", "dump", "savetxt", "save"):
        return True
    if name != "open":
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and m.value in ("r", "rb")) for m in modes)


def test_the_cli_writes_files_only_in_its_two_writers():
    tree = ast.parse(CLI.read_text())
    writers = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)
               and f.name in WRITERS}
    assert set(writers) == WRITERS
    inside = {id(n) for f in writers.values() for n in ast.walk(f)}
    stray = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call) and _writes(n)
             and id(n) not in inside]
    assert not stray, f"cli.py writes a file outside {sorted(WRITERS)} at lines {stray}"


def _draw(seed, f, freq, stream, c):
    rng = counter_rng(seed, stream, c)
    return rng, VerblunskySequence(f, freq, Phase(tuple(rng.random(f.dim))))


def _window(rng, seq):
    n = int(rng.integers(4, 40))
    beta, eta = (complex(np.exp(2j * np.pi * rng.random())) for _ in range(2))
    return build_finite_cmv(seq, 0, n - 1, beta=beta, eta=eta)


def _expected(seed, cases):
    """Each identity's largest residual over the draws counter_rng(seed, stream, c),
    computed here from the library's pieces; undefined draws are skipped."""
    f, freq = strong_coupling(), sqrt_frequency()
    found = {}
    for c in range(cases):
        rng, seq = _draw(seed, f, freq, 1, c)
        E = _window(rng, seq).dense()
        found.setdefault("unitarity", []).append(
            np.max(np.abs(E.conj().T @ E - np.eye(len(E)))))
        rng, seq = _draw(seed, f, freq, 1, c)
        m = _window(rng, seq)
        found.setdefault("factorization", []).append(
            np.max(np.abs(m.dense() - m.l_dense() @ m.m_dense())))

        rng, seq = _draw(seed, f, freq, 2, c)
        n = int(rng.integers(2, 16))
        z = SpectralPoint(float(2 * np.pi * rng.random()))
        if abs(seq.value(-1)) >= 1e-12:
            found.setdefault("determinant_transfer", []).append(
                relation_residual(f, freq, z, seq.base, n))

        rng, seq = _draw(seed, f, freq, 3, c)
        n = int(rng.integers(8, 40))
        w = complex(np.exp(2j * np.pi * rng.random()))
        j = int(rng.integers(0, n))
        gv = green_value(seq, 0, n - 1, j, int(rng.integers(j, n)), w)
        if not gv.singular and abs(gv.value) >= 1e-12:
            found.setdefault("green_ratio", []).append(
                abs(gv.magnitude - abs(gv.value)) / abs(gv.value))

        rng, seq = _draw(seed, f, freq, 4, c)
        big_n = 30 + int(rng.integers(0, 8))
        pairs = eigensolve(build_finite_cmv(seq, 0, big_n))
        pair = pairs[int(rng.integers(0, len(pairs)))]
        a = 3 + int(rng.integers(0, 2))
        b = big_n - 3 - int(rng.integers(0, 2))
        found.setdefault("poisson", []).append(poisson_residual(
            seq, a, b, pair.value, pair.vector, (0, big_n), int(rng.integers(a + 1, b))))
    return {k: float(max(v)) for k, v in found.items()}


def test_each_identity_row_is_the_largest_residual_over_its_draws(tmp_path):
    seed, cases = 4, 3
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"sampling": {"preset": "strong_coupling"},
                                "frequency": {"preset": "sqrt"},
                                "identity": {"cases": cases}}))
    out = tmp_path / "o"
    assert main(["identity-suite", "--config", str(path), "--out", str(out),
                 "--seed", str(seed)]) == 0
    results = json.loads((out / "identity_suite.json").read_text())["results"]
    assert [(r["case"], r["threshold"]) for r in results] == [
        ("unitarity", 1e-12), ("factorization", 1e-13), ("determinant_transfer", 1e-8),
        ("green_ratio", 1e-8), ("poisson", 1e-9)]
    want = _expected(seed, cases)
    assert set(want) == {r["case"] for r in results}
    assert {r["case"]: r["residual"] for r in results} == want


@pytest.mark.parametrize("samples", [40, 200])
def test_monotonicity_reports_the_lyapunov_estimates_bit_for_bit(samples):
    f, freq, z = strong_coupling(), sqrt_frequency(), SpectralPoint(1.0)
    scales = [25, 50, 100, 200]
    rep = check_ln_monotonicity(f, freq, z, scales, samples, seed=3)
    for n in scales:
        assert rep.estimates[n] == lyapunov_finite(f, freq, z, n, samples, 3)


@pytest.mark.parametrize("sites", [1, 3, 8, 21])
def test_edge_value_of_a_stack_is_each_vector_alone(sites):
    rng = np.random.default_rng(sites)
    stack = rng.standard_normal((2, 5, sites)) + 1j * rng.standard_normal((2, 5, sites))
    got = edge_value(stack)
    assert got.shape == (2, 5)
    assert all(got[i, k] == edge_value(stack[i, k]) for i in range(2) for k in range(5))


def test_a_one_site_window_takes_the_schur_path():
    lam = 1.0000001 * np.exp(0.7j)
    (pair,) = eigensolve(np.array([[lam]]))
    assert abs(abs(pair.value) - 1.0) < 1e-15 and pair.raw_modulus == abs(lam)
    assert pair.vector.tolist() == [1.0] and pair.residual == 0.0
