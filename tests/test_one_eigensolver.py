"""Dense and banded eigensolves have one home: ``spectral.py``.

Every numpy or scipy eigen routine (and the Schur factorization) is called
only there, so each full spectrum of a window comes through one of its
certified paths and a count of eigensolves has one place to look.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cmvspec"

EIGEN_ROUTINES = {"eig", "eigvals", "eigh", "eigvalsh", "eig_banded",
                  "eigvals_banded", "eigh_tridiagonal", "eigvalsh_tridiagonal",
                  "eigs", "eigsh", "schur"}


def eigen_calls(source: str) -> list[int]:
    """Lines that call an eigen routine, by attribute (``np.linalg.eigvals``)
    or by a name imported from numpy or scipy (``from scipy.linalg import
    schur as s``, then ``s``)."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom)
                and (n.module or "").split(".")[0] in ("numpy", "scipy")
                for alias in n.names if alias.name in EIGEN_ROUTINES}
    lines = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        if (isinstance(f, ast.Attribute) and f.attr in EIGEN_ROUTINES) or \
                (isinstance(f, ast.Name) and f.id in imported):
            lines.append(n.lineno)
    return sorted(lines)


def test_checker_flags_the_old_forms():
    source = ("import numpy as np\n"
              "from scipy.linalg import schur as sch, solve_banded\n"
              "from .spectral import eigenphases\n"
              "w = np.linalg.eigvals(A)\n"
              "T, Z = sch(A)\n"
              "h = scipy.linalg.eigh(H, driver='evr')\n"
              "x = solve_banded((1, 1), ab, b)\n"
              "p = eigenphases(m)\n")
    assert eigen_calls(source) == [4, 5, 6]


def test_eigen_routines_called_only_in_spectral():
    found = {p.name: eigen_calls(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "spectral.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert eigen_calls((SRC / "spectral.py").read_text(encoding="utf-8"))
