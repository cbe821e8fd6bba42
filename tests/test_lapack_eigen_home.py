"""LAPACK eigen routines have the same one home as the scipy eigen routines:
``spectral.py``.

``test_one_eigensolver.py`` finds the scipy and numpy wrappers; this test
finds the routines reached directly through ``scipy.linalg.lapack``
(``lapack.zhbevx``, ``from scipy.linalg.lapack import zheevr``) or by name
through ``get_lapack_funcs``, so a direct call cannot bypass that rule.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cmvspec"

# Simple, expert and computational eigen routines, with or without the s/d/c/z
# prefix: ?syev, ?heevr, ?hbevx, ?hbevd, ?geev, ?gees, ?ggev, ?hseqr, ...
EIGEN_ROUTINE = re.compile(
    r"^[sdcz]?(?:(?:sy|he|sb|hb|sp|hp|st|ge|gg)(?:ev|evd|evx|evr|es|esx|gv|gvd|gvx)"
    r"|hseqr|stebz|stein|stemr|steqr|sterf|trevc)$")


def lapack_eigen_calls(source: str) -> list[int]:
    """Lines that reach a LAPACK eigen routine: ``<x>.lapack.<name>`` (or the
    module under another imported name), a name imported from
    ``scipy.linalg.lapack``, or a string name passed to ``get_lapack_funcs``."""
    tree = ast.parse(source)
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    imported = {alias.asname or alias.name for n in imports
                if isinstance(n, ast.ImportFrom) and n.module == "scipy.linalg.lapack"
                for alias in n.names if EIGEN_ROUTINE.match(alias.name)}
    modules = {"lapack"}                # the module, also under another name
    for n in imports:
        for alias in n.names:
            full = f"{n.module}.{alias.name}" if isinstance(n, ast.ImportFrom) \
                else alias.name
            if full == "scipy.linalg.lapack" and alias.asname:
                modules.add(alias.asname)
    lines = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and EIGEN_ROUTINE.match(n.attr):
            owner = n.value
            name = owner.attr if isinstance(owner, ast.Attribute) else \
                getattr(owner, "id", None)
            if name in modules:
                lines.add(n.lineno)
        elif isinstance(n, ast.Name) and n.id in imported:
            lines.add(n.lineno)
        elif isinstance(n, ast.Call) and getattr(
                n.func, "attr", getattr(n.func, "id", None)) == "get_lapack_funcs":
            for c in ast.walk(n):
                if isinstance(c, ast.Constant) and isinstance(c.value, str) \
                        and EIGEN_ROUTINE.match(c.value):
                    lines.add(n.lineno)
    return sorted(lines)


def test_checker_flags_the_direct_forms():
    source = ("from scipy.linalg import lapack, get_lapack_funcs\n"
              "from scipy.linalg.lapack import zheevr as ev, zgbtrs\n"
              "w = lapack.zhbevx(ab, 0.0, 1.0, 1, 2)\n"
              "lu, piv, info = lapack.zgbtrf(ab, 2, 2)\n"
              "w = ev(H)\n"
              "f = scipy.linalg.lapack.hbevd\n"
              "bevx, = get_lapack_funcs(('hbevx',), (ab,))\n"
              "x = zgbtrs(lu, 2, 2, b, piv)\n"
              "s = lapack.dlamch('s')\n"
              "w = lapack.dgeev(A)\n"
              "from scipy.linalg import lapack as lp\n"
              "import scipy.linalg.lapack as sll\n"
              "w = lp.zheevd(A) + sll.zgees(A)\n")
    assert lapack_eigen_calls(source) == [3, 5, 6, 7, 10, 13]


def test_lapack_eigen_routines_called_only_in_spectral():
    found = {p.name: lapack_eigen_calls(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "spectral.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert lapack_eigen_calls((SRC / "spectral.py").read_text(encoding="utf-8"))
