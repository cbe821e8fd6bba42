"""The nearest-value query is one routine, and E v has one kernel.

In ``spectral.py`` the banded query's LAPACK calls (``zhbevx``, ``zgbtrf``,
``zgbtrs``) and its ``eigenphases`` fallback sit in one function, so no
second pass over the batch decides which windows go dense.  E v is
``cmv.band_product`` for a vector, a column block and a band stack alike:
``spectral.py`` walks no diagonals of E for a product of its own.
"""

import ast
from pathlib import Path

from cmvspec import cmv, spectral

SPECTRAL = Path(__file__).resolve().parents[1] / "src" / "cmvspec" / "spectral.py"
QUERY = {"zhbevx", "zgbtrf", "zgbtrs", "eigenphases"}


def _called(node) -> set:
    """Names of the functions called inside node, as attribute or bare name."""
    return {getattr(c.func, "attr", getattr(c.func, "id", None))
            for c in ast.walk(node) if isinstance(c, ast.Call)}


def query_homes(source: str) -> dict:
    """For each top-level function that calls one of the query's LAPACK
    routines, the query calls (LAPACK and ``eigenphases``) it makes."""
    return {f.name: sorted(_called(f) & QUERY)
            for f in ast.parse(source).body if isinstance(f, ast.FunctionDef)
            and _called(f) & {"zhbevx", "zgbtrf", "zgbtrs"}}


def band_walks(source: str) -> list[int]:
    """Lines of loops that accumulate a product of two subscripts (``out[..]
    += d[..] * v[..]``) or run over the five diagonals, ``range(-2, 3)``."""
    lines = set()
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        it = getattr(loop, "iter", None)
        if isinstance(it, ast.Call) and getattr(it.func, "id", None) == "range" \
                and ast.unparse(it) == "range(-2, 3)":
            lines.add(loop.lineno)
        for n in ast.walk(loop):
            if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Add) \
                    and isinstance(n.value, ast.BinOp) and isinstance(n.value.op, ast.Mult) \
                    and isinstance(n.value.left, ast.Subscript) \
                    and isinstance(n.value.right, ast.Subscript):
                lines.add(loop.lineno)
    return sorted(lines)


def test_checkers_flag_the_split_forms():
    source = ("def banded(ab):\n"
              "    w = lapack.zhbevx(ab)\n"
              "    lu, piv, info = lapack.zgbtrf(ab, 2, 2)\n"
              "    return lapack.zgbtrs(lu, 2, 2, v, piv)\n"
              "def fallback(m):\n"
              "    return [eigenphases(r) for r in m]\n"
              "def rows(bands, V):\n"
              "    for off in range(-2, 3):\n"
              "        out[:, i0:i1] += bands[:, off + 2, i0:i1] * V[:, i0 + off:i1 + off]\n"
              "    for k in range(n):\n"
              "        out[k] += d[k] * v[k + 1]\n"
              "    for off in range(3):\n"
              "        ab[:, 4 - off] = d\n")
    assert query_homes(source) == {"banded": ["zgbtrf", "zgbtrs", "zhbevx"]}
    assert band_walks(source) == [8, 10]


def test_one_function_holds_the_query_and_its_fallback():
    homes = query_homes(SPECTRAL.read_text(encoding="utf-8"))
    assert list(homes.values()) == [sorted(QUERY)]


def test_spectral_has_no_band_walk_of_its_own():
    assert band_walks(SPECTRAL.read_text(encoding="utf-8")) == []
    assert spectral._apply_rows is cmv.band_product
