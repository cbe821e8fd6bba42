"""Every defaulted parameter of the package is set by some call in src/,
tests/, demos/ or bench/: a default that no call overrides is a constant,
not an option."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cmvspec"
MODULES = sorted(SRC.glob("*.py"))
CALLERS = [ast.parse(p.read_text(encoding="utf-8"))
           for d in ("src", "tests", "demos", "bench") for p in sorted((ROOT / d).rglob("*.py"))]


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee, parameter, position) of each parameter with a default.  The
    callee of an ``__init__`` is its class; the position counts the
    arguments a call writes (a method's ``self`` or ``cls`` is not one) and
    is None for a keyword-only parameter."""
    owner = {fn: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        bound = 1 if fn in owner and not static else 0
        callee = owner[fn] if fn.name == "__init__" else fn.name
        first = len(positional) - len(args.defaults)
        out += [(callee, a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
        out += [(callee, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
    return out


def _sets(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether the call passes the parameter: by keyword, by position, or
    through a ``*args`` or ``**kwargs`` that may hold it."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def unset_parameters(module: ast.Module, callers: list) -> list[str]:
    """``callee.parameter`` for each defaulted parameter of the module that
    no call in the callers sets; calls match by the name they call."""
    calls = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return sorted(f"{callee}.{parameter}"
                  for callee, parameter, position in defaulted_parameters(module)
                  if not any(_sets(c, parameter, position) for c in calls.get(callee, ())))


def test_checker_flags_defaults_no_call_sets():
    module = ast.parse("class A:\n"
                       "    def __init__(self, x=1, y=2): ...\n"
                       "    def m(self, p, q=0, *, r=3): ...\n"
                       "    @staticmethod\n"
                       "    def s(u=0, v=1): ...\n"
                       "def f(a, b=1, c=2): ...\n"
                       "def g(k=0): ...\n")
    callers = [ast.parse("A(0)\nA(y=5).m(1, 2)\nA.s(7)\nf(1, c=3)\ng(*ks)\n")]
    assert unset_parameters(module, callers) == ["f.b", "m.r", "s.v"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_default_is_set_by_some_call(path):
    assert unset_parameters(ast.parse(path.read_text(encoding="utf-8")), CALLERS) == []
