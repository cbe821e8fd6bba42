"""Threshold overrides and CLI config numbers each have one reader.

``ScaleSchedule.threshold`` is the only place that reads a schedule's
``overrides``, and ``cli.config_number`` the only way the command line turns
a config value into a number, so a bad value is a config error (exit 2)
rather than a traceback.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cmvspec"


def _is_get(node, owner=None) -> bool:
    """``<x>.get(...)``, with ``<x>`` an attribute named ``owner`` if given."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"):
        return False
    target = node.func.value
    return owner is None or (isinstance(target, ast.Attribute) and target.attr == owner)


def overrides_reads(source: str) -> list[int]:
    """Lines of ``.overrides.get(`` calls outside the ScaleSchedule class."""
    tree = ast.parse(source)
    inside = {id(n) for c in ast.walk(tree)
              if isinstance(c, ast.ClassDef) and c.name == "ScaleSchedule"
              for n in ast.walk(c)}
    return sorted(n.lineno for n in ast.walk(tree)
                  if _is_get(n, "overrides") and id(n) not in inside)


def bare_casts(source: str) -> list[int]:
    """Lines of ``int(...)`` / ``float(...)`` calls whose argument holds a
    ``.get(`` call."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id in ("int", "float")
                  and any(_is_get(m) for a in n.args for m in ast.walk(a)))


def test_checkers_flag_the_old_forms():
    source = ("class ScaleSchedule:\n"
              "    def threshold(self, name, value):\n"
              "        return float(self.overrides.get(name, value))\n"
              "def radius(schedule):\n"
              "    return float(schedule.overrides.get('box_radius', 1.0))\n"
              "n0 = int(block.get('n0', 16))\n"
              "theta = float(block.get('theta', 2.5) or 0.0)\n"
              "n = config_number(block.get('n', 1), 'n', int)\n")
    assert overrides_reads(source) == [5]
    assert bare_casts(source) == [3, 5, 6, 7]


def test_overrides_read_only_by_the_schedule():
    found = {p.name: overrides_reads(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_cli_numbers_read_through_config_number():
    assert bare_casts((SRC / "cli.py").read_text(encoding="utf-8")) == []
