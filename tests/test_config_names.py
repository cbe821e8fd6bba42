"""Every config name the command line accepts has a reader that declares it.

A name no reader declares is a config error (exit 2) that names it, wherever
it stands: the top level, a command's block, ``schedule``, ``overrides``, an
inline sampling or frequency spec, the keys beside a frequency preset, or
``boundary``.  The declarations are checked against the code that reads them.
"""

import ast
import json
from pathlib import Path

import pytest

from cmvspec.cli import COMMANDS, main
from cmvspec.multiscale import ScaleSchedule

SRC = Path(__file__).resolve().parents[1] / "src" / "cmvspec"
BASE = {"sampling": {"preset": "constant", "value": 0.5, "dim": 1},
        "frequency": {"preset": "golden"}}
LOCALIZATION = {"sampling": {"preset": "localization"}, "frequency": {"preset": "sqrt"}}
LYAPUNOV = {"thetas": [0.5], "scales": [10], "samples": 2}
GOLDEN_SPEC = {"coords": [0.6180339887498949], "p": 0.2, "q": 2.0}


@pytest.mark.parametrize("command,cfg,name,where", [
    ("localize", {**LOCALIZATION, "localize": {"n0": 4, "overrides": {
        "arc_radiuss": 1e-4}}}, "arc_radiuss", "localize.overrides"),
    ("spectrum-scan", {**BASE, "spectrum": {"grid": 4, "window": 4, "phase_sample": 3}},
     "phase_sample", "spectrum"),
    ("lyapunov", {**BASE, "frequency": {"preset": "golden", "k_max": 5},
                  "lyapunov": LYAPUNOV}, "k_max", "frequency"),
    ("lyapunov", {**BASE, "lyapunov": {"thetas": [0.5], "n": 10, "samples": 2}},
     "n", "lyapunov"),
    ("lyapunov", {**BASE, "lyapunov": LYAPUNOV, "sed": 3}, "sed", "config"),
    ("multiscale", {**LOCALIZATION, "multiscale": {"n0": 4, "schedule": {
        "growht": 1.55}}}, "growht", "multiscale.schedule"),
    ("multiscale", {**LOCALIZATION, "multiscale": {"n0": 4, "schedule": {
        "overrides": {"box_radiuss": 1e-4}}}}, "box_radiuss",
     "multiscale.schedule.overrides"),
    ("multiscale", {**LOCALIZATION, "multiscale": {"n0": 4, "overrides": {}}},
     "overrides", "multiscale"),
    ("lyapunov", {**BASE, "frequency": {**GOLDEN_SPEC, "kmax": 5},
                  "lyapunov": LYAPUNOV}, "kmax", "frequency"),
    ("lyapunov", {**BASE, "sampling": {"dim": 1, "H": 0.01, "coeffs": [
        {"k": [1], "re": 0.3, "im": 0.0}]}, "lyapunov": LYAPUNOV}, "H", "sampling"),
    ("spectrum-scan", {**BASE, "boundary": {"beta": [1.0, 0.0], "etta": [1.0, 0.0]},
                       "spectrum": {"grid": 4, "window": 4}}, "etta", "boundary"),
    ("identity-suite", {**BASE, "identity": {"case": 3}}, "case", "identity"),
], ids=["override-typo", "phase_sample", "preset-k_max", "lyapunov-n", "top-level",
        "schedule-field", "schedule-override", "localize-key-in-multiscale",
        "inline-frequency", "inline-sampling", "boundary", "identity"])
def test_an_undeclared_name_exits_2_and_is_named(tmp_path, capsys, command, cfg, name,
                                                 where):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: unknown name '{name}' in {where} (known: " \
        in capsys.readouterr().err
    assert not list(out.glob("*"))


def test_a_config_may_carry_every_command_block(tmp_path):
    # a config shared by several commands: the blocks and boundary a command
    # does not read are declared by the commands that do
    cfg = {**BASE, "lyapunov": LYAPUNOV, "boundary": {"beta": [1.0, 0.0]},
           **{c.block: {} for name, c in COMMANDS.items() if name != "lyapunov"}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["lyapunov", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def _block_keys(tree: ast.Module, name: str) -> set:
    """The ``block.get("...")`` keys of function ``name`` and of every module
    function it passes ``block`` to.  A read whose key is not a string
    literal cannot be declared: it is reported as ``<undeclarable: key>``."""
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    keys, todo = set(), [name]
    while todo:
        for node in ast.walk(funcs[todo.pop()]):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            first, func = node.args[0], node.func
            if isinstance(func, ast.Attribute) and func.attr == "get" \
                    and isinstance(func.value, ast.Name) and func.value.id == "block":
                literal = isinstance(first, ast.Constant) and isinstance(first.value, str)
                keys.add(first.value if literal else f"<undeclarable: {ast.unparse(first)}>")
            elif isinstance(func, ast.Name) and func.id in funcs \
                    and isinstance(first, ast.Name) and first.id == "block":
                todo.append(func.id)
    return keys


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_block_declares_what_its_runner_reads(command):
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    entry = COMMANDS[command]
    assert _block_keys(tree, entry.run.__name__) == set(entry.keys)
    assert len(set(entry.keys)) == len(entry.keys)


def test_block_keys_reports_a_non_literal_read():
    tree = ast.parse("def run(block, other):\n"
                     "    block.get('grid', 4)\n"
                     "    helper(block, 'tol')\n"
                     "    other.get(name)\n"
                     "def helper(block, name):\n"
                     "    block.get('window')\n"
                     "    block.get(name, 0.1)\n")
    assert _block_keys(tree, "run") == {"grid", "window", "<undeclarable: name>"}


def _threshold_names(source: str) -> list:
    """The string literals passed as the first argument of ``.threshold(``."""
    return [n.args[0].value for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "threshold" and n.args
            and isinstance(n.args[0], ast.Constant) and isinstance(n.args[0].value, str)]


def test_every_threshold_literal_is_declared_and_every_declared_one_read():
    names = [name for path in sorted(SRC.glob("*.py"))
             for name in _threshold_names(path.read_text(encoding="utf-8"))]
    assert set(names) - set(ScaleSchedule.THRESHOLDS) == set()
    assert set(ScaleSchedule.THRESHOLDS) - set(names) == set()
    assert len(set(ScaleSchedule.THRESHOLDS)) == len(ScaleSchedule.THRESHOLDS) == 12
