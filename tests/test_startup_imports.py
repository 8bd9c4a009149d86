"""What each ``python -m fmtk.cli`` command loads.

A command run as ``__main__``, by ``python -m fmtk.cli`` or by the
``fmtk`` console script, imports only the layers it runs, and no run loads
``dataclasses`` or ``inspect``; a plain ``import fmtk.cli`` still loads
every layer, since the benchmark's set-up and its tracer read them from
``sys.modules``. pytest itself loads ``dataclasses``, so each case runs in a
fresh interpreter.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fmtk
from fmtk import cli, translate
from fmtk.shrink import SigmaTree, serialize_tree, to_structure
from fmtk.structures import MarkedStructure, serialize_structure, serialize_structures
from fmtk.wqo import make_cycle, make_linear_order, make_path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(fmtk.__file__).resolve().parents[1])

# Runs the CLI as ``python -m fmtk.cli`` does, then prints, as its last line,
# the exit code and the modules loaded.
RUN_MAIN = """
import json, runpy, sys
sys.argv = ["fmtk", *json.loads(sys.argv[1])]
try:
    runpy.run_module("fmtk.cli", run_name="__main__")
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""

# Runs the CLI as the console script named by its ``module:function``
# target does, with the same last line.
RUN_SCRIPT = """
import importlib, json, sys
module, function = sys.argv[1].split(":")
sys.argv = ["fmtk", *json.loads(sys.argv[2])]
try:
    getattr(importlib.import_module(module), function)()
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""

IMPORT_CLI = """
import json, sys
import fmtk.cli
print(json.dumps([0, sorted(sys.modules)]))
"""

BASE = {"fmtk", "fmtk.errors"}


def _layers(*names):
    return BASE | {"fmtk.records"} | {f"fmtk.{n}" for n in names}


CASES = {
    "help": (["--help"], BASE),
    "gen": (["gen", "--class", "cycle", "--n", "5", "--marks", "0"], _layers("structures", "wqo")),
    "wqo-scan": (["wqo-scan", "--file", "{orders}", "--k", "2"], _layers("structures", "wqo")),
    "equiv": (["equiv", "--file-a", "{c4}", "--file-b", "{c4}", "--m", "2"],
              _layers("structures", "equiv")),
    "shrink": (["shrink", "--file", "{tree}", "--m", "1", "--k", "1"],
               _layers("structures", "equiv", "shrink")),
    "translate": (["translate", "--formula", "forall x. !E(x,x)", "--sample", "cycles:3:5",
                   "--k", "0"], _layers("structures", "folog", "wqo", "translate")),
    "cores": (["cores", "--file", "{c4}", "--formula", "exists x. E(x,x)", "--k", "1"],
              _layers("structures", "folog", "wqo", "translate")),
    "algebra-eval": (["algebra-eval", "--structs", "{c4}", "--expr", "(u A A)"],
                     _layers("structures", "equiv", "shrink", "algebra")),
    "algebra-shrink": (["algebra-shrink", "--structs", "{c4}", "--expr", "(u A A)", "--m", "1",
                        "--k", "0"], _layers("structures", "equiv", "shrink", "algebra")),
}


def _child(code: str, *args: str) -> tuple[int, set[str]]:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exit_code, modules = json.loads(proc.stdout.splitlines()[-1])
    return exit_code, set(modules)


@pytest.fixture
def inputs(tmp_path):
    files = {"c4": tmp_path / "c4.txt", "tree": tmp_path / "t.txt", "orders": tmp_path / "o.txt"}
    files["c4"].write_text(serialize_structure("A", make_cycle(4)))
    tree = SigmaTree({0: None, 1: 0, 2: 0}, {0: "a", 1: "b", 2: "b"})
    files["tree"].write_text(serialize_tree("t", tree, (1,)))
    files["orders"].write_text(serialize_structures({
        "o1": MarkedStructure(make_linear_order(3), (0, 2)).expand(),
        "o2": MarkedStructure(make_linear_order(2), (0, 1)).expand(),
    }))
    return files


@pytest.mark.parametrize("case", list(CASES))
def test_command_loads_only_its_layers(case, inputs):
    argv, want = CASES[case]
    code, modules = _child(RUN_MAIN, json.dumps([a.format(**inputs) for a in argv]))
    assert code == 0
    assert {m for m in modules if m == "fmtk" or m.startswith("fmtk.")} == want
    assert "dataclasses" not in modules and "inspect" not in modules


@pytest.mark.parametrize("case", list(CASES))
def test_console_script_loads_only_its_layers(case, inputs):
    # the ``fmtk`` script of pyproject.toml starts as lean as ``python -m fmtk.cli``
    target = re.search(r'^fmtk = "(.+)"$', (ROOT / "pyproject.toml").read_text(), re.M).group(1)
    argv, want = CASES[case]
    code, modules = _child(RUN_SCRIPT, target, json.dumps([a.format(**inputs) for a in argv]))
    assert code == 0
    assert {m for m in modules if m == "fmtk" or m.startswith("fmtk.")} == want | {"fmtk.console"}
    assert "dataclasses" not in modules and "inspect" not in modules


def test_cores_over_trees_loads_the_tree_reader(tmp_path):
    # ``--class trees`` is ``translate.is_sigma_tree``, which reads each
    # model with ``shrink.from_structure``
    tree = SigmaTree({0: None, 1: 0}, {0: "a", 1: "b"})
    path = tmp_path / "trees.txt"
    path.write_text(serialize_structure("T", to_structure(tree)[0]))
    argv = ["cores", "--file", str(path), "--formula", "exists x. Q_a(x)", "--k", "1",
            "--class", "trees"]
    code, modules = _child(RUN_MAIN, json.dumps(argv))
    assert code == 0
    assert "fmtk.shrink" in modules and "dataclasses" not in modules


def test_importing_cli_loads_every_traced_layer():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    _, modules = _child(IMPORT_CLI)
    assert {f"fmtk.{layer}" for layer in tracing.TRACED} <= modules
    assert "dataclasses" not in modules and "inspect" not in modules


def test_core_classes_are_the_class_tests():
    assert cli.CORE_CLASSES == tuple(sorted(translate.CLASS_TESTS))
