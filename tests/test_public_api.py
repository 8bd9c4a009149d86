"""Every public top-level function and class of ``fmtk`` has a caller or a
reader outside the test suite.

A name counts as used when it appears as a whole word in ``src/fmtk``,
``demos/``, ``perfbench/`` or ``README.md`` on any line other than its own
``def``/``class`` line. A name only tests call is API kept alive by its own
tests: either the library uses it, a demo or the README shows it, or it goes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fmtk"


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield path, node.lineno, node.name


def _reader_lines():
    files = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py"), ROOT / "README.md"]
    return [(path, i, line) for path in sorted(files)
            for i, line in enumerate(path.read_text().splitlines(), 1)]


def test_every_public_name_has_a_reader_outside_tests():
    lines = _reader_lines()
    orphans = []
    for path, lineno, name in _public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line) for where, i, line in lines if (where, i) != (path, lineno)):
            orphans.append(f"{path.name}:{lineno} {name}")
    assert not orphans, "named nowhere outside their definition and the tests: " + ", ".join(orphans)
