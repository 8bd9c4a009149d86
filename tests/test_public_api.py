"""Every public top-level function and class of ``fmtk``, and every public
method of such a class, has a caller or a reader outside the test suite.

A name counts as used when it appears as a whole word in ``src/fmtk``,
``demos/``, ``perfbench/`` or ``README.md`` on any line other than its own
``def``/``class`` line; a method ``name`` counts when ``.name`` appears there.
A name only tests call is API kept alive by its own tests: either the library
uses it, a demo or the README shows it, or it goes.
"""

import ast
import importlib
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


def _public_methods():
    for path, _, name in _public_definitions():
        tree = ast.parse(path.read_text())
        cls = next((n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name), None)
        for node in cls.body if cls else ():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                yield path, node.lineno, f"{name}.{node.name}"


def test_every_public_method_has_a_reader_outside_tests():
    lines = _reader_lines()
    orphans = []
    for path, lineno, qual in _public_methods():
        attr = re.compile(rf"\.{re.escape(qual.split('.')[1])}\b")
        if not any(attr.search(line) for where, i, line in lines if (where, i) != (path, lineno)):
            orphans.append(f"{path.name}:{lineno} {qual}")
    assert not orphans, "named nowhere outside their definition and the tests: " + ", ".join(orphans)


def test_readme_guard_table_names_exactly_the_guards():
    # a deleted guard cannot linger in the docs, nor a new one go undocumented
    defined = {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
               for name in re.findall(r"^([A-Z_]+_GUARD) = ", path.read_text(), re.M)}
    section = (ROOT / "README.md").read_text().split("\n## Guards\n")[1].split("\n## ")[0]
    rows = [line.split(" | ")[1] for line in section.splitlines() if line.startswith("| ")][2:]
    named = [g for cell in rows for g in re.findall(r"`(\w+\.\w+_GUARD)`", cell)]
    assert sorted(named) == sorted(defined)


def test_readme_dotted_names_resolve():
    # a deleted class or function cannot linger in the docs
    modules = {path.stem: importlib.import_module(f"fmtk.{path.stem}")
               for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    classes = {name: obj for module in modules.values()
               for name, obj in vars(module).items() if isinstance(obj, type)}
    unresolved = []
    for dotted in sorted(set(re.findall(r"`(\w+(?:\.\w+)+)`", (ROOT / "README.md").read_text()))):
        if (ROOT / dotted).exists():
            continue  # a file of the repository, such as pyproject.toml
        head, *rest = dotted.removeprefix("fmtk.").split(".")
        obj = modules.get(head, classes.get(head))
        for attr in rest:
            obj = getattr(obj, attr, None)
        if obj is None:
            unresolved.append(dotted)
    assert not unresolved, "README names what fmtk does not define: " + ", ".join(unresolved)
