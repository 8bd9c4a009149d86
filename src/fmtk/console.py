"""The ``fmtk`` console script.

It runs :mod:`fmtk.cli` as ``__main__``, as ``python -m fmtk.cli`` does, so
that each command loads only the layers it runs; a module import of
``fmtk.cli`` loads every layer.
"""

import runpy


def main() -> None:
    runpy.run_module("fmtk.cli", run_name="__main__")
