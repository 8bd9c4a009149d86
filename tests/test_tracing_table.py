"""The benchmark's span table (``perfbench/tracing.py: TRACED``) names fmtk
functions by module and name; a rename or deletion in fmtk must fail here
rather than break a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_table() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    missing = []
    for layer, names in _traced_table().items():
        home = importlib.import_module(f"fmtk.{layer}")
        for qual in names:
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(home, cls_name, None)
                found = owner is not None and attr in vars(owner)
            else:
                found = callable(getattr(home, qual, None))
            if not found:
                missing.append(f"fmtk.{layer}.{qual}")
    assert not missing, f"traced names missing from fmtk: {missing}"
