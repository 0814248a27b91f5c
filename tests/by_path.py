"""Load a repository file that is not part of the package, by its path.

The tests read the benchmark's tracer and independent checks under
``perfbench/`` and two scripts under ``scripts/``.  Each is executed once
and shared.  Nothing here needs pytest, so modules that import no pytest
can use it.
"""

import importlib.util
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@cache
def load(relative):
    """The module at ``relative`` (a path from the repository root)."""
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
