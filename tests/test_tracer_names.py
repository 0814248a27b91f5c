"""The names that perfbench/tracer.py patches exist in the package.

The tracer replaces module attributes by name; a refactor that drops one
of them would otherwise show only when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    tracer = _tracer()
    missing = [(module, attr) for module, attr, _ in tracer.PATCHES + tracer.GENERATOR_PATCHES
               if attr not in vars(importlib.import_module(module))]
    assert missing == []


def test_every_construct_class_defines_post_init():
    tracer = _tracer()
    missing = [(module, name) for module, name in tracer.CONSTRUCT_CLASSES
               if "__post_init__" not in vars(getattr(importlib.import_module(module), name))]
    assert missing == []
