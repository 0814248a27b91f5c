"""The names that perfbench/tracer.py patches exist in the package.

The tracer replaces module attributes by name; a refactor that drops one
of them would otherwise show only when a traced benchmark run fails.
"""

import importlib

from by_path import load


def test_every_patched_name_resolves():
    tracer = load("perfbench/tracer.py")
    missing = [(module, attr) for module, attr, _ in tracer.PATCHES + tracer.GENERATOR_PATCHES
               if attr not in vars(importlib.import_module(module))]
    assert missing == []


def test_every_construct_class_defines_post_init():
    tracer = load("perfbench/tracer.py")
    missing = [(module, name) for module, name in tracer.CONSTRUCT_CLASSES
               if "__post_init__" not in vars(getattr(importlib.import_module(module), name))]
    assert missing == []
