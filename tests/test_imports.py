"""Every name a package module imports is used there.

A name that a module imports but never reads is either a leftover of a
simplification or one that ``perfbench/tracer.py`` patches in that
module's namespace; the tracer's names are the only allowed exceptions.
``__init__.py`` is skipped, since its imports are its exports.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "irl"
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unread_imports(source):
    """The names that the imports of ``source`` bind and nothing in it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_unread_imports_are_found():
    assert unread_imports("import json\nfrom os import path, sep\nimport a.b as c\nprint(sep)\n") == \
        {"json", "path", "c"}


def test_every_imported_name_is_read_or_patched_by_the_tracer():
    tracer = _tracer()
    patched = {(module, attr) for module, attr, _ in tracer.PATCHES + tracer.GENERATOR_PATCHES}
    stray = sorted((f"irl.{path.stem}", name)
                   for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
                   for name in unread_imports(path.read_text())
                   if (f"irl.{path.stem}", name) not in patched)
    assert stray == []
