"""Every name a package module imports is used there, and the checks import no package code.

A name that a module imports but never reads is either a leftover of a
simplification or one that ``perfbench/tracer.py`` patches in that
module's namespace; the tracer's names are the only allowed exceptions.
``__init__.py`` is skipped, since its imports are its exports.

``perfbench/checks.py`` is the tests' reference for the definitions, so
it must not reuse the code it checks.
"""

import ast

from by_path import ROOT, load

PACKAGE = ROOT / "src" / "irl"


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
    tracer = load("perfbench/tracer.py")
    patched = {(module, attr) for module, attr, _ in tracer.PATCHES + tracer.GENERATOR_PATCHES}
    stray = sorted((f"irl.{path.stem}", name)
                   for path in PACKAGE.glob("*.py") if path.name != "__init__.py"
                   for name in unread_imports(path.read_text())
                   if (f"irl.{path.stem}", name) not in patched)
    assert stray == []


def package_imports(source):
    """The modules of ``irl`` that the imports of ``source`` name."""
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            named.add(node.module or "")
    return {name for name in named if name == "irl" or name.startswith("irl.")}


def test_package_imports_are_found():
    assert package_imports("import irl\nimport json, irl.bits as b\nfrom irl.search import x\n"
                           "from irlx import y\nfrom . import z\n") == {"irl", "irl.bits", "irl.search"}


def test_checks_import_nothing_from_the_package():
    assert package_imports((ROOT / "perfbench" / "checks.py").read_text()) == set()
