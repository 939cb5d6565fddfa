"""atomlab imports nothing outside the standard library."""

import ast
import pathlib
import sys

import atomlab


def absolute_imports(source: str) -> set[str]:
    """The top-level package of each absolute import in source, at any
    depth (relative imports stay inside atomlab)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_absolute_imports_reads_every_form():
    source = ("import os.path, json\nfrom . import engine\n"
              "from .natset import NatSet\n"
              "def f():\n    from hypothesis import strategies\n")
    assert absolute_imports(source) == {"os", "json", "hypothesis"}


def test_modules_import_only_the_standard_library():
    sources = sorted(pathlib.Path(atomlab.__file__).parent.rglob("*.py"))
    assert len(sources) > 1
    outside = {}
    for path in sources:
        names = absolute_imports(path.read_text()) - sys.stdlib_module_names
        if names:
            outside[path.name] = sorted(names)
    assert outside == {}
