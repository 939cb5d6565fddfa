"""atomlab imports nothing outside the standard library, and of the
standard library only what it uses."""

import ast
import pathlib
import subprocess
import sys

import atomlab
from cli_child import SRC


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


def test_import_path_leaves_out_dataclasses_and_inspect():
    # a fresh isolated interpreter imports what a benchmark set-up does;
    # both modules cost milliseconds at every start of the command line
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from atomlab import cli, engine, monideal, natset; "
            "print(' '.join(m for m in ('dataclasses', 'inspect') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
