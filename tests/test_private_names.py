"""Every private module-level name of atomlab is used inside atomlab."""

import ast
from pathlib import Path

import atomlab

SRC = Path(atomlab.__file__).parent


def _defined(stmt):
    # the private names a top-level statement binds
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


def _used(stmt):
    # every name a statement reads, as a bare name or an attribute
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_every_private_module_name_is_used():
    stmts = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(path.read_text()).body]
    uses = [_used(stmt) for _path, stmt in stmts]
    unused = [f"{path}:{stmt.lineno} {name}"
              for k, (path, stmt) in enumerate(stmts)
              for name in _defined(stmt)
              if not any(name in used for i, used in enumerate(uses)
                         if i != k)]
    assert not unused
    # the check sees the names it is meant to see
    assert sum(len(_defined(stmt)) for _path, stmt in stmts) > 40
