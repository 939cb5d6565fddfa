"""Every member of the engine's adapter and view protocols is read in atomlab.

A member that only the classes defining it use is a protocol entry that
nothing calls through the protocol, and should go with its definitions.
"""

import ast
from pathlib import Path

import atomlab
from atomlab import engine

SRC = Path(atomlab.__file__).parent


def _members(proto):
    # the attributes and methods a protocol declares
    return set(proto.__annotations__) | {
        name for name, fn in vars(proto).items()
        if callable(fn) and not name.startswith("_")}


def _defines(cls: ast.ClassDef, name: str) -> bool:
    # a method or class attribute of that name, or an attribute of self
    # that a method sets
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return True
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return True
    return any(isinstance(node, ast.Attribute) and node.attr == name
               and isinstance(node.ctx, ast.Store)
               and isinstance(node.value, ast.Name)
               and node.value.id == "self" for node in ast.walk(cls))


def _reads(node, classes=()):
    # each attribute read with the classes it is written in
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) \
                and isinstance(child.ctx, ast.Load):
            yield child, classes
        inner = classes + (child,) if isinstance(child, ast.ClassDef) \
            else classes
        yield from _reads(child, inner)


def test_every_protocol_member_is_read_outside_its_classes():
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        # a read of an imported module's or class's name, such as
        # monideal.product, is no read of a protocol member
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        reads += [(node.attr, classes) for node, classes in _reads(tree)
                  if not (isinstance(node.value, ast.Name)
                          and node.value.id in imported)]
    unread = [f"{proto.__name__}.{name}"
              for proto in (engine.GradedMonoid, engine._CoreView)
              for name in sorted(_members(proto))
              if not any(attr == name
                         and not any(_defines(cls, name) for cls in classes)
                         for attr, classes in reads)]
    assert not unread
    # the check sees the members it is meant to see
    assert {"identity", "candidate_divisors", "context"} \
        <= _members(engine.GradedMonoid)
    assert {"grade", "whole", "unit", "divisors", "cofactors"} \
        <= _members(engine._CoreView)
