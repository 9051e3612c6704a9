"""Rules the package source keeps: no library code exists only for its
own tests."""

import ast
from pathlib import Path

import prsim

SRC = Path(prsim.__file__).parent


def _private_definitions_and_uses():
    """(definitions, uses): the module-level private functions and
    classes of the package as (module, name, first line, last line), and
    every name the package reads as (module, name, line)."""
    definitions, uses = [], []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions += [(module, node.name, node.lineno, node.end_lineno)
                        for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                uses += [(module, alias.name, node.lineno)
                         for alias in node.names]
    return definitions, uses


def test_every_private_definition_is_used_by_the_package():
    definitions, uses = _private_definitions_and_uses()
    assert definitions  # the walk sees the package
    unused = [
        "%s: %s" % (module, name)
        for module, name, first, last in definitions
        if not any(used == name and not (where == module
                                         and first <= line <= last)
                   for where, used, line in uses)]
    assert unused == []
