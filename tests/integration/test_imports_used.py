"""Every module-level import in ``src/repro`` is used by its module.

An import counts as used when the module loads the name it binds (code or
annotation), names it inside a string annotation, or lists it in
``__all__``.  A name nothing reads costs start-up and hides which modules a
module really needs, so :func:`test_no_module_imports_a_name_it_never_uses`
walks every module with :mod:`ast` and lists each such import.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _module_imports(tree):
    """``(bound name, line)`` of each import at module level, those under a
    module-level ``if`` (``TYPE_CHECKING``) or ``try`` included."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            pending += node.body + node.orelse + getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                pending += handler.body


def _annotations(node):
    if isinstance(node, ast.arg):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


def _names_in_string(text):
    try:
        expression = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(expression) if isinstance(node, ast.Name)}


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in filter(None, _annotations(node)):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _names_in_string(part.value)
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign) else [])
        if any(isinstance(target, ast.Name) and target.id == "__all__"
               for target in targets):
            used |= {part.value for part in ast.walk(node.value)
                     if isinstance(part, ast.Constant) and isinstance(part.value, str)}
    return used


def unused_imports(path):
    """``(name, line)`` of each module-level import ``path`` never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = _used_names(tree)
    return sorted((name, line) for name, line in _module_imports(tree)
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    found = {str(path.relative_to(SOURCE)): unused
             for path in sorted(SOURCE.rglob("*.py"))
             if (unused := unused_imports(path))}
    assert found == {}


def test_the_check_sees_each_kind_of_use(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "from json import dumps as render, loads\n"
        "from . import exported\n"
        "if TYPE_CHECKING:\n"
        "    from .other import Quoted, Unquoted, Unused\n"
        "__all__ = ['exported']\n"
        "def f(x: Dict[str, 'Quoted']) -> Unquoted:\n"
        "    y: 'Optional[int]' = None\n"
        "    return os.path.join(render(x), str(y))\n")
    assert unused_imports(module) == [("List", 3), ("Unused", 7), ("loads", 4)]
