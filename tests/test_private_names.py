"""No dead private helpers: every `_private` name that a module of the
package defines at module level (a function, class or assignment) or as a
method is read somewhere in the package, as a name or an attribute. No
dead classes: every module-level class is built, subclassed or handed on
as a keyword value somewhere in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import gobsec

PACKAGE = Path(gobsec.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(tree: ast.Module) -> list[str]:
    out: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [m.name for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in out if _is_private(name)]


def test_every_private_name_is_read():
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defined += [(path.name, name) for name in _defined(tree)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
                read.add(n.attr)
    assert len(defined) > 100  # the walk found the package's helpers
    assert [d for d in defined if d[1] not in read] == []


def _name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_class_is_used():
    # A class only ever named in annotations or `isinstance` tests is
    # never built, so every branch for it is unreachable.
    classes: list[tuple[str, str]] = []
    used: set[str | None] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        classes += [(path.name, node.name) for node in tree.body if isinstance(node, ast.ClassDef)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                used.add(_name(n.func))
                used.update(_name(k.value) for k in n.keywords)
            elif isinstance(n, ast.ClassDef):
                used.update(_name(b) for b in n.bases)
    assert len(classes) > 30  # the walk found the package's classes
    assert [c for c in classes if c[1] not in used] == []
