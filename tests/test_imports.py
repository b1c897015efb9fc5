"""Every imported name is used.

A module under ``src/cmeis``, ``tests/`` or ``scripts/`` may not import a
name that it never reads.  ``cmeis/__init__.py`` is left out: its imports
are re-exports, which ``test_package_exports_match_module_all`` checks.
``from __future__`` imports and names listed in a module's ``__all__``
count as used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _module_files():
    dirs = (ROOT / "src" / "cmeis", ROOT / "tests", ROOT / "scripts")
    return sorted(path for d in dirs for path in d.glob("*.py") if path.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}  # name -> line, for each name an import statement binds
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    source = """
from __future__ import annotations
import os, os.path
from a import b as c, d
__all__ = ["d"]
os.sep
"""
    assert _unused_imports(ast.parse(source)) == ["line 4: c"]
    found = {
        str(path.relative_to(ROOT)): unused
        for path in _module_files()
        if (unused := _unused_imports(ast.parse(path.read_text())))
    }
    assert found == {}
