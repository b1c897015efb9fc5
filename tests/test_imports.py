"""Source guards and the import layering of ``cmeis``.

Every imported name is used: a module under ``src/cmeis``, ``tests/`` or
``scripts/`` may not import a name that it never reads.  ``from __future__``
imports and names listed in a module's ``__all__`` count as used.  Every
name in a module's ``__all__`` is defined in that module.

``src/cmeis`` runs the same under ``python -O``: ``-O`` strips ``assert``
statements and sets ``__debug__`` and ``sys.flags.optimize``, so no module
there may use any of them.  Every invariant raises its own error instead.

No function under ``src/cmeis`` gives ``precision`` a default: each caller
names the precision it computes at.

Importing a module loads only the modules below it: the exact side
(``exact``, ``field``, ``genus``, ``eisenstein``) and the floating-point
oracle (``oracle``, on ``exact`` and ``field``) meet in ``eisenstein``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _module_files():
    dirs = (ROOT / "src" / "cmeis", ROOT / "tests", ROOT / "scripts")
    return sorted(path for d in dirs for path in d.glob("*.py"))


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


def _undefined_exports(tree: ast.Module) -> list[str]:
    defined = set()  # names a top-level def, class or assignment binds; imports do not count
    exported = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
            defined |= names
    return [name for name in exported if name not in defined]


def test_every_name_in_all_is_defined_in_its_module():
    source = """
from a import b
__all__ = ["b", "c", "f", "K", "N", "gone"]
c = 1
N: int = 2
def f(): pass
class K: pass
"""
    assert _undefined_exports(ast.parse(source)) == ["b", "gone"]
    found = {
        str(path.relative_to(ROOT)): missing
        for path in _module_files()
        if (missing := _undefined_exports(ast.parse(path.read_text())))
    }
    assert found == {}


def _optimize_sensitive(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert")
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append(f"line {node.lineno}: __debug__")
        elif isinstance(node, ast.Attribute) and node.attr == "flags" and (
            isinstance(node.value, ast.Name) and node.value.id == "sys"
        ):
            found.append(f"line {node.lineno}: sys.flags")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys" and any(
            alias.name == "flags" for alias in node.names
        ):
            found.append(f"line {node.lineno}: sys.flags")
    return found


def test_package_runs_the_same_under_optimize():
    source = """
import sys
from sys import flags
assert sys.argv
if __debug__ or sys.flags.optimize:
    pass
"""
    assert _optimize_sensitive(ast.parse(source)) == [
        "line 3: sys.flags", "line 4: assert", "line 5: __debug__", "line 5: sys.flags",
    ]
    found = {
        str(path.relative_to(ROOT)): hits
        for path in sorted((ROOT / "src" / "cmeis").rglob("*.py"))
        if (hits := _optimize_sensitive(ast.parse(path.read_text())))
    }
    assert found == {}


def _defaulted_precision(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):  # the parameters of every def, async def and lambda
        if isinstance(node, ast.arguments):
            positional = node.posonlyargs + node.args
            defaulted = positional[len(positional) - len(node.defaults):] + [
                arg for arg, d in zip(node.kwonlyargs, node.kw_defaults) if d is not None
            ]
            found += [f"line {arg.lineno}: precision" for arg in defaulted if arg.arg == "precision"]
    return found


def test_no_precision_has_a_default():
    source = """
def f(x, precision=53, digits=5): pass
def g(precision, digits=5): pass
h = lambda *, precision=1: precision
"""
    assert _defaulted_precision(ast.parse(source)) == ["line 2: precision", "line 4: precision"]
    found = {
        str(path.relative_to(ROOT)): hits
        for path in sorted((ROOT / "src" / "cmeis").rglob("*.py"))
        if (hits := _defaulted_precision(ast.parse(path.read_text())))
    }
    assert found == {}


# the cmeis modules that importing each module loads, prefix dropped
LAYERS = {
    "exact": {"exact"},
    "field": {"exact", "field"},
    "genus": {"exact", "field", "genus"},
    "oracle": {"exact", "field", "oracle"},  # eisenstein only at call time
    "eisenstein": {"exact", "field", "genus", "oracle", "eisenstein"},
    "verify": {"exact", "field", "genus", "oracle", "eisenstein", "verify"},
    "cli": {"exact", "field", "genus", "oracle", "eisenstein", "verify", "cli"},
}

_LOADED = """
import importlib, sys
importlib.import_module(sys.argv[1])
print(*(name for name in sys.modules if name.startswith("cmeis.")))
"""


def test_each_module_loads_only_the_modules_below_it():
    package = ROOT / "src" / "cmeis"
    assert set(LAYERS) == {path.stem for path in package.glob("*.py")} - {"__init__"}
    loaded = {}
    for module in LAYERS:  # a fresh interpreter each: an import loads a module once
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED, f"cmeis.{module}"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        loaded[module] = {name.removeprefix("cmeis.") for name in proc.stdout.split()}
    assert loaded == LAYERS
