"""Nothing in the package is left behind by a move: every module-level
definition is used, and so is every module-level import.

A definition (a module-level function, class or assignment) is used
when its module names it outside its own definition, another module
imports it by name (``from .mod import name``) or reads an attribute of
that name, the package exports it (``osculant._EXPORTS``), the project
runs it as a script (``[project.scripts]`` in pyproject.toml), or the
benchmark's tracer binds it (``benchmarks/tracer.py``'s tables, read
without installing them).  Module protocol names (``__all__``,
``__getattr__``, ...) are used by the interpreter.  An import is used
when its module names what it binds."""

import ast
import tomllib
from functools import cache
from pathlib import Path

import pytest

import osculant

from test_benchmark_bindings import tracer

SRC = Path(osculant.__file__).resolve().parent
PYPROJECT = SRC.parent.parent / "pyproject.toml"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


@cache
def _tree(mod: str) -> ast.Module:
    path = SRC / f"{mod}.py"
    return ast.parse(path.read_text(), path.name)


def _definitions(tree: ast.Module) -> dict:
    """Each module-level definition's name and node."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                for name in ast.walk(t):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    return defs


def _names(nodes) -> set:
    """Every bare name read or written inside the nodes."""
    return {sub.id for node in nodes for sub in ast.walk(node)
            if isinstance(sub, ast.Name)}


def _bound_outside() -> set:
    """(module, name) of everything run from outside the package's
    source: its exports, its scripts and the tracer's targets."""
    bound = {(mod, attr) for mod, attr in osculant._EXPORTS.values()}
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    for target in scripts.values():
        module, attr = target.split(":")
        bound.add((module.removeprefix("osculant."), attr))
    for table in (tracer.SPAN_FUNCTIONS, tracer.SPAN_METHODS, tracer.COUNTED):
        for module, attr, *_ in table.values():
            bound.add((module.removeprefix("osculant."), attr))
    return bound


@cache
def _used() -> frozenset:
    """(module, name) of every definition the package's source uses,
    or that is run from outside it.  An attribute read ``x.name`` counts
    for every module's ``name``, which over-approximates use."""
    used = _bound_outside()
    attrs = set()
    for mod in MODULES:
        tree = _tree(mod)
        defs = _definitions(tree)
        for name, node in defs.items():
            others = [n for n in tree.body if n is not node]
            if name in _names(others):
                used.add((mod, name))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom) and sub.level == 1 \
                    and sub.module:
                used |= {(sub.module, a.name) for a in sub.names}
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
    return frozenset(used | {(mod, name) for mod in MODULES
                             for name in attrs})


def _protocol(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@pytest.mark.parametrize("mod", MODULES)
def test_every_definition_is_used(mod):
    used = _used()
    unused = sorted(name for name in _definitions(_tree(mod))
                    if (mod, name) not in used and not _protocol(name))
    assert unused == []


def _imports(tree: ast.Module) -> dict:
    """Each name a module-level import binds, and its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                bound[name] = node.lineno
    return bound


@pytest.mark.parametrize("mod", MODULES)
def test_every_import_is_used(mod):
    tree = _tree(mod)
    imports = [n for n in tree.body if isinstance(n, (ast.Import,
                                                      ast.ImportFrom))]
    read = _names(n for n in tree.body if n not in imports)
    unused = sorted((line, name) for name, line in _imports(tree).items()
                    if name not in read)
    assert unused == []


def test_the_guards_see_what_they_guard():
    # the benchmark binds each battery criterion by name, and the
    # project's entry point is a function nothing in the package calls
    used = _used()
    assert ("verify", "build_sweep") in used and ("cli", "run") in used
    tree = ast.parse("from .vectors import norm_sq\n"
                     "import os.path\n"
                     "def f():\n    return os.path.sep\n")
    assert _imports(tree) == {"norm_sq": 1, "os": 2}
    assert _names(tree.body[2:]) == {"os"}
