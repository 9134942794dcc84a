"""The brute nef route stays independent of the closed eps inequalities.

The two routes agree because they are two derivations of one verdict
(tests/test_route_algebra.py); the agreement is only evidence while
neither route computes through the other.  Each route has a module of
its own, and the module boundary decides which code belongs to which:

- brute kernels: every definition in ``brute`` (the scan of q, its
  tables, the (-2)-catalog guard and the Lambda it builds), plus the
  guard generator ``catalog._compile_guard``;
- closed kernels: every definition in ``closed`` (the window
  decomposition, its table and the eps inequalities).

Neither module imports the other or ``nef``.  This test reads the
package's source with ``ast``, checks those imports, and follows every
reference from each route's kernels to the definitions it can reach, so
a kernel added to either module is covered without an edit here.

A definition is a module-level function, class or assignment, or a
method.  A bare or module-qualified name reaches the definition it is
bound to, through ``from .x import`` chains; a class reaches its whole
body; ``obj.attr`` on anything that is not a module reaches every method
named ``attr`` in the package.  That over-approximates each route's
reach, so the disjointness below is the stronger for it.
"""

import ast
from pathlib import Path

import pytest

import osculant

SRC = Path(osculant.__file__).resolve().parent

# the kernels the boundary held before it was a module boundary
NAMED_BRUTE = ("brute._scan", "brute._row", "brute._catalog_guard",
               "brute._thresholds", "brute._class_argmins",
               "catalog._compile_guard")
NAMED_CLOSED = ("closed._decompose", "closed._split", "closed._dec_row",
                "closed._closed_conditions")


def _package():
    """(defs, aliases, methods): each definition's node and module by
    qualified name, each module's imported names, and the qualified
    names of the methods of each name."""
    defs, aliases, methods = {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        names = aliases[mod] = {}
        for node in ast.parse(path.read_text(), path.name).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    # from . import x binds a module, from .x import y a name
                    names[a.asname or a.name] = (
                        f"{node.module}.{a.name}" if node.module else a.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = (node, mod)
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef):
                        qual = f"{mod}.{node.name}.{sub.name}"
                        defs[qual] = (sub, mod)
                        methods.setdefault(sub.name, []).append(qual)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for t in targets:
                    for name in ast.walk(t):
                        if isinstance(name, ast.Name):
                            defs[f"{mod}.{name.id}"] = (node, mod)
    return defs, aliases, methods


def _resolve(mod, name, defs, aliases):
    """The qualified definition a name in a module is bound to, or a
    module name, or None for a builtin, a local or a stdlib name."""
    seen = set()
    while (mod, name) not in seen:
        seen.add((mod, name))
        if f"{mod}.{name}" in defs:
            return f"{mod}.{name}"
        target = aliases.get(mod, {}).get(name)
        if target is None:
            return None
        if "." not in target:
            return target if target in aliases else None
        mod, name = target.split(".", 1)
    return None


def _reach(kernels, package):
    defs, aliases, methods = package
    reached, todo = set(), list(kernels)
    while todo:
        qual = todo.pop()
        if qual in reached:
            continue
        reached.add(qual)
        node, mod = defs[qual]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                todo.append(_resolve(mod, sub.id, defs, aliases))
            elif isinstance(sub, ast.Attribute):
                base = sub.value
                owner = (_resolve(mod, base.id, defs, aliases)
                         if isinstance(base, ast.Name) else None)
                if owner in aliases:
                    todo.append(_resolve(owner, sub.attr, defs, aliases))
                else:
                    todo += methods.get(sub.attr, [])
        # a module or an unbound name is no definition to walk
        todo = [q for q in todo if q in defs]
    return reached


def _roots(package):
    """(brute, closed): the qualified names of every definition of each
    route's module, with the guard generator on the brute side."""
    defs = package[0]
    brute = {q for q, (_, mod) in defs.items() if mod == "brute"}
    closed = {q for q, (_, mod) in defs.items() if mod == "closed"}
    return brute | {"catalog._compile_guard"}, closed


def test_the_roots_are_the_route_modules():
    brute, closed = _roots(_package())
    assert set(NAMED_BRUTE) <= brute and set(NAMED_CLOSED) <= closed


def test_neither_nef_route_reaches_the_others_kernels():
    package = _package()
    brute_roots, closed_roots = _roots(package)
    brute = _reach(brute_roots, package)
    closed = _reach(closed_roots, package)
    # the walk follows names across modules, not only the kernels
    assert {"catalog._row_guard", "vectors.define",
            "lattice.QuotientClass"} <= brute
    assert {"vectors.new_row", "covers.Check"} <= closed
    # each route has its own table
    assert "closed._DEC_ROWS" not in brute and "brute._ROWS" not in closed
    assert brute.isdisjoint(closed_roots), sorted(brute & closed_roots)
    assert closed.isdisjoint(brute_roots), sorted(closed & brute_roots)


def _imported(tree) -> set:
    """The osculant submodules a module's source imports anywhere, by
    relative or absolute name; "osculant" for the package itself or a
    name it exports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module if node.level == 0 else ".".join(
                filter(None, ("osculant", node.module)))
            names += ([f"osculant.{a.name}" for a in node.names]
                      if base == "osculant" else [base])
    found = set()
    for name in names:
        parts = name.split(".")
        if parts[0] == "osculant":
            found.add(parts[1] if len(parts) > 1
                      and parts[1] in osculant._SUBMODULES else "osculant")
    return found


@pytest.mark.parametrize("route,other", [("brute", "closed"),
                                         ("closed", "brute")])
def test_a_route_module_imports_neither_the_other_nor_nef(route, other):
    path = SRC / f"{route}.py"
    imported = _imported(ast.parse(path.read_text(), path.name))
    assert imported, route
    assert not imported & {other, "nef", "osculant"}, sorted(imported)


def test_the_import_reader_sees_every_spelling():
    spellings = ["from .nef import _excess", "from . import nef",
                 "from osculant.nef import _excess",
                 "from osculant import nef", "import osculant.nef",
                 "import osculant.nef as n",
                 "def f():\n    from .nef import _excess"]
    for text in spellings:
        assert _imported(ast.parse(text)) == {"nef"}, text
    for text in ("import osculant", "from osculant import LambdaSpec",
                 "from . import nef_check"):
        assert _imported(ast.parse(text)) == {"osculant"}, text
    assert _imported(ast.parse("import os, itertools")) == set()
