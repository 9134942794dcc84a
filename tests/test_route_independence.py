"""The brute nef route stays independent of the closed eps inequalities.

The two routes agree because they are two derivations of one verdict
(tests/test_route_algebra.py); the agreement is only evidence while
neither route computes through the other.  This test reads the package's
source with ``ast`` and follows every reference from each route's
kernels to the definitions it can reach:

- brute kernels: ``nef._scan`` with its row filler ``nef._row``,
  ``nef._catalog_guard``, ``nef._thresholds``, ``nef._class_argmins``
  and the guard generator ``catalog._compile_guard``;
- closed kernels: ``nef._decompose`` with its per-coordinate kernel
  ``nef._split`` and row filler ``nef._dec_row``, and
  ``nef._closed_conditions``.

A definition is a module-level function, class or assignment, or a
method.  A bare or module-qualified name reaches the definition it is
bound to, through ``from .x import`` chains; a class reaches its whole
body; ``obj.attr`` on anything that is not a module reaches every method
named ``attr`` in the package.  That over-approximates each route's
reach, so the disjointness below is the stronger for it.
"""

import ast
from pathlib import Path

import osculant

SRC = Path(osculant.__file__).resolve().parent

BRUTE = ("nef._scan", "nef._row", "nef._catalog_guard", "nef._thresholds",
         "nef._class_argmins", "catalog._compile_guard")
CLOSED = ("nef._decompose", "nef._split", "nef._dec_row",
          "nef._closed_conditions")


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


def test_neither_nef_route_reaches_the_others_kernels():
    package = _package()
    brute, closed = _reach(BRUTE, package), _reach(CLOSED, package)
    # the walk follows names across modules, not only the kernels
    assert {"nef._nearest", "nef._ROWS", "catalog._row_guard",
            "vectors.define"} <= brute
    assert {"vectors.new_row", "nef._DEC_ROWS"} <= closed
    # each route has its own table
    assert "nef._DEC_ROWS" not in brute and "nef._ROWS" not in closed
    assert brute.isdisjoint(CLOSED), sorted(brute & set(CLOSED))
    assert closed.isdisjoint(BRUTE), sorted(closed & set(BRUTE))
