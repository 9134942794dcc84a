"""Print each statement of src/osculant that the test suite never runs.

Runs ``pytest tests`` in this process under a sys.settrace line
collector, then lists, module by module, every statement whose first
line holds bytecode and never ran.  A statement with no bytecode of its
own (a function's docstring, ``global``) is not counted.

Usage:

    PYTHONPATH=src python scripts/linemap.py [pytest arguments]

The arguments, when given, replace ``tests`` (say, to map one file).

Stdlib only, beside pytest itself; the suite does not collect it.  It
exits with pytest's code when pytest could not run the tests (2 and up),
else 0, since tests may fail under tracing (below) and the map is still
whole.

What the map cannot see, and what tracing changes:

- Tracing slows every traced line several-fold, so a test with a timing
  bound may fail under it on a slow host, such as
  tests/test_families.py::test_sphere_cost_is_its_disc_and_its_points.
  The whole run takes about 2.5 to 3 minutes on a 2-core x86-64 VM.
- Only this process is traced.  A forked child's lines (jobs._child and
  what it runs) and a subprocess's (``python -O`` runs, the ``__main__``
  entry points) show as never run unless this process runs them too.
- test_battery_fork.py's dev-mode test is deselected: it reruns that
  file in a subprocess, which the collector cannot see.
"""

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "osculant"

# lines run per module file; filled by the trace functions
_HITS: dict[str, set[int]] = {str(path): set()
                              for path in sorted(PACKAGE.glob("*.py"))}
# a code object's file name -> its _HITS set, or None when not traced
_SEEN: dict[str, set[int] | None] = {}


def _line(frame, event, arg):
    """The trace function of a frame in the package: notes each line."""
    if event == "line":
        _SEEN[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    """The global trace function: traces only the package's frames.  No
    closure, so tracing adds no reference cycle to the tests' counts."""
    name = frame.f_code.co_filename
    if name not in _SEEN:
        _SEEN[name] = _HITS.get(os.path.realpath(name))
    return None if _SEEN[name] is None else _line


def statements(path: Path) -> dict[int, str]:
    """First line -> text of each statement of the file that holds
    bytecode, its own or a nested code object's."""
    source = path.read_text()
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    text = source.splitlines()
    return {node.lineno: text[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in lines}


def main(argv: list[str]) -> int:
    if "osculant" in sys.modules:
        raise SystemExit("osculant is already loaded; its imports would "
                         "go untraced")
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    threading.settrace(_call)
    sys.settrace(_call)
    try:
        code = pytest.main([*(argv or [str(ROOT / "tests")]), "-q",
                            "-p", "no:cacheprovider",
                            "-k", "not test_this_file_passes_in_dev_mode"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = unrun = 0
    for name, hits in _HITS.items():
        stmts = statements(Path(name))
        missed = sorted(set(stmts) - hits)
        total += len(stmts)
        unrun += len(missed)
        if missed:
            print(f"{Path(name).relative_to(ROOT)}: {len(missed)} of "
                  f"{len(stmts)} statements never run")
            for line in missed:
                print(f"  {line}: {stmts[line]}")
    print(f"{unrun} of {total} statements never run")
    return code if code >= 2 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
