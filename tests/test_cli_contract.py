"""The input contract of the command line, the twin of test_contract.py.

Every subcommand runs from one known-good argv with each positional and
each value flag (its own and the global ones) replaced in turn by every
value of a small pool.  A run exits 0; or exits 1 with a ``[constraint-id]``
on stderr, the error the library raises for that input; or exits 2 with
one of argparse's own parse errors.  Never a traceback, never exit 3.
Each id seen must be in the README's list of constraint ids."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

from osculant import verify
from osculant.cli import main

ROOT = Path(__file__).resolve().parents[1]
POOL = ("-1", "0", "2.0", "x", "1,2,3", "-3,2,2,2")
GLOBAL_FLAGS = ("--char-p", "--pair-reading", "--output", "--seed")

# subcommand -> (positionals, value flags) of one run that exits 0.  The
# census is the README example; the pool's numbers only shrink it
GOOD = {
    "intersect": (("e*(So) - s0 - r0", "K"), {}),
    "genus": (("K",), {}),
    "lambda": (("4", "2", "1", "3,2,2,2"), {}),
    "decompose": (("3,2,2,2", "2"), {}),
    "nef": (("4", "2", "3,2,2,2"), {"--mode": "both"}),
    "minimizer": (("4", "2", "3,2,2,2"), {}),
    "zdiv": (("4", "2", "3,2,2,2"), {}),
    "dims": (("4", "2", "3,2,2,2"), {}),
    "exceptional": ((), {"--max-sq": "3"}),
    "catalog": ((), {}),
    "family-nef": (("2", "0", "1,0,0,0"), {}),
    "family-nonnef": (("3", "1,0,0,0"), {"--bound": "2"}),
    "kit": (("2", "1,0,0,0"), {}),
    "census": ((), {"--n-max": "6", "--d-max": "3", "--gamma-max": "15",
                    "--partitions": "2"}),
    "verify-paper": ((), {}),
}

# argv -> the id it exits 1 with: a vector starting with '-', bad vectors
# that argparse once refused with exit 2, and ids the pool does not reach
NAMED = {
    ("nef", "4", "2", "-3,2,2,2"): "gamma-nonnegative",
    ("nef", "4", "2", "--", "-3,2,2,2"): "gamma-nonnegative",
    ("decompose", "-1,0,0,0", "0"): "degree-min",
    ("decompose", "1,2,3", "2"): "vec-length",
    ("decompose", "3.0,2,2,2", "2"): "vec-integer",
    ("dims", "1", "1", "0,1,1,1"): "anticanonical-degree",
    ("family-nef", "2", "5", "1,0,0,0"): "k-index",
    ("kit", "2", "1,0,0,-1"): "mu-nonnegative",
}

# the exit-2 messages of argparse itself: an unknown option, a missing
# argument or flag value, a scalar that is not an int, a bad choice
_PARSE_ERRORS = re.compile(
    r"error: (unrecognized arguments|the following arguments are required"
    r"|argument \S+: (expected one argument|invalid int value"
    r"|invalid choice))")
_DOMAIN_ERROR = re.compile(r"^error: \[([a-z0-9-]+)\] ")


class _Battery(Exception):
    """verify-paper got as far as running the battery: the run stops
    there, as a whole battery per run is too slow for this sweep."""


def _no_battery(seed, pair_reading):
    raise _Battery


def _argv(command, positionals, flags, extra=()) -> list[str]:
    return [command, *positionals,
            *(x for item in flags.items() for x in item), *extra]


def _argvs():
    """Every argv of the sweep: a known-good one with one slot replaced
    by one pool value."""
    for command, (positionals, flags) in GOOD.items():
        for bad in POOL:
            for i in range(len(positionals)):
                yield _argv(command, positionals[:i] + (bad,)
                            + positionals[i + 1:], flags)
            for flag in flags:
                yield _argv(command, positionals, {**flags, flag: bad})
            for flag in GLOBAL_FLAGS:
                yield _argv(command, positionals, flags, (flag, bad))


def _run(argv) -> tuple[int | None, str]:
    """Exit code and stderr of one in-process run; None for a run that
    reached the battery."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except _Battery:
            code = None
    return code, err.getvalue()


@pytest.fixture(scope="module")
def sweep():
    """(runs that broke the contract, the constraint ids seen)."""
    broken, ids = [], set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "run_all", _no_battery)
        for command, (positionals, flags) in GOOD.items():
            code, err = _run(_argv(command, positionals, flags))
            if code != (None if command == "verify-paper" else 0):
                broken.append(f"known-good {command}: exit {code}: {err}")
        for argv in _argvs():
            try:
                code, err = _run(argv)
            except Exception as exc:    # noqa: BLE001 - a traceback
                broken.append(f"{argv}: raised {type(exc).__name__}: {exc}")
                continue
            found = _DOMAIN_ERROR.match(err)
            if code == 1 and found:
                ids.add(found.group(1))
            elif not (code in (0, None)
                      or code == 2 and _PARSE_ERRORS.search(err)):
                broken.append(f"{argv}: exit {code}: {err.strip()}")
        for argv, constraint in NAMED.items():
            code, err = _run(argv)
            found = _DOMAIN_ERROR.match(err)
            if code != 1 or not found or found.group(1) != constraint:
                broken.append(f"{argv}: exit {code}, not [{constraint}]: "
                              f"{err.strip()}")
            else:
                ids.add(constraint)
    return broken, ids


def test_every_subcommand_keeps_the_input_contract(sweep):
    broken, _ = sweep
    assert not broken, "\n".join(broken)


def _readme_ids() -> set[str]:
    """The constraint ids README's command-line section lists."""
    readme = (ROOT / "README.md").read_text()
    start = readme.index("Constraint ids appearing in domain errors")
    return set(re.findall(r"`([a-z0-9-]+)`",
                          readme[start:readme.index("\n\n", start)]))


def test_every_constraint_id_seen_is_in_the_readme(sweep):
    listed = _readme_ids()
    _, ids = sweep
    assert ids >= set(NAMED.values())
    assert ids <= listed, sorted(ids - listed)


def _raised_ids() -> set[str]:
    """Every constraint id spelled in the package's source: a class's
    ``constraint`` attribute, a ``constraint=`` keyword, index4's third
    argument and nonnegative's ``<what>-nonnegative``.  The base class's
    ``domain`` names no constraint and is left out."""
    ids = set()
    for path in (ROOT / "src" / "osculant").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Assign)
                    and ast.unparse(node.targets[0]) == "constraint"
                    and isinstance(node.value, ast.Constant)):
                ids.add(node.value.value)   # a class attribute
            if not isinstance(node, ast.Call):
                continue
            ids.update(kw.value.value for kw in node.keywords
                       if kw.arg == "constraint"
                       and isinstance(kw.value, ast.Constant))
            name = ast.unparse(node.func)
            if name == "index4":
                ids.add(node.args[2].value)
            elif name == "nonnegative":
                ids.add(f"{node.args[1].value}-nonnegative")
    return ids - {"domain"}


def test_every_constraint_id_the_package_raises_is_in_the_readme():
    raised, listed = _raised_ids(), _readme_ids()
    assert {"unramified-base", "alpha-nonnegative", "branch-index",
            "fiber-index", "vec-length", "type-parity"} <= raised
    assert raised <= listed, sorted(raised - listed)
