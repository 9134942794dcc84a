"""The cyclic garbage collector and the CLI.

``cli.main`` runs each command with the collector paused, which is safe
only because osculant's values form no reference cycles: memory goes
back by reference counting alone, however many specs a run makes.  The
first half checks that the library's batch paths leave no cyclic
garbage and that a CLI command's cycles do not grow with its grid.  The
second half checks that ``main`` pauses the collector while a command
runs and gives the caller back its state on every way out, and that no
library module touches the collector."""

import ast
import gc
import io
import os
from pathlib import Path

import pytest

import osculant.cli as cli
from osculant import families, verify
from osculant.errors import InternalCheckFailure
from osculant.nef import mu_patterns


def cyclic_garbage(run) -> int:
    """Objects that only the collector could free after run(): what
    gc.collect() finds unreachable when run() started from a collected
    heap with the collector off."""
    gc.collect()
    with cli.collector_paused():
        run()
        return gc.collect()


def tiny_census(partitions, p=None):
    rows = families.census(range(1, 7), range(1, 4), 15, p=p,
                           partitions=partitions)
    return families.census_csv(rows)


def kits():
    return [families.construction_kit(d, mu)
            for d in range(2, 5) for mu in mu_patterns(2)]


def family_types():
    return ([families.generate_nef_types(d, k, (1, 2, 0, 0))
             for d in range(2, 6) for k in range(4)]
            + [families.generate_non_nef_types(d, (0, 1, 1, 1), d)
               for d in range(3, 6)])


BATCH_PATHS = {
    "sweep": lambda: verify._fold(
        (verify._tally(block) for block in verify._sweep_blocks((2, 3, 3))),
        "factored", ""),
    "census-1": lambda: tiny_census(1),
    "census-3": lambda: tiny_census(3),
    "census-char-p": lambda: tiny_census(3, p=7),
    "construction-kit": kits,
    "family-generators": family_types,
    "expression-round-trip": verify.criterion_expression_round_trip,
    "exceptional-catalog": verify.criterion_exceptional_catalog,
}


@pytest.mark.parametrize("name", sorted(BATCH_PATHS))
def test_batch_path_makes_no_reference_cycles(name):
    # a first call loads the modules and fills the caches it needs, so
    # the measured call sees the library's own work alone
    BATCH_PATHS[name]()
    assert cyclic_garbage(BATCH_PATHS[name]) == 0


def test_cli_cycles_do_not_grow_with_the_grid(capsys):
    # argparse's parser is cyclic, so a command leaves some garbage;
    # the same amount for a grid of 4 rows and one of 1,988 shows it is
    # per command, not per row
    def census(n_max, d_max, gamma_max):
        def run():
            assert cli.main(["census", "--n-max", str(n_max), "--d-max",
                             str(d_max), "--gamma-max", str(gamma_max),
                             "--output", "csv"]) == 0
        return run

    small, large = census(2, 1, 4), census(20, 5, 40)
    small()
    capsys.readouterr()
    per_command = cyclic_garbage(small)
    small_rows = capsys.readouterr().out.count("\n") - 1
    assert cyclic_garbage(large) == per_command
    large_rows = capsys.readouterr().out.count("\n") - 1
    assert (small_rows, large_rows) == (4, 1988)


# ---------------------------------------------------------------------------
# main pauses the collector and restores it on every way out


@pytest.fixture
def spy(monkeypatch):
    """Replace the genus command by one that records whether the
    collector ran during it, then raises or returns as told."""
    def install(outcome):
        seen = []

        def command(args, cfg):
            seen.append(gc.isenabled())
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome, 0

        monkeypatch.setattr(cli, "_cmd_genus", command)
        return seen

    return install


class ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone: every write breaks the pipe."""

    def __init__(self, fd: int):
        self._fd = fd

    def fileno(self) -> int:
        return self._fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_main_exit_codes_restore_the_collector(capsys, spy, monkeypatch):
    assert gc.isenabled()
    assert cli.main(["genus", "K"]) == 0
    assert gc.isenabled()
    assert cli.main(["nef", "4", "2", "3,2,2"]) == 1
    assert gc.isenabled()
    assert cli.main(["nef", "4", "2"]) == 2
    assert gc.isenabled()
    seen = spy(InternalCheckFailure("planted"))
    assert cli.main(["genus", "K"]) == 3
    assert gc.isenabled() and seen == [False]
    assert "planted" in capsys.readouterr().err

    seen = spy("a line")
    fd = os.open(os.devnull, os.O_WRONLY)
    try:
        with monkeypatch.context() as patch:
            patch.setattr("sys.stdout", ClosedStdout(fd))
            code = cli.main(["genus", "K"])
    finally:
        os.close(fd)
    assert code == 141 and gc.isenabled() and seen == [False]


def test_main_restores_the_collector_when_a_command_raises(spy):
    seen = spy(RuntimeError("not a domain error"))
    with pytest.raises(RuntimeError, match="not a domain error"):
        cli.main(["genus", "K"])
    assert gc.isenabled() and seen == [False]


def test_main_leaves_a_paused_collector_paused(capsys):
    gc.disable()
    try:
        assert cli.main(["genus", "K"]) == 0
        assert cli.main(["nef", "4", "2", "3,2,2"]) == 1
        assert not gc.isenabled()
    finally:
        gc.enable()
    capsys.readouterr()


def test_only_the_cli_touches_the_collector():
    # the CLI owns its process; a library call must leave the caller's
    # collector as it found it
    package = Path(cli.__file__).parent
    importers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "gc" in names:
                importers.add(path.name)
    assert importers == {"cli.py"}
