"""The battery's forked child.

``verify.run_all`` checks the sweep in the calling process and the eight
other criteria in one forked child beside it (``verify._beside``), or
inline where no child may be forked.  These tests hold the two paths to
the same results and the same errors, and pin the child's lifecycle:
one child per call, reaped and with every pipe fd closed whether the
call returns or raises, and no stdio buffer of the parent flushed
twice.  The last test runs this file again under ``python -X dev`` with
ResourceWarning made an error, so a file left open fails the suite.
"""

import os
import signal
import subprocess
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

import pytest

from osculant import cli, verify
from osculant.errors import ExprSyntaxError, InternalCheckFailure

ROOT = Path(__file__).resolve().parents[1]

# for the tests that only a forked child can pass
fork_only = pytest.mark.skipif(
    not verify._may_fork(), reason="this host runs the battery inline")

# a grid of a few specs, for tests about the child rather than the sweep
SMALL_GRID = (2, 2, 1)


@pytest.fixture(params=["fork", "inline"])
def path(request, monkeypatch):
    """Each test that takes this runs once on each path: with os.fork,
    and with os.fork taken away, which makes run_all run inline."""
    if request.param == "inline":
        monkeypatch.delattr(os, "fork")
    elif not verify._may_fork():
        pytest.skip("this host runs the battery inline")
    return request.param


def _fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@contextmanager
def leaves_nothing_behind():
    """The block leaves no child, reaped or not, and the same open fds."""
    before = _fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _fds() == before


def _raises(exc: BaseException):
    def criterion(*args, **kwargs):
        raise exc
    return criterion


@fork_only
def test_fork_path_equals_inline_path_at_seed_7(monkeypatch):
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    with leaves_nothing_behind():
        forked = verify.run_all(seed=7)
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    assert verify.run_all(seed=7) == forked
    assert len(forks) == 1


def test_a_sweep_error_wins_and_the_child_is_reaped(monkeypatch, path):
    # the child is still running its criteria when the sweep raises
    monkeypatch.setattr(verify, "_sweep_blocks",
                        _raises(InternalCheckFailure("planted sweep")))
    monkeypatch.setattr(verify, "criterion_exceptional_catalog",
                        _raises(InternalCheckFailure("planted side")))
    with leaves_nothing_behind():
        with pytest.raises(InternalCheckFailure, match="^planted sweep$"):
            verify.run_all()


def test_an_interrupt_in_the_sweep_reaps_the_child(monkeypatch, path):
    monkeypatch.setattr(verify, "_sweep_blocks", _raises(KeyboardInterrupt()))
    with leaves_nothing_behind():
        with pytest.raises(KeyboardInterrupt):
            verify.run_all()


def test_a_side_failure_comes_back_unchanged(monkeypatch, path):
    monkeypatch.setattr(verify, "_BATTERY_GRID", SMALL_GRID)
    monkeypatch.setattr(verify, "criterion_construction_kit",
                        _raises(InternalCheckFailure("planted side")))
    with leaves_nothing_behind():
        with pytest.raises(InternalCheckFailure) as caught:
            verify.run_all()
    assert str(caught.value) == "planted side"
    # the traceback as printed, the child's note included, still names
    # the function that raised
    printed = "".join(traceback.format_exception(caught.value))
    assert ", in criterion\n" in printed


def test_the_first_side_criterion_to_raise_wins(monkeypatch, path):
    monkeypatch.setattr(verify, "_BATTERY_GRID", SMALL_GRID)
    monkeypatch.setattr(verify, "criterion_negative_curve_catalog",
                        _raises(ExprSyntaxError("planted first", 2)))
    monkeypatch.setattr(verify, "criterion_census_determinism",
                        _raises(InternalCheckFailure("planted later")))
    with leaves_nothing_behind():
        with pytest.raises(ExprSyntaxError) as caught:
            verify.run_all()
    assert type(caught.value) is ExprSyntaxError
    assert str(caught.value) == "[expr-syntax] planted first (at position 2)"
    assert caught.value.position == 2


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


@fork_only
def test_an_exception_that_does_not_pickle_names_its_type(monkeypatch):
    monkeypatch.setattr(verify, "_BATTERY_GRID", SMALL_GRID)
    monkeypatch.setattr(verify, "criterion_exceptional_catalog",
                        _raises(Unpicklable("planted")))
    with leaves_nothing_behind():
        with pytest.raises(InternalCheckFailure) as caught:
            verify.run_all()
    assert str(caught.value) == "Unpicklable: planted"


@fork_only
def test_a_child_killed_before_its_result_is_an_internal_failure(
        monkeypatch):
    parent = os.getpid()

    def killed():
        assert os.getpid() != parent, "the side criteria ran inline"
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(verify, "_BATTERY_GRID", SMALL_GRID)
    monkeypatch.setattr(verify, "criterion_exceptional_catalog", killed)
    with leaves_nothing_behind():
        with pytest.raises(InternalCheckFailure,
                           match=f"killed by signal {int(signal.SIGKILL)} "):
            verify.run_all()


def test_a_side_failure_exits_3_from_the_cli(monkeypatch, capsys, path):
    monkeypatch.setattr(verify, "_BATTERY_GRID", SMALL_GRID)
    monkeypatch.setattr(verify, "criterion_family_generators",
                        _raises(InternalCheckFailure("planted side")))
    with leaves_nothing_behind():
        code = cli.main(["verify-paper", "--output", "text"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (3, "", "internal check failed: planted side\n")


_BUFFERED = """
import sys
from osculant import cli
sys.stdout.write("written before the battery\\n")
sys.exit(cli.main(["verify-paper", "--output", "text"]))
"""


def test_the_child_flushes_no_inherited_buffer():
    # stdout is a buffered pipe, so the line sits unflushed in its buffer
    # when run_all forks
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    done = subprocess.run([sys.executable, "-c", _BUFFERED],
                          env=dict(env, PYTHONPATH=str(ROOT / "src")),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("written before the battery") == 1
    assert done.stdout.startswith("written before the battery\n")
    assert len(done.stdout.splitlines()) == 1 + 14


@pytest.mark.skipif(sys.flags.dev_mode, reason="this is the dev-mode run")
def test_this_file_passes_in_dev_mode():
    # -X dev warns of every file never closed; pytest reports such a
    # warning, raised in a finalizer, as PytestUnraisableExceptionWarning
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-W", "error::pytest.PytestUnraisableExceptionWarning", __file__,
         # that test's own interpreter runs without -X dev anyway
         "--deselect", f"{Path(__file__).relative_to(ROOT)}::"
         f"{test_the_child_flushes_no_inherited_buffer.__name__}"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
