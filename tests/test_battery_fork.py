"""The battery's forked child.

``verify.run_all`` splits the battery between the calling process and
one forked child (``verify._share``): the child runs the eight criteria
that read no sweep and then claims sweep blocks from a token pipe,
while the calling process claims them from the start; or all runs
inline where no child may be forked.  These tests hold the two paths to
the same results and the same errors, whichever process runs a block,
and pin the child's lifecycle: one child per call, reaped and with
every pipe fd closed whether the call returns or raises, and no stdio
buffer of the parent flushed twice.  The last test runs this file again
under ``python -X dev`` with ResourceWarning made an error, so a file
left open fails the suite.
"""

import dataclasses
import os
import select
import signal
import subprocess
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

import pytest

from osculant import cli, verify
from osculant.errors import ExprSyntaxError, InternalCheckFailure
from osculant.verify import CriterionResult

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


# a grid of 30 blocks whose literal-reading sweep fails in its d = 4
# blocks; with the side criteria cut to a fraction of their battery
# size, its battery takes about 0.2 s
SCHEDULE_GRID = (2, 4, 2)


@pytest.fixture
def small_battery(monkeypatch):
    monkeypatch.setattr(verify, "_BATTERY_GRID", SCHEDULE_GRID)
    monkeypatch.setattr(verify, "_ROUND_TRIPS", 500)
    monkeypatch.setattr(verify, "_PAIRING_TRIALS", 100)
    monkeypatch.setattr(verify, "_CATALOG_MAX_SQ", 49)
    monkeypatch.setattr(verify, "_FAMILY_MUS", verify._FAMILY_MUS[:2])


def _wait(fd: int) -> None:
    """Take one signal byte from fd, or fail after a minute."""
    ready, _, _ = select.select([fd], [], [], 60)
    assert ready, "the schedule's signal never came"
    os.read(fd, 1)


@contextmanager
def scheduled(monkeypatch, schedule: str, planted=None):
    """The forked battery held to one split of the sweep's blocks, with
    planted[i] raised by block i.  Yields the indices of the blocks this
    process built, in order.

    - "child-none": the child runs its side criteria only once this
      process has claimed every block;
    - "child-most": this process holds its first block until the child
      has claimed every other;
    - "child-first": the child claims block 0 and holds it until this
      process has started block 1;
    - "free": no hold.
    """
    planted = planted or {}
    parent = os.getpid()
    index = {(d, mu): i for i, (d, mu, _)
             in enumerate(verify._grid_blocks(verify._BATTERY_GRID))}
    built = []
    to_parent, from_child = os.pipe()
    to_child, from_parent = os.pipe()
    real_block = verify._sweep_block
    real_claim = verify._claim
    real_side = verify._side_results

    def block(d, mu, window, reading):
        i = index[d, mu]
        if os.getpid() == parent:
            built.append(i)
            if schedule == "child-most" and len(built) == 1:
                _wait(to_parent)
            if schedule == "child-first" and len(built) == 1:
                os.write(from_parent, b".")
        elif schedule == "child-first" and i == 0:
            os.write(from_child, b".")
            _wait(to_child)
        if i in planted:
            raise planted[i]
        return real_block(d, mu, window, reading)

    def claim(*args):
        here = os.getpid() == parent
        if schedule == "child-first" and here:
            _wait(to_parent)
        claimed = real_claim(*args)
        if schedule == "child-none" and here:
            os.write(from_parent, b".")
        if schedule == "child-most" and not here:
            os.write(from_child, b".")
        return claimed

    def side(seed):
        if schedule == "child-none" and os.getpid() != parent:
            _wait(to_child)
        return real_side(seed)

    try:
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_sweep_block", block)
            patch.setattr(verify, "_claim", claim)
            patch.setattr(verify, "_side_results", side)
            yield built
    finally:
        for fd in (to_parent, from_child, to_child, from_parent):
            os.close(fd)


def _inline(monkeypatch, **kwargs):
    with monkeypatch.context() as inline:
        inline.delattr(os, "fork")
        return verify.run_all(**kwargs)


def _counted_forks(monkeypatch) -> list[int]:
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


SCHEDULES = ["child-none", "child-most", "free"]


def _on_path(monkeypatch, schedule: str) -> str:
    """The schedule for scheduled(): "inline" takes os.fork away and
    holds nothing; the others skip where this host runs inline."""
    if schedule == "inline":
        monkeypatch.delattr(os, "fork")
        return "free"
    if not verify._may_fork():
        pytest.skip("this host runs the battery inline")
    return schedule

# the inline results of small_battery by (seed, pair reading)
INLINE = {}


@fork_only
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("seed,reading", [
    (0, "factored"), (0, "literal"), (7, "factored"), (7, "literal")])
def test_fork_path_equals_inline_path_under_each_schedule(
        monkeypatch, small_battery, schedule, seed, reading):
    if (seed, reading) not in INLINE:
        INLINE[seed, reading] = _inline(monkeypatch, seed=seed,
                                        pair_reading=reading)
    inline = INLINE[seed, reading]
    assert (reading == "literal") == (not inline[3].passed)
    count = len(verify._grid_blocks(SCHEDULE_GRID))
    with scheduled(monkeypatch, schedule) as built:
        forks = _counted_forks(monkeypatch)
        with leaves_nothing_behind():
            forked = verify.run_all(seed=seed, pair_reading=reading)
    assert len(forks) == 1
    assert forked == inline
    if schedule == "child-none":
        assert built == list(range(count))
    if schedule == "child-most":
        assert built == [0]


# (schedule, the two planted blocks, the blocks this process builds)
PLANTED = [
    ("child-none", (3, 7), [0, 1, 2, 3]),   # both here
    ("child-most", (0, 5), [0]),            # the earlier here
    ("child-most", (3, 7), [0]),            # both in the child
    ("child-first", (0, 1), [1]),           # the earlier in the child
    ("free", (3, 7), None),
]


@pytest.mark.parametrize("schedule,blocks,built_here", PLANTED + [
    ("inline", (3, 7), [0, 1, 2, 3])])
def test_the_earlier_failing_block_wins(monkeypatch, small_battery,
                                        schedule, blocks, built_here):
    schedule = _on_path(monkeypatch, schedule)
    earlier, later = blocks
    planted = {earlier: InternalCheckFailure("planted earlier"),
               later: ExprSyntaxError("planted later", 1)}
    with scheduled(monkeypatch, schedule, planted) as built:
        with leaves_nothing_behind():
            with pytest.raises(InternalCheckFailure) as caught:
                verify.run_all()
    assert str(caught.value) == "planted earlier"
    if built_here is not None:
        assert built == built_here


@pytest.mark.parametrize("schedule", SCHEDULES + ["inline"])
def test_a_block_error_beats_a_side_error(monkeypatch, small_battery,
                                          schedule):
    schedule = _on_path(monkeypatch, schedule)
    last = len(verify._grid_blocks(SCHEDULE_GRID)) - 1
    monkeypatch.setattr(verify, "criterion_exceptional_catalog",
                        _raises(ExprSyntaxError("planted side", 0)))
    # under "child-most" the child, whose side criteria raised, runs it
    with scheduled(monkeypatch, schedule,
                   {last: InternalCheckFailure("planted block")}):
        with leaves_nothing_behind():
            with pytest.raises(InternalCheckFailure) as caught:
                verify.run_all()
    assert str(caught.value) == "planted block"


@fork_only
def test_quotes_fold_in_sweep_order(monkeypatch, small_battery):
    # the child runs block 0 and this process block 1, each with one
    # planted disagreement, so the detail quotes one from each process
    real_block = verify._sweep_block
    first_two = [block[:2] for block in verify._grid_blocks(SCHEDULE_GRID)[:2]]

    def doctored(d, mu, window, reading):
        first, *rest = real_block(d, mu, window, reading)
        if (d, mu) in first_two:
            first = dataclasses.replace(first, agreement=False)
        return [first, *rest]

    monkeypatch.setattr(verify, "_sweep_block", doctored)
    inline = _inline(monkeypatch)
    assert inline[3].detail.count(" | ") == 2
    with scheduled(monkeypatch, "child-first") as built:
        with leaves_nothing_behind():
            forked = verify.run_all()
    assert built[0] == 1 and 0 not in built
    assert forked == inline


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
def test_an_interrupt_in_the_side_criteria_comes_back(monkeypatch, path,
                                                      interrupt):
    monkeypatch.setattr(verify, "_BATTERY_GRID", SMALL_GRID)
    monkeypatch.setattr(verify, "criterion_pairing_closed_form",
                        _raises(interrupt("planted")))
    with leaves_nothing_behind():
        with pytest.raises(interrupt) as caught:
            verify.run_all()
    assert type(caught.value) is interrupt
    assert str(caught.value) == "planted"


def test_tokens_past_pipe_buf_run_inline(monkeypatch):
    # 2 x 1,250 blocks take 4-byte tokens, 10,000 bytes in all: one
    # write of them would be neither atomic nor sure to fit the pipe
    grid = (2, 3, 9)
    blocks = verify._grid_blocks(grid)
    assert len(blocks) * len(str(len(blocks) - 1)) > select.PIPE_BUF
    built = []

    def no_child():
        raise AssertionError("run_all forked for tokens past PIPE_BUF")

    monkeypatch.setattr(verify, "_BATTERY_GRID", grid)
    monkeypatch.setattr(verify, "_sweep_block",
                        lambda d, mu, window, reading: built.append(mu) or [])
    monkeypatch.setattr(verify, "_side_results", lambda seed: [
        CriterionResult(f"side-{i}", True, "") for i in range(8)])
    monkeypatch.setattr(os, "fork", no_child)
    with leaves_nothing_behind():
        results = verify.run_all()
    assert len(built) == len(blocks)
    assert len(results) == 13 and all(r.passed for r in results)
    assert results[3].detail.startswith("0 specs (d 2..3, mu <= 9,")


@fork_only
def test_fork_path_equals_inline_path_at_seed_7(monkeypatch):
    forks = _counted_forks(monkeypatch)
    with leaves_nothing_behind():
        forked = verify.run_all(seed=7)
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    assert verify.run_all(seed=7) == forked
    assert len(forks) == 1


def test_a_sweep_error_wins_and_the_child_is_reaped(monkeypatch, path):
    # the child is still running its criteria when the sweep raises
    monkeypatch.setattr(verify, "_sweep_block",
                        _raises(InternalCheckFailure("planted sweep")))
    monkeypatch.setattr(verify, "criterion_exceptional_catalog",
                        _raises(InternalCheckFailure("planted side")))
    with leaves_nothing_behind():
        with pytest.raises(InternalCheckFailure, match="^planted sweep$"):
            verify.run_all()


def test_an_interrupt_in_the_sweep_reaps_the_child(monkeypatch, path):
    monkeypatch.setattr(verify, "_sweep_block", _raises(KeyboardInterrupt()))
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
    here = Path(__file__).relative_to(ROOT)
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-W", "error::pytest.PytestUnraisableExceptionWarning", __file__,
         # that test's own interpreter runs without -X dev anyway, and the
         # seed-7 test runs the full battery twice on the fork path that
         # the schedule tests check on small batteries
         "--deselect",
         f"{here}::{test_the_child_flushes_no_inherited_buffer.__name__}",
         "--deselect",
         f"{here}::{test_fork_path_equals_inline_path_at_seed_7.__name__}"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
