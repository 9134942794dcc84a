"""The battery's job runner.

``verify.run_all`` lists its work as 136 jobs: the eight criteria that
read no sweep, in battery order, then the sweep's 128 blocks in sweep
order.  A job's rank is its place in the list.  ``jobs._run_jobs``
writes one token per job to a pipe in rank order, and the calling
process and one forked child both claim tokens until the pipe is
empty; where no child may be forked, all runs inline in the same
order.  The failure of least rank wins, and a child's KeyboardInterrupt
or SystemExit ranks before every job.  A process runs no job after its
own failure, and the parent kills the child once it has itself run
every job ranked below its own failure.  These tests hold the two
paths to the same results and the same errors, whichever process runs
a job, under set schedules of the claims, and pin the child's
lifecycle: one child per call, reaped and with every pipe fd closed
whether the call returns or raises, and no stdio buffer of the parent
flushed twice.  The last test runs this file again under ``python -X
dev`` with ResourceWarning made an error, so a file left open fails the
suite.
"""

import ast
import dataclasses
import os
import select
import signal
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import pytest

from osculant import cli, jobs, verify
from osculant.errors import ExprSyntaxError, InternalCheckFailure
from osculant.verify import CriterionResult

ROOT = Path(__file__).resolve().parents[1]

# for the tests that only a forked child can pass
fork_only = pytest.mark.skipif(
    not jobs._may_fork(), reason="this host runs the battery inline")

# a grid of a few specs, for tests about the child rather than the sweep
SMALL_GRID = (2, 2, 1)

# the criteria that read no sweep, in battery order, which is the order
# of their tokens, before every block's
SIDE = ["criterion_exceptional_catalog", "criterion_negative_curve_catalog",
        "criterion_pairing_closed_form", "criterion_family_generators",
        "criterion_construction_kit", "criterion_decomposition",
        "criterion_expression_round_trip", "criterion_census_determinism"]


@pytest.fixture(params=["fork", "inline"])
def path(request, monkeypatch):
    """Each test that takes this runs once on each path: with os.fork,
    and with os.fork taken away, which makes run_all run inline."""
    if request.param == "inline":
        monkeypatch.delattr(os, "fork")
    elif not jobs._may_fork():
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
def scheduled(monkeypatch, schedule: str, planted=None, claimed=None):
    """The forked battery held to one split of its jobs, with planted[i]
    raised by block i.  Yields the indices of the blocks this process
    built, in order; ``claimed``, where given, gets the index of each
    token this process claimed, and the None of the empty pipe.

    - "child-none": the child claims nothing until this process has
      claimed every token;
    - "child-most": the child claims every side job before this process
      claims a token; then this process claims block 0 and holds it
      until the child has claimed every other token;
    - "child-first": the child claims every side job and block 0 before
      this process claims a token, and holds block 0 until this process
      has started block 1;
    - "child-side": the child claims the first token, a side job's,
      before this process claims one;
    - "child-second": this process claims the first token, and the
      child the second, before this process claims another;
    - "free": no hold.
    """
    planted = planted or {}
    parent = os.getpid()
    index = {(d, mu): i for i, (d, mu, _)
             in enumerate(verify._grid_blocks(verify._BATTERY_GRID))}
    sides = len(SIDE)
    built = []
    claims = [] if claimed is None else claimed
    to_parent, from_child = os.pipe()
    to_child, from_parent = os.pipe()
    real_block = verify._sweep_block
    real_claim = jobs._claim

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

    def claim(tokens, width):
        # each process appends to its own copy of claims
        here = os.getpid() == parent
        n = len(claims)
        if here and n == 0 and schedule in (
                "child-most", "child-first", "child-side"):
            _wait(to_parent)
        if not here and (schedule, n) in {("child-none", 0),
                                          ("child-most", sides),
                                          ("child-second", 0)}:
            _wait(to_child)
        i = real_claim(tokens, width)
        claims.append(i)
        if here and n == 0 and schedule in ("child-most", "child-second"):
            os.write(from_parent, b".")
            if schedule == "child-second":
                _wait(to_parent)
        if not here and (schedule, n + 1) in {("child-most", sides),
                                              ("child-side", 1),
                                              ("child-second", 1)}:
            os.write(from_child, b".")
        if i is None and (schedule, here) in {("child-none", True),
                                              ("child-most", False)}:
            os.write(from_parent if here else from_child, b".")
        return i

    try:
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_sweep_block", block)
            patch.setattr(jobs, "_claim", claim)
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
    if not jobs._may_fork():
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
    claimed = []
    with scheduled(monkeypatch, schedule, claimed=claimed) as built:
        forks = _counted_forks(monkeypatch)
        with leaves_nothing_behind():
            forked = verify.run_all(seed=seed, pair_reading=reading)
    assert len(forks) == 1
    assert forked == inline
    if schedule == "child-none":
        assert built == list(range(count))
        # the list order: the side jobs, then the blocks
        assert claimed == [*range(len(SIDE) + count), None]
    if schedule == "child-most":
        assert built == [0]


# (schedule, the two planted blocks, the blocks this process builds)
PLANTED = [
    ("child-none", (3, 7), [0, 1, 2, 3]),   # the earlier here, and no more
    ("child-most", (0, 5), [0]),            # the earlier here
    ("child-most", (3, 7), [0]),            # the earlier in the child
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
def test_a_side_error_beats_a_block_error(monkeypatch, small_battery,
                                          schedule):
    # under "child-most" this process fails at block 0 while the child,
    # which claims every side job, fails at the last; elsewhere the
    # process that fails at the side job builds no block after it
    built_here = {"child-most": [0], "free": None}.get(schedule, [])
    schedule = _on_path(monkeypatch, schedule)
    monkeypatch.setattr(verify, SIDE[-1],
                        _raises(ExprSyntaxError("planted side", 0)))
    with scheduled(monkeypatch, schedule,
                   {0: InternalCheckFailure("planted block")}) as built:
        with leaves_nothing_behind():
            with pytest.raises(ExprSyntaxError) as caught:
                verify.run_all()
    assert str(caught.value) == "[expr-syntax] planted side (at position 0)"
    if built_here is not None:
        assert built == built_here


@pytest.mark.parametrize("schedule", ["child-none", "inline"])
def test_a_side_job_that_fails_first_beats_a_block(
        monkeypatch, small_battery, schedule):
    # under "child-none" this process claims every token, so the first
    # side job fails before any block runs, and inline the same: the
    # planted block is never built, nor any other
    schedule = _on_path(monkeypatch, schedule)
    last = len(verify._grid_blocks(SCHEDULE_GRID)) - 1
    side_failed_after = []
    with scheduled(monkeypatch, schedule,
                   {last: InternalCheckFailure("planted block")}) as built:
        def side(*args, **kwargs):
            side_failed_after.append(len(built))
            raise ExprSyntaxError("planted side", 0)

        monkeypatch.setattr(verify, SIDE[0], side)
        with leaves_nothing_behind():
            with pytest.raises(ExprSyntaxError) as caught:
                verify.run_all()
    assert str(caught.value) == "[expr-syntax] planted side (at position 0)"
    assert built == []
    assert side_failed_after == [0]


@pytest.mark.parametrize("schedule,interrupted", [
    ("child-first", 0), ("child-first", 2), ("inline", 0)])
def test_a_child_interrupt_beats_a_block_failure_here(
        monkeypatch, small_battery, schedule, interrupted):
    # under "child-first" the child holds block 0 while this process
    # fails at block 1; with interrupted = 2 this process holds that
    # failure until the child, which ran block 0, is interrupted in
    # block 2, ranked above it.  Inline, block 0 is interrupted first.
    schedule = _on_path(monkeypatch, schedule)
    parent = os.getpid()
    entered, enters = os.pipe()
    try:
        with scheduled(monkeypatch, schedule,
                       {interrupted: KeyboardInterrupt("planted")}) as built:
            held = verify._sweep_block
            one, two = [block[:2] for block
                        in verify._grid_blocks(SCHEDULE_GRID)[1:3]]

            def block(d, mu, window, reading):
                if (d, mu) == two and os.getpid() != parent:
                    os.write(enters, b".")
                rows = held(d, mu, window, reading)
                if (d, mu) == one and os.getpid() == parent:
                    if interrupted == 2:
                        _wait(entered)
                    raise InternalCheckFailure("planted block")
                return rows

            with monkeypatch.context() as patch:
                patch.setattr(verify, "_sweep_block", block)
                with leaves_nothing_behind():
                    with pytest.raises(KeyboardInterrupt) as caught:
                        verify.run_all()
    finally:
        os.close(entered)
        os.close(enters)
    assert str(caught.value) == "planted"
    assert built == ([0] if schedule == "free" else [1])


@fork_only
def test_the_child_is_killed_once_no_answer_can_win(monkeypatch,
                                                    small_battery):
    # the child stalls in the second side job, which it claims; this
    # process fails at the first, which has no job ranked below it, so
    # it kills the child rather than wait for its answer
    stall, never = os.pipe()
    monkeypatch.setattr(verify, SIDE[0],
                        _raises(InternalCheckFailure("planted side")))
    monkeypatch.setattr(verify, SIDE[1],
                        lambda *args, **kwargs: select.select(
                            [stall], [], [], 30))
    try:
        with scheduled(monkeypatch, "child-second") as built:
            start = time.monotonic()
            with leaves_nothing_behind():
                with pytest.raises(InternalCheckFailure,
                                   match="^planted side$"):
                    verify.run_all()
            assert time.monotonic() - start < 10
    finally:
        os.close(stall)
        os.close(never)
    assert built == []


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
    # on the fork path the child claims the side job that raises
    monkeypatch.setattr(verify, "_BATTERY_GRID", SMALL_GRID)
    monkeypatch.setattr(verify, SIDE[0], _raises(interrupt("planted")))
    with scheduled(monkeypatch, "child-side" if path == "fork" else "free"):
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
    for i, name in enumerate(SIDE):
        monkeypatch.setattr(verify, name, lambda *args, i=i, **kwargs:
                            CriterionResult(f"side-{i}", True, ""))
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
    # every block raises; on the fork path this process fails at the
    # first block it claims while the child runs the side job it
    # claimed first
    monkeypatch.setattr(verify, "_sweep_block",
                        _raises(InternalCheckFailure("planted sweep")))
    with scheduled(monkeypatch, "child-side" if path == "fork" else "free"):
        with leaves_nothing_behind():
            with pytest.raises(InternalCheckFailure,
                               match="^planted sweep$"):
                verify.run_all()


def test_an_interrupt_in_the_sweep_reaps_the_child(monkeypatch, path):
    monkeypatch.setattr(verify, "_sweep_block", _raises(KeyboardInterrupt()))
    with leaves_nothing_behind():
        with pytest.raises(KeyboardInterrupt):
            verify.run_all()


def test_a_side_failure_comes_back_unchanged(monkeypatch, path):
    # on the fork path the child runs every side job
    monkeypatch.setattr(verify, "_BATTERY_GRID", SMALL_GRID)
    monkeypatch.setattr(verify, "criterion_construction_kit",
                        _raises(InternalCheckFailure("planted side")))
    with scheduled(monkeypatch, "child-most" if path == "fork" else "free"):
        with leaves_nothing_behind():
            with pytest.raises(InternalCheckFailure) as caught:
                verify.run_all()
    assert str(caught.value) == "planted side"
    # the traceback as printed, the child's one included as the cause,
    # still names the function that raised
    printed = "".join(traceback.format_exception(caught.value))
    assert ", in criterion\n" in printed


@fork_only
def test_a_failure_is_the_same_exception_on_both_paths(monkeypatch):
    # the child runs every side job under "child-most"; its traceback
    # comes back as the cause, not as a note the inline path lacks
    def criterion(*args, **kwargs):
        exc = InternalCheckFailure("planted side")
        exc.add_note("planted note")
        raise exc

    monkeypatch.setattr(verify, "_BATTERY_GRID", SMALL_GRID)
    monkeypatch.setattr(verify, "criterion_construction_kit", criterion)
    caught = {}
    for path, schedule in (("fork", "child-most"), ("inline", "free")):
        with monkeypatch.context() as patch:
            if path == "inline":
                patch.delattr(os, "fork")
            with scheduled(patch, schedule):
                with leaves_nothing_behind():
                    with pytest.raises(InternalCheckFailure) as info:
                        verify.run_all()
        caught[path] = info.value
    forked, inline = ((type(exc), str(exc), exc.__notes__)
                      for exc in caught.values())
    assert forked == inline == (
        InternalCheckFailure, "planted side", ["planted note"])
    assert caught["inline"].__cause__ is None
    assert ", in criterion\n" in str(caught["fork"].__cause__)


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
    # the child runs every side job
    monkeypatch.setattr(verify, "_BATTERY_GRID", SMALL_GRID)
    monkeypatch.setattr(verify, "criterion_exceptional_catalog",
                        _raises(Unpicklable("planted")))
    with scheduled(monkeypatch, "child-most"):
        with leaves_nothing_behind():
            with pytest.raises(InternalCheckFailure) as caught:
                verify.run_all()
    assert str(caught.value) == "Unpicklable: planted"


@fork_only
def test_a_child_killed_before_its_result_is_an_internal_failure(
        monkeypatch):
    parent = os.getpid()

    def killed(*args, **kwargs):
        assert os.getpid() != parent, "the side criteria ran inline"
        os.kill(os.getpid(), signal.SIGKILL)

    # the child claims the side job that kills it
    monkeypatch.setattr(verify, "_BATTERY_GRID", SMALL_GRID)
    monkeypatch.setattr(verify, SIDE[0], killed)
    with scheduled(monkeypatch, "child-side"):
        with leaves_nothing_behind():
            with pytest.raises(
                    InternalCheckFailure,
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


def test_the_package_forks_and_exits_in_the_runner_only():
    # a second fork path, such as a census on two CPUs, reuses the runner
    found = []

    class Calls(ast.NodeVisitor):
        def __init__(self, path):
            self.path, self.where = path, []

        def visit_FunctionDef(self, node):
            self.where.append(node.name)
            self.generic_visit(node)
            self.where.pop()

        def visit_Attribute(self, node):
            if isinstance(node.value, ast.Name) and node.value.id == "os" \
                    and node.attr in ("fork", "_exit", "forkpty"):
                found.append((self.path, self.where[-1:], node.attr))
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            assert node.module != "os", (self.path, node.lineno)

        def visit_Import(self, node):
            for alias in node.names:
                assert alias.name.split(".")[0] not in (
                    "multiprocessing", "concurrent"), (
                    self.path, node.lineno)

    package = ROOT / "src" / "osculant"
    for path in sorted(package.rglob("*.py")):
        name = str(path.relative_to(package))
        Calls(name).visit(ast.parse(path.read_text(), name))
    assert found == [("jobs.py", ["_child"], "_exit"),
                     ("jobs.py", ["_forked"], "fork")]


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
