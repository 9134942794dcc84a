"""The job runner: a list of jobs, each a function of nothing, run on
two processes or inline, with the same results and errors either way.

A job's rank is its place in the list, which is the inline order and
the order in which its token goes on a jobserver pipe.  The calling
process and one forked child claim tokens until the pipe is empty, so
each claims its jobs in rising rank, and the child sends back its
results by job index and its failure, pickled through a pipe.  The
failure of least rank wins, as inline, and a process runs nothing after
its own failure, since every job it claims later ranks above it.  The
parent kills the child once it has itself run every job ranked below
its own failure.  All runs inline where there are fewer than two jobs,
where forking is unsafe (no os.fork, another thread running), or where
the tokens would not fit one atomic pipe write.  The results and errors
are the same either way, whichever process runs a job.

This module holds the package's only os.fork and os._exit, and imports
only the standard library and ``errors``, so any module may run jobs
through it.
"""

import os
import pickle
import select
import signal
import threading
from collections.abc import Callable, Iterable
from functools import partial
from operator import itemgetter
from typing import NoReturn

from .errors import InternalCheckFailure


def _may_fork() -> bool:
    """Whether a forked child may run beside this process: the platform
    forks and no other thread runs (a fork copies only the calling
    thread, so a lock another thread held would stay held in the
    child)."""
    return hasattr(os, "fork") and threading.active_count() == 1


class _ChildTraceback(Exception):
    """A forked child's traceback, as text."""


def _sendable(exc: BaseException) -> tuple[BaseException, str]:
    """exc, or an InternalCheckFailure naming its type and text where exc
    does not survive a pickle round trip, and exc's traceback as text: a
    traceback does not pickle, and the text names where exc rose.
    traceback is loaded here, on a failure only: a run that passes
    loads neither it nor textwrap."""
    import traceback
    text = "".join(traceback.format_exception(exc))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = InternalCheckFailure(f"{type(exc).__name__}: {exc}")
    return exc, text


# a job: a function of nothing whose result any process may compute
Job = Callable[[], object]

# A process's failure: the rank of the job that raised, or -1 for a
# non-Exception that stopped a child, and the exception.
Failure = tuple[int, BaseException]

# what a process ran: the results of its jobs by index, and its failure
# or None
Ran = tuple[dict[int, object], Failure | None]


def _claim(tokens: int, width: int) -> int | None:
    """The job index of the next token on the pipe, read as one
    width-byte token, or None once the pipe is empty."""
    token = os.read(tokens, width)
    return int(token) if token else None


def _work(jobs: list[Job], claims: Iterable[int]) -> Ran:
    """Run each claimed job, claimed in rising rank; a job's index is
    its rank.  After a failure a process runs nothing more, since every
    job it claims later ranks above it, but it claims the rest so that
    the other process runs out of jobs sooner.  A non-Exception
    (KeyboardInterrupt, SystemExit) propagates at once."""
    done = {}
    claims = iter(claims)
    for i in claims:
        try:
            done[i] = jobs[i]()
        except Exception as exc:
            for _ in claims:
                pass
            return done, (i, exc)
    return done, None


def _child(work: Callable[[], Ran], fd: int) -> NoReturn:
    """A forked child's whole life: run work(), write what it ran pickled
    to fd, its failure made _sendable, and end with os._exit, which
    flushes none of the stdio buffers copied from the parent and runs no
    atexit hook.  The exit code is 0 only once all of it is written."""
    code = 1
    try:
        try:
            done, failure = work()
        except BaseException as exc:
            done, failure = {}, (-1, exc)
        if failure is not None:
            failure = (failure[0], *_sendable(failure[1]))
        with open(fd, "wb") as pipe:
            pickle.dump((done, failure), pipe)
        code = 0
    finally:
        os._exit(code)


def _forked(jobs: list[Job], width: int) -> Ran:
    """What this process and one forked child ran of the jobs, both
    claiming them from a token pipe filled in rank order.

    The child is killed at once when this process raises, and when it
    failed after running every job ranked below its failure, since no
    answer could then change the outcome.  Otherwise a child that ends
    without answering raises InternalCheckFailure naming how it ended.
    The child is reaped and every pipe end closed on every path.
    """
    tokens, filler = os.pipe()
    try:
        with open(filler, "wb", buffering=0) as pipe:
            pipe.write("".join(f"{i:0{width}}"
                               for i in range(len(jobs))).encode())
        claims = iter(partial(_claim, tokens, width), None)
        answers, sent = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(answers)
            os.close(sent)
            raise
        if pid == 0:
            os.close(answers)
            _child(lambda: _work(jobs, claims), sent)
        os.close(sent)
        data = None
        with open(answers, "rb") as pipe:
            try:
                done, failure = _work(jobs, claims)
                if failure is not None and len(done) == failure[0]:
                    os.kill(pid, signal.SIGKILL)
                else:
                    data = pipe.read()   # to the child's end, before the reap
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                _, status = os.waitpid(pid, 0)
    finally:
        os.close(tokens)
    if data is None:
        return done, failure
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = (f"was killed by signal {-code}" if code < 0
               else f"exited with status {code}")
        raise InternalCheckFailure(
            f"the forked child {how} before it sent its results")
    theirs, their_failure = pickle.loads(data)
    if their_failure is not None:
        # a __cause__ does not pickle, so the child's is set here
        rank, exc, text = their_failure
        exc.__cause__ = _ChildTraceback(text)
        their_failure = rank, exc
    done.update(theirs)
    return done, min(filter(None, (failure, their_failure)),
                     key=itemgetter(0), default=None)


def _run_jobs(jobs: list[Job]) -> list:
    """[job() for job in jobs]; a job's rank is its place in the list.

    Where _may_fork says yes, each job's index is first written to a
    token pipe as a fixed-width token, in rank order, make's jobserver
    pattern: one write of at most PIPE_BUF bytes is atomic and fits any
    pipe, and every read takes one token.  This process and one forked
    child claim the tokens until the pipe is empty (_forked).  The
    child's results come back pickled and keyed by index, so they do
    not depend on which process ran a job.  Where there are fewer than
    two jobs, the tokens would not fit, or no child may be forked, all
    runs inline.

    The exception raised is the same on both paths: that of the job of
    least rank to raise, unless a non-Exception stops a process.  A
    child's exception comes back with its type, text and notes, and its
    traceback as its __cause__ (_sendable); its non-Exception ranks
    before every job.
    """
    count = len(jobs)
    width = len(str(count - 1))
    if count < 2 or count * width > select.PIPE_BUF or not _may_fork():
        done, failure = _work(jobs, range(count))
    else:
        done, failure = _forked(jobs, width)
    if failure is not None:
        raise failure[1]
    return [done[i] for i in range(count)]
