"""The job runner on its own, with no battery in it.

``jobs._run_jobs`` returns ``[job() for job in jobs]`` whichever process
runs a job, and each process claims its jobs in list order.  ``osculant/jobs.py`` imports only the standard library and
``osculant.errors``, so any module of the package, ``families`` among
them, may import it without a cycle.
"""

import ast
import errno
import os
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from osculant import jobs

JOBS_PY = Path(__file__).resolve().parents[1] / "src" / "osculant" / "jobs.py"


@pytest.mark.parametrize("path", ["fork", "inline"])
def test_the_runner_returns_every_result_in_rank_order(monkeypatch, path):
    work = [partial(pow, i, 2) for i in range(50)]
    forks = []
    if path == "inline":
        monkeypatch.delattr(os, "fork")
    elif not jobs._may_fork():
        pytest.skip("this host runs jobs inline")
    else:
        real_fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
    assert jobs._run_jobs(work) == [job() for job in work]
    assert len(forks) == (path == "fork")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("path", ["fork", "inline"])
def test_each_process_claims_in_rising_rank_and_stops_at_its_failure(
        monkeypatch, tmp_path, path):
    if path == "inline":
        monkeypatch.delattr(os, "fork")
    elif not jobs._may_fork():
        pytest.skip("this host runs jobs inline")
    log = tmp_path / "log"
    failing = 30

    def note(what, i):
        # one short O_APPEND write a line, so the two processes' lines
        # do not mix
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {what} {i}\n".encode())
        finally:
            os.close(fd)

    real_claim = jobs._claim

    def claim(tokens, width):
        i = real_claim(tokens, width)
        note("claim", i)
        return i

    def job(i):
        note("run", i)
        time.sleep(0.001)
        if i == failing:
            raise ValueError("planted")
        return i

    monkeypatch.setattr(jobs, "_claim", claim)
    with pytest.raises(ValueError, match="^planted$"):
        jobs._run_jobs([partial(job, i) for i in range(50)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # each process's claims and runs, in its order; inline claims nothing
    seen = {}
    for line in log.read_text().splitlines():
        pid, what, i = line.split()
        if i != "None":
            seen.setdefault(pid, {"claim": [], "run": []})[what].append(int(i))
    if path == "inline":
        assert [*seen.values()] == [
            {"claim": [], "run": list(range(failing + 1))}]
    else:
        assert sorted(i for notes in seen.values()
                      for i in notes["claim"]) == list(range(50))
    for notes in seen.values():
        claimed, ran = notes["claim"], notes["run"]
        assert claimed == sorted(claimed) and ran == sorted(ran)
        assert path == "inline" or set(ran) <= set(claimed)
        assert failing not in ran or ran[-1] == failing
    assert sum(failing in notes["run"] for notes in seen.values()) == 1


def test_the_runner_imports_only_the_standard_library_and_errors():
    found = []
    for node in ast.walk(ast.parse(JOBS_PY.read_text(), str(JOBS_PY))):
        if isinstance(node, ast.Import):
            found += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.level, node.module))
    assert (1, "errors") in found
    for level, module in found:
        if level:
            assert (level, module) == (1, "errors")
        else:
            assert module.split(".")[0] in sys.stdlib_module_names, module


@pytest.mark.parametrize("count,forks", [(0, 0), (1, 0), (2, 1)])
def test_the_runner_forks_only_for_two_jobs_or_more(monkeypatch, count,
                                                    forks):
    # a fork, two pipes and a pickle round trip buy nothing for one job
    if not jobs._may_fork():
        pytest.skip("this host runs jobs inline")
    made = []
    real_fork = os.fork

    def counted_fork():
        made.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    work = [partial(pow, i, 2) for i in range(count)]
    assert jobs._run_jobs(work) == [i * i for i in range(count)]
    assert len(made) == forks


def test_a_failed_fork_raises_its_error_and_leaves_no_pipe_open(
        monkeypatch):
    if not jobs._may_fork():
        pytest.skip("this host runs jobs inline")
    error = OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    made = []
    real_pipe = os.pipe

    def recorded_pipe():
        ends = real_pipe()
        made.extend(ends)
        return ends

    def failing_fork():
        raise error

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    with pytest.raises(OSError) as info:
        jobs._run_jobs([partial(pow, 2, 2), partial(pow, 3, 2)])
    assert info.value is error
    # the token pipe and the answer pipe, every end closed
    assert len(made) == 4
    for fd in made:
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF
