"""The job runner on its own, with no battery in it.

``jobs._run_jobs`` returns ``[job() for job in jobs]`` whichever process
runs a job.  ``osculant/jobs.py`` imports only the standard library and
``osculant.errors``, so any module of the package, ``families`` among
them, may import it without a cycle.
"""

import ast
import os
import sys
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
    assert jobs._run_jobs(work, [49, 7, 3]) == [job() for job in work]
    assert len(forks) == (path == "fork")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    assert jobs._run_jobs(work, []) == [i * i for i in range(count)]
    assert len(made) == forks
