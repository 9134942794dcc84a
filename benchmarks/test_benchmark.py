"""The benchmark's own tests: each workload once at tiny size against
golden, and proof that a corrupted output counts as a failed operation.

    PYTHONPATH=src python3 -m pytest -q benchmarks

They are not part of the tier-1 suite (pytest collects only tests/ by
default), because they start worker processes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import inputs
import run
import tracer

REPO = os.path.dirname(run.BENCH_DIR)
TINY_GRID = (6, 3, 15)


@pytest.fixture(autouse=True)
def at_repo_root(monkeypatch):
    monkeypatch.chdir(REPO)


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def test_miller_rabin_agrees_with_trial_division():
    assert all(inputs.is_prime(n) == _trial_division(n) for n in range(5000))
    # strong pseudoprimes to the first bases, and a Carmichael number
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 561):
        assert not inputs.is_prime(n)
    assert inputs.is_prime((1 << 61) - 1)


def test_query_pool_is_seeded_and_valid():
    pool = inputs.query_pool()
    assert pool == inputs.query_pool()
    assert len(pool) == inputs.POOL_SIZE
    order = inputs.pool_order(7)
    assert sorted(order) == list(range(inputs.POOL_SIZE))
    assert order == inputs.pool_order(7) != inputs.pool_order(8)
    kinds = {q[0] for q in pool}
    assert kinds == {"expr", *inputs.SPEC_KINDS}
    for q in pool:
        if q[0] == "expr":
            continue
        _, n, d, gamma, p = q
        w = 2 * d - 1
        assert 1 <= d <= inputs.D_MAX and n >= 1 and min(gamma) >= 0
        assert sum(g * g for g in gamma) == w * (2 * n - 2) + 3
        assert (gamma[0] - n) % 2 == 1
        assert all((g - n) % 2 == 0 for g in gamma[1:])
        assert p is None or (3 <= p and p % 2 and inputs.is_prime(p))
    primes = [q[4] for q in pool if q[0] != "expr" and q[4]]
    assert min(primes) < 100 and max(primes) > 1 << 40


def test_tiny_census_matches_golden():
    wl = run.Workload("census", 0, census_grid=TINY_GRID)
    result = run.run_worker(wl.job)
    attempted, failed, first = wl.check(result)
    assert (attempted, failed, first) == (83, 0, "")

    rows = result["stdout"].splitlines()
    rows[40] = rows[40].replace("true", "false", 1)
    corrupted = dict(result, stdout="\n".join(rows))
    attempted, failed, _ = wl.check(corrupted)
    assert failed == 1 and failed / attempted > 0


def test_fifty_queries_match_golden():
    wl = run.Workload("query", 3)
    result = run.run_worker(dict(wl.job, count=50))
    assert wl.check(result) == (50, 0, "")

    result["digests"][17] = "0" * 12
    attempted, failed, _ = wl.check(result)
    assert (attempted, failed) == (50, 1)


def test_battery_golden_comparison():
    golden = run.golden_battery()
    assert len(golden) == 14 and golden[-1] == "13/13 criteria passed"
    good = {"code": 0, "stdout": "\n".join(golden) + "\n"}
    assert run.check_battery(good, golden) == (14, 0, "")

    bad_line = golden[6].replace("PASS", "FAIL", 1)
    bad = {"code": 3, "stdout": "\n".join(golden[:6] + [bad_line]
                                          + golden[7:])}
    attempted, failed, _ = run.check_battery(bad, golden)
    assert (attempted, failed) == (14, 1)
    truncated = {"code": 0, "stdout": "\n".join(golden[:10])}
    assert run.check_battery(truncated, golden)[1] == 4


def test_traced_census_counts_repeat_exactly():
    wl = run.Workload("census", 0, census_grid=TINY_GRID)
    layers = []
    for _ in range(2):
        result = run.run_worker(wl.job, trace=True)
        assert wl.check(result)[1] == 0
        layers.append(result["layers"])
        assert result["imports"]["osculant"] > 0
    first, second = layers
    for name, stats in tracer.SPAN_STATS.items():
        for stat in stats:
            key = f"{name}.{stat}"
            assert key in first
            if stat != "s":
                assert first[key] == second[key], key
    for name in tracer.COUNTED:
        assert first[f"{name}.count"] == second[f"{name}.count"]
        assert first[f"{name}.count"][0] > 0
    assert first["families.census.s"][0] > 0
    assert first["nef.nef_check.count"] == [83, "count"]
    assert first["verify.build_sweep.s"] == [0.0, "s"]


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"] for m in bench["per_layer"]}
    expected = {f"{name}.{stat}" for name, stats in tracer.SPAN_STATS.items()
                for stat in stats}
    expected |= {f"{name}.count" for name in tracer.COUNTED}
    expected |= {"setup.import_numpy_s", "setup.import_osculant_s",
                 "trace.overhead_ratio"}
    assert per_layer == expected
    assert "setup_s" in {m["name"] for m in bench["end_to_end"]}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "query",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
