"""The osculant benchmark: one command that measures a workload, checks
every output against golden, and prints every metric by name and unit.

    python3 benchmarks/run.py --workload {battery,census,query} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports osculant from
./src and installs nothing.  This process (the driver) starts fresh
worker processes (worker.py) one at a time; each worker is one
single-threaded interpreter.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The lines
before it repeat the figures under the names of benchmarks/README.md and
record the run environment.  The exit code is 0 when every output
matched golden, 1 when one did not, and 2 when the checkout cannot be
benchmarked (no result is printed then).
"""

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import inputs  # noqa: E402
from calibrate import median_scale  # noqa: E402

GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")
OUT_DIR = ".bench_out"
WORKER = os.path.join(BENCH_DIR, "worker.py")

WORKLOADS = ("battery", "census", "query")
SETUP_PROBES = 9          # cold starts per run; setup_s is their median
MIN_QUERIES = 1000        # so that >= 10 samples lie beyond the p99
TRACE_QUERIES = 2000      # fixed, so traced counts repeat exactly
WORKER_TIMEOUT = 170      # seconds; a run must end within 180

BATTERY_ARGV = ["verify-paper", "--output", "text"]


def census_argv(grid) -> list[str]:
    n_max, d_max, gamma_max = grid
    return ["census", "--n-max", str(n_max), "--d-max", str(d_max),
            "--gamma-max", str(gamma_max), "--output", "csv"]


class BenchError(Exception):
    """The run cannot produce a result (exit code 2, nothing printed)."""


# ---------------------------------------------------------------------------
# workers


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(job: dict | None, trace: bool = False,
               tag: str = "worker") -> dict:
    """Start one worker, wait for it to be ready, hand it `job`.

    Returns the worker's result with its set-up time added, scaled
    (setup_s) and raw (setup_raw_s); job None only measures set-up.  The
    worker is always waited for.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [WORKER] + (["--trace"] if trace else [])
    err_path = os.path.join(OUT_DIR, f"{tag}.err")
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err,
                                env=worker_env(), text=True)
        try:
            ready = proc.stdout.readline().split()
            setup_raw = time.perf_counter() - t0
            if ready[:1] != ["ready"]:
                proc.wait(timeout=WORKER_TIMEOUT)
                raise BenchError(f"worker did not start:\n{_tail(err_path)}")
            payload = "" if job is None else json.dumps(job) + "\n"
            out, _ = proc.communicate(payload, timeout=WORKER_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{_tail(err_path)}")
    slices = [float(x) for x in ready[1:]]
    setup_raw -= sum(slices)
    setup = {"setup_s": setup_raw * median_scale(slices),
             "setup_raw_s": setup_raw}
    if job is None:
        return setup
    result = dict(json.loads(out.splitlines()[-1]), **setup)
    src = os.path.abspath("src") + os.sep
    if not result["osculant_file"].startswith(src):
        raise BenchError(f"osculant came from {result['osculant_file']}, "
                         f"not from {src}")
    if trace:
        result["imports"] = import_times(err_path)
    return result


def _tail(path: str, lines: int = 20) -> str:
    with open(path) as fh:
        return "".join(fh.readlines()[-lines:])


def import_times(err_path: str) -> dict[str, float]:
    """Cumulative import seconds of numpy and osculant, from -X importtime
    (numpy is 0 when nothing imported it)."""
    out = {"numpy": 0.0, "osculant": 0.0}
    with open(err_path) as fh:
        for line in fh:
            if not line.startswith("import time:"):
                continue
            parts = line[len("import time:"):].split("|")
            if len(parts) == 3 and parts[2].strip() in out:
                try:
                    out[parts[2].strip()] = int(parts[1]) / 1e6
                except ValueError:
                    pass
    return out


# ---------------------------------------------------------------------------
# golden outputs and checks


def golden_battery() -> list[str]:
    with open(os.path.join(GOLDEN_DIR, "battery.txt")) as fh:
        return fh.read().splitlines()


def golden_census() -> list[str]:
    with gzip.open(os.path.join(GOLDEN_DIR, "census.csv.gz"), "rt") as fh:
        return fh.read().splitlines()


def golden_queries() -> list[str]:
    with open(os.path.join(GOLDEN_DIR, "queries.txt")) as fh:
        digests = fh.read().split()
    if len(digests) != inputs.POOL_SIZE:
        raise BenchError(f"golden/queries.txt has {len(digests)} digests, "
                         f"the pool has {inputs.POOL_SIZE}")
    return digests


def compare_lines(got: list[str], want: list[str]) -> tuple[int, int, str]:
    """(attempted, failed, first difference) for two line lists; a line
    missing on either side is a failed operation."""
    attempted = max(len(got), len(want))
    failed, first = 0, ""
    for i in range(attempted):
        g = got[i] if i < len(got) else None
        w = want[i] if i < len(want) else None
        if g != w:
            failed += 1
            if not first:
                first = f"line {i + 1}: got {g!r}, want {w!r}"
    return attempted, failed, first


def check_battery(result: dict, golden: list[str]) -> tuple[int, int, str]:
    """One operation per verify-paper line (13 criteria and the tally)."""
    attempted, failed, first = compare_lines(
        result["stdout"].splitlines(), golden)
    if result["code"] != 0 and not failed:
        failed, first = attempted, f"exit code {result['code']}"
    return attempted, failed, first


def check_census(result: dict, golden: list[str]) -> tuple[int, int, str]:
    """One operation per CSV row; a wrong header fails one more."""
    lines = result["stdout"].splitlines()
    attempted, failed, first = compare_lines(lines[1:], golden[1:])
    if lines[:1] != golden[:1]:
        attempted, failed = attempted + 1, failed + 1
        first = first or f"header: got {lines[:1]!r}"
    if result["code"] != 0 and not failed:
        failed, first = attempted, f"exit code {result['code']}"
    return attempted, failed, first


def check_queries(result: dict, order: list[int],
                  golden: list[str]) -> tuple[int, int, str]:
    """One operation per query; an exception other than DomainError, or a
    result or DomainError class other than the recorded one, fails it."""
    failed, first = 0, ""
    for i, got in enumerate(result["digests"]):
        index = order[i % len(order)]
        if got != golden[index]:
            failed += 1
            first = first or f"query {i} (pool index {index})"
    if result["errors"]:
        first = f"query {result['errors'][0][0]} raised {result['errors'][0][1]}"
    return len(result["digests"]), failed, first


# ---------------------------------------------------------------------------
# workloads


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Workload:
    """One workload's unit of work and its golden check."""

    def __init__(self, name: str, seed: int, census_grid=inputs.CENSUS_GRID):
        self.name = name
        self.seed = seed
        if name == "battery":
            self.job = {"kind": "cli", "argv": BATTERY_ARGV}
            self.golden = golden_battery()
        elif name == "census":
            self.job = {"kind": "cli", "argv": census_argv(census_grid)}
            golden = golden_census()
            if tuple(census_grid) != inputs.CENSUS_GRID:
                golden = census_subgrid(golden, census_grid)
            self.golden = golden
        else:
            pool = inputs.query_pool()
            self.order = inputs.pool_order(seed)
            self.job = {"kind": "query",
                        "queries": [pool[i] for i in self.order]}
            self.golden = golden_queries()

    def check(self, result: dict) -> tuple[int, int, str]:
        if self.name == "battery":
            return check_battery(result, self.golden)
        if self.name == "census":
            return check_census(result, self.golden)
        return check_queries(result, self.order, self.golden)

    def operations(self, result: dict) -> int:
        """Queries, census rows (without the header) or battery lines."""
        if self.name == "query":
            return len(result["latencies"])
        return len(result["stdout"].splitlines()) - (self.name == "census")

    def latencies(self, result: dict) -> list[float]:
        if self.name == "query":
            return result["latencies"]
        return [result["wall_s"]]


def census_subgrid(golden: list[str], grid) -> list[str]:
    """The golden rows of a smaller grid: census rows depend only on their
    own (n, d, gamma), so a sub-grid's CSV is a filter of the full one."""
    n_max, d_max, gamma_max = grid
    out = golden[:1]
    for row in golden[1:]:
        f = row.split(",")
        if int(f[0]) <= n_max and int(f[1]) <= d_max \
                and max(int(x) for x in f[2:6]) <= gamma_max:
            out.append(row)
    return out


def check_units(wl: Workload, units: list[dict]) -> tuple[int, int, list]:
    """Summed (attempted, failed) over the units, and their first
    mismatches."""
    attempted = failed = 0
    firsts = []
    for unit in units:
        a, f, first = wl.check(unit)
        attempted, failed = attempted + a, failed + f
        if first:
            firsts.append(first)
    return attempted, failed, firsts


def measure(wl: Workload, seconds: float) -> dict:
    """Untraced run: units of work until the run length is used up (at
    least one; the query stream is one unit), between two halves of the
    set-up probes, so that they sample the host at both ends of the run."""
    setups = [run_worker(None, tag="probe")
              for _ in range(SETUP_PROBES // 2)]
    units = []
    start = time.perf_counter()
    if wl.name == "query":
        job = dict(wl.job, seconds=seconds, min_count=MIN_QUERIES)
        units.append(run_worker(job, tag=wl.name))
    else:
        while True:
            units.append(run_worker(wl.job, tag=wl.name))
            elapsed = time.perf_counter() - start
            if elapsed + units[-1]["raw_s"] > seconds:
                break
    setups += [run_worker(None, tag="probe")
               for _ in range(SETUP_PROBES - len(setups))]
    attempted, failed, firsts = check_units(wl, units)
    lat, ops, busy, raw = [], 0, 0.0, 0.0
    for unit in units:
        unit_lat = wl.latencies(unit)
        lat += unit_lat
        busy += sum(unit_lat)
        raw += unit["raw_s"]
        ops += wl.operations(unit)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p99_ms": (percentile(lat, 99) * 1e3, "ms"),
        "ops_per_s": (ops / busy, "1/s"),
        "peak_rss_mb": (max(u["maxrss_mb"] for u in units), "MB"),
    }
    raw_figures = {
        "setup_s": (statistics.median(s["setup_raw_s"] for s in setups), "s"),
        "busy_s": (raw, "s"), "ops_per_s": (ops / raw, "1/s")}
    return {"metrics": metrics, "raw": raw_figures, "attempted": attempted,
            "failed": failed, "firsts": firsts, "units": len(units),
            "operations": ops, "numpy": units[0]["numpy"]}


def measure_traced(wl: Workload) -> dict:
    """Traced run: one fixed unit untraced, then the same unit traced; the
    ratio of their times is the tracing overhead."""
    job = dict(wl.job, count=TRACE_QUERIES) if wl.name == "query" else wl.job
    plain = run_worker(job, tag=wl.name)
    traced = run_worker(dict(job, spans_path=os.path.join(
        OUT_DIR, f"spans-{wl.name}.bin")), trace=True, tag=f"{wl.name}-trace")
    attempted, failed, firsts = check_units(wl, [plain, traced])
    metrics = {name: tuple(value_unit)
               for name, value_unit in traced["layers"].items()}
    metrics["setup.import_numpy_s"] = (traced["imports"]["numpy"], "s")
    metrics["setup.import_osculant_s"] = (traced["imports"]["osculant"], "s")
    overhead = sum(wl.latencies(traced)) / sum(wl.latencies(plain))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    raw_figures = {"untraced_s": (plain["raw_s"], "s"),
                   "traced_s": (traced["raw_s"], "s")}
    return {"metrics": metrics, "raw": raw_figures, "attempted": attempted,
            "failed": failed, "firsts": firsts, "units": 2,
            "spans": traced["spans"],
            "operations": wl.operations(traced), "numpy": traced["numpy"]}


# ---------------------------------------------------------------------------
# reporting


def git_sha() -> str:
    """HEAD of ./.git read directly (no git process, no search upwards);
    'unknown' outside a git checkout."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# the names the workload's own figures go by in benchmarks/README.md
ALIASES = {
    "battery": {"latency_p50_ms": ("battery_s", 1e-3, "s")},
    "census": {"ops_per_s": ("census_rows_per_s", 1, "rows/s")},
    "query": {"latency_p50_ms": ("query_p50_ms", 1, "ms"),
              "latency_p99_ms": ("query_p99_ms", 1, "ms"),
              "ops_per_s": ("query_per_s", 1, "queries/s")},
}


def report(wl: Workload, args, res: dict) -> dict:
    ok = res["failed"] == 0
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"units {res['units']}  operations {res['operations']}  "
          f"attempted {res['attempted']}  failed {res['failed']}  "
          f"error_rate {res['failed'] / max(res['attempted'], 1):.6g}")
    for first in res["firsts"]:
        print(f"  mismatch: {first}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    for name, (value, unit) in res["raw"].items():
        print(f"  raw {name:<42} {value:>14.6g} {unit}")
    if not args.trace:
        for name, (alias, scale, unit) in ALIASES[wl.name].items():
            value = res["metrics"][name][0] * scale
            print(f"  = {alias:<44} {value:>14.6g} {unit}")
    env = {"git_sha": git_sha(), "python": sys.version.split()[0],
           "numpy": res["numpy"], "nproc": os.cpu_count(),
           "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "units": res["units"],
           "operations": res["operations"]}
    if "spans" in res:
        env["spans"] = res["spans"]
    print("env " + json.dumps(env, sort_keys=True))
    return {"correct": ok, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in res["metrics"].items()}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not os.path.isfile(os.path.join("src", "osculant", "__init__.py")):
            raise BenchError("no src/osculant here: run from the root of an "
                             "osculant source checkout")
        wl = Workload(args.workload, args.seed)
        res = measure_traced(wl) if args.trace \
            else measure(wl, args.seconds)
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = report(wl, args, res)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
