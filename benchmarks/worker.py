"""Benchmark worker: one fresh, single-threaded interpreter per job.

Started by run.py with PYTHONPATH pointing at the checkout's src.  It
imports osculant and osculant.cli and builds the CLI parser once: the
set-up that setup_s measures.  Then it prints ``ready`` with the
calibration slices it timed before the imports and after the parser,
reads one JSON job from stdin and prints one JSON result line.  An empty
stdin ends it right after set-up.  With ``--trace`` the layer tracer is
installed before the parser is built.
"""

import sys
import time

from calibrate import time_slice

SETUP_SLICES = [time_slice() for _ in range(3)]

import osculant  # noqa: E402
import osculant.cli  # noqa: E402

TRACE = "--trace" in sys.argv[1:]
if TRACE:
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
osculant.cli.build_parser()
SETUP_SLICES += [time_slice() for _ in range(3)]
sys.stdout.write("ready " + " ".join(map(repr, SETUP_SLICES)) + "\n")
sys.stdout.flush()

import contextlib  # noqa: E402  (after set-up on purpose)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from calibrate import Calibrator, scale  # noqa: E402


def run_cli(argv: list[str]) -> dict:
    """One cli.main call with its stdout captured; the time includes the
    argument parsing and the rendering."""
    buf = io.StringIO()
    with Calibrator() as cal, contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = osculant.cli.main(argv)
        raw = time.perf_counter() - t0 - cal.spent
    return {"code": code, "wall_s": raw * scale(cal.slices), "raw_s": raw,
            "stdout": buf.getvalue()}


def _canonical(q: list):
    """Run one query; returns the result the digest is taken of."""
    kind = q[0]
    if kind == "expr":
        dclass = osculant.parse_divisor(q[1])
        return [dclass.dot(osculant.K), dclass.genus()]
    _, n, d, gamma, p = q
    spec = osculant.LambdaSpec(n, d, tuple(gamma))
    if kind == "nef":
        return osculant.nef_check(spec, mode="both", p=p)
    if kind == "minimizer":
        return osculant.verify_minimizer_claim(spec, p=p)
    if kind == "zdiv":
        return osculant.z_divisor(spec, p=p)
    dims = osculant.linear_system_dims(spec, p=p)
    return [*dims, osculant.moduli_dimension(spec, p=p)]


def digest(outcome) -> str:
    """First 12 hex digits of the SHA-256 of the outcome's JSON form."""
    if hasattr(outcome, "to_dict"):
        outcome = outcome.to_dict()
    text = outcome if isinstance(outcome, str) \
        else json.dumps(outcome, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def run_queries(queries: list[list], seconds: float | None,
                count: int | None, min_count: int) -> dict:
    """Closed loop, one client: the next query starts when the previous one
    is done and its digest taken.  Stops after `count` queries, or once
    `seconds` have passed and at least `min_count` queries are done.  Each
    latency is scaled by the host speed while it ran."""
    latencies, digests, errors = [], [], []
    clock = time.perf_counter
    raw_total = 0.0
    with Calibrator() as cal:
        start = clock()
        i = 0
        while True:
            if count is not None and i >= count:
                break
            if count is None and i >= min_count and clock() - start >= seconds:
                break
            q = queries[i % len(queries)]
            spent, first = cal.spent, len(cal.slices)
            t0 = clock()
            try:
                outcome = _canonical(q)
            except osculant.DomainError as exc:
                outcome = "error:" + type(exc).__name__
            except Exception as exc:  # a failed operation, counted by run.py
                outcome = "exception:" + type(exc).__name__
                errors.append([i, repr(exc)])
            raw = clock() - t0 - (cal.spent - spent)
            raw_total += raw
            latencies.append(raw * cal.scale_since(first))
            digests.append(digest(outcome))
            i += 1
    return {"latencies": latencies, "raw_s": raw_total, "digests": digests,
            "errors": errors}


def main() -> None:
    line = sys.stdin.readline()
    if not line:
        return
    job = json.loads(line)
    kind = job["kind"]
    if kind == "cli":
        result = run_cli(job["argv"])
    elif kind == "query":
        result = run_queries(job["queries"], job.get("seconds"),
                             job.get("count"), job.get("min_count", 0))
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    result["maxrss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    result["osculant_file"] = osculant.__file__
    numpy = sys.modules.get("numpy")
    result["numpy"] = getattr(numpy, "__version__", None)
    if TRACE:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.span_count()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


main()
