"""Record the golden outputs every benchmark run is checked against.

    python3 benchmarks/record_golden.py [battery] [census] [query]

Run from the root of the checkout whose outputs define golden (the seed
commit of the benchmark).  It writes, under benchmarks/golden/:
  battery.txt     the verify-paper text lines;
  census.csv.gz   the census CSV of inputs.CENSUS_GRID;
  queries.txt     one digest per query of the pool, in pool order.
A query that raises anything but a DomainError is reported and stops the
recording, because golden must not contain failures.
"""

import gzip
import os
import sys

import run
import inputs


def record_battery() -> None:
    result = run.run_worker({"kind": "cli", "argv": run.BATTERY_ARGV})
    if result["code"] != 0:
        sys.exit(f"verify-paper exited with {result['code']}")
    with open(os.path.join(run.GOLDEN_DIR, "battery.txt"), "w") as fh:
        fh.write(result["stdout"])


def record_census() -> None:
    result = run.run_worker(
        {"kind": "cli", "argv": run.census_argv(inputs.CENSUS_GRID)})
    if result["code"] != 0:
        sys.exit(f"census exited with {result['code']}")
    path = os.path.join(run.GOLDEN_DIR, "census.csv.gz")
    with open(path, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(result["stdout"].encode())


def record_queries() -> None:
    result = run.run_worker({"kind": "query",
                             "queries": inputs.query_pool(),
                             "count": inputs.POOL_SIZE})
    if result["errors"]:
        sys.exit(f"queries raised: {result['errors'][:5]}")
    with open(os.path.join(run.GOLDEN_DIR, "queries.txt"), "w") as fh:
        fh.write("\n".join(result["digests"]) + "\n")


def main(argv: list[str]) -> None:
    parts = argv or ["battery", "census", "query"]
    os.makedirs(run.GOLDEN_DIR, exist_ok=True)
    for part in parts:
        {"battery": record_battery, "census": record_census,
         "query": record_queries}[part]()
        print(f"recorded {part}")


if __name__ == "__main__":
    main(sys.argv[1:])
