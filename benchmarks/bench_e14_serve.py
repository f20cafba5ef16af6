"""E14 — the serve tier: query throughput over HTTP.

Drives 1/8/32 concurrent clients against an in-process server and
reports queries/sec with p50/p99 latency per concurrency level
(``python benchmarks/bench_e14_serve.py``), written to
``BENCH_serve.json``.

The wire-fidelity gates (HTTP, WebSocket and columnar results equal to
in-process enumeration, a wire apply visible to the next query, pins
drained at close) are tier-1 tests in ``tests/serve/test_wire_gates.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if REPO_SRC not in sys.path:  # allow `python benchmarks/bench_e14_serve.py`
    sys.path.insert(0, REPO_SRC)

from repro.serve import (  # noqa: E402
    DatabaseRegistry,
    ServeClient,
    serve_in_thread,
)
from repro.session import Database  # noqa: E402
from repro.structures.random_gen import random_colored_graph  # noqa: E402

EXAMPLE = "B(x) & R(y) & ~E(x,y)"
DEFAULT_JSON = "BENCH_serve.json"


def build_database(n: int, seed: int = 17) -> Database:
    return Database(random_colored_graph(n, max_degree=4, seed=seed).copy())


def drive_clients(port, clients: int, requests_per_client: int, limit: int):
    """Each thread owns one connection and hammers the query endpoint."""
    latencies: list = []
    errors: list = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def worker():
        client = ServeClient("127.0.0.1", port)
        local = []
        try:
            client.health()  # connect before the clock starts
            barrier.wait()
            for _ in range(requests_per_client):
                started = time.perf_counter()
                client.rows("main", EXAMPLE, limit=limit)
                local.append(time.perf_counter() - started)
        except Exception as error:  # noqa: BLE001 - harness accounting
            with lock:
                errors.append(f"{type(error).__name__}: {error}")
        finally:
            client.close()
            with lock:
                latencies.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return latencies, elapsed, errors


def percentile(values, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1)))
    return ordered[index]


def run_harness(
    n: int,
    client_counts,
    requests_per_client: int,
    limit: int,
    json_path: str,
) -> int:
    db = build_database(n)
    registry = DatabaseRegistry()
    registry.add("main", db, close_on_shutdown=False)
    handle = serve_in_thread(registry, cursor_timeout=None)
    report = {
        "n": db.structure.cardinality,
        "query": EXAMPLE,
        "levels": [],
    }
    failures = []
    try:
        print(
            f"workload: n={db.structure.cardinality}, "
            f"degree={db.structure.degree}, port={handle.port}"
        )
        for clients in client_counts:
            latencies, elapsed, errors = drive_clients(
                handle.port, clients, requests_per_client, limit
            )
            failures.extend(errors)
            total = len(latencies)
            qps = total / elapsed if elapsed > 0 else 0.0
            p50 = percentile(latencies, 0.50)
            p99 = percentile(latencies, 0.99)
            mean = statistics.fmean(latencies) if latencies else 0.0
            print(
                f"{clients:>3} clients: {total:>5} requests in "
                f"{elapsed:.3f}s  {qps:,.0f} q/s  "
                f"mean {mean * 1e3:.2f}ms  p50 {p50 * 1e3:.2f}ms  "
                f"p99 {p99 * 1e3:.2f}ms"
            )
            report["levels"].append(
                {
                    "clients": clients,
                    "requests": total,
                    "seconds": elapsed,
                    "queries_per_second": qps,
                    "mean_ms": mean * 1e3,
                    "p50_ms": p50 * 1e3,
                    "p99_ms": p99 * 1e3,
                }
            )
    finally:
        handle.stop()
        db.close()

    report["failures"] = failures
    with open(json_path, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=2)
    print(f"report written to {json_path}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=300, help="structure size")
    parser.add_argument(
        "--requests", type=int, default=40, help="requests per client"
    )
    parser.add_argument(
        "--limit", type=int, default=256, help="row limit per request"
    )
    parser.add_argument("--json", default=DEFAULT_JSON, help="report path")
    args = parser.parse_args(argv)
    return run_harness(args.n, (1, 8, 32), args.requests, args.limit, args.json)


if __name__ == "__main__":
    sys.exit(main())
