"""One pass of one workload in a fresh process.

    python3 perfbench/worker.py --workload tables --seed 0 --trace 0 \
        --spawned-at <time.time() of the parent before the spawn>

A fresh process per pass is the cache-isolation rule: ``catalog_ring``
caches rings process-wide and modules cache their resolutions, so a
second pass in the same process would skip work the first one did.
The worker builds the rings and inputs (set-up), optionally installs
the tracing wrappers, runs every job once in order, and prints one JSON
object as its last line of standard output.

Between jobs the worker times ``reference_loop``, a fixed computation
of the benchmark's own that calls nothing in ``redhom``: before the
first job, after the last, and after any job that ends at least
``CAL_INTERVAL_S`` of job time after the previous reference.  On a
shared host the machine's speed switches between modes up to 1.8x
apart, several times a second at worst, and the program and the
reference slow down together.  So each stretch of jobs between two
references is scaled by ``REFERENCE_S`` over the mean of those two
references; the sum is ``wall_norm_s``, the pass time at a fixed
machine speed.  Reference time is never counted in a job or in
``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Job time between two timings of the reference loop.
CAL_INTERVAL_S = 0.1
# Nominal time of reference_loop: wall_norm_s is in seconds at that speed.
REFERENCE_S = 0.008


def reference_loop() -> int:
    """A fixed mix of interpreter work and small int64 array operations.

    It mirrors what redhom spends its time on (Python-level control flow
    around row reduction and products of small integer matrices mod p)
    without calling redhom, so no change to the program changes it.
    """
    rng = np.random.default_rng(12345)
    total = 0
    for _ in range(16):
        a = rng.integers(0, 5, size=(12, 16), dtype=np.int64)
        row = 0
        for col in range(16):
            nonzero = np.nonzero(a[row:, col])[0]
            if nonzero.size == 0:
                continue
            pivot = row + int(nonzero[0])
            a[[row, pivot]] = a[[pivot, row]]
            a[row] = a[row] * pow(int(a[row, col]), 3, 5) % 5
            factors = a[:, col].copy()
            factors[row] = 0
            a = (a - np.outer(factors, a[row])) % 5
            row += 1
            if row == a.shape[0]:
                break
        total += row
    b = rng.integers(0, 5, size=(64, 64), dtype=np.int64)
    for _ in range(3):
        b = (b @ b) % 5
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return total + int(b[0, 0]) + len(counts)


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", help="file the traced spans are written to")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once the inputs are built (a set-up time sample)")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import redhom
    import workloads
    if not os.path.abspath(redhom.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"redhom imported from {redhom.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    results = []
    reference_loop()  # warm-up, untimed
    references = [time_reference()]
    since_reference = 0.0
    wall_norm_s = 0.0
    cpu_s = 0.0
    for job_id, (name, fn) in enumerate(jobs):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            ok, detail = tracer.job_span(job_id, fn) if tracer else fn()
        except Exception:  # a crashed job is a failed verdict, not an abort
            ok, detail = False, traceback.format_exc()
        took = time.perf_counter() - t0
        cpu_s += time.process_time() - c0
        results.append([name, took, bool(ok), "" if ok else detail])
        since_reference += took
        if since_reference >= CAL_INTERVAL_S or job_id == len(jobs) - 1:
            references.append(time_reference())
            wall_norm_s += since_reference * 2 * REFERENCE_S / sum(references[-2:])
            since_reference = 0.0

    out = {"setup_s": setup_s, "wall_s": sum(r[1] for r in results),
           "wall_norm_s": wall_norm_s, "cpu_s": cpu_s,
           "reference_s": references, "jobs": results,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["per_layer"] = tracer.metrics()
        out["self_time_sum_s"] = tracer.self_time_sum()
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
