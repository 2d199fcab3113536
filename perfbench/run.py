"""redhom benchmark: closed-loop workloads with verdict checks and per-layer tracing.

    python3 perfbench/run.py --workload certify|search|tables --seed 0 \
        --seconds 30 --trace 0|1

Run from the root of a checkout.  Each workload is one client that
starts its next job only when the previous one has finished.  A run
repeats passes over the workload's fixed job list, each pass in a fresh
worker process, until ``--seconds`` have elapsed (at least one pass).

``--trace 0`` prints the end-to-end metrics (median over passes).
``wall_norm_s`` is a pass's wall time scaled to a fixed machine speed
by timings of a reference loop between its jobs (see worker.py);
``wall_s``, the raw median, is printed beside it.

``--trace 1`` runs one untraced pass and then traced passes, and prints
the per-layer metrics plus ``trace.overhead_s``.  The last line of
standard output is one JSON object; a run with a failed verdict, a
count that does not repeat, or a trace that does not add up exits 1.
A result file with the environment record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("certify", "search", "tables")
# A run must end within 180 s; no pass starts that is expected to end past this.
RUN_BUDGET_S = 165.0
# Self times of a traced pass must add up to its wall time within this share.
SELF_TIME_TOLERANCE = 0.01
# job_p90_s is reported only where a pass has this many jobs (ten beyond p90).
P90_MIN_JOBS = 100
# setup_s is the median of this many set-ups: the passes' own plus set-up-only runs.
SETUP_SAMPLES = 5


def unit_of(per_layer_name: str) -> str:
    if per_layer_name.endswith("_s"):
        return "s"
    return "B" if per_layer_name.endswith(".bytes") else "count"


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        **{var: os.environ.get(var) for var in
           ("REDHOM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "machine": platform.machine(),
    }


def source_digest() -> str:
    """Hash of the program and benchmark sources: call counts are keyed by it."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "redhom"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def run_pass(workload: str, seed: int, trace: bool, budget_end: float,
             spans_path: str | None = None, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if spans_path:
        cmd += ["--spans", spans_path]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.time()
    cmd += ["--spawned-at", repr(spawned_at)]
    timeout = max(1.0, budget_end - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} pass did not finish within {timeout:.0f} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{workload} worker exited with code {proc.returncode}", 1)
    return json.loads(lines[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def repeat_passes(workload, seed, trace, deadline, budget_end, min_passes, spans=None):
    """Passes until the deadline, at least min_passes, none expected to overrun."""
    passes = []
    while True:
        t0 = time.monotonic()
        path = spans(len(passes)) if spans else None
        passes.append(run_pass(workload, seed, trace, budget_end, path))
        took = time.monotonic() - t0
        now = time.monotonic()
        if len(passes) >= min_passes and now >= deadline:
            return passes
        if now + 1.2 * took > budget_end:
            return passes


def counts_repeat(traced: list[dict], key_path: str) -> list[str]:
    """Count metrics that differ between passes or from an earlier run's record."""
    counts = [{k: v for k, v in p["per_layer"].items() if not k.endswith("_s")}
              for p in traced]
    problems = [f"pass {i}: {k} = {c[k]} != {counts[0][k]}"
                for i, c in enumerate(counts[1:], 1) for k in c if c[k] != counts[0][k]]
    if os.path.exists(key_path):
        with open(key_path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        problems += [f"earlier run: {k} = {earlier[k]} != {counts[0][k]}"
                     for k in counts[0] if earlier.get(k) != counts[0][k]]
    else:
        with open(key_path, "w", encoding="utf-8") as fh:
            json.dump(counts[0], fh, indent=1, sort_keys=True)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 = the acceptance sample seeds (20240, 606, 909)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    budget_end = started + RUN_BUDGET_S
    deadline = started + args.seconds

    if args.seed < 0:
        fail("--seed must be a nonnegative integer")
    threads = os.environ.get("REDHOM_THREADS", "").strip() or "1"
    if not threads.isdigit() or int(threads) > 1:
        fail(f"REDHOM_THREADS={threads!r}: runs are single-threaded; "
             "unset it or set it to 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "redhom", "__init__.py")):
        fail(f"no redhom sources under {os.path.join(ROOT, 'src')}; "
             "run from the root of a redhom checkout")
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment()
    tag = f"{args.workload}-seed{args.seed}"

    problems, notes = [], []
    if args.trace:
        untraced = repeat_passes(args.workload, args.seed, False, started, budget_end, 1)
        traced = repeat_passes(
            args.workload, args.seed, True, deadline, budget_end, 2,
            spans=lambda i: os.path.join(OUT_DIR, f"spans-{tag}-pass{i}.jsonl"))
        passes = untraced + traced
        if len(traced) < 2:
            notes.append("one traced pass fitted the time budget: counts were "
                         "compared with earlier runs only, not between passes")
        problems += counts_repeat(
            traced, os.path.join(OUT_DIR, f"counts-{tag}-{source_digest()}.json"))
        for i, p in enumerate(traced):
            gap = abs(p["self_time_sum_s"] - p["wall_s"])
            if gap > SELF_TIME_TOLERANCE * p["wall_s"]:
                problems.append(f"traced pass {i}: self times sum to "
                                f"{p['self_time_sum_s']:.4f} s, wall {p['wall_s']:.4f} s")
        # counts repeat exactly (checked above); times are medians over passes
        metrics = {name: (statistics.median(p["per_layer"][name] for p in traced)
                          if name.endswith("_s") else value)
                   for name, value in traced[0]["per_layer"].items()}
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_norm_s"] for p in traced)
            - statistics.median(p["wall_norm_s"] for p in untraced))
        units = {name: unit_of(name) for name in metrics}
    else:
        passes = repeat_passes(args.workload, args.seed, False, deadline, budget_end, 1)
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_pass(args.workload, args.seed, False, budget_end,
                                   setup_only=True)["setup_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_norm_s": statistics.median(p["wall_norm_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB"}

    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if not j[2]]
    extra = {"passes": len(passes), "jobs_per_pass": len(passes[0]["jobs"]),
             "error_rate": len(failed) / len(jobs)}
    lines = [f"{args.workload} seed {args.seed}: {len(passes)} passes, "
             f"{extra['jobs_per_pass']} jobs per pass, error_rate {extra['error_rate']:g} "
             f"({len(failed)} of {len(jobs)})"]
    if not args.trace:
        lat = sorted(j[1] for j in jobs)
        extra["setup_samples_s"] = setups
        extra["job_samples"] = len(lat)
        extra["wall_s"] = statistics.median(p["wall_s"] for p in passes)
        lines.append(f"wall_s {extra['wall_s']:.6f} s over {len(passes)} passes")
        extra["reference_s"] = statistics.median(
            r for p in passes for r in p["reference_s"])
        lines.append(f"reference_s {extra['reference_s']:.6f} s over "
                     f"{sum(len(p['reference_s']) for p in passes)} timings")
        extra["cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
        lines.append(f"cpu_s {extra['cpu_s']:.6f} s over {len(passes)} passes")
        extra["job_p50_s"] = statistics.median(lat)
        lines.append(f"job_p50_s {extra['job_p50_s']:.6f} s over {len(lat)} jobs")
        if extra["jobs_per_pass"] >= P90_MIN_JOBS:
            extra["job_p90_s"] = percentile(lat, 0.9)
            lines.append(f"job_p90_s {extra['job_p90_s']:.6f} s over {len(lat)} jobs "
                         f"({len(lat) - math.ceil(0.9 * len(lat))} beyond it)")
    for name in ("setup_s", "wall_norm_s", "peak_rss_mb", "trace.overhead_s"):
        if name in metrics:
            lines.append(f"{name} {metrics[name]:.6f} {units[name]}")
    for j in failed[:20]:
        lines.append(f"FAILED {j[0]}: {j[3]}")
    lines += [f"PROBLEM {p}" for p in problems] + [f"NOTE {n}" for n in notes]

    correct = not failed and not problems
    result = {"correct": correct, "attempted": len(jobs), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {"args": vars(args), "environment": env, "summary": extra,
              "problems": problems, "notes": notes, "result": result,
              "passes": [{k: v for k, v in p.items() if k != "per_layer"} for p in passes]}
    with open(os.path.join(OUT_DIR, f"result-{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
