"""One-off comparison of ``run_eval`` with two worker threads against one.

Runs the short_suite operations round by round, alternating which worker
count goes first, and prints each side's median round time, quartiles and
the speed-up. The outputs of both sides must be byte-identical. Run from the
root of a source checkout:

    python3 simbench/compare_workers.py
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import shutil
import statistics
import time
from pathlib import Path

ROUNDS = 6
SEED = 0


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "simulst" / "__init__.py").is_file():
        print("compare_workers: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads
    from simulst import load_manifest, runner

    work = workloads.fresh_dir(root / ".simbench_out" / f"workers-{os.getpid()}")
    try:
        manifest, _ = workloads.generate_inputs("short_suite", SEED, work / "inputs")
        entries = load_manifest(manifest)
        configs = workloads.WORKLOADS["short_suite"].configs
        times: dict[int, list[float]] = {1: [], 2: []}
        digests: dict[int, set[str]] = {1: set(), 2: set()}
        for i in range(ROUNDS):
            for workers in ((1, 2) if i % 2 == 0 else (2, 1)):
                out_dir = workloads.fresh_dir(work / f"logs-{workers}")
                t0 = time.perf_counter()
                for config in configs:
                    runner.run_eval(entries, config, out_dir=out_dir, workers=workers)
                times[workers].append(time.perf_counter() - t0)
                digests[workers].add(workloads.output_digest(out_dir))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = {"rounds": ROUNDS, "seed": SEED, "nproc": len(os.sched_getaffinity(0))}
    for workers, samples in times.items():
        q1, median, q3 = statistics.quantiles(samples, n=4)
        summary[f"workers_{workers}"] = {"median_s": median, "q1_s": q1, "q3_s": q3, "samples_s": samples}
    summary["speedup"] = summary["workers_1"]["median_s"] / summary["workers_2"]["median_s"]
    summary["rounds_two_workers_faster"] = sum(b < a for a, b in zip(times[1], times[2]))
    summary["identical_outputs"] = len(digests[1] | digests[2]) == 1
    print(json.dumps(summary, indent=2))
    return 0 if summary["identical_outputs"] else 1


if __name__ == "__main__":
    sys.exit(main())
