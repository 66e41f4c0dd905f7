"""Benchmark entry point for simulst batch evaluation.

Run from the root of a source checkout:

    python3 simbench/run.py --workload short_suite --seed 0 --seconds 50 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (sessions) and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The environment, per-operation times and output digests are
written to ``.simbench_out/`` in the checkout. The package is imported from
the checkout's ``src/``; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS thread and the runner's default worker count, set in this
# process's environment before NumPy loads; setup probes inherit them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SIMULST_WORKERS", None)

import argparse
import json
from pathlib import Path

WORKLOAD_NAMES = ("short_suite", "waitk_sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="record the workload's output digests on the recorded seeds and exit",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "simulst" / "__init__.py").is_file():
        print(f"simbench: no simulst package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import bench

    if args.setup_probe is not None:
        print(bench.setup_probe(args.workload, args.setup_probe, t0))
        return 0
    if args.record_digests:
        print(json.dumps(bench.record_digests(root, args.workload), indent=2))
        return 0
    result, environment = bench.run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment:", json.dumps(environment, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
