"""Run the benchmark in alternating pairs: a parent revision against the working tree.

Run from anywhere inside a checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 15 --out BENCH.json

Both sides run from trees extracted alike into one temporary directory,
removed on exit, also when a run fails or this script is interrupted: the
parent's is ``git archive`` of its commit, and the change's is a copy of the
working tree's files that git tracks or would track (``git ls-files --cached
--others --exclude-standard``). Nothing is written under ``.git``. For each
pair and each workload of ``BENCHMARK.json``, ``simbench/run.py --workload W
--seed S --seconds T --trace 0`` runs once from each tree, and the side that
runs first alternates from pair to pair.
Pair i runs seed i on both sides. All pairs then run again under
``taskset -c 0``, so the worker pool's scaling and its one-CPU cost are both
on file.

The JSON written holds, per workload and CPU setting, each end-to-end metric
of ``BENCHMARK.json`` with both sides' medians and quartiles, the per-pair
ratios change / parent (median and range), and the pairs each side wins by
the metric's ``better`` direction (ties count for neither); whether every run
of each side was correct and how many sessions failed; and the environment.
A run that prints no result counts as failed and enters no metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETTINGS = {"all_cpus": [], "cpu0": ["taskset", "-c", "0"]}
SIDES = ("parent", "change")


def parse_run(stdout: str) -> tuple[dict | None, dict | None]:
    """The ``environment:`` record and the result (the last line, JSON) that one run printed.

    Either is None when the run did not print it.
    """
    environment = result = None
    lines = stdout.splitlines()
    for line in lines:
        if line.startswith("environment: "):
            environment = json.loads(line[len("environment: "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return environment, result if isinstance(result, dict) else None


def _spread(values: list[float]) -> dict:
    """Median and quartiles; all None without values."""
    if not values:
        return {"median": None, "q1": None, "q3": None}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[tuple[str, str]], end_to_end: list[dict]) -> dict:
    """One workload under one CPU setting, from each pair's (parent, change) standard output.

    ``end_to_end`` is ``BENCHMARK.json``'s list of metrics, each with its
    ``name``, ``unit``, ``better`` ("higher" or "lower") and ``bound``.
    """
    results = [[parse_run(stdout)[1] for stdout in pair] for pair in pairs]
    sides = {}
    for index, side in enumerate(SIDES):
        runs = [pair[index] for pair in results]
        finished = [run for run in runs if run is not None]
        sides[side] = {
            "runs": len(runs),
            "runs_failed": len(runs) - len(finished),
            "correct": len(finished) == len(runs) and all(run.get("correct") is True for run in finished),
            "failed": sum(run.get("failed", 0) for run in finished),
        }
    metrics = {}
    for metric in end_to_end:
        name = metric["name"]
        values = [[None if run is None else run["metrics"][name]["value"] for run in pair] for pair in results]
        complete = [(parent, change) for parent, change in values if parent is not None and change is not None]
        ratios = [change / parent for parent, change in complete if parent]
        sign = 1 if metric["better"] == "higher" else -1
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            **{
                side: _spread([pair[index] for pair in values if pair[index] is not None])
                for index, side in enumerate(SIDES)
            },
            "ratio": {
                "median": statistics.median(ratios) if ratios else None,
                "min": min(ratios, default=None),
                "max": max(ratios, default=None),
            },
            "pairs": len(complete),
            "wins": {
                "change": sum(sign * (change - parent) > 0 for parent, change in complete),
                "parent": sum(sign * (parent - change) > 0 for parent, change in complete),
            },
        }
    return {**sides, "metrics": metrics}


def _git(*args: str, root: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True, text=True).stdout.strip()


def extract_trees(root: Path, parent_sha: str, scratch: Path) -> dict[str, Path]:
    """Each side's tree of the checkout at ``root``, in its own new directory under ``scratch``.

    The parent's holds the files of commit ``parent_sha``; the change's, the working tree's files
    that git tracks or would track and that exist on disk, so uncommitted edits but no ignored file.
    """
    trees = {side: scratch / side for side in SIDES}
    for tree in trees.values():
        tree.mkdir()
    archive = subprocess.run(["git", "archive", parent_sha], cwd=root, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard", root=root)
    for name in filter(None, listed.split("\0")):
        if (root / name).is_file():
            (trees["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, trees["change"] / name)
    return trees


def _run(prefix: list[str], root: Path, workload: str, seed: int, seconds: float) -> str:
    command = [*prefix, sys.executable, "simbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{' '.join(command)} in {root} exited {done.returncode}:\n{done.stderr[-2000:]}", file=sys.stderr)
    return done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare the working tree against")
    parser.add_argument("--pairs", type=int, required=True, help="pairs per workload and CPU setting")
    parser.add_argument("--seconds", type=float, required=True, help="--seconds of each benchmark run")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    parent_sha = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    # SIGTERM unwinds like Ctrl-C, so the trees are removed and the running benchmark killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    outputs = {setting: {workload: [] for workload in workloads} for setting in SETTINGS}
    # the change as its tree is copied: the checkout may be edited while the runs go on
    change_head_sha = _git("rev-parse", "HEAD")
    change_uncommitted = bool(_git("--no-optional-locks", "status", "--porcelain"))
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        roots = extract_trees(ROOT, parent_sha, Path(scratch))
        for setting, prefix in SETTINGS.items():
            for seed in range(args.pairs):
                order = SIDES if seed % 2 == 0 else SIDES[::-1]
                for workload in workloads:
                    stdout = {side: _run(prefix, roots[side], workload, seed, args.seconds) for side in order}
                    outputs[setting][workload].append((stdout["parent"], stdout["change"]))

    def run_environment(setting: str) -> dict:
        """The environment that the first change-side run under ``setting`` printed."""
        found = (parse_run(change)[0] for pairs in outputs[setting].values() for _, change in pairs)
        return next((env for env in found if env is not None), {})

    first = run_environment("all_cpus")
    environment = {
        "parent_sha": parent_sha,
        "change_head_sha": change_head_sha,
        "change_uncommitted": change_uncommitted,
        **{key: first.get(key) for key in ("python", "numpy", "blas", "blas_threads")},
        "affinity_cpus": {setting: run_environment(setting).get("nproc") for setting in SETTINGS},
        "seeds": list(range(args.pairs)),
        "seconds": args.seconds,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "first_side": "parent on even seeds, change on odd seeds",
    }
    report = {
        "environment": environment,
        "workloads": {
            workload: {setting: summarize(outputs[setting][workload], benchmark["end_to_end"]) for setting in SETTINGS}
            for workload in workloads
        },
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"{args.out}: {args.pairs} pairs x {len(workloads)} workloads x {len(SETTINGS)} CPU settings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
