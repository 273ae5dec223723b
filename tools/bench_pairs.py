"""Alternating before/after runs of the benchmark, summarized in the layout
of the BENCH_*.json files.

    python tools/bench_pairs.py --workload axioms --seed 777 --pairs 10 \\
        [--parent HEAD] [--seconds 38] [--out BENCH_N.json]

Two plain copies are made in a temporary directory: the parent commit from
``git archive``, and the tracked and untracked (not ignored) files of the
working tree. Neither holds a bytecode cache, and every run sets
``PYTHONDONTWRITEBYTECODE=1``, so each run compiles the sources it imports,
as a fresh checkout does. Each pair runs ``perfbench/run.py --trace 0`` once
from each copy, one run at a time; the side that runs first alternates from
pair to pair, the parent first in the first pair. Nothing under
``perfbench/`` is imported or edited: each run's result line is read from
its stdout.

For each end-to-end metric of ``BENCHMARK.json`` the summary holds every
run's value, each side's median and quartiles, the parent's interquartile
range, the ratio of the medians, and the number of pairs the change won
(ties count for neither side). It is printed, and written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pool", "axioms", "normal_forms")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def parent_tree(rev: str, into: Path) -> None:
    into.mkdir()
    archive = _git("archive", "--format=tar", rev)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def working_tree(into: Path) -> None:
    listed = _git("ls-files", "-z", "--cached", "--others",
                  "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The provenance and result lines of one benchmark run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"run.py in {tree} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


def _quartiles(values: list[float]) -> list[float]:
    q = (statistics.quantiles(values, n=4, method="inclusive")
         if len(values) > 1 else values * 3)
    return [round(q[0], 4), round(q[2], 4)]


def summarize(before: list[float], after: list[float], better: str) -> dict:
    won = sum((a > b) if better == "higher" else (a < b)
              for b, a in zip(before, after))
    low, high = _quartiles(before)
    b_med, a_med = statistics.median(before), statistics.median(after)
    return {
        "before": before, "after": after,
        "before_median": round(b_med, 4), "after_median": round(a_med, 4),
        "before_quartiles": [low, high],
        "after_quartiles": _quartiles(after),
        "pairs_after_better": won, "pairs": len(before),
        "before_iqr": round(high - low, 4),
        "median_ratio": round(a_med / b_med, 4) if b_med else None,
    }


def measure(workload: str, trees: dict, args, metrics: list[dict]) -> tuple:
    runs: dict[str, list[dict]] = {"before": [], "after": []}
    for i in range(args.pairs):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(run_once(trees[side], workload, args.seed,
                                       args.seconds))
            result = runs[side][-1]
            print(f"{workload} pair {i + 1} {side}: " + ", ".join(
                f"{m['name']} {result['metrics'][m['name']]['value']:.6g}"
                for m in metrics), file=sys.stderr, flush=True)
    out = {m["name"]: summarize(
        [r["metrics"][m["name"]]["value"] for r in runs["before"]],
        [r["metrics"][m["name"]]["value"] for r in runs["after"]],
        m["better"]) for m in metrics}
    for key in ("attempted", "correct"):
        out[key] = {side: [r[key] for r in runs[side]] for side in runs}
    return out, runs["before"][0]["provenance"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        required=True, help="repeat for several, run in order")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="run length; BENCHMARK.json's run_seconds when "
                             "omitted")
    parser.add_argument("--parent", default="HEAD",
                        help="commit the working tree is compared with")
    parser.add_argument("--out", help="file the summary is written to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    rev = _git("rev-parse", "--short", args.parent).decode().strip()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"before": Path(tmp) / "before", "after": Path(tmp) / "after"}
        parent_tree(args.parent, trees["before"])
        working_tree(trees["after"])
        workloads, provenance = {}, None
        for workload in args.workload:
            workloads[workload], provenance = measure(workload, trees, args,
                                                      metrics)
    summary = {
        "description": (
            f"End-to-end metrics of perfbench/run.py before (the parent "
            f"commit) and after (the working tree): {args.pairs} alternating "
            f"pairs per workload, in the order {', '.join(args.workload)}; "
            "the side that runs first alternates from pair to pair. Both "
            "sides ran from plain copies of their sources (git archive of "
            "the parent; a copy of the working tree's files), with "
            "PYTHONDONTWRITEBYTECODE=1, one run at a time."),
        "command": (f"python3 perfbench/run.py --workload W --seed {args.seed}"
                    f" --seconds {args.seconds:g} --trace 0"),
        "before": rev,
        "after": f"{rev} plus this change",
        "machine": {
            "cpu_count": provenance["cpu_count"],
            "python": provenance["python"],
            "numpy": provenance["numpy"],
            "numba_importable": provenance["numba_importable"],
            "blas_threads": provenance["blas_threads"],
        },
        "workloads": workloads,
    }
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
