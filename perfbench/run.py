"""Benchmark for sflow: seeded job workloads through the JSON job interface.

    python3 perfbench/run.py --workload pool --seed 1 --seconds 38 --trace 0

Run from anywhere; the sflow sources are taken from ``src/`` next to this
directory. Inputs come from ``gen.py`` (numpy only) and reach sflow as JSON job
documents through ``sflow.cli.parse_job`` -> ``run`` -> ``emit_report``.
Every report is checked.

Each workload is a closed loop: one client, the next job sent when the
previous one finishes, cycling through a short job list for ``--seconds``
seconds and at least one whole pass. Between jobs the loop times a fixed
reference computation; each job run is scaled to the reference's nominal
speed, a job's time is the upper quartile of its scaled repetitions, and
``jobs_per_ref_s`` is the number of distinct jobs over the sum of those times.
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes
a fixed number of passes untraced and then the same passes under the
out-of-program tracer (``tracer.py``), and prints the per-layer metrics with
the tracing overhead.

stdout ends with a provenance line and then one JSON result line. The exit
code is 1 when any job failed or any check found a wrong answer, 2 when the
sflow sources are missing.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("pool", "axioms", "normal_forms")
# passes over the job list in each half of a traced run: about ten seconds
# per half at the seed commit
TRACE_PASSES = {"pool": 2, "axioms": 1, "normal_forms": 1}
# set-up samples taken before the timed loop (the first in this process, the
# rest in fresh ones) and after it, so that their median spans the run
SETUP_BEFORE = 4
SETUP_AFTER = 4
STARTUP_SAMPLES = 5
TAIL_BEYOND = 10
CHILD_TIMEOUT = 60.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one client, one thread: BLAS thread pools only add scheduler noise on the
# tiny matrices sflow works with
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")


# --- statistics ----------------------------------------------------------------


def tail_rank(n: int) -> int:
    """0-based index into n ascending samples of the highest percentile with
    at least TAIL_BEYOND samples beyond it (the largest sample when n is too
    small to have one)."""
    return n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail sample."""
    ordered = sorted(times)
    k = tail_rank(len(ordered))
    return ordered[k], 100.0 * (k + 1) / len(ordered)


# --- machine speed -------------------------------------------------------------

# a reference sample every REF_EVERY seconds of the loop; a job run is scaled
# by the median of the REF_NEIGHBOURS samples on each side of it, to the speed
# at which one sample takes REF_NOMINAL seconds (its usual speed on the 2-vCPU
# VM the benchmark was tuned on)
REF_EVERY = 0.2
REF_NEIGHBOURS = 2
REF_NOMINAL = 0.004


def reference_seconds() -> float:
    """Wall time of fixed work with the instruction mix of sflow without
    numba: plane rotations applied entry by entry to a small numpy array, as
    the Jacobi kernel does, then small-matrix 2-norms. It uses no sflow
    code, so no change to sflow can change it."""
    import numpy as np  # not at module level: set-up is timed before numpy

    a = np.add.outer(np.arange(6.0), np.arange(6.0)) % 5.0 - 2.0
    n = a.shape[0]
    start = time.perf_counter()
    for _ in range(24):
        for p in range(n - 1):
            for q in range(p + 1, n):
                for k in range(n):
                    akp, akq = a[k, p], a[k, q]
                    a[k, p] = 0.8 * akp - 0.6 * akq
                    a[k, q] = 0.6 * akp + 0.8 * akq
    for _ in range(20):
        np.linalg.norm(a @ a.T, 2)
    return time.perf_counter() - start


class Reference:
    """Samples the machine's speed between jobs of the closed loop."""

    def __init__(self):
        self.seqs: list[int] = []
        self.seconds: list[float] = []
        self.last = -REF_EVERY

    def __call__(self, seq: int) -> None:
        if time.perf_counter() - self.last >= REF_EVERY:
            self.seqs.append(seq)
            self.seconds.append(reference_seconds())
            self.last = time.perf_counter()

    def local(self, seq: int) -> float:
        """Reference time around job run `seq`."""
        k = max(bisect.bisect_right(self.seqs, seq) - 1, 0)
        return statistics.median(
            self.seconds[max(k - REF_NEIGHBOURS, 0):k + REF_NEIGHBOURS + 1])


# --- environment ---------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sflow").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of a git checkout, read from the files; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(sflow_parent: Path) -> dict:
    # sflow is not installed: children find it the way this process did
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(sflow_parent) + (os.pathsep + extra if extra else "")
    return env


def child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], input="", text=True,
                          capture_output=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT)


def run_probe(mode: str, env: dict):
    proc = child([str(HERE / "probe.py"), mode], env)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {mode} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout)


# --- job execution -------------------------------------------------------------


class InProcess:
    """parse_job -> run -> emit_report in this process."""

    def __init__(self, cli):
        self.cli = cli

    def __call__(self, seq: int, text: str) -> tuple[int, str]:
        cli = self.cli
        report, code = cli.run(cli.parse_job(text))
        return code, cli.emit_report(report)


def closed_loop(jobs: list[str], execute, *, seconds: float,
                count: int | None = None, before=None):
    """Run jobs in order, cycling, until `seconds` have passed and every job
    ran at least once or, with `count`, until that many jobs ran (still
    stopping at `seconds`).
    Returns ([(job index, seconds, exit code, report)], wall seconds)."""
    results = []
    start = time.perf_counter()
    seq = 0
    while (count is None and seq < len(jobs)) or (
            time.perf_counter() - start < seconds
            and (count is None or seq < count)):
        idx = seq % len(jobs)
        if before is not None:
            before(seq)
        t0 = time.perf_counter()
        try:
            code, out = execute(seq, jobs[idx])
        except Exception as e:  # noqa: BLE001 - a crashed job is a failed job
            code, out = -1, f"{type(e).__name__}: {e}"
        results.append((idx, time.perf_counter() - t0, code, out))
        seq += 1
    return results, time.perf_counter() - start


# --- correctness ---------------------------------------------------------------


def _job_ok(workload: str, jobs: list[str], idx: int, code: int, out: str,
            first: dict, gen) -> bool:
    if code != 0:
        return False
    report = json.loads(out)
    doc = json.loads(jobs[idx])
    if workload == "axioms":
        return report.get("passed") is True
    if report.get("sfl") != gen.expected_sfl(doc["path"]):
        return False
    if workload == "pool" and doc["command"] == "oracle":
        partner = first.get(idx - 1)
        return (partner is not None and partner[0] == 0
                and json.loads(partner[1]).get("sfl_G") == report.get("sfl_G"))
    return True


def check(workload: str, jobs: list[str], results: list, store: dict,
          gen) -> list[bool]:
    """One flag per executed job. A job fails on a nonzero exit, a wrong
    answer, or a report that differs from an earlier report for the same job
    in this run or, through `store`, in an earlier run of the same sources."""
    first: dict[int, tuple[int, str]] = {}
    for idx, _, code, out in results:
        first.setdefault(idx, (code, out))
    ok_idx = {}
    for idx, (code, out) in first.items():
        try:
            ok = _job_ok(workload, jobs, idx, code, out, first, gen)
        except (ValueError, KeyError, TypeError):
            ok = False
        digest = hashlib.sha256(out.encode()).hexdigest()
        ok_idx[idx] = ok and store.setdefault(str(idx), digest) == digest
    return [ok_idx[idx] and out == first[idx][1]
            for idx, _, _, out in results]


# --- metrics -----------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB


def job_seconds(results: list) -> list[float]:
    """One time per job: the upper quartile of its repetitions in this run.

    On a shared host the machine runs at its usual speed, broken by bursts of
    extra speed while its neighbours idle. The share of burst time changes
    from minute to minute, and a job's median moves with it; its upper
    quartile stays with the usual speed."""
    reps: dict[int, list[float]] = {}
    for idx, t, _, _ in results:
        reps.setdefault(idx, []).append(t)
    return [statistics.quantiles(v, n=4, method="inclusive")[2]
            if len(v) > 1 else v[0] for v in reps.values()]


def end_to_end(results: list, wall: float, flags: list[bool], setup: list[float],
               rss: float, ref: Reference) -> tuple[dict, dict]:
    scaled = [(idx, t * REF_NOMINAL / ref.local(seq), code, out)
              for seq, (idx, t, code, out) in enumerate(results)]
    per_job_ref = job_seconds(scaled)
    per_job = job_seconds(results)
    times = [r[1] for r in results]
    tail_s, pct = tail(times)
    failed = flags.count(False)
    metrics = {
        "jobs_per_ref_s": metric(len(per_job_ref) / sum(per_job_ref), "1/s"),
        "ok_ratio": metric((len(flags) - failed) / len(flags), "ratio"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    info = {"jobs": len(results), "distinct_jobs": len(per_job),
            "passes": len(results) / len(per_job), "wall_s": wall,
            "jobs_per_s": len(per_job) / sum(per_job),
            "jobs_per_wall_s": len(results) / wall,
            "ref_ms_p50": statistics.median(ref.seconds) * 1e3,
            "ref_samples": len(ref.seconds),
            "fail_ratio": failed / len(flags),
            "job_ms_p50": statistics.median(times) * 1e3,
            "job_ms_tail": tail_s * 1e3, "job_ms_tail_percentile": pct,
            "job_ms_tail_samples": len(times),
            "setup_samples_s": setup}
    return metrics, info


def startup_metrics(env: dict) -> dict:
    interp = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        child(["-c", "pass"], env)
        interp.append(time.perf_counter() - t0)
    imports = [run_probe("imports", env) for _ in range(STARTUP_SAMPLES)]
    return {
        "startup.interp_s": metric(statistics.median(interp), "s"),
        "startup.numpy_import_s": metric(
            statistics.median(i["numpy_import_s"] for i in imports), "s"),
        "startup.sflow_import_s": metric(
            statistics.median(i["sflow_import_s"] for i in imports), "s"),
    }


def traced_run(workload: str, jobs: list[str], execute, env: dict,
               seconds: float, tracer_mod) -> tuple[list, dict, dict]:
    """TRACE_PASSES passes over the jobs untraced, then the same passes
    traced. Returns (results of both halves, per-layer metrics, provenance
    extras)."""
    n = TRACE_PASSES[workload] * len(jobs)
    limit = max(2.0 * seconds, 30.0)
    plain, plain_wall = closed_loop(jobs, execute, seconds=limit, count=n)
    tracer = tracer_mod.Tracer().install()
    try:
        traced, traced_wall = closed_loop(
            jobs, execute, seconds=limit, count=n,
            before=lambda seq: setattr(tracer, "job", seq))
    finally:
        tracer.uninstall()
    counters = tracer_mod.merge_counters([tracer.counters()])
    rows = tracer.spans()
    tracer_mod.write_spans(OUT / f"spans-{workload}.csv.gz", rows)
    metrics = {k: metric(v, u)
               for k, (v, u) in tracer_mod.layer_metrics(counters).items()}
    metrics.update(startup_metrics(env))
    plain_rate = len(plain) / plain_wall
    traced_rate = len(traced) / traced_wall
    metrics.update({
        "trace.jobs": metric(len(traced), "count"),
        "trace.job_s": metric(sum(r[1] for r in traced), "s"),
        "trace.jobs_per_s": metric(traced_rate, "1/s"),
        "trace.untraced_jobs_per_s": metric(plain_rate, "1/s"),
        "trace.slowdown": metric(plain_rate / traced_rate, "ratio"),
    })
    return plain + traced, metrics, {"spans": counters["spans"],
                                     "absent": counters["absent"]}


# --- main --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sflow" / "__init__.py").is_file():
        print(f"sflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import probe as probe_mod

    # first set-up sample: this process, before anything imported numpy
    setup = [probe_mod.setup_seconds()]
    import gen
    import sflow
    import sflow.cli as cli
    import tracer as tracer_mod

    OUT.mkdir(exist_ok=True)
    env = child_env(Path(sflow.__file__).resolve().parent.parent)
    jobs = gen.generate(args.workload, args.seed % 2 ** 63)
    inputs, sources = gen.digest(jobs), source_digest()
    execute = InProcess(cli)
    setup += [run_probe("setup", env) for _ in range(SETUP_BEFORE - 1)]

    if args.trace:
        results, metrics, info = traced_run(args.workload, jobs, execute, env,
                                            args.seconds, tracer_mod)
    else:
        ref = Reference()
        results, wall = closed_loop(jobs, execute, seconds=args.seconds,
                                    before=ref)
        setup += [run_probe("setup", env) for _ in range(SETUP_AFTER)]

    # correctness, outside the timed region
    store_path = OUT / f"reports-{args.workload}-{inputs[:16]}-{sources[:16]}.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    flags = check(args.workload, jobs, results, store, gen)
    store_path.write_text(json.dumps(store, sort_keys=True))

    if not args.trace:
        metrics, info = end_to_end(results, wall, flags, setup, peak_rss_mb(),
                                   ref)

    failed = flags.count(False)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "closed_loop_clients": 1,
        "input_sha256": inputs, "input_jobs": len(jobs),
        "report_sha256_first2": gen.digest([r[3] for r in results[:2]]),
        "source_sha256": sources, "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        **info,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
