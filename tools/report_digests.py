"""Digests that show whether a change to sflow keeps its output bit for bit.

For each workload of ``perfbench/gen.py`` and each of the seeds 1, 5, 7 and
23, every job runs in this process (``parse_job``, ``run``,
``emit_report``), and two sha256 digests are printed:

- ``reports``: over every report text and exit code, in job order;
- ``verify_paths``: over every path a ``verify`` job hands to the flow, in
  request order: its kind, knots, samples or affine coefficients, piece
  differences and tails.

Run it against each checkout and compare the lines:

    PYTHONPATH=<checkout>/src python tools/report_digests.py

``gen.py`` is imported as it is, so both checkouts run the same jobs.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402
import numpy as np  # noqa: E402
import sflow.cli as cli  # noqa: E402
import sflow.flow as flow  # noqa: E402

SEEDS = (1, 5, 7, 23)


def path_bytes(path) -> bytes:
    parts = [path.kind.encode(), bytes(path.tails)]
    for name in ("knots", "mat_a", "mat_b", "_stack", "_diffs"):
        value = getattr(path, name, None)
        if value is not None:
            value = np.asarray(value)
            parts += [name.encode(), str(value.shape).encode(), value.tobytes()]
    return b"\0".join(parts)


def digests(workload: str, seed: int) -> tuple[str, str, int]:
    reports, paths = hashlib.sha256(), hashlib.sha256()
    each, command = flow.sfl_G_each, None

    def recording(requests, *args, **kwargs):
        if command == "verify":
            for path, _ in requests:
                paths.update(path_bytes(path))
        return each(requests, *args, **kwargs)

    flow.sfl_G_each = recording
    try:
        jobs = gen.generate(workload, seed)
        for text in jobs:
            job = cli.parse_job(text)
            command = job.command
            report, code = cli.run(job)
            reports.update(f"{code}\n{cli.emit_report(report)}\n".encode())
    finally:
        flow.sfl_G_each = each
    return reports.hexdigest(), paths.hexdigest(), len(jobs)


def main() -> int:
    for workload in gen.WORKLOADS:
        for seed in SEEDS:
            reports, paths, n = digests(workload, seed)
            print(f"{workload} seed={seed} jobs={n} reports={reports} "
                  f"verify_paths={paths}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
