"""Digests that show whether a change to sflow keeps its output bit for bit.

For each workload of ``perfbench/gen.py`` and each of the seeds 1, 5, 7 and
23, every job runs in this process (``parse_job``, ``run``,
``emit_report``), and three sha256 digests are printed:

- ``reports``: over every report text and exit code, in job order;
- ``verify_paths``: over every path a ``verify`` job hands to the flow, in
  request order: its kind, knots, samples or affine coefficients, piece
  differences and tails;
- ``verify_flows``: over what the flow returns for each of those paths, in
  request order: its error's class and message, or its partition's knots,
  levels and margins and its class's coefficient row. A ``verify`` report
  shows only pass or fail, so this digest is what shows its flows.

A ``verify`` job's requests are recorded where it hands them over:
``flow._flow_rows``, where the checkout has it, else ``flow.sfl_G_each``.

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


def flow_bytes(out) -> bytes:
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}".encode()
    # a report of sfl_G_each, or the rows of _flow_rows
    part = getattr(out, "partition", out)
    total = out.sfl_G.coeffs if hasattr(out, "sfl_G") else out.total
    return b"\0".join([*(np.asarray(x, dtype=float).tobytes() for x in (
        part.knots, part.levels, part.margins)),
        np.asarray(total, dtype=np.int64).tobytes()])


def digests(workload: str, seed: int) -> tuple[str, str, str, int]:
    reports, paths, flows = (hashlib.sha256() for _ in range(3))
    name = "_flow_rows" if hasattr(flow, "_flow_rows") else "sfl_G_each"
    each, command = getattr(flow, name), None

    def recording(requests, *args, **kwargs):
        out = each(requests, *args, **kwargs)
        if command == "verify":
            for (path, _), got in zip(requests, out):
                paths.update(path_bytes(path))
                flows.update(flow_bytes(got))
        return out

    setattr(flow, name, recording)
    try:
        jobs = gen.generate(workload, seed)
        for text in jobs:
            job = cli.parse_job(text)
            command = job.command
            report, code = cli.run(job)
            reports.update(f"{code}\n{cli.emit_report(report)}\n".encode())
    finally:
        setattr(flow, name, each)
    return reports.hexdigest(), paths.hexdigest(), flows.hexdigest(), len(jobs)


def main() -> int:
    for workload in gen.WORKLOADS:
        for seed in SEEDS:
            reports, paths, flows, n = digests(workload, seed)
            print(f"{workload} seed={seed} jobs={n} reports={reports} "
                  f"verify_paths={paths} verify_flows={flows}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
