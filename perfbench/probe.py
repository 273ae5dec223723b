"""Child-process probes for the sflow benchmark. Each mode runs in a fresh
interpreter started by ``run.py`` with ``sflow``'s parent directory on
``PYTHONPATH``.

  probe.py setup          seconds from just before ``import sflow.cli`` to
                          the end of the warm-up job
  probe.py imports        seconds to import numpy, then sflow.cli on top
"""

from __future__ import annotations

import json
import sys
import time

# the README's C2 example, run once to finish set-up
WARMUP_JOB = json.dumps({
    "command": "sfl",
    "group": {"preset": "cyclic", "n": 2},
    "action": {"matrices": {"0": [[1.0, 0.0], [0.0, 1.0]],
                            "1": [[1.0, 0.0], [0.0, -1.0]]}},
    "path": {"kind": "affine",
             "A": [[-1.0, 0.0], [0.0, 1.0]],
             "B": [[2.0, 0.0], [0.0, -2.0]]},
})


def setup_seconds() -> float:
    """Import sflow.cli and run the warm-up job; the caller must not have
    imported sflow yet."""
    start = time.perf_counter()
    import sflow.cli as cli

    report, code = cli.run(cli.parse_job(WARMUP_JOB))
    cli.emit_report(report)
    if code != 0:
        raise RuntimeError(f"warm-up job exited {code}")
    return time.perf_counter() - start


def _imports() -> dict:
    start = time.perf_counter()
    import numpy  # noqa: F401

    mid = time.perf_counter()
    import sflow.cli  # noqa: F401

    end = time.perf_counter()
    return {"numpy_import_s": mid - start, "sflow_import_s": end - mid}


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "setup":
        print(json.dumps(setup_seconds()))
        return 0
    if mode == "imports":
        print(json.dumps(_imports()))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
