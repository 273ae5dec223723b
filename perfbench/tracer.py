"""Out-of-program tracer for sflow: wraps the public functions of each sflow
module, records one span per call and aggregates per-layer counters.

Nothing in ``src/`` knows about it. ``install`` replaces each traced object
in every ``sflow`` module namespace that binds it, so ``from`` imports (for
example ``jacobi_eigh`` in ``operators``, ``groups``, ``sampling``,
``cogredient``, ``maslov`` and the package root) are traced too. A target
that a later commit deleted is reported in ``absent`` instead of failing.

numpy ``linalg`` calls, and ``RuntimeWarning``s, are counted only while a
program span is open, so the benchmark's own work stays out. Self time is a span's duration minus
the time its child spans cover. Spans carry name, start, end, parent and job
id; they stay in memory until ``write_spans``.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import math
import sys
import time
import warnings
from array import array
from collections import defaultdict

EIG_BINS = ((1, 3), (4, 7), (8, 12), (13, 24))


def eig_bin(n: int) -> str:
    """Size bin of an n x n eigenproblem. The last bin also takes anything
    larger, which the workloads do not produce."""
    lo, hi = next((b for b in EIG_BINS if n <= b[1]), EIG_BINS[-1])
    return f"n{lo:02d}-{hi:02d}"


def _matrix_dim(args) -> int:
    shape = getattr(args[0], "shape", None) if args else None
    return int(shape[-1]) if shape else 0


def _norm_kind(args, kwargs) -> str:
    # sflow asks for 2-norms or, by default, Frobenius norms
    ord_ = kwargs.get("ord", args[1] if len(args) > 1 else None)
    return "linalg.norm2" if ord_ == 2 else "linalg.normfro"


# (module, attribute, layer key). A callable key picks the key per call.
SFLOW_TARGETS = (
    ("sflow._eig", "jacobi_eigh", "eig"),
    ("sflow.operators", "block_spectrum", "operators.block_spectrum"),
    ("sflow.operators", "check_equivariance", "operators.check_equivariance"),
    ("sflow.operators", "OperatorPath.affine", "operators.path_build"),
    ("sflow.operators", "OperatorPath.piecewise_linear", "operators.path_build"),
    ("sflow.operators", "morse_class", "operators.morse_class"),
    ("sflow.groups", "character_of_subspace", "groups.character_of_subspace"),
    ("sflow.groups", "multiplicity_vector", "groups.multiplicity_vector"),
    ("sflow.groups", "OrthogonalAction.__init__", "groups.action_init"),
    ("sflow.groups", "build_group", "groups.build_group"),
    ("sflow.flow", "sfl_G", "flow.sfl_G"),
    ("sflow.flow", "find_partition", "flow.find_partition"),
    ("sflow.flow", "morse_oracle_sfl_G", "flow.oracle"),
    ("sflow.flow", "verify_axioms", "flow.verify_axioms"),
    ("sflow.cogredient", "parametrix", "cogredient.parametrix"),
    ("sflow.maslov", "maslov_index_G", "maslov.maslov_index_G"),
    ("sflow.cli", "parse_job", "cli.parse_job"),
    ("sflow.cli", "run", "cli.run"),
    ("sflow.cli", "emit_report", "cli.emit_report"),
)
# every eigendecomposition counts as eig, whichever solver the program uses
NUMPY_TARGETS = (
    ("numpy.linalg", "eigh", "eig"),
    ("numpy.linalg", "eigvalsh", "eig"),
    ("numpy.linalg", "norm", _norm_kind),
    ("numpy.linalg", "svd", "linalg.svd"),
)
# all public functions of this module share one layer key
SAMPLING_MODULE = "sflow.sampling"

CALL_KEYS = (
    "operators.block_spectrum", "operators.check_equivariance",
    "operators.path_build", "operators.morse_class",
    "groups.character_of_subspace", "groups.multiplicity_vector",
    "groups.action_init", "groups.build_group",
    "flow.sfl_G", "flow.find_partition", "flow.oracle",
    "cogredient.parametrix", "maslov.maslov_index_G",
    "cli.parse_job", "cli.emit_report",
    "linalg.norm2", "linalg.normfro", "linalg.svd",
)
SELF_ONLY_KEYS = ("flow.verify_axioms", "sampling", "cli.run")
EXIT_CODES = (1, 2, 3, 4, 5)


def sflow_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sflow" or name.startswith("sflow."))]


def _resolve(owner, path: str):
    """(holder, attribute, raw object) for 'name' or 'Class.name'."""
    holder = owner
    parts = path.split(".")
    for part in parts[:-1]:
        holder = getattr(holder, part)
    attr = parts[-1]
    raw = vars(holder)[attr] if isinstance(holder, type) else getattr(holder, attr)
    return holder, attr, raw


class Tracer:
    def __init__(self) -> None:
        self.job = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, key, start, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.exits: dict[int, int] = defaultdict(int)
        self.bytes_out = 0
        self.segments = 0
        self.segments_max = 0
        self.depth_max = 0.0
        self.runtime_warnings = 0
        self.absent: list[str] = []
        self.wrapped: dict[int, object] = {}  # id(original) -> wrapper
        self._patches: list[tuple[object, str, object]] = []
        self._warn_ctx = None

    # --- spans -------------------------------------------------------------

    def _open(self, key: str) -> list:
        idx = len(self.span_start)
        name_id = self._name_ids.get(key)
        if name_id is None:
            name_id = self._name_ids[key] = len(self.names)
            self.names.append(key)
        self.span_name.append(name_id)
        self.span_job.append(self.job)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        frame = [idx, key, start, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        idx, key, start, child = frame
        self.span_end[idx] = end
        dur = end - start
        self.calls[key] += 1
        self.self_s[key] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    def _wrap(self, fn, key, *, numpy_gate: bool, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if numpy_gate and not stack:
                return fn(*args, **kwargs)  # the benchmark's own numpy work
            k = key(args, kwargs) if callable(key) else key
            if k == "eig":
                if stack and stack[-1][1].startswith("eig."):
                    return fn(*args, **kwargs)  # solver inside a counted solve
                k = "eig." + eig_bin(_matrix_dim(args))
            frame = tracer._open(k)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if on_return is not None:
                on_return(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # --- report hooks ----------------------------------------------------

    def _on_partition(self, part) -> None:
        knots = getattr(part, "knots", None)
        if not knots or len(knots) < 2:
            return
        segs = len(knots) - 1
        self.segments += segs
        self.segments_max = max(self.segments_max, segs)
        shortest = min(b - a for a, b in zip(knots, knots[1:]))
        self.depth_max = max(self.depth_max, -math.log2(shortest))

    def _on_run(self, out) -> None:
        code = out[1]
        if code:
            self.exits[code] += 1

    def _on_emit(self, text) -> None:
        self.bytes_out += len(text.encode())

    # --- install ---------------------------------------------------------

    def _patch(self, module_name: str, path: str, key, *, numpy_gate=False,
               on_return=None) -> None:
        try:
            owner = importlib.import_module(module_name)
            holder, attr, raw = _resolve(owner, path)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{module_name}.{path}")
            return
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        wrapper = self._wrap(fn, key, numpy_gate=numpy_gate,
                             on_return=on_return)
        self.wrapped[id(fn)] = wrapper
        self._set(holder, attr, classmethod(wrapper) if is_cm else wrapper, raw)
        if isinstance(holder, type):
            return
        for mod in sflow_modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, name, wrapper, fn)

    def _set(self, holder, attr: str, new, old) -> None:
        self._patches.append((holder, attr, old))
        setattr(holder, attr, new)

    def install(self) -> "Tracer":
        import sflow.cli  # noqa: F401 - load every module before patching

        hooks = {"flow.find_partition": self._on_partition,
                 "cli.run": self._on_run, "cli.emit_report": self._on_emit}
        for module_name, path, key in SFLOW_TARGETS:
            self._patch(module_name, path, key, on_return=hooks.get(key))
        for module_name, path, key in NUMPY_TARGETS:
            self._patch(module_name, path, key, numpy_gate=True)
        try:
            sampling = importlib.import_module(SAMPLING_MODULE)
        except ImportError:
            self.absent.append(SAMPLING_MODULE)
        else:
            for name, value in sorted(vars(sampling).items()):
                if (callable(value) and not name.startswith("_")
                        and not isinstance(value, type)
                        and getattr(value, "__module__", None) == SAMPLING_MODULE):
                    self._patch(SAMPLING_MODULE, name, "sampling")
        self._warn_ctx = warnings.catch_warnings()
        self._warn_ctx.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        shown = warnings.showwarning

        def count_warning(message, category, *args, **kwargs):
            if self._stack and issubclass(category, RuntimeWarning):
                self.runtime_warnings += 1
            else:
                shown(message, category, *args, **kwargs)

        warnings.showwarning = count_warning
        return self

    def uninstall(self) -> None:
        for holder, attr, old in reversed(self._patches):
            setattr(holder, attr, old)
        self._patches.clear()
        if self._warn_ctx is not None:
            self._warn_ctx.__exit__(None, None, None)
            self._warn_ctx = None

    # --- results -----------------------------------------------------------

    def counters(self) -> dict:
        """Plain, mergeable aggregate of everything recorded."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "exits": {str(k): v for k, v in self.exits.items()},
                "bytes_out": self.bytes_out, "segments": self.segments,
                "segments_max": self.segments_max, "depth_max": self.depth_max,
                "runtime_warnings": self.runtime_warnings,
                "absent": list(self.absent), "spans": len(self.span_start)}

    def spans(self):
        for i in range(len(self.span_start)):
            yield (i, self.names[self.span_name[i]], self.span_start[i],
                   self.span_end[i], self.span_parent[i], self.span_job[i])


def merge_counters(parts: list[dict]) -> dict:
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "exits": defaultdict(int), "bytes_out": 0, "segments": 0,
           "segments_max": 0, "depth_max": 0.0, "runtime_warnings": 0,
           "absent": [], "spans": 0}
    for part in parts:
        for group in ("calls", "self_s", "exits"):
            for k, v in part[group].items():
                out[group][k] += v
        for k in ("bytes_out", "segments", "runtime_warnings", "spans"):
            out[k] += part[k]
        for k in ("segments_max", "depth_max"):
            out[k] = max(out[k], part[k])
        out["absent"] = sorted(set(out["absent"]) | set(part["absent"]))
    return out


def layer_metrics(c: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) from merged counters."""
    calls, self_s = c["calls"], c["self_s"]
    out: dict[str, tuple[float, str]] = {}
    eig_calls = eig_self = 0.0
    for lo, hi in EIG_BINS:
        b = f"n{lo:02d}-{hi:02d}"
        n = calls.get(f"eig.{b}", 0)
        s = self_s.get(f"eig.{b}", 0.0)
        out[f"eig.calls.{b}"] = (n, "count")
        out[f"eig.self_s.{b}"] = (s, "s")
        eig_calls += n
        eig_self += s
    out["eig.calls"] = (eig_calls, "count")
    out["eig.self_s"] = (eig_self, "s")
    out["eig.calls_per_segment"] = (
        eig_calls / c["segments"] if c["segments"] else 0.0, "ratio")
    out["eig.runtime_warnings"] = (c["runtime_warnings"], "count")
    for key in CALL_KEYS:
        out[f"{key}.calls"] = (calls.get(key, 0), "count")
        out[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
    for key in SELF_ONLY_KEYS:
        out[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
    out["flow.segments"] = (c["segments"], "count")
    out["flow.segments.max"] = (c["segments_max"], "count")
    out["flow.depth.max"] = (c["depth_max"], "levels")
    out["cli.bytes_out"] = (c["bytes_out"], "B")
    for code in EXIT_CODES:
        out[f"cli.exit.{code}"] = (c["exits"].get(str(code), 0), "count")
    return out


def write_spans(path, rows) -> None:
    with gzip.open(path, "wt", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("span", "name", "start", "end", "parent", "job"))
        writer.writerows(rows)
