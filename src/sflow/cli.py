"""File-driven front end: JSON job in, certified JSON report out.

One job per invocation. The report is emitted even on failure, with an error
object and a matching process exit code, and identical jobs always produce
byte-identical reports. `parse_job` reads a document once, straight into the
objects `run` executes; its errors come in document order, first every schema
check, then the construction of the group, options, action and path.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .cogredient import parametrix
from .errors import (
    ConsistencyFailure,
    DimensionMismatch,
    InvalidInput,
    ParseError,
    SchemaError,
    SflowError,
    TableMismatch,
    WrongGroup,
)
from .flow import (
    FlowOptions,
    SflReport,
    morse_oracle_sfl_G,
    sfl_G,
    verify_axioms,
)
from .groups import (
    FiniteGroup,
    OrthogonalAction,
    RealCharacterTable,
    VirtualRep,
    build_group,
    forgetful_F,
    phi_Z2,
)
from .maslov import maslov_flow
from .operators import OperatorPath

logger = logging.getLogger("sflow")

COMMANDS = ("sfl", "maslov", "cogredient", "oracle", "verify")

OPTION_DEFAULTS = {
    "tol_cluster": FlowOptions.tol_cluster,
    "tol_invert": FlowOptions.tol_invert,
    "max_depth": FlowOptions.max_depth,
    "m": 0,
    "seed": 0,
    "samples": 64,
    "instances": 20,
}
# inclusive ranges of the integer options and of a preset group's n;
# FlowOptions bounds max_depth. The caps bound what one job allocates: m adds
# 2m rows and columns to the oracle's block and to each action matrix (2 MiB
# plus 8 KiB per block row at 256), a cogredient stack holds `samples` path
# blocks, or 2 `samples` plus two per interior path knot in the cover grid,
# verify keeps up to six failure witnesses per instance, and a group table
# is built and checked in time cubic in its order, at most 2n
_INT_RANGES = {"m": (0, 256), "seed": (0, math.inf), "samples": (2, 1024),
               "instances": (1, 1000), "n": (1, 128)}

EXIT_UNEXPECTED = 1


@dataclass
class JobSpec:
    """Validated job: the objects `run` executes, and the plain options
    (seed, instances, m, samples) its commands read."""

    command: str
    table: RealCharacterTable
    action: OrthogonalAction
    path: OperatorPath | None
    opts: FlowOptions
    options: dict


def _finite(x: int | float) -> bool:
    # JSON admits NaN and Infinity, a literal such as 1e400 parses to inf,
    # and an integer can be too large for any float
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _number(x, where: str) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise SchemaError(f"{where} contains a non-number")
    if not _finite(x):
        raise SchemaError(f"{where} contains a non-finite number")
    return float(x)


def _want(obj: dict, field: str, kind, where: str):
    if field not in obj:
        raise SchemaError(f"{where}.{field} is missing")
    val = obj[field]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise SchemaError(f"{where}.{field} must be a number")
        if not _finite(val):
            raise SchemaError(f"{where}.{field} must be finite")
        return float(val)
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise SchemaError(f"{where}.{field} must be an integer")
        return val
    if not isinstance(val, kind):
        raise SchemaError(f"{where}.{field} has the wrong type")
    return val


def _no_extras(obj: dict, allowed: set[str], where: str) -> None:
    extras = sorted(set(obj) - allowed)
    if extras:
        raise SchemaError(f"{where}.{extras[0]} is not a recognized field")


def _matrix(raw, where: str) -> np.ndarray:
    if (not isinstance(raw, list) or not raw
            or not all(isinstance(r, list) for r in raw)):
        raise SchemaError(f"{where} must be a non-empty array of arrays")
    n = len(raw)
    # the entry types checked in one pass and the entries converted at once;
    # a bad entry takes the walk below, which names it
    if (set(map(len, raw)) == {n}
            and set(map(type, chain.from_iterable(raw))) <= {int, float}):
        with suppress(OverflowError):  # an integer past the float range
            m = np.array(raw, dtype=float)
            if np.isfinite(m).all():
                return m
    out = []
    for i, row in enumerate(raw):
        if len(row) != n:
            raise SchemaError(f"{where}[{i}] has length {len(row)}, expected {n}")
        at = f"{where}[{i}]"
        out.append([_number(x, at) for x in row])
    return np.array(out)


def _elements(raw, order: int, where: str) -> list[int]:
    if not isinstance(raw, list):
        raise SchemaError(f"{where} must be an array")
    for x in raw:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < order:
            raise SchemaError(f"{where} has an entry outside 0..{order - 1}")
    return list(raw)


def _parse_group(raw):
    """Check a group object; returns the constructor of its group and
    character table."""
    if "preset" in raw:
        _no_extras(raw, {"preset", "n"}, "group")
        preset = _want(raw, "preset", str, "group")
        if preset not in ("trivial", "cyclic", "dihedral"):
            raise SchemaError(f"group.preset {preset!r} is not a preset")
        n = None
        if preset != "trivial":
            n = _want(raw, "n", int, "group")
            lo, hi = _INT_RANGES["n"]
            if not lo <= n <= hi:
                raise SchemaError(f"group.n must be in {lo}..{hi}, got {n}")
        return lambda: build_group(preset, n)
    _no_extras(raw, {"order", "mult_table", "classes", "char_table"}, "group")
    order = _want(raw, "order", int, "group")
    table = _want(raw, "mult_table", list, "group")
    if len(table) != order or any(not isinstance(r, list) or len(r) != order
                                  for r in table):
        raise SchemaError(f"group.mult_table must be {order}x{order}")
    table = [_elements(r, order, f"group.mult_table[{i}]")
             for i, r in enumerate(table)]
    classes = [_elements(c, order, f"group.classes[{i}]")
               for i, c in enumerate(_want(raw, "classes", list, "group"))]
    chars = _want(raw, "char_table", list, "group")
    out_chars = []
    for i, rec in enumerate(chars):
        if not isinstance(rec, dict):
            raise SchemaError(f"group.char_table[{i}] must be an object")
        _no_extras(rec, {"name", "degree", "schur", "values"}, f"group.char_table[{i}]")
        out_chars.append({
            "name": _want(rec, "name", str, f"group.char_table[{i}]"),
            "degree": _want(rec, "degree", int, f"group.char_table[{i}]"),
            "schur": _want(rec, "schur", int, f"group.char_table[{i}]"),
            "values": [_number(v, f"group.char_table[{i}].values")
                       for v in _want(rec, "values", list,
                                      f"group.char_table[{i}]")],
        })

    def build() -> tuple[FiniteGroup, RealCharacterTable]:
        group, char_table = build_group("explicit", mult_table=np.array(table),
                                        char_table=out_chars)
        given = sorted(tuple(sorted(c)) for c in classes)
        actual = sorted(tuple(sorted(c)) for c in group.conjugacy_classes)
        if given != actual:
            raise TableMismatch(f"declared classes {given} differ from the "
                                f"table's classes {actual}")
        return group, char_table
    return build


def _parse_action(raw):
    """Check an action object; returns the size of its matrices and the
    constructor of the action of a group."""
    if not isinstance(raw, dict):
        raise SchemaError("action must be an object")
    _no_extras(raw, {"matrices"}, "action")
    mats = {}
    dim = None
    for key, val in _want(raw, "matrices", dict, "action").items():
        try:
            idx = int(key)
        except ValueError:
            idx = -1
        # only the spelling str(g) names element g, so no two keys collide
        if idx < 0 or str(idx) != key:
            raise SchemaError(f"action.matrices key {key!r} is not an "
                              "element index")
        mat = _matrix(val, f"action.matrices[{key}]")
        if dim is None:
            dim = len(mat)
        elif len(mat) != dim:
            raise DimensionMismatch(
                f"action.matrices[{key}] is {len(mat)}x{len(mat)}, "
                f"others are {dim}x{dim}")
        mats[idx] = mat
    if not mats:
        raise SchemaError("action.matrices is empty")

    def build(group: FiniteGroup) -> OrthogonalAction:
        missing = [g for g in range(group.order) if g not in mats]
        if missing:
            raise SchemaError(f"action.matrices[{missing[0]}] is missing")
        extra = sorted(g for g in mats if g >= group.order)
        if extra:
            raise SchemaError(f"action.matrices[{extra[0]}] is not an element")
        return OrthogonalAction(group, [np.array(mats[g])
                                        for g in range(group.order)])
    return dim, build


def _parse_path(raw):
    """Check a path object; returns the size of its blocks and the
    constructor of the path, which takes the tail flags."""
    if not isinstance(raw, dict):
        raise SchemaError("path must be an object")
    kind = _want(raw, "kind", str, "path")
    if kind == "affine":
        _no_extras(raw, {"kind", "A", "B"}, "path")
        a = _matrix(_want(raw, "A", list, "path"), "path.A")
        b = _matrix(_want(raw, "B", list, "path"), "path.B")
        if len(a) != len(b):
            raise DimensionMismatch(f"path.A is {len(a)}x{len(a)} but "
                                    f"path.B is {len(b)}x{len(b)}")
        return len(a), partial(OperatorPath.affine, np.array(a), np.array(b))
    if kind == "piecewise_linear":
        _no_extras(raw, {"kind", "knots", "samples"}, "path")
        knots = _want(raw, "knots", list, "path")
        if not all(isinstance(k, (int, float)) and not isinstance(k, bool)
                   for k in knots):
            raise SchemaError("path.knots must be numbers")
        if not all(_finite(k) for k in knots):
            raise SchemaError("path.knots must be finite")
        samples_raw = _want(raw, "samples", list, "path")
        samples = [_matrix(s, f"path.samples[{i}]")
                   for i, s in enumerate(samples_raw)]
        if len(samples) != len(knots):
            raise SchemaError(f"path has {len(knots)} knots but "
                              f"{len(samples)} samples")
        if not samples:
            raise SchemaError("path.samples is empty")
        dims = {len(s) for s in samples}
        if len(dims) > 1:
            raise DimensionMismatch(f"path.samples mix dimensions {sorted(dims)}")
        return len(samples[0]), partial(OperatorPath.piecewise_linear,
                                        [float(k) for k in knots],
                                        [np.array(s) for s in samples])
    raise SchemaError(f"path.kind {kind!r} is not a path kind")


def parse_job(text: str, *, command: str | None = None,
              seed: int | None = None) -> JobSpec:
    """Validate a JSON job document, fill defaults and build the objects the
    job runs on. A command or seed given here replaces the document's before
    any check, so it is validated like a value written in the document.

    Errors come in document order: first every schema check, then the
    construction of the group, the flow options, the action and the path
    (not built for verify), each raising its own error."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:
        # an integer literal past Python's digit limit, or nesting too deep
        raise ParseError(str(e)) from None
    if not isinstance(raw, dict):
        raise SchemaError("top level must be an object")
    if command is not None:
        raw["command"] = command
    if seed is not None and isinstance(raw.setdefault("options", {}), dict):
        raw["options"]["seed"] = seed
    _no_extras(raw, {"command", "group", "action", "path", "tail", "options"},
               "job")

    command = _want(raw, "command", str, "job")
    if command not in COMMANDS:
        raise SchemaError(f"job.command {command!r} is not one of "
                          f"{'/'.join(COMMANDS)}")
    make_group = _parse_group(_want(raw, "group", dict, "job"))
    action = _parse_action(raw["action"]) if "action" in raw else None
    path = _parse_path(raw["path"]) if "path" in raw else None

    tail = raw.get("tail", {})
    if not isinstance(tail, dict):
        raise SchemaError("tail must be an object")
    _no_extras(tail, {"plus", "minus"}, "tail")
    for key in ("plus", "minus"):
        if not isinstance(tail.get(key, False), bool):
            raise SchemaError(f"tail.{key} must be a boolean")

    options = dict(OPTION_DEFAULTS)
    if "options" in raw:
        if not isinstance(raw["options"], dict):
            raise SchemaError("options must be an object")
        _no_extras(raw["options"], set(OPTION_DEFAULTS), "options")
        for key in raw["options"]:
            val = _want(raw["options"], key, type(OPTION_DEFAULTS[key]),
                        "options")
            lo, hi = _INT_RANGES.get(key, (-math.inf, math.inf))
            if not lo <= val <= hi:
                raise SchemaError(f"options.{key} must be in {lo}..{hi}, "
                                  f"got {val}")
            options[key] = val

    if action is None:
        raise SchemaError("job.action is required")
    if command != "verify" and path is None:
        raise SchemaError(f"job.path is required for command {command!r}")
    adim, make_action = action
    if path is not None:
        pdim, make_path = path
        if adim != pdim:
            raise DimensionMismatch(f"path blocks are {pdim}x{pdim} but "
                                    f"action matrices are {adim}x{adim}")

    group, table = make_group()
    opts = FlowOptions(tol_cluster=options["tol_cluster"],
                       tol_invert=options["tol_invert"],
                       max_depth=options["max_depth"])
    action = make_action(group)
    path = None if command == "verify" else make_path(
        plus_tail=tail.get("plus", False), minus_tail=tail.get("minus", False))
    return JobSpec(command, table, action, path, opts, options)


def _report(klass: VirtualRep, flow: SflReport | None = None,
            **extra) -> dict:
    """Success report of a flow class, with the partition and crossings of
    the flow it came from (null without one); phi for order-two groups."""
    out = {"sfl": forgetful_F(klass), "sfl_G": klass.as_dict(),
           "partition": None, "crossings": None, "certified": True,
           "error": None, **extra}
    if flow is not None:
        p = flow.partition
        out["partition"] = {"knots": list(p.knots), "levels": list(p.levels),
                            "margins": list(p.margins)}
        out["crossings"] = [{"interval": list(c.interval),
                             "class": c.klass.as_dict()}
                            for c in flow.crossings]
    try:
        out["phi"] = list(phi_Z2(klass))
    except WrongGroup:
        pass
    return out


def _failure(e: Exception, code: int) -> tuple[dict, int]:
    """Error report and exit code for an exception."""
    message = f"{type(e).__name__}: {e}"
    logger.error("%s", message)
    return {"error": {"code": code, "message": message}}, code


def run(job: JobSpec) -> tuple[dict, int]:
    """Execute a job. Returns (report document, exit code); never raises for
    conditions covered by the exit-code contract."""
    try:
        return _dispatch(job), 0
    except SflowError as e:
        return _failure(e, e.exit_code)
    except Exception as e:  # noqa: BLE001 - contract: always emit a report
        return _failure(e, EXIT_UNEXPECTED)


def _dispatch(job: JobSpec) -> dict:
    action, table, opts, path = job.action, job.table, job.opts, job.path
    if job.command == "verify":
        suite = verify_axioms(action, table, seed=job.options["seed"],
                              instances=job.options["instances"], opts=opts)
        return {
            "axioms": {r.name: {"instances": r.instances,
                                "passed": r.passed,
                                "failures": list(r.failures)}
                       for r in suite.results},
            "passed": suite.passed,
            "seed": job.options["seed"],
            "error": None,
        }

    if job.command == "oracle":
        return _report(morse_oracle_sfl_G(path, action, table,
                                          m=job.options["m"], opts=opts))

    if job.command == "cogredient":
        px = parametrix(path, samples=job.options["samples"])
        direct = sfl_G(path, action, table, opts)
        moved = px.flow_class(action, table, tol_cluster=opts.tol_cluster,
                              tol_invert=opts.tol_invert)
        if direct.sfl_G != moved:
            raise ConsistencyFailure(
                "flow changed under the congruence: "
                f"{direct.sfl_G.as_dict()} vs {moved.as_dict()}")
        return _report(direct.sfl_G, direct,
                       parametrix={"sign": px.sign, "samples": len(px.lambdas),
                                   "max_residual": px.max_residual()})

    flow = (maslov_flow if job.command == "maslov" else sfl_G)(
        path, action, table, opts)
    return _report(flow.sfl_G, flow)


def emit_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _write_atomic(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sflow-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class _Stderr(logging.StreamHandler):
    # writes to sys.stderr as it is when a record is emitted, not to a stream
    # that was sys.stderr when the handler was installed and may be closed
    stream = property(lambda self: sys.stderr, lambda self, value: None)


def _setup_logging() -> None:
    level_name = os.environ.get("SFLOW_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    # one handler however often main() runs, so each record logs once
    if not any(isinstance(h, _Stderr) for h in logger.handlers):
        handler = _Stderr()
        handler.setFormatter(
            logging.Formatter("sflow %(levelname)s: %(message)s"))
        logger.addHandler(handler)
    logger.setLevel(levels.get(level_name, logging.ERROR))
    if level_name not in levels:
        logger.error("SFLOW_LOG=%s not recognized, using 'error'", level_name)


class _Parser(argparse.ArgumentParser):
    # an argument error becomes a report like any other invalid input
    def error(self, message: str):
        raise InvalidInput(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="sflow",
        description="equivariant spectral flow of symmetric operator paths")
    parser.add_argument("--input", help="job document; stdin when omitted")
    parser.add_argument("--output", help="report file; stdout when omitted")
    parser.add_argument("--command", choices=COMMANDS,
                        help="override the document's command")
    parser.add_argument("--seed", type=int, help="override options.seed")
    _setup_logging()

    output = None
    try:
        args = parser.parse_args(argv)
        output = args.output
        if args.input:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        job = parse_job(text, command=args.command, seed=args.seed)
        logger.info("running %s job", job.command)
        report, code = run(job)
    except (OSError, UnicodeDecodeError) as e:
        report, code = _failure(e, 2)
    except SflowError as e:
        report, code = _failure(e, e.exit_code)
    except Exception as e:  # noqa: BLE001 - a job's objects failed to build
        report, code = _failure(e, EXIT_UNEXPECTED)

    data = emit_report(report)
    if output:
        _write_atomic(output, data)
    else:
        sys.stdout.write(data)
    logger.info("exit code %d", code)
    return code


if __name__ == "__main__":
    sys.exit(main())
