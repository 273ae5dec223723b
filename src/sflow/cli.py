"""File-driven front end: JSON job in, certified JSON report out.

One job per invocation. The report is emitted even on failure, with an error
object and a matching process exit code, and identical jobs always produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from ._eig import opnorms
from .cogredient import parametrix
from .errors import (
    ConsistencyFailure,
    DimensionMismatch,
    ParseError,
    SchemaError,
    SflowError,
    TableMismatch,
    WrongGroup,
)
from .flow import FlowOptions, morse_oracle_sfl_G, sfl_G, verify_axioms
from .groups import (
    FiniteGroup,
    OrthogonalAction,
    RealCharacterTable,
    build_group,
    forgetful_F,
    phi_Z2,
)
from .maslov import maslov_index_G
from .operators import OperatorPath

logger = logging.getLogger("sflow")

COMMANDS = ("sfl", "maslov", "cogredient", "oracle", "verify")

OPTION_DEFAULTS = {
    "tol_cluster": 1e-8,
    "tol_invert": 1e-10,
    "max_depth": 40,
    "m": 0,
    "seed": 0,
    "samples": 64,
    "instances": 20,
}

EXIT_UNEXPECTED = 1


@dataclass
class JobSpec:
    """Validated, normalized job: plain lists and scalars only, so equality
    and re-emission are structural."""

    command: str
    group: dict
    action: dict | None
    path: dict | None
    tail: dict
    options: dict

    def to_document(self) -> str:
        doc = {"command": self.command, "group": self.group,
               "tail": self.tail, "options": self.options}
        if self.action is not None:
            doc["action"] = self.action
        if self.path is not None:
            doc["path"] = self.path
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _want(obj: dict, field: str, kind, where: str):
    if field not in obj:
        raise SchemaError(f"{where}.{field} is missing")
    val = obj[field]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise SchemaError(f"{where}.{field} must be a number")
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


def _matrix(raw, where: str) -> list[list[float]]:
    if (not isinstance(raw, list) or not raw
            or not all(isinstance(r, list) for r in raw)):
        raise SchemaError(f"{where} must be a non-empty array of arrays")
    n = len(raw)
    out = []
    for i, row in enumerate(raw):
        if len(row) != n:
            raise SchemaError(f"{where}[{i}] has length {len(row)}, expected {n}")
        for x in row:
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise SchemaError(f"{where}[{i}] contains a non-number")
        out.append([float(x) for x in row])
    return out


def _parse_group(raw, where: str = "group") -> dict:
    if not isinstance(raw, dict):
        raise SchemaError(f"{where} must be an object")
    if "preset" in raw:
        _no_extras(raw, {"preset", "n"}, where)
        preset = _want(raw, "preset", str, where)
        if preset not in ("trivial", "cyclic", "dihedral"):
            raise SchemaError(f"{where}.preset {preset!r} is not a preset")
        out = {"preset": preset}
        if preset != "trivial":
            out["n"] = _want(raw, "n", int, where)
            if out["n"] < 1:
                raise SchemaError(f"{where}.n must be positive")
        return out
    _no_extras(raw, {"order", "mult_table", "classes", "char_table"}, where)
    order = _want(raw, "order", int, where)
    table = _want(raw, "mult_table", list, where)
    if len(table) != order or any(not isinstance(r, list) or len(r) != order
                                  for r in table):
        raise SchemaError(f"{where}.mult_table must be {order}x{order}")
    for i, row in enumerate(table):
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < order:
                raise SchemaError(f"{where}.mult_table[{i}] has an entry "
                                  f"outside 0..{order - 1}")
    classes = _want(raw, "classes", list, where)
    chars = _want(raw, "char_table", list, where)
    out_chars = []
    for i, rec in enumerate(chars):
        if not isinstance(rec, dict):
            raise SchemaError(f"{where}.char_table[{i}] must be an object")
        _no_extras(rec, {"name", "degree", "schur", "values"}, f"{where}.char_table[{i}]")
        out_chars.append({
            "name": _want(rec, "name", str, f"{where}.char_table[{i}]"),
            "degree": _want(rec, "degree", int, f"{where}.char_table[{i}]"),
            "schur": _want(rec, "schur", int, f"{where}.char_table[{i}]"),
            "values": [float(v) for v in _want(rec, "values", list,
                                               f"{where}.char_table[{i}]")],
        })
    return {"order": order, "mult_table": [list(r) for r in table],
            "classes": [sorted(int(x) for x in c) for c in classes],
            "char_table": out_chars}


def _parse_action(raw, where: str = "action") -> dict:
    if not isinstance(raw, dict):
        raise SchemaError(f"{where} must be an object")
    _no_extras(raw, {"matrices"}, where)
    mats = _want(raw, "matrices", dict, where)
    out, parsed = {}, []
    dim = None
    for key, val in mats.items():
        try:
            idx = int(key)
        except ValueError:
            raise SchemaError(f"{where}.matrices key {key!r} is not an "
                              "element index") from None
        mat = _matrix(val, f"{where}.matrices[{key}]")
        if dim is None:
            dim = len(mat)
        elif len(mat) != dim:
            raise DimensionMismatch(
                f"{where}.matrices[{key}] is {len(mat)}x{len(mat)}, "
                f"others are {dim}x{dim}")
        out[str(idx)] = mat
        parsed.append(mat)
    if not out:
        raise SchemaError(f"{where}.matrices is empty")
    stack = np.array(parsed)
    bad = np.flatnonzero(
        opnorms(np.swapaxes(stack, 1, 2) @ stack - np.eye(dim)) > 1e-10)
    if bad.size:
        key = list(mats)[bad[0]]
        raise SchemaError(f"{where}.matrices[{key}] not orthogonal")
    return {"matrices": out}


def _parse_path(raw, where: str = "path") -> dict:
    if not isinstance(raw, dict):
        raise SchemaError(f"{where} must be an object")
    kind = _want(raw, "kind", str, where)
    if kind == "affine":
        _no_extras(raw, {"kind", "A", "B"}, where)
        a = _matrix(_want(raw, "A", list, where), f"{where}.A")
        b = _matrix(_want(raw, "B", list, where), f"{where}.B")
        if len(a) != len(b):
            raise DimensionMismatch(f"{where}.A is {len(a)}x{len(a)} but "
                                    f"{where}.B is {len(b)}x{len(b)}")
        return {"kind": kind, "A": a, "B": b}
    if kind == "piecewise_linear":
        _no_extras(raw, {"kind", "knots", "samples"}, where)
        knots = _want(raw, "knots", list, where)
        if not all(isinstance(k, (int, float)) and not isinstance(k, bool)
                   for k in knots):
            raise SchemaError(f"{where}.knots must be numbers")
        samples_raw = _want(raw, "samples", list, where)
        samples = [_matrix(s, f"{where}.samples[{i}]")
                   for i, s in enumerate(samples_raw)]
        if len(samples) != len(knots):
            raise SchemaError(f"{where} has {len(knots)} knots but "
                              f"{len(samples)} samples")
        dims = {len(s) for s in samples}
        if len(dims) > 1:
            raise DimensionMismatch(f"{where}.samples mix dimensions {sorted(dims)}")
        return {"kind": kind, "knots": [float(k) for k in knots],
                "samples": samples}
    raise SchemaError(f"{where}.kind {kind!r} is not a path kind")


def parse_job(text: str) -> JobSpec:
    """Validate a JSON job document and fill defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise SchemaError("top level must be an object")
    _no_extras(raw, {"command", "group", "action", "path", "tail", "options"},
               "job")

    command = _want(raw, "command", str, "job")
    if command not in COMMANDS:
        raise SchemaError(f"job.command {command!r} is not one of "
                          f"{'/'.join(COMMANDS)}")
    group = _parse_group(_want(raw, "group", dict, "job"))
    action = _parse_action(raw["action"]) if "action" in raw else None
    path = _parse_path(raw["path"]) if "path" in raw else None

    tail = {"plus": False, "minus": False}
    if "tail" in raw:
        if not isinstance(raw["tail"], dict):
            raise SchemaError("tail must be an object")
        _no_extras(raw["tail"], {"plus", "minus"}, "tail")
        for key in ("plus", "minus"):
            if key in raw["tail"]:
                if not isinstance(raw["tail"][key], bool):
                    raise SchemaError(f"tail.{key} must be a boolean")
                tail[key] = raw["tail"][key]

    options = dict(OPTION_DEFAULTS)
    if "options" in raw:
        if not isinstance(raw["options"], dict):
            raise SchemaError("options must be an object")
        _no_extras(raw["options"], set(OPTION_DEFAULTS), "options")
        for key, val in raw["options"].items():
            if key in ("max_depth", "m", "seed", "samples", "instances"):
                options[key] = _want(raw["options"], key, int, "options")
            else:
                options[key] = _want(raw["options"], key, float, "options")

    if action is None:
        raise SchemaError("job.action is required")
    if command != "verify" and path is None:
        raise SchemaError(f"job.path is required for command {command!r}")

    job = JobSpec(command, group, action, path, tail, options)
    _check_dimensions(job)
    return job


def _path_dim(path: dict) -> int:
    if path["kind"] == "affine":
        return len(path["A"])
    return len(path["samples"][0])


def _check_dimensions(job: JobSpec) -> None:
    if job.action is None or job.path is None:
        return
    dims = {len(m) for m in job.action["matrices"].values()}
    adim = dims.pop()
    pdim = _path_dim(job.path)
    if adim != pdim:
        raise DimensionMismatch(f"path blocks are {pdim}x{pdim} but action "
                                f"matrices are {adim}x{adim}")


def _materialize_group(spec: dict) -> tuple[FiniteGroup, RealCharacterTable]:
    if "preset" in spec:
        return build_group(spec["preset"], spec.get("n"))
    group, table = build_group("explicit",
                               mult_table=np.array(spec["mult_table"]),
                               char_table=spec["char_table"])
    given = sorted(tuple(sorted(c)) for c in spec["classes"])
    actual = sorted(tuple(sorted(c)) for c in group.conjugacy_classes)
    if given != actual:
        raise TableMismatch(f"declared classes {given} differ from the "
                            f"table's classes {actual}")
    return group, table


def _materialize_action(spec: dict, group: FiniteGroup) -> OrthogonalAction:
    mats = spec["matrices"]
    missing = [g for g in range(group.order) if str(g) not in mats]
    if missing:
        raise SchemaError(f"action.matrices[{missing[0]}] is missing")
    extra = sorted(int(k) for k in mats if not 0 <= int(k) < group.order)
    if extra:
        raise SchemaError(f"action.matrices[{extra[0]}] is not an element")
    return OrthogonalAction(group, [np.array(mats[str(g)])
                                    for g in range(group.order)])


def _materialize_path(spec: dict, tail: dict) -> OperatorPath:
    if spec["kind"] == "affine":
        return OperatorPath.affine(np.array(spec["A"]), np.array(spec["B"]),
                                   plus_tail=tail["plus"],
                                   minus_tail=tail["minus"])
    return OperatorPath.piecewise_linear(
        spec["knots"], [np.array(s) for s in spec["samples"]],
        plus_tail=tail["plus"], minus_tail=tail["minus"])


def _flow_options(options: dict) -> FlowOptions:
    return FlowOptions(tol_cluster=options["tol_cluster"],
                       tol_invert=options["tol_invert"],
                       max_depth=options["max_depth"])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _maybe_phi(vr) -> list[int] | None:
    try:
        return list(phi_Z2(vr))
    except WrongGroup:
        return None


def _partition_block(report) -> dict:
    return {"knots": list(report.partition.knots),
            "levels": list(report.partition.levels),
            "margins": list(report.partition.margins)}


def _crossings_block(report) -> list[dict]:
    return [{"interval": list(c.interval), "class": c.klass.as_dict()}
            for c in report.crossings]


def run(job: JobSpec) -> tuple[dict, int]:
    """Execute a job. Returns (report document, exit code); never raises for
    conditions covered by the exit-code contract."""
    try:
        report = _dispatch(job)
        return _jsonable(report), 0
    except SflowError as e:
        logger.error("%s: %s", type(e).__name__, e)
        return {"error": {"code": e.exit_code,
                          "message": f"{type(e).__name__}: {e}"}}, e.exit_code
    except Exception as e:  # noqa: BLE001 - contract: always emit a report
        logger.error("unexpected %s: %s", type(e).__name__, e)
        return {"error": {"code": EXIT_UNEXPECTED,
                          "message": f"{type(e).__name__}: {e}"}}, EXIT_UNEXPECTED


def _dispatch(job: JobSpec) -> dict:
    group, table = _materialize_group(job.group)
    opts = _flow_options(job.options)

    if job.command == "verify":
        action = _materialize_action(job.action, group)
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

    action = _materialize_action(job.action, group)
    path = _materialize_path(job.path, job.tail)
    if action.dim != path.dim:
        raise DimensionMismatch(f"path blocks are {path.dim}x{path.dim} but "
                                f"action matrices are {action.dim}x{action.dim}")

    if job.command == "oracle":
        vr = morse_oracle_sfl_G(path, action, table, m=job.options["m"],
                                opts=opts)
        out = {"sfl": forgetful_F(vr), "sfl_G": vr.as_dict(),
               "partition": None, "crossings": None, "certified": True,
               "error": None}
        phi = _maybe_phi(vr)
        if phi is not None:
            out["phi"] = phi
        return out

    if job.command == "cogredient":
        px = parametrix(path, samples=job.options["samples"])
        direct = sfl_G(path, action, table, opts)
        transformed = sfl_G(px.transformed_path(), action, table, opts)
        if direct.sfl_G != transformed.sfl_G:
            raise ConsistencyFailure(
                "flow changed under the congruence: "
                f"{direct.sfl_G.as_dict()} vs {transformed.sfl_G.as_dict()}")
        out = {"sfl": direct.sfl, "sfl_G": direct.sfl_G.as_dict(),
               "partition": _partition_block(direct),
               "crossings": _crossings_block(direct),
               "certified": True,
               "parametrix": {"sign": px.sign,
                              "samples": len(px.lambdas),
                              "max_residual": px.max_residual()},
               "error": None}
        phi = _maybe_phi(direct.sfl_G)
        if phi is not None:
            out["phi"] = phi
        return out

    if job.command == "maslov":
        vr = maslov_index_G(path, action, table, opts)
        direct = sfl_G(path, action, table, opts)
        out = {"sfl": direct.sfl, "sfl_G": vr.as_dict(),
               "partition": _partition_block(direct),
               "crossings": _crossings_block(direct),
               "certified": True, "error": None}
        phi = _maybe_phi(vr)
        if phi is not None:
            out["phi"] = phi
        return out

    report = sfl_G(path, action, table, opts)
    out = {"sfl": report.sfl, "sfl_G": report.sfl_G.as_dict(),
           "partition": _partition_block(report),
           "crossings": _crossings_block(report),
           "certified": report.certified, "error": None}
    phi = _maybe_phi(report.sfl_G)
    if phi is not None:
        out["phi"] = phi
    return out


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


def _setup_logging() -> None:
    level_name = os.environ.get("SFLOW_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("sflow %(levelname)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(levels.get(level_name, logging.ERROR))
    if level_name not in levels:
        logger.error("SFLOW_LOG=%s not recognized, using 'error'", level_name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sflow",
        description="equivariant spectral flow of symmetric operator paths")
    parser.add_argument("--input", help="job document; stdin when omitted")
    parser.add_argument("--output", help="report file; stdout when omitted")
    parser.add_argument("--command", choices=COMMANDS,
                        help="override the document's command")
    parser.add_argument("--seed", type=int, help="override options.seed")
    args = parser.parse_args(argv)
    _setup_logging()

    try:
        if args.input:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except OSError as e:
        report, code = {"error": {"code": 2, "message": f"OSError: {e}"}}, 2
    else:
        try:
            job = parse_job(text)
            if args.command:
                job.command = args.command
            if args.seed is not None:
                job.options["seed"] = args.seed
            logger.info("running %s job", job.command)
            report, code = run(job)
        except SflowError as e:
            logger.error("%s: %s", type(e).__name__, e)
            report, code = {"error": {"code": e.exit_code,
                                      "message": f"{type(e).__name__}: {e}"}}, \
                e.exit_code

    data = emit_report(report)
    if args.output:
        _write_atomic(args.output, data)
    else:
        sys.stdout.write(data)
    logger.info("exit code %d", code)
    return code


if __name__ == "__main__":
    sys.exit(main())
