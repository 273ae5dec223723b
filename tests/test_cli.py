"""Job parsing, report shapes, exit codes, determinism, the entry point."""

import copy
import dataclasses
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sflow
from sflow import cli, cogredient, flow, operators
from sflow.cli import (
    COMMANDS,
    OPTION_DEFAULTS,
    JobSpec,
    emit_report,
    main,
    parse_job,
    run,
)
from sflow.errors import (
    BadAction,
    BadCharacterTable,
    ConsistencyFailure,
    DimensionMismatch,
    NonGroup,
    NotEquivariant,
    OutOfRange,
    ParseError,
    SchemaError,
    SflowError,
    TableMismatch,
    raise_first,
)
from sflow.cogredient import parametrix
from sflow.flow import FlowOptions, sfl_G
from sflow.operators import (
    EQUIVARIANCE_FACTOR,
    OperatorPath,
    eigendata_each,
    equivariance_defects,
    morse_classes,
)
from sflow.sampling import (
    preset_action,
    random_equivariant_symmetric,
    reynolds_symmetric,
)


def golden_job() -> dict:
    # opposite crossings on the two isotypical lines of the order-2 group
    return {
        "command": "sfl",
        "group": {"preset": "cyclic", "n": 2},
        "action": {"matrices": {"0": [[1, 0], [0, 1]],
                                "1": [[1, 0], [0, -1]]}},
        "path": {"kind": "affine", "A": [[-1, 0], [0, 1]],
                 "B": [[2, 0], [0, -2]]},
    }


def scalar_job(command="sfl") -> dict:
    return {
        "command": command,
        "group": {"preset": "trivial"},
        "action": {"matrices": {"0": [[1]]}},
        "path": {"kind": "affine", "A": [[-1]], "B": [[2]]},
    }


def explicit_job() -> dict:
    # the golden job over the order-2 group given by its tables
    doc = golden_job()
    doc["group"] = {
        "order": 2,
        "mult_table": [[0, 1], [1, 0]],
        "classes": [[0], [1]],
        "char_table": [
            {"name": "trivial", "degree": 1, "schur": 1, "values": [1, 1]},
            {"name": "sign", "degree": 1, "schur": 1, "values": [1, -1]},
        ],
    }
    return doc


def piecewise_job() -> dict:
    doc = golden_job()
    doc["path"] = {"kind": "piecewise_linear", "knots": [0, 0.5, 1],
                   "samples": [[[-1, 0], [0, 1]], [[0.5, 0], [0, 0.5]],
                               [[1, 0], [0, -1]]]}
    return doc


FLOW_KEYS = {"sfl", "sfl_G", "partition", "crossings", "certified", "error",
             "phi"}


def main_error(doc, monkeypatch, capsys):
    """Exit code and error message of main on the document over stdin."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code = main([])
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == code
    return code, error["message"]


def assert_plain(obj):
    # reports hold JSON's own Python types only, never numpy scalars
    assert type(obj) in (dict, list, str, int, float, bool, type(None)), obj
    for item in obj.values() if isinstance(obj, dict) else (
            obj if isinstance(obj, list) else ()):
        assert_plain(item)


# --- parsing -----------------------------------------------------------------


def test_parse_fills_defaults():
    job = parse_job(json.dumps(scalar_job()))
    assert job.command == "sfl"
    assert job.path.tails == (False, False)
    assert job.options == OPTION_DEFAULTS
    assert job.options is not OPTION_DEFAULTS
    assert job.opts == FlowOptions()


def _group_state(table):
    return repr((vars(table.group), table.irreps, table._pairing.tobytes(),
                 table._pairing.flags.writeable))


def test_preset_jobs_share_one_group_and_table_that_no_job_modifies():
    a, b = (parse_job(json.dumps(golden_job())) for _ in range(2))
    assert a.table is b.table
    assert a.action.group is b.action.group is a.table.group
    before = _group_state(a.table)
    for command in COMMANDS:
        doc = golden_job()
        doc["command"] = command
        run(parse_job(json.dumps(doc)))
    assert _group_state(a.table) == before
    c, d = (parse_job(json.dumps(explicit_job())) for _ in range(2))
    assert c.table is not d.table
    assert c.table == d.table == a.table


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_job("{bad json")
    assert "line 1 column" in str(err.value)


def test_parse_rejects_unknown_fields():
    doc = scalar_job()
    doc["extra"] = 1
    with pytest.raises(SchemaError) as err:
        parse_job(json.dumps(doc))
    assert "job.extra" in str(err.value)
    doc = scalar_job()
    doc["options"] = {"verbosity": 3}
    with pytest.raises(SchemaError) as err:
        parse_job(json.dumps(doc))
    assert "options.verbosity" in str(err.value)


def test_parse_rejects_bad_command_and_missing_blocks():
    doc = scalar_job()
    doc["command"] = "integrate"
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))
    doc = scalar_job()
    del doc["group"]
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))
    doc = scalar_job()
    del doc["action"]
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))
    doc = scalar_job()
    del doc["path"]
    with pytest.raises(SchemaError) as err:
        parse_job(json.dumps(doc))
    assert "path" in str(err.value)


def test_verify_needs_no_path():
    doc = scalar_job("verify")
    del doc["path"]
    job = parse_job(json.dumps(doc))
    assert job.path is None


def test_parse_rejects_non_orthogonal_action(monkeypatch, capsys):
    # OrthogonalAction checks orthogonality, with its witness, once the
    # document has passed every schema check
    doc = golden_job()
    doc["action"]["matrices"]["1"] = [[1, 0], [0, -2]]
    with pytest.raises(BadAction):
        parse_job(json.dumps(doc))
    assert main_error(doc, monkeypatch, capsys) == (
        2, "BadAction: matrix for element 1 not orthogonal: defect 3.000e+00")


@pytest.mark.parametrize("key", ["01", " 1", "+1", "-1", "1_0", "\u0661", "x"])
def test_parse_rejects_non_canonical_element_keys(key, monkeypatch, capsys):
    # only str(g) names element g: "01" must not silently replace "1"
    doc = golden_job()
    doc["action"]["matrices"][key] = [[5, 0], [0, 5]]
    message = f"action.matrices key {key!r} is not an element index"
    with pytest.raises(SchemaError) as err:
        parse_job(json.dumps(doc))
    assert str(err.value) == message
    assert main_error(doc, monkeypatch, capsys) == (2, f"SchemaError: {message}")


def test_parse_rejects_keys_outside_the_group(monkeypatch, capsys):
    doc = golden_job()
    doc["action"]["matrices"]["2"] = [[1, 0], [0, 1]]
    message = "action.matrices[2] is not an element"
    with pytest.raises(SchemaError) as err:
        parse_job(json.dumps(doc))
    assert str(err.value) == message
    assert main_error(doc, monkeypatch, capsys) == (2, f"SchemaError: {message}")


def test_parse_rejects_dimension_mixes():
    doc = golden_job()
    doc["action"]["matrices"]["1"] = [[1]]
    with pytest.raises(DimensionMismatch):
        parse_job(json.dumps(doc))
    doc = golden_job()
    doc["path"] = {"kind": "affine", "A": [[-1]], "B": [[2]]}
    with pytest.raises(DimensionMismatch) as err:
        parse_job(json.dumps(doc))
    assert "1x1" in str(err.value) and "2x2" in str(err.value)


def test_parse_rejects_malformed_paths():
    doc = scalar_job()
    doc["path"] = {"kind": "spline", "A": [[1]], "B": [[1]]}
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))
    doc["path"] = {"kind": "piecewise_linear", "knots": [0.0, 1.0],
                   "samples": [[[1]]]}
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))
    doc["path"] = {"kind": "affine", "A": [[1, 0]], "B": [[1]]}
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))


def test_parse_option_typing():
    doc = scalar_job()
    doc["options"] = {"tol_cluster": 1, "max_depth": 12}
    job = parse_job(json.dumps(doc))
    assert job.options["tol_cluster"] == 1.0
    assert isinstance(job.options["tol_cluster"], float)
    assert job.options["max_depth"] == 12
    doc["options"] = {"max_depth": 12.5}
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))


def test_parse_tail_flags():
    doc = scalar_job()
    doc["path"] = {"kind": "affine", "A": [[-0.5]], "B": [[1]]}
    doc["tail"] = {"plus": True, "minus": True}
    job = parse_job(json.dumps(doc))
    assert job.path.tails == (True, True)
    doc["tail"] = {"plus": "yes"}
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))


@pytest.mark.parametrize("classes", [
    [["a"], [1]], [[0.5], [1]], [[0], [1.7]], [[0], [2]], [[-1], [1]],
    [[True], [1]], [0, [1]], [[0], None]])
def test_parse_rejects_bad_class_entries(classes, monkeypatch, capsys):
    # every entry is an element index, checked like the mult_table entries
    doc = explicit_job()
    doc["group"]["classes"] = classes
    with pytest.raises(SchemaError, match=r"group\.classes\[[01]\] "):
        parse_job(json.dumps(doc))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main([]) == 2
    assert "SchemaError" in json.loads(capsys.readouterr().out)["error"]["message"]


# the documented ranges, each probed one past its end
@pytest.mark.parametrize("key, value", [
    ("m", -1), ("m", 257), ("seed", -1), ("samples", 1), ("samples", 1025),
    ("instances", 0), ("instances", -3), ("instances", 1001)])
def test_integer_options_outside_their_range_exit_2(key, value):
    doc = scalar_job("verify")
    doc["options"] = {key: value}
    with pytest.raises(SchemaError, match=rf"options\.{key} must be in "):
        parse_job(json.dumps(doc))


def test_integer_options_at_their_limits_parse():
    doc = scalar_job()
    doc["options"] = {"m": 256, "seed": 10 ** 40, "samples": 1024,
                      "instances": 1000}
    assert parse_job(json.dumps(doc)).options["seed"] == 10 ** 40


@pytest.mark.parametrize("text", [
    '{"command": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
    ids=["5000-digit-integer", "nested-100000-deep"])
def test_unreadable_literals_are_parse_errors(text):
    # past the interpreter's integer digit limit, or nested too deep
    with pytest.raises(ParseError):
        parse_job(text)


def test_parse_rejects_empty_piecewise_path():
    doc = scalar_job()
    doc["path"] = {"kind": "piecewise_linear", "knots": [], "samples": []}
    with pytest.raises(SchemaError, match="path.samples is empty"):
        parse_job(json.dumps(doc))


def _node_paths(doc, at=()):
    yield at
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _node_paths(value, at + (key,))


SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
# negative or huge, drawn where the schema caps an integer: options, class
# entries and a preset group's size
EXTREME_INTS = st.integers(-10 ** 40, -1) | st.integers(10 ** 3, 10 ** 40)
# element keys that alias "1" under int(), and an unknown field
ODD_KEYS = st.sampled_from(["0", "1", "01", "+1", " 1", "-1", "1_0", "\u0661",
                            "unknown"]) | st.text(max_size=3)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mutated_documents_fail_only_with_sflow_errors(data):
    doc = data.draw(st.sampled_from(
        [golden_job, explicit_job, piecewise_job, scalar_job]))()
    doc["options"] = {"instances": 1, "samples": 3, "max_depth": 12}
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.sampled_from(list(_node_paths(doc))[1:]))
        holder = doc
        for key in at[:-1]:
            holder = holder[key]
        if isinstance(holder, dict) and data.draw(st.booleans()):
            # move the value to another key, or copy it there
            moved = data.draw(st.booleans())
            holder[data.draw(ODD_KEYS)] = (holder.pop(at[-1]) if moved
                                           else holder[at[-1]])
            continue
        bounded = at[0] == "options" or "classes" in at or at == ("group", "n")
        holder[at[-1]] = data.draw(SMALL_JSON | EXTREME_INTS if bounded
                                   else SMALL_JSON)
    command = data.draw(st.none() | st.sampled_from(COMMANDS + ("bogus",)))
    seed = data.draw(st.none() | st.integers(-3, 3) | EXTREME_INTS)
    try:
        job = parse_job(json.dumps(doc), command=command, seed=seed)
    except SflowError:
        return
    report, code = run(job)
    assert code != 1, report


# --- running jobs ---------------------------------------------------------------


def test_golden_report():
    report, code = run(parse_job(json.dumps(golden_job())))
    assert code == 0
    assert report["sfl"] == 0
    assert report["sfl_G"] == {"trivial": 1, "sign": -1}
    assert report["phi"] == [0, 1]
    assert report["certified"] is True
    assert report["error"] is None
    assert report["partition"]["knots"][0] == 0.0
    assert report["partition"]["knots"][-1] == 1.0
    assert all(m > 0 for m in report["partition"]["margins"])
    assert report["crossings"][0]["class"] == {"trivial": 1, "sign": -1}


def test_trivial_group_report_has_no_phi():
    report, code = run(parse_job(json.dumps(scalar_job())))
    assert code == 0
    assert report["sfl"] == 1
    assert "phi" not in report


def test_normalization_job():
    doc = scalar_job()
    doc["path"] = {"kind": "affine", "A": [[-0.5]], "B": [[1]]}
    doc["tail"] = {"plus": True, "minus": True}
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 0
    assert report["sfl"] == 1


def test_exit_code_singular_endpoint():
    doc = scalar_job()
    doc["path"] = {"kind": "affine", "A": [[0]], "B": [[1]]}
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 3
    assert report["error"]["code"] == 3
    assert "EndpointNotInvertible" in report["error"]["message"]
    assert "endpoint 0.0" in report["error"]["message"]



@pytest.mark.parametrize("a", [1e-9, 3e-9, 1e-8])
@pytest.mark.parametrize("shape", ["scalar", "2x2", "tail"])
def test_negative_end_eigenvalue_between_the_tolerances_exits_3(a, shape):
    # |-a| clears the invertibility threshold 1e-10 (1 + ||A||) but not the
    # cluster tolerance 1e-8 (1 + ||A||) at which the knot windows close, so
    # the flow would count it with the nonnegative eigenvalues and report
    # 0 where the oracle, n-(A(0)) - n-(A(1)), gives 1
    doc = scalar_job()
    doc["path"] = {"kind": "affine", "A": [[-a]], "B": [[2 * a]]}
    if shape == "2x2":
        doc["action"] = {"matrices": {"0": [[1, 0], [0, 1]]}}
        doc["path"] = {"kind": "affine", "A": [[-a, 0], [0, 5]],
                       "B": [[2 * a, 0], [0, 0]]}
    if shape == "tail":
        doc["tail"] = {"plus": True, "minus": False}
    commands = ["sfl", "cogredient"] if shape == "tail" else ["sfl", "maslov"]
    for command in commands:
        doc["command"] = command
        report, code = run(parse_job(json.dumps(doc)))
        assert code == 3, command
        assert report["error"]["message"].startswith(
            f"EndpointNotInvertible: eigenvalue {-a:.3e} at endpoint 0.0 "
            "within cluster tolerance")
    doc["command"] = "oracle"
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 3
    assert report["error"]["message"].startswith(
        f"NotInvertible: eigenvalue {-a:.3e} within cluster tolerance")


def test_oracle_refuses_a_negative_end_eigenvalue_near_0_as_sfl_does():
    # -1e-9 and 1e-9 cluster to a mean of 0, so a negative space read from
    # the clusters below 0 missed -1e-9 and the oracle reported 0, where
    # n-(A(0)) - n-(A(1)) is 1
    doc = dict(scalar_job("oracle"),
               action={"matrices": {"0": [[1, 0], [0, 1]]}},
               path={"kind": "affine", "A": [[-1e-9, 0], [0, 1e-9]],
                     "B": [[2, 0], [0, 0]]})
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 3
    assert report["error"]["message"] == (
        "NotInvertible: eigenvalue -1.000e-09 within cluster tolerance "
        "1.000e-08 below 0")
    # end magnitudes from below the invertibility threshold to past the
    # cluster tolerance, at either end and beside a small or a unit
    # eigenvalue of either sign
    codes = set()
    for a in np.geomspace(3e-11, 3e-8, 13):
        for first, other in [([-a, 0], [a, 1]), ([-a, 0], [1, 1]),
                             ([a, 0], [-1, 1]), ([1, 0], [-a, 1])]:
            paths = [{"kind": "affine", "A": [first, [0, other[0]]],
                      "B": [[2, 0], [0, other[1]]]}]
            paths.append({"kind": "affine",
                          "A": (np.array(paths[0]["A"])
                                + np.array(paths[0]["B"])).tolist(),
                          "B": (-np.array(paths[0]["B"])).tolist()})
            for path in paths:
                got = [run(parse_job(json.dumps(dict(doc, path=path,
                                                     command=command))))
                       for command in ("oracle", "sfl")]
                (oracle, code), (flow, flow_code) = got
                assert code == flow_code, (a, path)
                if code == 0:
                    assert oracle["sfl_G"] == flow["sfl_G"], (a, path)
                codes.add(code)
    assert codes == {0, 3}


# an integer literal too large for a float is not finite either
NON_FINITE = pytest.mark.parametrize(
    "spelling", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                 "1" + "0" * 400],
    ids=["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "int400"])


@NON_FINITE
@pytest.mark.parametrize("where", ["path", "action"])
def test_non_finite_matrix_entries_exit_2(spelling, where, monkeypatch, capsys):
    # JSON admits NaN and Infinity and parses 1e400 to inf: all are rejected
    # at the boundary instead of failing the eigensolver with exit 4
    doc = scalar_job()
    doc[where] = ({"kind": "affine", "A": [[-1]], "B": [["X"]]}
                  if where == "path" else {"matrices": {"0": [["X"]]}})
    text = json.dumps(doc).replace('"X"', spelling)
    with pytest.raises(SchemaError) as info:
        parse_job(text)
    assert "non-finite" in str(info.value)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main([]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["code"] == 2
    assert "SchemaError" in report["error"]["message"]


@NON_FINITE
def test_non_finite_options_knots_and_characters_exit_2(spelling):
    doc = scalar_job()
    doc["group"] = {"order": 1, "mult_table": [[0]], "classes": [[0]],
                    "char_table": [{"name": "trivial", "degree": 1,
                                    "schur": 1, "values": ["X"]}]}
    with pytest.raises(SchemaError, match="values contains a non-finite"):
        parse_job(json.dumps(doc).replace('"X"', spelling))
    # a non-number character value is a schema error too, not a ValueError
    with pytest.raises(SchemaError, match="values contains a non-number"):
        parse_job(json.dumps(doc))
    doc = scalar_job()
    doc["options"] = {"tol_cluster": "X"}
    with pytest.raises(SchemaError, match="options.tol_cluster must be finite"):
        parse_job(json.dumps(doc).replace('"X"', spelling))
    doc = scalar_job()
    doc["path"] = {"kind": "piecewise_linear", "knots": [0, "X", 1],
                   "samples": [[[-1]], [[0]], [[1]]]}
    with pytest.raises(SchemaError, match="path.knots must be finite"):
        parse_job(json.dumps(doc).replace('"X"', spelling))


def test_negative_tolerance_option_exits_2(monkeypatch, capsys):
    doc = scalar_job()
    doc["options"] = {"tol_cluster": -1e-8}
    with pytest.raises(OutOfRange):
        parse_job(json.dumps(doc))
    code, message = main_error(doc, monkeypatch, capsys)
    assert code == 2
    assert "OutOfRange: tol_cluster" in message


def test_exit_code_certification_failed():
    doc = scalar_job()
    doc["path"] = {"kind": "piecewise_linear", "knots": [0.0, 0.5, 1.0],
                   "samples": [[[3]], [[-3]], [[3]]]}
    doc["tail"] = {"plus": True}
    doc["options"] = {"max_depth": 0}
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 4
    assert "CertificationFailed" in report["error"]["message"]


def test_exit_code_nan_block(monkeypatch):
    # a NaN block has no spectrum; it must fail the eigensolve with exit 4,
    # never carry NaN eigenvalues into a report or exit 1. The JSON boundary
    # and the path constructors reject NaN, so the flow's block source puts
    # one in: lambda -> [[NaN, 0], [0, 1]] + lambda I.
    with pytest.raises(OutOfRange, match="a has non-finite entries"):
        OperatorPath.affine(np.array([[np.nan, 0], [0, 1]]), np.eye(2))
    doc = scalar_job()
    doc["action"] = {"matrices": {"0": [[1, 0], [0, 1]]}}
    doc["path"] = {"kind": "affine", "A": [[0, 0], [0, 1]],
                   "B": [[1, 0], [0, 1]]}
    job = parse_job(json.dumps(doc))
    blocks = operators.PathStack.blocks

    def nan_blocks(self, which, lams):
        out = blocks(self, which, lams)
        out[:, 0, 0] = np.nan
        return out

    monkeypatch.setattr(operators.PathStack, "blocks", nan_blocks)
    report, code = run(job)
    assert code == 4
    assert report["error"]["code"] == 4
    assert "EigenFailure" in report["error"]["message"]


@pytest.mark.parametrize("entry", [1.7e308, -1.7e308])
def test_huge_finite_entries_run_without_overflow(entry):
    # symmetrizing and the window-edge test must not overflow on entries
    # near the top of the float range
    doc = scalar_job()
    doc["path"] = {"kind": "affine", "A": [[entry]], "B": [[0]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, code = run(parse_job(json.dumps(doc)))
    assert code == 0, report["error"]
    assert report["sfl"] == 0


@pytest.mark.parametrize("where, value, code, message", [
    # the commutator with diag(1, -1) doubles the entry past the float range
    ("path", [[-1, 1.7e308], [1.7e308, 1]], 5,
     "NotEquivariant: commutator norm inf at parameter 0.0 exceeds 1.700e+300"),
    # the Gram matrix of these columns overflows, with inf - inf entries
    ("action", [[1e200, -1e200], [1e200, 1e200]], 2,
     "BadAction: matrix for element 0 not orthogonal: defect inf"),
], ids=["path", "action"])
def test_overflowing_products_fail_their_checks(where, value, code, message,
                                               monkeypatch, capsys):
    # an overflowed product has an infinite norm, never a NaN that passes
    doc = golden_job()
    if where == "path":
        doc["path"]["A"] = value
    else:
        doc["action"]["matrices"]["0"] = value
        # the action is built, and checked, when the job is parsed
        with pytest.raises(BadAction):
            parse_job(json.dumps(doc))
    assert main_error(doc, monkeypatch, capsys) == (code, message)


def test_exit_code_not_equivariant():
    doc = golden_job()
    doc["path"]["A"] = [[-1, 0.5], [0.5, 1]]
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 5
    assert "NotEquivariant" in report["error"]["message"]


def test_exit_code_incomplete_action(monkeypatch, capsys):
    doc = golden_job()
    del doc["action"]["matrices"]["1"]
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))
    code, message = main_error(doc, monkeypatch, capsys)
    assert code == 2
    assert "action.matrices[1] is missing" in message


def test_explicit_group_job(monkeypatch, capsys):
    doc = golden_job()
    doc["group"] = {
        "order": 2,
        "mult_table": [[0, 1], [1, 0]],
        "classes": [[0], [1]],
        "char_table": [
            {"name": "trivial", "degree": 1, "schur": 1, "values": [1, 1]},
            {"name": "sign", "degree": 1, "schur": 1, "values": [1, -1]},
        ],
    }
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 0
    assert report["sfl_G"] == {"trivial": 1, "sign": -1}
    doc["group"]["classes"] = [[0, 1]]
    with pytest.raises(TableMismatch):
        parse_job(json.dumps(doc))
    code, message = main_error(doc, monkeypatch, capsys)
    assert code == 2
    assert "TableMismatch" in message


def test_degree_past_the_float_range_exits_2(monkeypatch, capsys):
    # the degree is compared with the value at the identity, a float
    doc = scalar_job()
    doc["group"] = {"order": 1, "mult_table": [[0]], "classes": [[0]],
                    "char_table": [{"name": "trivial", "degree": 10**400,
                                    "schur": 1, "values": [1]}]}
    with pytest.raises(BadCharacterTable, match="value at identity 1.0 != "):
        parse_job(json.dumps(doc))
    code, message = main_error(doc, monkeypatch, capsys)
    assert code == 2
    assert message.startswith("BadCharacterTable: trivial: value at identity")


def test_oracle_command():
    doc = golden_job()
    doc["command"] = "oracle"
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 0
    assert set(report) == FLOW_KEYS
    assert_plain(report)
    assert report["sfl"] == 0
    assert report["sfl_G"] == {"trivial": 1, "sign": -1}
    assert report["phi"] == [0, 1]
    assert report["partition"] is None
    assert report["crossings"] is None


def assert_same_flow(report, doc):
    # sfl, partition and crossings are those of the sfl job on the same path
    flow, code = run(parse_job(json.dumps(dict(doc, command="sfl"))))
    assert code == 0
    for key in ("sfl", "partition", "crossings"):
        assert report[key] == flow[key]


def test_maslov_command():
    doc = golden_job()
    doc["command"] = "maslov"
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 0
    assert set(report) == FLOW_KEYS
    assert_plain(report)
    assert report["sfl_G"] == {"trivial": 1, "sign": -1}
    assert_same_flow(report, doc)


def test_cogredient_command():
    doc = golden_job()
    doc["command"] = "cogredient"
    doc["path"] = {"kind": "affine", "A": [[3, 0], [0, -1]],
                   "B": [[0, 0], [0, 2]]}
    doc["tail"] = {"plus": True}
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 0
    assert set(report) == FLOW_KEYS | {"parametrix"}
    assert_plain(report)
    assert_same_flow(report, doc)
    assert report["parametrix"]["sign"] == 1
    assert report["parametrix"]["samples"] == OPTION_DEFAULTS["samples"]
    assert report["parametrix"]["max_residual"] <= 1e-9 * (1.0 + 3.0)
    # the crossing entry -1 + 2*lam sits on the sign line of the action
    assert report["sfl_G"] == {"trivial": 0, "sign": 1}


def test_verify_command():
    doc = {
        "command": "verify",
        "group": {"preset": "cyclic", "n": 2},
        "action": {"matrices": {"0": [[1, 0], [0, 1]],
                                "1": [[1, 0], [0, -1]]}},
        "options": {"instances": 2, "seed": 9},
    }
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 0
    assert report["passed"] is True
    assert report["seed"] == 9
    assert sorted(report["axioms"]) == ["concatenation", "conjugation",
                                        "direct_sum", "reparametrization",
                                        "vanishing"]
    for suite in report["axioms"].values():
        assert suite == {"instances": 2, "passed": True, "failures": []}


def test_reports_are_byte_identical():
    doc = json.dumps(golden_job())
    a = emit_report(run(parse_job(doc))[0])
    b = emit_report(run(parse_job(doc))[0])
    assert a == b
    assert a.endswith("\n")
    json.loads(a)  # emitted text is well formed


def decreasing_knots_job(command) -> dict:
    doc = scalar_job(command)
    doc["path"] = {"kind": "piecewise_linear", "knots": [0, 0.6, 0.3, 1],
                   "samples": [[[-1]], [[0.5]], [[1]], [[2]]]}
    doc["options"] = {"instances": 1}
    return doc


def test_verify_never_builds_its_path(monkeypatch, capsys):
    # verify checks the path's schema and size only, so knots out of order
    # do not fail it; the same path fails an sfl job when it is built
    text = json.dumps(decreasing_knots_job("verify"))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main([]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert main_error(decreasing_knots_job("sfl"), monkeypatch, capsys) == (
        2, "OutOfRange: knots must be strictly increasing")


def test_schema_errors_come_before_construction_errors(monkeypatch, capsys):
    # a table that is no group fails only when the group is built, after
    # the tail flags further down the document were checked
    doc = explicit_job()
    doc["group"]["mult_table"] = [[0, 0], [0, 0]]
    with pytest.raises(NonGroup):
        parse_job(json.dumps(doc))
    doc["tail"] = {"plus": 1}
    assert main_error(doc, monkeypatch, capsys) == (
        2, "SchemaError: tail.plus must be a boolean")


def test_main_reports_an_unexpected_construction_error(monkeypatch, capsys):
    # anything raised while the job's objects are built gets a report, and
    # an error outside the contract exits 1 as it does in run
    def broken(*args, **kwargs):
        raise RuntimeError("no group")

    monkeypatch.setattr(cli, "build_group", broken)
    assert main_error(golden_job(), monkeypatch, capsys) == (
        1, "RuntimeError: no group")


def test_run_never_raises_on_garbage_jobspec():
    # unexpected internal failures map to exit 1 with an error report
    job = JobSpec("sfl", {"preset": "trivial"}, {"matrices": {}},
                  {"kind": "affine", "A": [[1]], "B": [[0]]},
                  {"plus": False, "minus": False}, dict(OPTION_DEFAULTS))
    report, code = run(job)
    assert code in (1, 2)
    assert "message" in report["error"]


# --- entry point ------------------------------------------------------------------


def test_main_with_files(tmp_path):
    src = tmp_path / "job.json"
    dst = tmp_path / "report.json"
    src.write_text(json.dumps(golden_job()))
    code = main(["--input", str(src), "--output", str(dst)])
    assert code == 0
    report = json.loads(dst.read_text())
    assert report["sfl_G"] == {"trivial": 1, "sign": -1}


def test_main_command_override(tmp_path):
    src = tmp_path / "job.json"
    dst = tmp_path / "report.json"
    src.write_text(json.dumps(golden_job()))
    code = main(["--input", str(src), "--output", str(dst),
                 "--command", "oracle"])
    assert code == 0
    assert json.loads(dst.read_text())["partition"] is None


def test_main_seed_override(tmp_path):
    doc = {
        "command": "verify",
        "group": {"preset": "trivial"},
        "action": {"matrices": {"0": [[1]]}},
        "options": {"instances": 1},
    }
    src = tmp_path / "job.json"
    dst = tmp_path / "report.json"
    src.write_text(json.dumps(doc))
    code = main(["--input", str(src), "--output", str(dst), "--seed", "5"])
    assert code == 0
    assert json.loads(dst.read_text())["seed"] == 5


@pytest.mark.parametrize("argv, message", [
    (["--command", "sfl"], "job.path is required for command 'sfl'"),
    (["--seed", "-1"], "options.seed must be in 0..inf, got -1")],
    ids=["command-without-path", "negative-seed"])
def test_main_overrides_are_validated(argv, message, monkeypatch, capsys):
    # an override goes through the same checks as the document's own value
    doc = scalar_job("verify")
    del doc["path"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == {"code": 2, "message": f"SchemaError: {message}"}


@pytest.mark.parametrize("argv, message", [
    (["--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["--command", "bogus"], "argument --command: invalid choice: 'bogus'"),
    (["--bogus"], "unrecognized arguments: --bogus")],
    ids=["seed-not-int", "unknown-command", "unknown-flag"])
def test_main_argument_errors_print_a_report(argv, message, monkeypatch,
                                             capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(scalar_job())))
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["code"] == 2
    assert report["error"]["message"].startswith(f"InvalidInput: {message}")


def test_main_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "usage: sflow" in capsys.readouterr().out


def test_main_missing_input_file(tmp_path, capsys):
    code = main(["--input", str(tmp_path / "nope.json")])
    assert code == 2
    out = capsys.readouterr().out
    assert json.loads(out)["error"]["code"] == 2


def test_main_undecodable_input_file(tmp_path, capsys):
    src = tmp_path / "job.json"
    src.write_bytes(b"\xff{}")
    assert main(["--input", str(src)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["message"].startswith("UnicodeDecodeError: ")


def test_main_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(scalar_job())))
    code = main([])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["sfl"] == 1


def test_main_malformed_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("not json"))
    code = main([])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert "ParseError" in report["error"]["message"]


def test_cli_subprocess_smoke():
    # a bare environment, plus the directory the tested package was imported
    # from, so the child runs the same sflow whether or not it is installed
    src = Path(sflow.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "sflow.cli"],
        input=json.dumps(scalar_job()), capture_output=True, text=True,
        timeout=120, check=False,
        env={"PATH": "/usr/bin:/bin", "SFLOW_LOG": "info",
             "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sfl"] == 1
    assert "sflow INFO" in proc.stderr


_LOADED_AFTER_EACH_JOB = """
import json, sys
import sflow.cli as cli

optional = ("sflow.cogredient", "sflow.maslov", "sflow.sampling", "argparse")
for doc in json.load(sys.stdin):
    report, code = cli.run(cli.parse_job(json.dumps(doc)))
    print(json.dumps([code, [m for m in optional if m in sys.modules]]))
"""


def test_a_job_imports_only_the_modules_its_command_runs():
    # started as test_cli_subprocess_smoke starts the CLI: a fresh process
    # with a bare environment, which here also leaves no bytecode cache
    src = Path(sflow.__file__).resolve().parent.parent
    jobs = [scalar_job("sfl"), scalar_job("oracle"), scalar_job("verify"),
            dict(scalar_job("cogredient"), tail={"plus": True})]
    jobs[2]["options"] = {"instances": 1}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_EACH_JOB],
        input=json.dumps(jobs), capture_output=True, text=True, timeout=120,
        check=False, env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src),
                          "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line) for line in proc.stdout.splitlines()] == [
        [0, []],
        [0, []],
        [0, ["sflow.sampling"]],
        [0, ["sflow.cogredient", "sflow.sampling"]],
    ]


def test_every_exported_name_is_its_home_modules_object():
    # import sflow resolves its names on first use, each from its module
    names = {}
    exec("from sflow import *", names)
    assert sorted(set(names) - {"__builtins__"}) == sorted(sflow.__all__)
    for name in sflow.__all__:
        value = getattr(sflow, name)
        assert names[name] is value
        if isinstance(value, type(sflow)):
            assert value is sys.modules[f"sflow.{name}"]
        else:
            assert vars(sys.modules[value.__module__])[name] is value
    assert set(sflow.__all__) <= set(dir(sflow))
    with pytest.raises(AttributeError):
        sflow.no_such_name  # noqa: B018


@pytest.mark.parametrize("entry", [1.7e308, -1.7e308, 1e308])
@pytest.mark.parametrize("tail", [{"plus": True, "minus": False},
                                  {"plus": False, "minus": True}])
def test_cogredient_huge_entries_fail_without_overflow(entry, tail):
    # every symmetrization on the normal-form route halves before it adds,
    # so the job ends in a certification error, not in a RuntimeWarning
    doc = scalar_job("cogredient")
    doc["path"] = {"kind": "affine", "A": [[entry]], "B": [[0]]}
    doc["tail"] = tail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, code = run(parse_job(json.dumps(doc)))
    assert code == 4, report["error"]
    assert "non-finite" not in report["error"]["message"]


def test_max_depth_above_the_cap_exits_2(monkeypatch, capsys):
    doc = scalar_job()
    doc["options"] = {"max_depth": 54}
    with pytest.raises(OutOfRange):
        parse_job(json.dumps(doc))
    code, message = main_error(doc, monkeypatch, capsys)
    assert code == 2
    assert "max_depth 54 exceeds 53" in message


def test_a_negative_max_depth_exits_2_as_a_negative_depth(monkeypatch, capsys):
    doc = scalar_job()
    doc["options"] = {"max_depth": -1}
    with pytest.raises(OutOfRange, match="^depths must be nonnegative$"):
        parse_job(json.dumps(doc))
    code, message = main_error(doc, monkeypatch, capsys)
    assert code == 2
    assert "depths must be nonnegative" in message
    assert "exceeds" not in message


@pytest.mark.parametrize("preset", ["cyclic", "dihedral"])
@pytest.mark.parametrize("n", [0, 128, 129, 100_000, 10 ** 40])
def test_preset_group_size_outside_its_range_exits_2(preset, n, monkeypatch,
                                                     capsys):
    # a table of order n or 2n is built and checked in time cubic in n, so n
    # is capped; at the cap the group is built and the action is short
    doc = golden_job()
    doc["group"] = {"preset": preset, "n": n}
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))
    code, message = main_error(doc, monkeypatch, capsys)
    assert code == 2
    assert message == ("SchemaError: action.matrices[2] is missing" if n == 128
                       else f"SchemaError: group.n must be in 1..128, got {n}")


def test_max_depth_at_the_cap_fails_on_the_leftmost_segment():
    doc = scalar_job()
    doc["action"] = {"matrices": {"0": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}
    doc["path"] = {"kind": "affine", "A": [[0.3, 0, 0], [0, 0.7, 0], [0, 0, 1e7]],
                   "B": [[0, 0, 0]] * 3}
    doc["tail"] = {"plus": True, "minus": True}
    doc["options"] = {"max_depth": 53}
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 4
    assert report["error"]["message"] == (
        "CertificationFailed: no certified level on "
        "[0.0, 1.1102230246251565e-16] at depth 53: best margin "
        "0.19999989492736478, required 0.20000002")


def test_repeated_main_calls_log_each_error_once(monkeypatch, capsys):
    # every main() call sets up logging; a handler added by each call would
    # print each record once more per earlier call
    from sflow import cli

    monkeypatch.setattr(cli.logger, "handlers", [])
    monkeypatch.delenv("SFLOW_LOG", raising=False)
    for i in range(1, 4):
        monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
        assert main([]) == 2
        err = capsys.readouterr().err
        assert err.count("ParseError") == 1, (i, err)
        assert err.startswith("sflow ERROR: ParseError")
    assert len(cli.logger.handlers) == 1
    # the handler writes to sys.stderr as it is now, not to the stream that
    # was sys.stderr when main() installed it
    late = io.StringIO()
    monkeypatch.setattr(sys, "stderr", late)
    cli._failure(ParseError("late"), 2)
    assert late.getvalue() == "sflow ERROR: ParseError: late\n"


def _cogredient_one_by_one(job):
    # the steps of a cogredient job one after the other, each sample on its
    # own: the parametrix, the direct flow, each sample's solve and
    # equivariance check, then the negative-space class of each end, and
    # their difference against the direct class; the error message, or None
    opts = job.opts
    try:
        px = cogredient.parametrix(job.path, samples=job.options["samples"])
        direct = sfl_G(job.path, job.action, job.table, opts)
        samples = px.sign * np.eye(job.path.dim) + np.array(px.K)
        for lam, s in zip(px.lambdas, samples):
            _, _, norm, _, _, _, errors = eigendata_each(s[None],
                                                         opts.tol_cluster)
            raise_first([errors.get(0)])
            tol = EQUIVARIANCE_FACTOR * (1.0 + norm[0])
            defect = equivariance_defects(s[None], job.action, [tol])[0]
            if defect > tol:
                raise NotEquivariant(f"commutator norm {defect:.3e} at sample "
                                     f"{lam} exceeds {tol:.3e}")
        start, end = [morse_classes(samples[[j]], job.action, job.table,
                                    tol_cluster=opts.tol_cluster,
                                    tol_invert=opts.tol_invert)[0]
                      for j in (0, -1)]
        if direct.sfl_G != start - end:
            raise ConsistencyFailure(
                "flow changed under the congruence: "
                f"{direct.sfl_G.as_dict()} vs {(start - end).as_dict()}")
        px.max_residual()
    except SflowError as e:
        return f"{type(e).__name__}: {e}"
    return None


def _with_sample(px, j, sample):
    # the parametrix with its normal form sign I + K[j] replaced by sample
    k = list(px.K)
    k[j] = sample - px.sign * np.eye(px.path.dim)
    return dataclasses.replace(px, K=tuple(k))


def _transformed_raises(px):
    # a normal-form sample that cannot be solved
    return _with_sample(px, 1, np.full((px.path.dim,) * 2, np.nan))


def _transformed_singular(px):
    # a normal form that is singular at 0
    return _with_sample(px, 0, np.zeros((px.path.dim,) * 2))


@pytest.mark.parametrize("transformed", [None, _transformed_raises,
                                         _transformed_singular])
def test_cogredient_errors_come_in_the_order_of_sequential_flows(transformed,
                                                                  monkeypatch):
    # the parametrix fails first, then the direct flow, then the normal
    # form's samples in order, then its ends, exactly as one step after the
    # other; transformed, when given, breaks the normal form of each
    # parametrix
    if transformed is not None:
        real = cogredient.parametrix
        monkeypatch.setattr(cogredient, "parametrix",
                            lambda *a, **kw: transformed(real(*a, **kw)))
    paths = [
        {"kind": "piecewise_linear", "knots": [0, 0.4, 1],
         "samples": [[[3, 0], [0, -1]], [[-2, 0], [0, 0.5]],
                     [[-1, 0], [0, 2]]]},
        # a kernel vector at the start
        {"kind": "affine", "A": [[0, 0], [0, -1]], "B": [[1, 0], [0, 2]]},
    ]
    outcomes = set()
    for path in paths:
        for tail in ({"plus": True}, {"minus": True},
                     {"plus": True, "minus": True}):
            for options in ({"max_depth": 1}, {"max_depth": 3}, {},
                            {"samples": 2}):
                doc = dict(golden_job(), command="cogredient", path=path,
                           tail=tail, options=options)
                job = parse_job(json.dumps(doc))
                report, code = run(job)
                error = report["error"]
                assert (error and error["message"]) == (
                    _cogredient_one_by_one(job) or None)
                assert code == (error["code"] if error else 0)
                outcomes.add(error["message"].split(":")[0] if error else "ok")
    want_kinds = {"CertificationFailed", "EndpointNotInvertible", "NotFSplus",
                  "CoverFailure"}
    assert want_kinds <= outcomes
    assert ("ok" in outcomes) == (transformed is None)
    assert ("EigenFailure" in outcomes) == (transformed is _transformed_raises)
    assert ("NotInvertible" in outcomes) == (
        transformed is _transformed_singular)


def test_a_cogredient_job_certifies_one_flow(monkeypatch):
    requests = []
    real = flow.sfl_G_each

    def each(reqs, *args, **kwargs):
        requests.append(len(reqs))
        return real(reqs, *args, **kwargs)

    monkeypatch.setattr(flow, "sfl_G_each", each)
    for tail in ({"plus": True}, {"minus": True}):
        doc = dict(golden_job(), command="cogredient", tail=tail)
        report, code = run(parse_job(json.dumps(doc)))
        assert code == 0 and report["sfl_G"] == {"trivial": 1, "sign": -1}
    assert requests == [1, 1]


def test_a_non_equivariant_sample_between_the_knots_exits_5(monkeypatch):
    # a normal-form sample whose equivariance is broken where no knot or
    # midpoint of the transformed path's partition lies between its
    # neighbours: the flow of the transformed path never reads it, and
    # agrees with the direct flow, but the check of every sample refuses it
    doc = dict(golden_job(), command="cogredient", tail={"plus": True},
               options={"samples": 33})
    job = parse_job(json.dumps(doc))
    px = cogredient.parametrix(job.path, samples=33)
    knots = np.array(sfl_G(px.transformed_path(), job.action,
                           job.table).partition.knots)
    seen = np.concatenate([knots, (knots[1:] + knots[:-1]) / 2.0])
    lam = px.lambdas
    free = [j for j in range(1, len(lam) - 1)
            if not ((seen > lam[j - 1]) & (seen < lam[j + 1])).any()]
    assert free
    j = free[0]
    # the order-two element is diag(1, -1): this sample's commutator with
    # it has two-norm 2e-3
    broken = _with_sample(px, j, px.sign * np.eye(2) + px.K[j]
                          + 1e-3 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    direct = sfl_G(job.path, job.action, job.table)
    assert sfl_G(broken.transformed_path(), job.action,
                 job.table).sfl_G == direct.sfl_G
    monkeypatch.setattr(cogredient, "parametrix", lambda *a, **kw: broken)
    report, code = run(job)
    assert code == 5
    assert report["error"]["message"].startswith(
        f"NotEquivariant: commutator norm 2.000e-03 at sample {lam[j]} ")


def _shaped_block(action, rng, shape, scale):
    # an equivariant block with an eigenvalue within a relative 1e-12 to
    # 1e-7 of 0 (a multiple of I moves it there), with its spectrum below
    # 0.8 in magnitude pressed toward 0 (clusters near 0), or as drawn
    b = random_equivariant_symmetric(action, rng)
    w, v = np.linalg.eigh(b)
    if shape == "near_singular":
        delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -7.0)
        x0 = w[np.abs(w).argmin()]
        b = b - (x0 - delta * (1.0 + np.abs(w).max())) * np.eye(len(b))
    elif shape == "cluster":
        w = np.where(np.abs(w) < 0.8, w * 10.0 ** rng.uniform(-11.0, -6.0), w)
        b = reynolds_symmetric(action, (v * w) @ v.T)
    return scale * b


def _second_flow_code(job):
    # the exit code of the route that certified the flow of the transformed
    # path beside the direct flow and compared their classes
    try:
        px = parametrix(job.path, samples=job.options["samples"])
        direct = sfl_G(job.path, job.action, job.table, job.opts)
        moved = sfl_G(px.transformed_path(), job.action, job.table, job.opts)
        if direct.sfl_G != moved.sfl_G:
            raise ConsistencyFailure("flow changed under the congruence")
        px.max_residual()
    except SflowError as e:
        return e.exit_code
    return 0


_SHAPES = st.sampled_from(["near_singular", "cluster", "plain"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([("trivial", 1), ("cyclic", 3), ("dihedral", 3),
                        ("dihedral", 4)]),
       st.integers(1, 4), _SHAPES, _SHAPES, st.integers(0, 12),
       st.integers(-4, -1), st.sampled_from(["plus", "minus"]),
       st.integers(2, 8), st.integers(0, 2 ** 32 - 1))
def test_cogredient_exits_as_the_flow_of_the_transformed_path(
        preset, dim, start_shape, end_shape, scale, slow, tail, samples,
        seed):
    # near-singular ends, large norms, clusters near 0 and few samples: the
    # check of the normal form's samples exits as the second flow did; the
    # path ends 10**slow of the way to its drawn end, so that few samples
    # can cover it
    rng = np.random.default_rng(seed)
    table, action = preset_action(*preset, dim, rng, conjugate=True)
    start, end = (_shaped_block(action, rng, shape, 10.0 ** scale)
                  for shape in (start_shape, end_shape))
    end = start + 10.0 ** slow * (end - start)
    path = OperatorPath.affine(start, end - start, **{f"{tail}_tail": True})
    job = JobSpec("cogredient", table, action, path, FlowOptions(),
                  dict(OPTION_DEFAULTS, samples=samples))
    assert run(job)[1] == _second_flow_code(job)


def _flow_class_bounding_every_sample(px, action, table, *, tol_cluster,
                                      tol_invert):
    # Parametrix.flow_class as it bounded the solver error of every sample,
    # though it reads that bound at the two ends only: the reference for
    # every report and exit code of the check of the normal form
    from sflow.cogredient import _raise_first_fault
    from sflow.operators import _negative_classes

    samples = px.sign * np.eye(px.path.dim) + np.array(px.K)
    w, v, norm, tol, err, ok, errors = eigendata_each(samples, tol_cluster)
    scale = EQUIVARIANCE_FACTOR * np.where(ok, 1.0 + norm, np.inf)
    defects = equivariance_defects(samples, action, scale)
    _raise_first_fault(defects > scale, errors, lambda k: NotEquivariant(
        f"commutator norm {defects[k]:.3e} at sample {px.lambdas[k]} "
        f"exceeds {scale[k]:.3e}"))
    ends = [0, -1]
    start, end = _negative_classes(action, table, w[ends], v[ends],
                                   norm[ends], tol[ends], err[ends],
                                   tol_invert)
    return start - end


@pytest.mark.parametrize("j", [0, 4, 8])
@pytest.mark.parametrize("factor", [1e300, 6e307, 1.7e308])
@pytest.mark.parametrize("shape", ["as_drawn", "flat", "off_equivariant"])
def test_normal_form_samples_near_the_largest_double_exit_as_when_every_sample_was_bounded(
        j, factor, shape, monkeypatch):
    # one normal-form sample scaled toward the largest double: its solve may
    # overflow, its error bound is no longer taken unless it is an end, and
    # the report and exit code stay those of bounding every sample
    doc = dict(golden_job(), command="cogredient", tail={"plus": True},
               options={"samples": 9})
    job = parse_job(json.dumps(doc))
    px = cogredient.parametrix(job.path, samples=9)
    sample = px.sign * np.eye(2) + px.K[j]
    if shape == "flat":
        sample = np.full((2, 2), 1.0)  # eigenvalue 2: overflows past 0.9e308
    elif shape == "off_equivariant":
        sample = sample + 1e-3 * np.array([[0.0, 1.0], [1.0, 0.0]])
    big = _with_sample(px, j, factor * sample)
    monkeypatch.setattr(cogredient, "parametrix", lambda *a, **kw: big)
    got = run(job)
    monkeypatch.setattr(type(big), "flow_class",
                        _flow_class_bounding_every_sample)
    assert got == run(job)


# --- matrix entries ------------------------------------------------------------


def _walked_matrix(raw, where):
    # the entry-by-entry check _matrix had before its one-pass fast path:
    # the reference for every message and every converted bit
    import math

    def finite(x):
        try:
            return math.isfinite(x)
        except OverflowError:
            return False

    if (not isinstance(raw, list) or not raw
            or not all(isinstance(r, list) for r in raw)):
        raise SchemaError(f"{where} must be a non-empty array of arrays")
    out = []
    for i, row in enumerate(raw):
        if len(row) != len(raw):
            raise SchemaError(f"{where}[{i}] has length {len(row)}, "
                              f"expected {len(raw)}")
        for x in row:
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise SchemaError(f"{where}[{i}] contains a non-number")
            if not finite(x):
                raise SchemaError(f"{where}[{i}] contains a non-finite number")
        out.append([float(x) for x in row])
    return out


_BAD_ENTRIES = [True, False, "1.5", "nan", None, [1.0], [], {}, 10 ** 400,
                -(10 ** 400), float("nan"), float("inf"), -float("inf"), 1e400]


def _matrix_corpus():
    # well-formed matrices, with integers past 2**53 and near the top of the
    # float range, and each bad entry at the first, a middle and the last
    # place of one; ragged, empty and non-list shapes
    rng = np.random.default_rng(3)
    good = [[[1, 2.5], [-0.0, 7]], [[2 ** 53 + 1, -(2 ** 63) - 5],
                                    [10 ** 30 + 7, 1.7e308]], [[0]]]
    good += [rng.standard_normal((n, n)).tolist() for n in (1, 3, 5)]
    yield from good
    for bad in _BAD_ENTRIES:
        for n in (1, 3):
            for i, j in {(0, 0), (n // 2, n - 1), (n - 1, n - 1)}:
                m = np.arange(n * n, dtype=float).reshape(n, n).tolist()
                m[i][j] = bad
                yield m
    yield from [[], [[]], [[1.0], [2.0]], [[1.0, 2.0], [3.0]],
                [[1.0, 2.0], [3.0, 4.0, 5.0]], [[1.0, True], [3.0]],
                [[1.0, 2.0], "row"], "matrix", None, [[1.0, 2.0], (3.0, 4.0)]]


def test_matrix_fast_path_keeps_the_walks_messages_and_bits():
    kinds = set()
    for raw in _matrix_corpus():
        try:
            want = np.array(_walked_matrix(raw, "path.A"))
        except SchemaError as e:
            want = str(e)
        try:
            got = cli._matrix(raw, "path.A")
        except SchemaError as e:
            got = str(e)
        kinds.add(type(want))
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == float and np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
    assert kinds == {str, np.ndarray}
