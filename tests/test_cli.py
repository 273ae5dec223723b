"""Job parsing, report shapes, exit codes, determinism, the entry point."""

import copy
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import sflow
from sflow.cli import (
    OPTION_DEFAULTS,
    JobSpec,
    emit_report,
    main,
    parse_job,
    run,
)
from sflow.errors import DimensionMismatch, ParseError, SchemaError


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


# --- parsing -----------------------------------------------------------------


def test_parse_fills_defaults():
    job = parse_job(json.dumps(scalar_job()))
    assert job.command == "sfl"
    assert job.tail == {"plus": False, "minus": False}
    assert job.options == OPTION_DEFAULTS
    assert job.options is not OPTION_DEFAULTS


def test_parse_round_trip():
    job = parse_job(json.dumps(golden_job()))
    again = parse_job(job.to_document())
    assert again == job


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


def test_parse_rejects_non_orthogonal_action():
    doc = golden_job()
    doc["action"]["matrices"]["1"] = [[1, 0], [0, -2]]
    with pytest.raises(SchemaError) as err:
        parse_job(json.dumps(doc))
    assert "action.matrices[1] not orthogonal" in str(err.value)


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
    assert job.tail == {"plus": True, "minus": True}
    doc["tail"] = {"plus": "yes"}
    with pytest.raises(SchemaError):
        parse_job(json.dumps(doc))


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


def test_exit_code_certification_failed():
    doc = scalar_job()
    doc["path"] = {"kind": "piecewise_linear", "knots": [0.0, 0.5, 1.0],
                   "samples": [[[3]], [[-3]], [[3]]]}
    doc["tail"] = {"plus": True}
    doc["options"] = {"max_depth": 0}
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 4
    assert "CertificationFailed" in report["error"]["message"]


def test_exit_code_nan_block():
    # a NaN block has no spectrum; it must fail the eigensolve with exit 4,
    # never carry NaN eigenvalues into a report or exit 1
    doc = scalar_job()
    doc["action"] = {"matrices": {"0": [[1, 0], [0, 1]]}}
    doc["path"] = {"kind": "affine", "A": [[float("nan"), 0], [0, 1]],
                   "B": [[1, 0], [0, 1]]}
    report, code = run(parse_job(json.dumps(doc)))
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


def test_exit_code_not_equivariant():
    doc = golden_job()
    doc["path"]["A"] = [[-1, 0.5], [0.5, 1]]
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 5
    assert "NotEquivariant" in report["error"]["message"]


def test_exit_code_incomplete_action():
    doc = golden_job()
    del doc["action"]["matrices"]["1"]
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 2
    assert "action.matrices[1] is missing" in report["error"]["message"]


def test_explicit_group_job():
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
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 2
    assert "TableMismatch" in report["error"]["message"]


def test_oracle_command():
    doc = golden_job()
    doc["command"] = "oracle"
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 0
    assert report["sfl"] == 0
    assert report["sfl_G"] == {"trivial": 1, "sign": -1}
    assert report["phi"] == [0, 1]
    assert report["partition"] is None
    assert report["crossings"] is None


def test_maslov_command():
    doc = golden_job()
    doc["command"] = "maslov"
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 0
    assert report["sfl_G"] == {"trivial": 1, "sign": -1}
    assert report["partition"] is not None


def test_cogredient_command():
    doc = golden_job()
    doc["command"] = "cogredient"
    doc["path"] = {"kind": "affine", "A": [[3, 0], [0, -1]],
                   "B": [[0, 0], [0, 2]]}
    doc["tail"] = {"plus": True}
    report, code = run(parse_job(json.dumps(doc)))
    assert code == 0
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


def test_main_missing_input_file(tmp_path, capsys):
    code = main(["--input", str(tmp_path / "nope.json")])
    assert code == 2
    out = capsys.readouterr().out
    assert json.loads(out)["error"]["code"] == 2


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
