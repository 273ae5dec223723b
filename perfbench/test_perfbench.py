"""Tests of the benchmark itself (not of sflow):

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import ast
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = gen.digest(gen.generate(workload, 7))
    assert gen.digest(gen.generate(workload, 7)) == first
    assert gen.digest(gen.generate(workload, 8)) != first


def _structure(text: str) -> tuple:
    """Everything about a job but its random entries; the action's character
    (traces survive the Haar conjugation) stands for its irreducible pieces."""
    doc = json.loads(text)
    path = doc.get("path", {})
    character = tuple(round(float(np.trace(m)), 9)
                      for m in doc["action"]["matrices"].values())
    return (doc["command"], json.dumps(doc["group"]), character,
            path.get("kind"), len(path.get("knots", ())),
            json.dumps(doc["tail"]))


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_seeds_change_entries_not_structure(workload):
    first = [_structure(t) for t in gen.generate(workload, 7)]
    assert [_structure(t) for t in gen.generate(workload, 8)] == first


def test_generator_imports_no_sflow():
    tree = ast.parse((HERE / "gen.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    assert not any(n == "sflow" or n.startswith("sflow.") for n in names)
    assert names <= {"__future__", "hashlib", "json", "numpy"}


@pytest.mark.parametrize("preset,n", [("trivial", 1), ("cyclic", 3),
                                      ("cyclic", 4), ("dihedral", 3),
                                      ("dihedral", 6)])
def test_realizations_follow_the_preset_element_order(preset, n):
    from sflow.groups import build_group

    group, _ = build_group(preset, n)
    action = gen.random_action(preset, n, 5, np.random.default_rng(0), True)
    for a in range(group.order):
        for b in range(group.order):
            np.testing.assert_allclose(action[a] @ action[b],
                                       action[group.mul(a, b)], atol=1e-12)


def _originals() -> dict[int, str]:
    """id -> label of every object the tracer targets, before install."""
    import sflow.cli  # noqa: F401

    out = {}
    for module_name, path, _ in tracer.SFLOW_TARGETS + tracer.NUMPY_TARGETS:
        _, _, raw = tracer._resolve(importlib.import_module(module_name), path)
        out[id(getattr(raw, "__func__", raw))] = f"{module_name}.{path}"
    for name, value in vars(sys.modules[tracer.SAMPLING_MODULE]).items():
        if (callable(value) and not name.startswith("_")
                and not isinstance(value, type)
                and value.__module__ == tracer.SAMPLING_MODULE):
            out[id(value)] = f"{tracer.SAMPLING_MODULE}.{name}"
    return out


def test_tracer_leaves_no_traced_name_unwrapped():
    originals = _originals()
    t = tracer.Tracer().install()
    try:
        assert t.absent == []
        unwrapped = [f"{mod.__name__}.{name} -> {originals[id(value)]}"
                     for mod in tracer.sflow_modules()
                     for name, value in vars(mod).items()
                     if id(value) in originals]
        wrappers = {id(w) for w in t.wrapped.values()}
        traced_names = {label.rsplit(".", 1)[1] for label in originals.values()
                        if label.startswith("sflow.")}
        unwrapped += [f"{mod.__name__}.{name}"
                      for mod in tracer.sflow_modules()
                      for name, value in vars(mod).items()
                      if name in traced_names and callable(value)
                      and not isinstance(value, type)
                      and id(value) not in wrappers]
        for module_name, path, _ in tracer.SFLOW_TARGETS:
            if "." in path:
                _, _, raw = tracer._resolve(sys.modules[module_name], path)
                if id(getattr(raw, "__func__", raw)) not in wrappers:
                    unwrapped.append(f"{module_name}.{path}")
        assert unwrapped == []
    finally:
        t.uninstall()
    # uninstall restores every binding
    import sflow.operators

    assert id(sflow.operators.jacobi_eigh) in originals


def test_tracer_counts_program_work_only():
    import sflow.cli as cli
    from probe import WARMUP_JOB

    t = tracer.Tracer().install()
    try:
        np.linalg.norm(np.eye(3), 2)  # the benchmark's own call
        assert dict(t.calls) == {}
        report, code = cli.run(cli.parse_job(WARMUP_JOB))
        cli.emit_report(report)
    finally:
        t.uninstall()
    assert code == 0
    metrics = tracer.layer_metrics(tracer.merge_counters([t.counters()]))
    assert metrics["flow.sfl_G.calls"][0] == 1
    assert metrics["eig.calls"][0] > 0
    assert metrics["flow.segments"][0] == len(report["partition"]["knots"]) - 1
    assert metrics["cli.bytes_out"][0] == len(cli.emit_report(report))
    assert metrics["linalg.norm2.calls"][0] > 0
    spans = list(t.spans())
    assert all(s[2] <= s[3] for s in spans)
    assert all(s[4] < s[0] for s in spans)  # parents open before children


def test_tracer_reports_a_deleted_name_as_absent(monkeypatch):
    monkeypatch.setattr(tracer, "SFLOW_TARGETS", tracer.SFLOW_TARGETS
                        + (("sflow._eig", "no_such_solver", "eig"),))
    t = tracer.Tracer().install()
    t.uninstall()
    assert t.absent == ["sflow._eig.no_such_solver"]


@pytest.mark.parametrize("n", [1, 5, 10, 11, 12, 37, 100, 1000])
def test_tail_percentile_has_ten_samples_beyond(n):
    k = run.tail_rank(n)
    if n >= 11:
        assert n - 1 - k >= run.TAIL_BEYOND  # at least ten beyond it
        assert n - 1 - (k + 1) < run.TAIL_BEYOND  # the next one up has fewer
    else:
        assert k == n - 1
    value, pct = run.tail([float(i) for i in range(n)])
    assert value == float(k) and 0.0 < pct <= 100.0


def test_job_time_is_the_upper_quartile_of_its_repetitions():
    results = [(0, t, 0, "") for t in (5.0, 1.0, 4.0, 2.0, 3.0)]
    results.append((1, 7.0, 0, ""))
    assert run.job_seconds(results) == [4.0, 7.0]


def test_closed_loop_finishes_a_whole_pass():
    results, _ = run.closed_loop(["a", "b", "c"], lambda seq, text: (0, text),
                                 seconds=0.0)
    assert [(r[0], r[3]) for r in results] == [(0, "a"), (1, "b"), (2, "c")]


def test_reference_time_is_the_median_of_neighbouring_samples():
    ref = run.Reference()
    ref.seqs = [0, 10, 20, 30, 40, 50]
    ref.seconds = [9.0, 1.0, 2.0, 3.0, 4.0, 8.0]
    assert ref.local(25) == 3.0  # samples at 0..40 around the one at 20
    assert ref.local(0) == 2.0  # samples at 0..20
    assert ref.local(99) == 4.0  # samples at 30..50
    assert 0.0 < run.reference_seconds() < 1.0
