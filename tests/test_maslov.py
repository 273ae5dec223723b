"""Lagrangian frames, crossing forms against the horizontal, the doubled path."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sflow import flow
from sflow._eig import jacobi_eigh
from sflow.cli import parse_job, run
from sflow.errors import (
    NotLagrangian,
    NotOrthonormal,
    NotSymmetric,
    TailMismatch,
)
from sflow.flow import sfl_G
from sflow.groups import OrthogonalAction, build_group, multiplicity_vector
from sflow.groups import character_of_subspace
from sflow.maslov import (
    LagrangianFrame,
    fredholm_pair_dims,
    graph_lagrangian,
    horizontal_lagrangian,
    maslov_index_G,
    maslov_operator_spectrum,
    z2_example,
)
from sflow.operators import OperatorPath
from sflow.sampling import (
    identity_action,
    preset_action,
    random_equivariant_path,
    reynolds_symmetric,
)


# --- frames ------------------------------------------------------------------


def test_horizontal_is_lagrangian():
    w = horizontal_lagrangian(2)
    assert w.half_dim == 2
    assert np.allclose(w.frame, np.vstack([np.eye(2), np.zeros((2, 2))]))
    LagrangianFrame(w.frame)  # passes the checks again
    assert np.allclose(w.projection(), np.diag([1.0, 1.0, 0.0, 0.0]))


def test_graph_of_zero_is_horizontal():
    g = graph_lagrangian(np.zeros((2, 2)))
    assert np.allclose(g.projection(), horizontal_lagrangian(2).projection())


def test_graph_of_identity():
    g = graph_lagrangian(np.eye(1))
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(g.frame), [[r], [r]])


def test_random_graphs_are_lagrangian():
    rng = np.random.default_rng(41)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        b = rng.standard_normal((m, m))
        g = graph_lagrangian((b + b.T) / 2.0)
        assert g.half_dim == m
        LagrangianFrame(g.frame)  # passes the checks again


def test_graph_rejects_nonsymmetric():
    with pytest.raises(NotSymmetric):
        graph_lagrangian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotSymmetric):
        graph_lagrangian(np.zeros((2, 3)))


def test_frame_validation():
    with pytest.raises(NotOrthonormal):
        LagrangianFrame(np.array([[1.0], [1.0]]))
    # span(e1, e3) is orthonormal but J maps it into itself
    bad = np.zeros((4, 2))
    bad[0, 0] = 1.0
    bad[2, 1] = 1.0
    with pytest.raises(NotLagrangian):
        LagrangianFrame(bad)
    with pytest.raises(NotLagrangian):
        LagrangianFrame(np.zeros((3, 2)))  # not (2m, m)


def test_frame_is_read_only():
    w = horizontal_lagrangian(1)
    with pytest.raises(ValueError):
        w.frame[0, 0] = 2.0


# --- Fredholm pairs ---------------------------------------------------------------


def test_fredholm_pair_dims():
    w = horizontal_lagrangian(2)
    assert fredholm_pair_dims(graph_lagrangian(np.diag([2.0, 3.0])), w) == (0, 0)
    assert fredholm_pair_dims(graph_lagrangian(np.zeros((2, 2))), w) == (2, 2)
    assert fredholm_pair_dims(graph_lagrangian(np.diag([0.0, 1.0])), w) == (1, 1)


# --- window spectrum ---------------------------------------------------------------


def test_window_spectrum_is_arctan():
    spec = maslov_operator_spectrum(np.diag([-1.0, 0.0, 3.0]))
    mus = sorted(e.mu for e in spec)
    assert mus == pytest.approx([-np.pi / 4.0, 0.0, np.arctan(3.0)])
    assert all(e.multiplicity == 1 for e in spec)


def test_window_spectrum_multiplicity():
    spec = maslov_operator_spectrum(np.zeros((2, 2)))
    assert len(spec) == 1
    assert spec[0].mu == 0.0
    assert spec[0].multiplicity == 2


def test_window_vectors_span_block_eigenspaces():
    rng = np.random.default_rng(47)
    b = rng.standard_normal((4, 4))
    block = (b + b.T) / 2.0
    for e in maslov_operator_spectrum(block):
        assert np.allclose(block @ e.vectors, np.tan(e.mu) * e.vectors,
                           atol=1e-8)
    with pytest.raises(NotSymmetric):
        maslov_operator_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotSymmetric):
        maslov_operator_spectrum(np.zeros((2, 3)))


def test_window_kernel_matches_intersection():
    rng = np.random.default_rng(53)
    b = rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(b)
    block = q @ np.diag([0.0, 0.7, -2.0]) @ q.T
    block = (block + block.T) / 2.0
    at_zero = [e for e in maslov_operator_spectrum(block) if abs(e.mu) < 1e-12]
    kernel_dim = sum(e.multiplicity for e in at_zero)
    dim_int, _ = fredholm_pair_dims(graph_lagrangian(block),
                                    horizontal_lagrangian(3))
    assert kernel_dim == dim_int == 1


# --- crossing index ---------------------------------------------------------------


def test_index_of_scalar_crossing():
    group, table = build_group("trivial")
    p = OperatorPath.affine(np.array([[-1.0]]), np.array([[2.0]]))
    vr = maslov_index_G(p, identity_action(group, 1), table)
    assert vr.coeffs == (1,)


def test_index_of_constant_path_is_zero():
    group, table = build_group("trivial")
    p = OperatorPath.affine(np.diag([1.0, -2.0]), np.zeros((2, 2)))
    vr = maslov_index_G(p, identity_action(group, 2), table)
    assert vr.is_zero()


def test_index_refines_under_symmetry():
    group, table = build_group("cyclic", 2)
    action = OrthogonalAction(group, [np.eye(2), np.diag([1.0, -1.0])])
    p = OperatorPath.affine(np.diag([-1.0, 1.0]), np.diag([2.0, -2.0]))
    vr = maslov_index_G(p, action, table)
    assert vr.as_dict() == {"trivial": 1, "sign": -1}


def test_index_rejects_tails():
    group, table = build_group("trivial")
    p = OperatorPath.affine(np.eye(1), np.zeros((1, 1)), plus_tail=True)
    with pytest.raises(TailMismatch):
        maslov_index_G(p, identity_action(group, 1), table)


def _arctan_path(path):
    # the graph path's window operators, sampled: eigh at four grid points
    # per piece and arctan of each eigenvalue on the same eigenvectors,
    # joined as a piecewise-linear path
    grid = np.concatenate([np.linspace(a, b, 4, endpoint=False)
                           for a, b in zip(path.knots, path.knots[1:])]
                          + [[1.0]])
    w, v = np.linalg.eigh(path.blocks_at(grid))
    samples = (v * np.arctan(w)[:, None, :]) @ v.swapaxes(1, 2)
    return OperatorPath.piecewise_linear(
        grid, list(0.5 * samples + 0.5 * samples.swapaxes(1, 2)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([("trivial", 1), ("cyclic", 3), ("dihedral", 3)]),
       st.integers(1, 5), st.sampled_from(["affine", "pl"]),
       st.integers(0, 2 ** 32 - 1))
def test_index_equals_the_flow_of_the_arctangent_path(preset, dim, kind, seed):
    # arctan keeps each eigenvalue's sign and eigenspace, so the flow of the
    # window operators is the index read from the path of blocks
    rng = np.random.default_rng(seed)
    table, action = preset_action(*preset, dim, rng, conjugate=True)
    p = random_equivariant_path(action, rng, kind=kind)
    assert maslov_index_G(p, action, table) == sfl_G(_arctan_path(p), action,
                                                     table).sfl_G


def test_a_maslov_job_certifies_one_flow(monkeypatch):
    requests = []
    real = flow.sfl_G_each

    def each(reqs, *args, **kwargs):
        requests.append(len(reqs))
        return real(reqs, *args, **kwargs)

    monkeypatch.setattr(flow, "sfl_G_each", each)
    group, table = build_group("cyclic", 2)
    action = OrthogonalAction(group, [np.eye(2), np.diag([1.0, -1.0])])
    p = OperatorPath.affine(np.diag([-1.0, 1.0]), np.diag([2.0, -2.0]))
    assert maslov_index_G(p, action, table).as_dict() == {"trivial": 1,
                                                          "sign": -1}
    assert requests == [1]
    job = parse_job(json.dumps({
        "command": "maslov", "group": {"preset": "cyclic", "n": 2},
        "action": {"matrices": {"0": [[1, 0], [0, 1]],
                                "1": [[1, 0], [0, -1]]}},
        "path": {"kind": "affine", "A": [[-1, 0], [0, 1]],
                 "B": [[2, 0], [0, -2]]}}))
    report, code = run(job)
    assert code == 0 and report["sfl_G"] == {"trivial": 1, "sign": -1}
    assert requests == [1, 1]


# --- doubled path ------------------------------------------------------------------


def test_doubled_scalar_path():
    p = OperatorPath.affine(np.array([[-1.0]]), np.array([[2.0]]))
    report = z2_example(p)
    assert report.sfl_M == 1
    assert report.sfl_L == 0
    assert report.phi == (0, 1)
    assert report.expected == (0, 1)
    assert report.sfl_Z2.as_dict() == {"trivial": 1, "sign": -1}


def test_doubled_constant_path():
    p = OperatorPath.affine(np.array([[1.0]]), np.zeros((1, 1)))
    report = z2_example(p)
    assert report.phi == (0, 0)
    assert report.sfl_Z2.is_zero()


def test_doubled_two_dim_path():
    p = OperatorPath.affine(np.diag([-1.0, -1.0]), np.diag([2.0, 2.0]))
    report = z2_example(p)
    assert report.sfl_M == 2
    assert report.phi == (0, 2)


def test_doubled_path_rejects_tails():
    p = OperatorPath.affine(np.eye(1), np.zeros((1, 1)), minus_tail=True)
    with pytest.raises(TailMismatch):
        z2_example(p)


# --- window additivity ---------------------------------------------------------------


def test_split_window_classes_add_up():
    # classes of [-a, a], [0, a], and [-a, 0) eigenspaces telescope exactly
    rng = np.random.default_rng(59)
    group, table = build_group("cyclic", 2)
    action = OrthogonalAction(
        group, [np.eye(4), np.diag([1.0, 1.0, -1.0, -1.0])])
    for _ in range(10):
        block = reynolds_symmetric(action, rng.standard_normal((4, 4)))
        w = np.linalg.eigvalsh(block)
        if np.min(np.abs(w)) < 1e-3:
            continue
        mags = np.sort(np.abs(w))
        gaps = np.diff(mags)
        i = int(np.argmax(gaps))
        if gaps[i] < 1e-3:
            continue
        a = float((mags[i] + mags[i + 1]) / 2.0)
        w, v = jacobi_eigh(block)

        def klass(lo, hi):
            frame = v[:, (lo <= w) & (w <= hi)]
            return multiplicity_vector(character_of_subspace(action, frame),
                                       table)

        assert klass(-a, a) - klass(0.0, a) == klass(-a, 0.0)
