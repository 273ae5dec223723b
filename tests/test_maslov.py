"""Lagrangian frames, crossing forms against the horizontal, the doubled path."""

import numpy as np
import pytest

from sflow import maslov
from sflow._eig import jacobi_eigh
from sflow.errors import (
    ConsistencyFailure,
    EigenFailure,
    NotLagrangian,
    NotOrthonormal,
    NotSymmetric,
    SflowError,
    TailMismatch,
)
from sflow.flow import FlowOptions, sfl_G
from sflow.groups import OrthogonalAction, build_group, multiplicity_vector
from sflow.groups import character_of_subspace
from sflow.maslov import (
    LagrangianFrame,
    _arctan_path,
    _checked_flow,
    fredholm_pair_dims,
    graph_lagrangian,
    horizontal_lagrangian,
    maslov_index_G,
    maslov_operator_spectrum,
    z2_example,
)
from sflow.operators import OperatorPath
from sflow.sampling import identity_action, reynolds_symmetric


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


def _checked_flow_one_at_a_time(path, action, table, opts):
    # the sequence _checked_flow replaced, one flow at a time: the reference
    # for the first error raised
    if path.plus_tail or path.minus_tail:
        raise TailMismatch("graph paths live on a finite block, no tails")
    direct = sfl_G(path, action, table, opts)
    transformed = sfl_G(maslov._arctan_path(path), action, table, opts).sfl_G
    if direct.sfl_G != transformed:
        raise ConsistencyFailure("index routes disagree")
    return direct


def test_checked_flow_raises_the_error_a_one_at_a_time_run_raises(monkeypatch):
    # a singular start fails the direct flow, and its error comes before
    # that of an arctangent path that cannot be built
    group, table = build_group("cyclic", 2)
    action = OrthogonalAction(group, [np.eye(2), np.diag([1.0, -1.0])])
    crossing = OperatorPath.affine(np.diag([-1.0, 1.0]), np.diag([2.0, -2.0]))
    singular = OperatorPath.affine(np.diag([0.0, 1.0]), np.eye(2))
    real = maslov._arctan_path
    kinds = set()
    for path in (crossing, singular):
        for arctan_fails in (False, True):
            def arctan(path, fails=arctan_fails):
                if fails:
                    raise EigenFailure("no arctangent path")
                return real(path)

            monkeypatch.setattr(maslov, "_arctan_path", arctan)
            outcomes = []
            for run in (_checked_flow, _checked_flow_one_at_a_time):
                try:
                    report = run(path, action, table, FlowOptions())
                    outcomes.append(("ok", report.sfl_G, report.partition))
                except SflowError as e:
                    outcomes.append((type(e).__name__, str(e)))
            assert outcomes[0] == outcomes[1]
            kinds.add(outcomes[0][0])
    assert kinds == {"ok", "EigenFailure", "EndpointNotInvertible"}


def test_index_rejects_tails():
    group, table = build_group("trivial")
    p = OperatorPath.affine(np.eye(1), np.zeros((1, 1)), plus_tail=True)
    with pytest.raises(TailMismatch):
        maslov_index_G(p, identity_action(group, 1), table)


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


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_arctan_path_matches_one_block_at_a_time(dim):
    rng = np.random.default_rng(300 + dim)
    a = reynolds_symmetric(identity_action(build_group("trivial")[0], dim),
                           rng.standard_normal((dim, dim)))
    paths = [OperatorPath.affine(a, 3.0 * np.eye(dim) - a),
             OperatorPath.piecewise_linear(
                 [0.0, 0.3, 0.35, 1.0],
                 [a, -a, 1e3 * np.eye(dim), rng.standard_normal((dim, dim))])]
    for path in paths:
        moved = _arctan_path(path)
        grid = []
        for lo, hi in zip(path.knots, path.knots[1:]):
            grid += [lo + (hi - lo) * i / 4 for i in range(4)]
        grid.append(1.0)
        assert moved.knots.tolist() == grid
        want = []
        for lam in grid:
            w, v = jacobi_eigh(path.block_at(lam))
            out = (v * np.arctan(w)) @ v.T
            out = 0.5 * out + 0.5 * out.T
            want.append(0.5 * out + 0.5 * out.T)
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip(moved.samples, want, strict=True))
