"""Block operators, spectra, interval eigenframes, and path algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sflow import jacobi_eigh, spectral_norm_sym
from sflow._eig import eigh_error, opnorms
from sflow.errors import (
    BoundaryHit,
    DimMismatch,
    EigenFailure,
    EndpointMismatch,
    InfiniteRank,
    NotEquivariant,
    NotInvertible,
    OutOfRange,
    TailMismatch,
)
from sflow.groups import OrthogonalAction, build_group
from sflow.operators import (
    CPS,
    FSComponent,
    OperatorPath,
    block_spectrum,
    check_equivariance,
    compress,
    concatenate,
    direct_sum,
    direct_sum_paths,
    evaluate,
    morse_class,
    negate,
    reverse,
    spectral_interval_frame,
)


def _sym_strategy(n):
    entry = st.floats(-10.0, 10.0, allow_nan=False)
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda rows: (np.array(rows) + np.array(rows).T) / 2.0)


# --- CPS -------------------------------------------------------------------


def test_cps_symmetrizes_and_freezes():
    op = CPS(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.allclose(op.block, [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        op.block[0, 0] = 5.0
    assert op.dim == 2


def test_cps_components():
    block = np.zeros((1, 1))
    assert CPS(block).component is FSComponent.FINITE
    assert CPS(block, plus_tail=True).component is FSComponent.FS_PLUS
    assert CPS(block, minus_tail=True).component is FSComponent.FS_MINUS
    both = CPS(block, plus_tail=True, minus_tail=True)
    assert both.component is FSComponent.FS_I
    assert both.essential_values() == (1.0, -1.0)
    assert CPS(block).essential_values() == ()
    with pytest.raises(DimMismatch):
        CPS(np.zeros((2, 3)))


# --- spectra ---------------------------------------------------------------


def test_block_spectrum_known_two_by_two():
    # [[2,1],[1,2]] has eigenvalues 1 and 3
    spec = block_spectrum(CPS(np.array([[2.0, 1.0], [1.0, 2.0]])))
    assert np.allclose(spec.eigenvalues, [1.0, 3.0])
    assert spec.block_norm == pytest.approx(3.0)
    assert spec.min_abs() == pytest.approx(1.0)
    for c in spec.clusters:
        assert c.multiplicity == 1


def test_block_spectrum_identity_single_cluster():
    spec = block_spectrum(CPS(np.eye(3)))
    assert len(spec.clusters) == 1
    assert spec.clusters[0].multiplicity == 3
    assert spec.clusters[0].value == pytest.approx(1.0)


def test_block_spectrum_merges_within_tolerance():
    spec = block_spectrum(CPS(np.diag([0.0, 5e-9])), tol_cluster=1e-8)
    assert len(spec.clusters) == 1
    spec = block_spectrum(CPS(np.diag([0.0, 5e-9])), tol_cluster=1e-10)
    assert len(spec.clusters) == 2


def test_block_spectrum_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = rng.standard_normal((n, n))
        op = CPS(m + m.T)
        spec = block_spectrum(op)
        ref = np.linalg.eigvalsh(op.block)
        assert np.allclose(spec.eigenvalues, ref, atol=1e-10)
        for c in spec.clusters:
            assert np.allclose(op.block @ c.vectors, c.value * c.vectors,
                               atol=1e-8 * (1.0 + spec.block_norm))


@settings(max_examples=30, deadline=None)
@given(_sym_strategy(4))
def test_jacobi_matches_numpy(m):
    w, v = jacobi_eigh(m)
    assert np.allclose(np.sort(w), w)
    assert np.allclose(np.linalg.eigvalsh(m), w, atol=1e-9)
    assert np.allclose(v.T @ v, np.eye(4), atol=1e-10)
    assert np.allclose(m @ v, v @ np.diag(w), atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(_sym_strategy(3), _sym_strategy(3))
def test_eigenvalue_perturbation_bound(a, e):
    # each sorted eigenvalue moves by at most the perturbation norm
    wa = np.linalg.eigvalsh(a)
    wp, _ = jacobi_eigh(a + e)
    assert np.max(np.abs(wp - wa)) <= spectral_norm_sym(e) + 1e-9


def test_spectral_norm_sym():
    assert spectral_norm_sym(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    assert spectral_norm_sym(np.zeros((0, 0))) == 0.0


def test_eigensolver_tolerates_roundoff_asymmetry():
    # residuals of matrix products are symmetric only up to roundoff, and
    # can consist of nothing but that roundoff; the solver must still finish
    rng = np.random.default_rng(11)
    junk = 1e-16 * rng.standard_normal((8, 8))
    w, v = jacobi_eigh(junk)
    sym = 0.5 * (junk + junk.T)
    assert np.max(np.abs(w - np.linalg.eigvalsh(sym))) <= 1e-12 * np.linalg.norm(sym, 2)
    assert np.allclose(v.T @ v, np.eye(8), atol=1e-12)


def _toeplitz(n):
    # tridiagonal Toeplitz: 2 on the diagonal, -1 beside it, with eigenvalues
    # 2 - 2 cos(k pi / (n + 1)), k = 1..n, in ascending order
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    exact = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    return a, exact


@pytest.mark.parametrize("n", range(2, 13))
def test_eigh_error_covers_known_spectra(n):
    a, exact = _toeplitz(n)
    for scale in (1.0, 2.0 ** -30, 3e5):
        w, v = jacobi_eigh(scale * a)
        err = eigh_error(scale * a, w, v)
        assert np.max(np.abs(w - scale * exact)) <= err
        assert err <= 1e-12 * (1.0 + np.linalg.norm(scale * a, 2))


def test_eigh_error_covers_a_poor_decomposition():
    # the bound is a posteriori: it must hold for whatever (w, v) it is
    # handed, including eigenvalues off by 1e-6 and a non-orthonormal basis
    a, exact = _toeplitz(6)
    w, v = jacobi_eigh(a)
    w_bad = w + 1e-6 * np.linspace(-1.0, 1.0, 6)
    assert eigh_error(a, w_bad, v) >= np.max(np.abs(w_bad - exact))
    v_bad = v + 1e-4 * np.random.default_rng(5).standard_normal(v.shape)
    assert eigh_error(a, w, v_bad) >= 1e-5
    assert eigh_error(a, w, v_bad) >= np.max(np.abs(w - exact))
    # zero residual, but the basis repeats one eigenvector: only the
    # orthogonality defect can account for the missing top eigenvalue
    v_dup = v.copy()
    v_dup[:, 1] = v[:, 0]
    w_dup = w.copy()
    w_dup[1] = w[0]
    assert eigh_error(a, w_dup, v_dup) >= np.max(np.abs(w_dup - exact))


def test_eigh_error_does_not_overflow_on_finite_input():
    a, exact = _toeplitz(5)
    big = 1e300 * a
    w, v = jacobi_eigh(big)
    err = eigh_error(big, w, v)
    assert np.isfinite(err)
    assert np.max(np.abs(w - 1e300 * exact)) <= err <= 1e-12 * 4e300
    assert eigh_error(np.zeros((3, 3)), *jacobi_eigh(np.zeros((3, 3)))) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigensolver_rejects_non_finite_blocks(bad):
    m = np.eye(2)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(EigenFailure):
        jacobi_eigh(m)
    with pytest.raises(EigenFailure):
        block_spectrum(CPS(m))


@pytest.mark.parametrize("shape", [(2, 3, 3), (4, 8, 8), (6, 4, 4), (12, 8, 8),
                                   (1, 5, 5), (3, 2, 4, 3), (3, 0, 0), (2, 3, 0)])
def test_opnorms_matches_one_norm_per_matrix(shape):
    rng = np.random.default_rng(sum(shape))
    m = rng.standard_normal(shape)
    got = opnorms(m)
    assert got.shape == shape[:-2]
    flat = m.reshape((int(np.prod(shape[:-2])),) + shape[-2:])
    want = [np.linalg.norm(x, 2) if x.size else 0.0 for x in flat]
    assert got.ravel().tolist() == want  # bit for bit, not approximately
    assert float(opnorms(flat[0])) == want[0]


def test_block_spectrum_carries_its_error_bound():
    a, exact = _toeplitz(8)
    spec = block_spectrum(CPS(a))
    assert 0.0 < spec.err <= 1e-12 * (1.0 + spec.block_norm)
    assert np.max(np.abs(spec.eigenvalues - exact)) <= spec.err


# --- interval frames -------------------------------------------------------


def test_interval_frame_basic():
    op = CPS(np.diag([0.3, -0.5]))
    frame = spectral_interval_frame(op, 0.0, 0.8)
    assert frame.shape == (2, 1)
    assert np.allclose(np.abs(frame[:, 0]), [1.0, 0.0])


def test_interval_frame_empty_window():
    op = CPS(np.diag([0.3, -0.5]))
    frame = spectral_interval_frame(op, 0.1, 0.2)
    assert frame.shape == (2, 0)


def test_interval_frame_rejects_tail_windows():
    op = CPS(np.diag([0.3]), plus_tail=True)
    with pytest.raises(InfiniteRank):
        spectral_interval_frame(op, 0.5, 1.5)
    op = CPS(np.diag([0.3]), minus_tail=True)
    with pytest.raises(InfiniteRank):
        spectral_interval_frame(op, -2.0, 0.0)


def test_interval_frame_boundary_guard():
    op = CPS(np.diag([0.3, -0.5]))
    with pytest.raises(BoundaryHit):
        spectral_interval_frame(op, 0.3, 1.0)
    with pytest.raises(BoundaryHit):
        spectral_interval_frame(op, 0.0, 0.3)
    with pytest.raises(OutOfRange):
        spectral_interval_frame(op, 1.0, 0.0)


def test_interval_frame_closed_left():
    # kernel vector must count as inside a window anchored at zero
    op = CPS(np.diag([0.0, 0.5]))
    with pytest.raises(BoundaryHit):
        spectral_interval_frame(op, 0.0, 0.2)
    frame = spectral_interval_frame(op, 0.0, 0.2, closed_left_tol=1e-8)
    assert frame.shape == (2, 1)
    assert np.allclose(np.abs(frame[:, 0]), [1.0, 0.0])


def test_interval_frame_accepts_shared_spectrum():
    op = CPS(np.diag([0.3, -0.5]))
    spec = block_spectrum(op)
    a = spectral_interval_frame(op, 0.0, 0.8)
    b = spectral_interval_frame(op, 0.0, 0.8, spectrum=spec)
    assert np.allclose(a, b)


# --- paths -----------------------------------------------------------------


def test_affine_path():
    p = OperatorPath.affine(np.diag([-1.0, 2.0]), np.diag([2.0, 0.0]))
    assert p.kind == "affine"
    assert np.allclose(p.block_at(0.0), np.diag([-1.0, 2.0]))
    assert np.allclose(p.block_at(1.0), np.diag([1.0, 2.0]))
    assert np.allclose(p.block_at(0.5), np.diag([0.0, 2.0]))
    assert p.lipschitz == pytest.approx(2.0)
    assert evaluate(p, 0.5).dim == 2
    with pytest.raises(OutOfRange):
        p.block_at(-0.1)
    with pytest.raises(OutOfRange):
        p.block_at(1.0001)
    with pytest.raises(DimMismatch):
        OperatorPath.affine(np.eye(2), np.eye(3))
    with pytest.raises(TypeError):
        OperatorPath()


def test_piecewise_linear_path():
    knots = [0.0, 0.5, 1.0]
    samples = [np.zeros((1, 1)), np.array([[1.0]]), np.zeros((1, 1))]
    p = OperatorPath.piecewise_linear(knots, samples)
    assert p.kind == "piecewise_linear"
    # slope is 2 on each half
    assert p.lipschitz == pytest.approx(2.0)
    assert p.block_at(0.25) == pytest.approx(np.array([[0.5]]))
    assert p.block_at(0.5) == pytest.approx(np.array([[1.0]]))
    # endpoint returns the final sample exactly, no interpolation residue
    assert float(p.block_at(1.0)[0, 0]) == 0.0


def test_piecewise_linear_validation():
    s = [np.zeros((1, 1))] * 2
    with pytest.raises(OutOfRange):
        OperatorPath.piecewise_linear([0.0, 0.5], s)
    with pytest.raises(OutOfRange):
        OperatorPath.piecewise_linear([0.2, 1.0], s)
    with pytest.raises(OutOfRange):
        OperatorPath.piecewise_linear([0.0, 0.5, 0.5, 1.0], [np.zeros((1, 1))] * 4)
    with pytest.raises(OutOfRange):
        OperatorPath.piecewise_linear([0.0], [np.zeros((1, 1))])
    with pytest.raises(DimMismatch):
        OperatorPath.piecewise_linear([0.0, 1.0], [np.zeros((1, 1))] * 3)
    with pytest.raises(DimMismatch):
        OperatorPath.piecewise_linear([0.0, 1.0], [np.zeros((1, 1)), np.zeros((2, 2))])


def test_knot_snapping():
    # endpoint knots within 1e-12 snap to exact 0 and 1
    p = OperatorPath.piecewise_linear([1e-13, 1.0 - 1e-13],
                                      [np.eye(1), 2.0 * np.eye(1)])
    assert p.knot_values()[0] == 0.0
    assert p.knot_values()[-1] == 1.0


# --- path algebra ----------------------------------------------------------


def test_direct_sum_merges_tails():
    a = CPS(np.array([[1.0]]), plus_tail=True)
    b = CPS(np.array([[-1.0]]), minus_tail=True)
    s = direct_sum(a, b)
    assert np.allclose(s.block, np.diag([1.0, -1.0]))
    assert s.component is FSComponent.FS_I


def test_direct_sum_paths_affine():
    p = OperatorPath.affine(np.eye(1), np.eye(1), plus_tail=True)
    q = OperatorPath.affine(-np.eye(2), np.zeros((2, 2)))
    s = direct_sum_paths(p, q)
    assert s.kind == "affine"
    assert s.dim == 3
    assert s.plus_tail and not s.minus_tail
    assert np.allclose(s.block_at(0.5), np.diag([1.5, -1.0, -1.0]))


def test_direct_sum_paths_mixed_kind():
    p = OperatorPath.affine(np.zeros((1, 1)), np.eye(1))
    q = OperatorPath.piecewise_linear([0.0, 0.5, 1.0],
                                      [np.eye(1), 2 * np.eye(1), np.eye(1)])
    s = direct_sum_paths(p, q)
    assert s.kind == "piecewise_linear"
    assert list(s.knot_values()) == [0.0, 0.5, 1.0]
    assert np.allclose(s.block_at(0.25), np.diag([0.25, 1.5]))


def test_concatenate():
    p = OperatorPath.affine(np.zeros((1, 1)), np.eye(1))
    q = OperatorPath.affine(np.eye(1), np.eye(1))
    c = concatenate(p, q)
    assert np.allclose(c.block_at(0.25), p.block_at(0.5))
    assert np.allclose(c.block_at(0.5), np.eye(1))
    assert np.allclose(c.block_at(0.75), q.block_at(0.5))
    assert np.allclose(c.block_at(1.0), q.block_at(1.0))


def test_concatenate_rejects_mismatches():
    p = OperatorPath.affine(np.zeros((1, 1)), np.eye(1))
    with pytest.raises(EndpointMismatch):
        concatenate(p, OperatorPath.affine(5 * np.eye(1), np.eye(1)))
    with pytest.raises(TailMismatch):
        concatenate(p, OperatorPath.affine(np.eye(1), np.eye(1), plus_tail=True))
    with pytest.raises(DimMismatch):
        concatenate(p, OperatorPath.affine(np.eye(2), np.eye(2)))


def test_reverse():
    # reversing 2*lam - 1 gives 1 - 2*lam
    p = OperatorPath.affine(np.array([[-1.0]]), np.array([[2.0]]))
    r = reverse(p)
    for lam in (0.0, 0.25, 0.7, 1.0):
        assert r.block_at(lam) == pytest.approx(np.array([[1.0 - 2.0 * lam]]))
    pl = OperatorPath.piecewise_linear([0.0, 0.25, 1.0],
                                       [np.eye(1), 3 * np.eye(1), np.eye(1)],
                                       minus_tail=True)
    rl = reverse(pl)
    assert list(rl.knot_values()) == [0.0, 0.75, 1.0]
    assert rl.minus_tail
    for lam in (0.0, 0.3, 0.75, 0.9):
        assert np.allclose(rl.block_at(lam), pl.block_at(1.0 - lam))


def test_negate_swaps_tails():
    p = OperatorPath.affine(np.eye(1), np.eye(1), plus_tail=True)
    n = negate(p)
    assert n.minus_tail and not n.plus_tail
    assert np.allclose(n.block_at(0.5), [[-1.5]])


def test_compress_without_tails_strips_flags():
    p = OperatorPath.affine(np.eye(2), np.eye(2))
    c = compress(p, 0)
    assert c.tails == (False, False)
    assert c.dim == 2
    assert np.allclose(c.block_at(0.7), p.block_at(0.7))


def test_compress_appends_tail_copies():
    p = OperatorPath.affine(np.zeros((1, 1)), np.eye(1),
                            plus_tail=True, minus_tail=True)
    c = compress(p, 2)
    assert c.dim == 5
    assert c.tails == (False, False)
    for lam in (0.0, 0.5, 1.0):
        block = c.block_at(lam)
        assert block[0, 0] == pytest.approx(lam)
        # tail copies sit at +1 and -1 regardless of lam
        assert np.allclose(np.diag(block)[1:], [1.0, 1.0, -1.0, -1.0])
    with pytest.raises(OutOfRange):
        compress(p, -1)


# --- equivariance and negative-space classes --------------------------------


def _z2_actions():
    group, table = build_group("cyclic", 2)
    diag = OrthogonalAction(group, [np.eye(2), np.diag([1.0, -1.0])])
    swap = OrthogonalAction(group, [np.eye(2),
                                    np.array([[0.0, 1.0], [1.0, 0.0]])])
    return table, diag, swap


def test_check_equivariance():
    table, diag, swap = _z2_actions()
    assert check_equivariance(CPS(np.diag([1.0, 2.0])), diag) == 0.0
    # [swap, diag(1,2)] = [[0,1],[-1,0]], spectral norm 1
    assert check_equivariance(CPS(np.diag([1.0, 2.0])), swap) == pytest.approx(1.0)
    with pytest.raises(DimMismatch):
        check_equivariance(CPS(np.eye(3)), diag)


def test_check_equivariance_matches_a_scan_over_the_elements():
    group, _ = build_group("dihedral", 4)
    c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
    rot = np.array([[c, -s], [s, c]])
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))
    mats = [q @ np.linalg.matrix_power(np.diag([1.0, -1.0]), f)
            @ np.linalg.matrix_power(rot, t) @ q.T for f in range(2) for t in range(4)]
    action = OrthogonalAction(group, mats)
    block = np.array([[1.0, 0.3], [0.3, -2.0]])
    want = max(np.linalg.norm(m @ block - block @ m, 2) for m in mats)
    assert check_equivariance(CPS(block), action) == want


def test_morse_class_trivial_group():
    group, table = build_group("trivial")
    action = OrthogonalAction(group, [np.eye(2)])
    assert morse_class(CPS(np.diag([-2.0, 3.0])), action, table).coeffs == (1,)
    assert morse_class(CPS(np.diag([1.0, 2.0])), action, table).is_zero()


def test_morse_class_z2():
    table, diag, _ = _z2_actions()
    # negative space span(e1) carries the trivial character
    assert morse_class(CPS(np.diag([-3.0, 2.0])), diag, table).coeffs == (1, 0)
    # negative space span(e2) carries the sign character
    assert morse_class(CPS(np.diag([2.0, -3.0])), diag, table).coeffs == (0, 1)


def test_morse_class_rejections():
    table, diag, swap = _z2_actions()
    with pytest.raises(InfiniteRank):
        morse_class(CPS(np.eye(2), plus_tail=True), diag, table)
    with pytest.raises(NotInvertible):
        morse_class(CPS(np.diag([0.0, 1.0])), diag, table)
    with pytest.raises(NotEquivariant):
        morse_class(CPS(np.diag([1.0, -1.0])), swap, table)
