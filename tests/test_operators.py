"""Block operators, spectra, interval eigenframes, and path algebra."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sflow import jacobi_eigh, operators
from sflow._eig import (
    EPS,
    _cholesky_error,
    cholesky_above,
    eigh_error,
    opnorms_within,
)
from sflow.errors import (
    BoundaryHit,
    DimensionMismatch,
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
    Spectrum,
    block_spectrum,
    check_equivariance,
    cluster_values,
    compress,
    concatenate,
    direct_sum,
    direct_sum_paths,
    eigendata_each,
    eigh_each,
    equivariance_defects,
    interval_columns,
    morse_class,
    morse_classes,
    negate,
    reverse,
    segment_speeds,
    window_faults,
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
    with pytest.raises(DimensionMismatch):
        CPS(np.zeros((2, 3)))


# --- spectra ---------------------------------------------------------------


def _clusters(spec):
    # (value, eigenvector columns) of each run of cluster_values
    starts, values = cluster_values(spec.eigenvalues[None], np.array([spec.tol]))
    bounds = [*np.flatnonzero(starts[0]).tolist(), spec.eigenvalues.size]
    return [(float(values[0, i]), spec.vectors[:, i:j])
            for i, j in zip(bounds, bounds[1:])]


def test_block_spectrum_known_two_by_two():
    # [[2,1],[1,2]] has eigenvalues 1 and 3
    spec = block_spectrum(CPS(np.array([[2.0, 1.0], [1.0, 2.0]])))
    assert np.allclose(spec.eigenvalues, [1.0, 3.0])
    assert spec.block_norm == pytest.approx(3.0)
    assert np.abs(spec.eigenvalues).min() == pytest.approx(1.0)
    for _, vectors in _clusters(spec):
        assert vectors.shape[1] == 1


def test_block_spectrum_identity_single_cluster():
    ((value, vectors),) = _clusters(block_spectrum(CPS(np.eye(3))))
    assert vectors.shape[1] == 3
    assert value == pytest.approx(1.0)


def test_block_spectrum_merges_within_tolerance():
    spec = block_spectrum(CPS(np.diag([0.0, 5e-9])), tol_cluster=1e-8)
    assert len(_clusters(spec)) == 1
    spec = block_spectrum(CPS(np.diag([0.0, 5e-9])), tol_cluster=1e-10)
    assert len(_clusters(spec)) == 2


def test_block_spectrum_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = rng.standard_normal((n, n))
        op = CPS(m + m.T)
        spec = block_spectrum(op)
        ref = np.linalg.eigvalsh(op.block)
        assert np.allclose(spec.eigenvalues, ref, atol=1e-10)
        for value, vectors in _clusters(spec):
            assert np.allclose(op.block @ vectors, value * vectors,
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
    assert np.max(np.abs(wp - wa)) <= operators._specnorm(e[None])[0] + 1e-9


def test_spectral_norm_sym():
    norms = operators._specnorm(np.array([np.diag([3.0, -4.0]), np.eye(2)]))
    assert norms.tolist() == pytest.approx([4.0, 1.0])
    assert (norms >= [4.0, 1.0]).all()
    assert operators._specnorm(np.zeros((1, 0, 0))).tolist() == [0.0]


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


def _one_error(block, w, v):
    # eigh_error of one matrix, as a stack of one
    return float(eigh_error(block[None], w[None], v[None])[0])


@pytest.mark.parametrize("n", range(2, 13))
def test_eigh_error_covers_known_spectra(n):
    a, exact = _toeplitz(n)
    for scale in (1.0, 2.0 ** -30, 3e5):
        w, v = jacobi_eigh(scale * a)
        err = _one_error(scale * a, w, v)
        assert np.max(np.abs(w - scale * exact)) <= err
        assert err <= 1e-12 * (1.0 + np.linalg.norm(scale * a, 2))


def test_eigh_error_covers_a_poor_decomposition():
    # the bound is a posteriori: it must hold for whatever (w, v) it is
    # handed, including eigenvalues off by 1e-6 and a non-orthonormal basis
    a, exact = _toeplitz(6)
    w, v = jacobi_eigh(a)
    w_bad = w + 1e-6 * np.linspace(-1.0, 1.0, 6)
    assert _one_error(a, w_bad, v) >= np.max(np.abs(w_bad - exact))
    v_bad = v + 1e-4 * np.random.default_rng(5).standard_normal(v.shape)
    assert _one_error(a, w, v_bad) >= 1e-5
    assert _one_error(a, w, v_bad) >= np.max(np.abs(w - exact))
    # zero residual, but the basis repeats one eigenvector: only the
    # orthogonality defect can account for the missing top eigenvalue
    v_dup = v.copy()
    v_dup[:, 1] = v[:, 0]
    w_dup = w.copy()
    w_dup[1] = w[0]
    assert _one_error(a, w_dup, v_dup) >= np.max(np.abs(w_dup - exact))


def test_eigh_error_does_not_overflow_on_finite_input():
    a, exact = _toeplitz(5)
    big = 1e300 * a
    w, v = jacobi_eigh(big)
    err = _one_error(big, w, v)
    assert np.isfinite(err)
    assert np.max(np.abs(w - 1e300 * exact)) <= err <= 1e-12 * 4e300
    assert _one_error(np.zeros((3, 3)), *jacobi_eigh(np.zeros((3, 3)))) == 0.0


def test_eigh_error_stays_finite_and_an_upper_bound_on_subnormal_input():
    # scaling a matrix of subnormals up to a unit largest entry would take a
    # factor past the float range; the bound of such a velocity used to be
    # nan, and lipschitz raised EigenFailure
    speed = np.array([[0.0, 1e-323], [1e-323, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lipschitz = OperatorPath.affine(np.diag([1.0, 2.0]), speed).lipschitz
        # exact spectra; halving 5e-324 rounds to 0, so the computed
        # spectrum of the last matrix is 0 and its error 5e-324
        for m, exact in [(speed, [-1e-323, 1e-323]),
                         (np.diag([2e-310, -3e-320]), [-3e-320, 2e-310]),
                         (np.diag([5e-324, -5e-324]), [-5e-324, 5e-324])]:
            w, v = jacobi_eigh(m)
            err = _one_error(m, w, v)
            assert np.max(np.abs(w - exact)) <= err < 1e-300
        # in units of the smallest subnormal this spectrum is -1 +- sqrt(61),
        # which no double there holds; the scaled-back bound, rounded to
        # nearest, is 0
        k = np.array([[4.0, 6.0], [6.0, -6.0]])
        w, v = jacobi_eigh(np.ldexp(k, -1074))
        err = _one_error(np.ldexp(k, -1074), w, v)
        assert (np.max(np.abs(np.ldexp(w, 1074) - np.linalg.eigvalsh(k)))
                <= np.ldexp(err, 1074))
    assert 1e-323 <= lipschitz < 1e-300


@pytest.mark.parametrize("n", [1, 2, 5, 12])
@pytest.mark.parametrize("scale", [1.0, 1e6, 1e12])
def test_cholesky_above_decides_at_the_known_smallest_eigenvalue(n, scale):
    # a floor one ulp above the smallest eigenvalue is never certified; one
    # 2c below it always is, c the kernel's own bound on the factorization's
    # backward error, and so is one 4c below from within Frobenius distance c
    a, exact = _toeplitz(n)
    block = (scale * a)[None]
    low = scale * exact[0]
    c = _cholesky_error(block)[0]
    assert 0.0 < c <= 1e-12 * scale
    assert not cholesky_above(block, np.nextafter(low, np.inf), 0.0)[0]
    assert cholesky_above(block, low - 2.0 * c, 0.0)[0]
    assert cholesky_above(block, low - 4.0 * c, c)[0]
    assert not cholesky_above(block, low - 2.0 * c, 2.0 * c)[0]


def test_cholesky_above_on_empty_non_finite_and_subnormal_blocks():
    assert cholesky_above(np.zeros((3, 0, 0)), 1.0, 0.0).tolist() == [True] * 3
    assert cholesky_above(np.zeros((0, 2, 2)), 0.0, 0.0).shape == (0,)
    # a factorization of [[inf]] completes, and one reads a single triangle,
    # so non-finite blocks are refused before it
    bad = np.array([np.eye(2)] * 5)
    bad[0, 0, 1] = bad[0, 1, 0] = np.nan
    bad[2, 1, 1] = np.inf
    bad[3, 0, 0] = -np.inf
    bad[4, 0, 1] = np.inf
    assert cholesky_above(bad, 0.0, 0.0).tolist() == [False, True, False,
                                                      False, False]
    # a diagonal of subnormals 2^-1060 = 2^14 eta is certified above 0, as
    # c is a few eta; a floor or a distance at that eigenvalue is not
    tiny = np.ldexp(np.eye(3), -1060)[None]
    assert _cholesky_error(tiny)[0] < np.ldexp(1.0, -1066)
    assert cholesky_above(tiny, 0.0, 0.0)[0]
    assert not cholesky_above(-tiny, 0.0, 0.0)[0]
    assert not cholesky_above(tiny, np.ldexp(1.0, -1060), 0.0)[0]
    assert not cholesky_above(tiny, 0.0, np.ldexp(1.0, -1060))[0]


def test_cholesky_above_gives_each_block_its_own_verdict(monkeypatch):
    # one block of five has its smallest eigenvalue below the floor: the
    # stacked factorization is refused, and each block is then factored
    # alone, one floor and one distance per block
    a, exact = _toeplitz(4)
    stack = np.array([a, a, a - 2.0 * exact[0] * np.eye(4), a, 1e6 * a])
    calls = []
    real = np.linalg.cholesky

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    assert cholesky_above(stack, 0.0, 0.0).tolist() == [True, True, False,
                                                        True, True]
    assert calls == [(5, 4, 4)] + [(4, 4)] * 5
    good = stack[[0, 1, 3, 4]]
    floor = np.array([0.0, exact[0], 0.0, 0.0])
    dist = np.array([0.0, 0.0, exact[0], 0.0])
    assert cholesky_above(good, floor, dist).tolist() == [True, False, False,
                                                          True]
    calls.clear()
    assert cholesky_above(good, 0.0, 0.0).all()
    assert calls == [(4, 4, 4)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigensolver_rejects_non_finite_blocks(bad):
    m = np.eye(2)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(EigenFailure):
        jacobi_eigh(m)
    # an operator cannot hold such a block at all
    with pytest.raises(OutOfRange, match="block has non-finite entries"):
        CPS(m)


@pytest.mark.parametrize("shape", [(2, 3, 3), (4, 8, 8), (6, 4, 4), (12, 8, 8),
                                   (1, 5, 5), (3, 2, 4, 3), (3, 0, 0), (2, 3, 0)])
def test_unscreened_norms_match_one_norm_per_matrix(shape):
    rng = np.random.default_rng(sum(shape))
    m = rng.standard_normal(shape)
    got = opnorms_within(m, -np.inf)
    assert got.shape == shape[:-2]
    flat = m.reshape((int(np.prod(shape[:-2])),) + shape[-2:])
    want = [np.linalg.norm(x, 2) if x.size else 0.0 for x in flat]
    assert got.ravel().tolist() == want  # bit for bit, not approximately
    assert float(opnorms_within(flat[0], -np.inf)) == want[0]


def _assert_screen_contract(m, tol):
    # an entry passes exactly when its exact norm does, and a failing entry
    # is the exact norm itself
    exact = opnorms_within(m, -np.inf)
    got = opnorms_within(m, tol)
    tol = np.broadcast_to(tol, exact.shape)
    assert got.shape == exact.shape
    assert np.array_equal(got > tol, exact > tol)
    assert np.array_equal(got[exact > tol], exact[exact > tol])


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 5), (8, 8), (1, 7)])
def test_screen_is_exact_at_the_edge_of_rank_one_stacks(shape):
    # ||X||_2 == ||X||_F for rank one, so the computed Frobenius norm falls
    # below the computed 2-norm for many of them: without the round-up a
    # tolerance one ulp below the 2-norm would pass
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    m = (rng.standard_normal((200, shape[0], 1))
         @ rng.standard_normal((200, 1, shape[1])))
    exact = opnorms_within(m, -np.inf)
    _assert_screen_contract(m, exact)
    _assert_screen_contract(m, np.nextafter(exact, 0.0))
    assert np.array_equal(opnorms_within(m, np.nextafter(exact, 0.0)), exact)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 2.0))
def test_screen_matches_unscreened_norms_on_random_stacks(r, c, k, seed, scale):
    # per-matrix tolerances around the norms: some pass on the Frobenius
    # bound, some only on the exact norm, some fail
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((k, r, c)) * rng.uniform(0.0, 1.0, (k, 1, 1))
    exact = opnorms_within(m, -np.inf)
    _assert_screen_contract(m, exact * rng.uniform(0.0, scale, k))
    _assert_screen_contract(m, exact)
    _assert_screen_contract(m, float(exact[0]))


def test_screen_gives_non_finite_matrices_an_infinite_norm():
    m = np.stack([np.eye(2), np.full((2, 2), np.nan), np.eye(2) * 1e-3,
                  np.array([[np.inf, 0.0], [0.0, 1.0]])])
    with np.errstate(over="ignore"):
        m = np.concatenate([m, (np.full((1, 2, 2), 1e200)
                                @ np.full((1, 2, 2), 1e200))])
    got = opnorms_within(m, [2.0, 2.0, 2.0, np.inf, 1e300])
    assert got.tolist()[1:] == [np.inf, got[2], np.inf, np.inf]
    assert got[0] <= 2.0 and got[2] <= 2.0
    for tol in (0.0, 1.0, 1e300, np.inf):
        _assert_screen_contract(m, tol)
    # the Frobenius sum of 1e200-sized finite entries overflows; the matrix
    # still gets its exact norm
    big = np.full((1, 2, 2), 1e200)
    assert (opnorms_within(big, 1.0).tolist()
            == opnorms_within(big, -np.inf).tolist())
    assert opnorms_within(np.zeros((3, 0, 2)), 1.0).tolist() == [0.0] * 3


def test_block_spectrum_carries_its_error_bound():
    a, exact = _toeplitz(8)
    spec = block_spectrum(CPS(a))
    assert 0.0 < spec.err <= 1e-12 * (1.0 + spec.block_norm)
    assert np.max(np.abs(spec.eigenvalues - exact)) <= spec.err


# --- interval frames -------------------------------------------------------


def _window(op, level, tol_cluster=1e-8, tol=None):
    # the frame of [0, level], closed at -tol, of one operator, or the error
    # of that window, through the stacked window pass on a stack of one
    spec = block_spectrum(op, tol_cluster)
    w = spec.eigenvalues[None]
    tol = np.array([spec.tol if tol is None else tol])
    (fault,) = window_faults(w, tol, [level], op.tails)
    if fault is not None:
        raise fault
    (lo,), (ncols,) = interval_columns(cluster_values(w, tol)[1],
                                       -tol[:, None], level)
    return spec.vectors[:, lo:lo + ncols]


def test_interval_frame_basic():
    op = CPS(np.diag([0.3, -0.5]))
    frame = _window(op, 0.8)
    assert frame.shape == (2, 1)
    assert np.allclose(np.abs(frame[:, 0]), [1.0, 0.0])


def test_interval_frame_empty_window():
    op = CPS(np.diag([0.3, -0.5]))
    frame = _window(op, 0.2)
    assert frame.shape == (2, 0)


def test_interval_frame_rejects_tail_windows():
    op = CPS(np.diag([0.3]), plus_tail=True)
    with pytest.raises(InfiniteRank, match=r"window \[0.0, 1.5\] contains "
                                           r"the \+1 tail"):
        _window(op, 1.5)
    # the window reaches the -1 tail only when closed at -tol <= -1
    op = CPS(np.diag([0.3]), minus_tail=True)
    assert _window(op, 2.0, tol=0.5).shape == (1, 1)
    with pytest.raises(InfiniteRank, match="contains the -1 tail"):
        _window(op, 2.0, tol=1.0)


def test_interval_frame_boundary_guard():
    op = CPS(np.diag([0.3, -0.5]))
    with pytest.raises(BoundaryHit, match="eigenvalue 0.3 at window edge 0.3"):
        _window(op, 0.3)
    with pytest.raises(BoundaryHit):
        _window(op, 0.3 + 1e-9)
    assert _window(op, 0.3 + 1e-7).shape == (2, 1)


def test_interval_frame_closed_left():
    # a kernel vector counts as inside [0, level], which is closed at -tol;
    # with tol 0 the left edge is open and 0 sits on it
    op = CPS(np.diag([0.0, 0.5]))
    frame = _window(op, 0.2)
    assert frame.shape == (2, 1)
    assert np.allclose(np.abs(frame[:, 0]), [1.0, 0.0])
    with pytest.raises(BoundaryHit, match="eigenvalue 0.0 at window edge 0.0"):
        _window(op, 0.2, tol_cluster=0.0)


def test_interval_frame_accepts_shared_spectrum():
    # one stacked solve shared by many windows gives each the frame of its
    # own solve
    ops = [CPS(np.diag([0.3, -0.5])), CPS(np.diag([0.0, 0.5])),
           CPS(np.array([[0.2, 0.1], [0.1, 0.4]]))]
    w, v, _, tol, _, _, _ = eigendata_each(np.stack([op.block for op in ops]))
    assert window_faults(w, tol, [0.8] * 3, (False, False)) == [None] * 3
    lo, ncols = interval_columns(cluster_values(w, tol)[1], -tol[:, None], 0.8)
    for op, vectors, first, k in zip(ops, v, lo, ncols):
        assert np.array_equal(vectors[:, first:first + k], _window(op, 0.8))


def _loop_clusters(spec):
    # (value, first, stop) of each cluster, as a loop over the eigenvalues
    # forms them: runs each within tol of the last, valued at np.mean
    vals = spec.eigenvalues.tolist()
    out, i = [], 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j] - vals[j - 1] <= spec.tol:
            j += 1
        out.append((vals[i] if j == i + 1 else float(np.mean(spec.eigenvalues[i:j])),
                    i, j))
        i = j
    return out


def _loop_frame(spec, a, b, left_tol, plus, minus):
    # the window [a, b] of one spectrum checked and picked cluster by
    # cluster: the error, or the (first, stop) columns and whether the picked
    # clusters are consecutive
    if plus and a - left_tol <= 1.0 <= b:
        return InfiniteRank(f"window [{a}, {b}] contains the +1 tail")
    if minus and a - left_tol <= -1.0 <= b:
        return InfiniteRank(f"window [{a}, {b}] contains the -1 tail")
    for e in spec.eigenvalues.tolist():
        if left_tol == 0.0 and abs(e - a) <= spec.tol:
            return BoundaryHit(f"eigenvalue {e} at window edge {a}")
        if abs(e - b) <= spec.tol:
            return BoundaryHit(f"eigenvalue {e} at window edge {b}")
    picked = [(i, j) for value, i, j in _loop_clusters(spec)
              if a - left_tol <= value <= b]
    assert all(p[1] == q[0] for p, q in zip(picked, picked[1:]))
    return (picked[0][0], picked[-1][1]) if picked else None


def _edge_spectra(rng):
    # ascending spectra with runs of 1, 2, 3 and 8 or more eigenvalues,
    # exact repeats, pairs of -0.0, values at exactly -tol, 0 and +-1, and
    # tolerances of 0 and 1e-8 (1 + norm)
    for _ in range(300):
        tol_factor = rng.choice([0.0, 1e-8, 1e-3])
        parts = []
        for _ in range(int(rng.integers(1, 6))):
            x = float(rng.choice([rng.normal(), -1.0, 1.0, 0.0, -0.0,
                                  rng.normal() * 1e-9]))
            size = int(rng.choice([1, 1, 2, 3, 8, 9, 12]))
            spread = rng.choice([0.0, 1e-12, 1e-10]) * rng.random(size)
            parts.append(x + spread)
        w = np.sort(np.concatenate(parts))
        norm = float(np.abs(w).max(initial=0.0))
        tol = float(tol_factor * (1.0 + norm))
        if rng.random() < 0.3 and w.size:
            w[int(rng.integers(w.size))] = -tol  # on the left edge
            w.sort()
        if rng.random() < 0.1:
            w[:] = -0.0
        v = np.linalg.qr(rng.standard_normal((w.size, w.size)))[0]
        yield Spectrum(w, v, norm, tol, 0.0)


def test_cluster_values_have_the_bits_of_a_loop_over_the_eigenvalues():
    rng = np.random.default_rng(59)
    runs = set()
    for spec in _edge_spectra(rng):
        want = _loop_clusters(spec)
        starts, values = cluster_values(spec.eigenvalues[None],
                                        np.array([spec.tol]))
        assert np.flatnonzero(starts[0]).tolist() == [i for _, i, _ in want]
        for value, i, j in want:
            runs.add(min(j - i, 8))
            got = values[0, i:j]
            assert (got == value).all()
            assert (np.signbit(got) == np.signbit(value)).all()
    assert runs == {1, 2, 3, 4, 5, 6, 7, 8}


def test_window_pass_matches_a_per_spectrum_loop():
    # many spectra and windows [0, level] at once against one window at a
    # time: the same error, else the same column range, on levels at, within
    # tol of and past eigenvalues, windows holding one or both tails (the -1
    # tail once tol reaches 1), and tol 0
    rng = np.random.default_rng(61)
    rows, kinds = [], set()
    for spec in _edge_spectra(rng):
        w = spec.eigenvalues
        for _ in range(6):
            if rng.random() < 0.1:
                spec = dataclasses.replace(spec, tol=float(rng.choice([1.0, 2.0])))
            pick = float(rng.choice(w)) if w.size else 0.5
            b = float(rng.choice([abs(pick), abs(pick) + spec.tol,
                                  abs(pick) + 2 * spec.tol, 1.0, 2.5,
                                  abs(rng.normal())]))
            plus, minus = bool(rng.random() < 0.3), bool(rng.random() < 0.3)
            rows.append((spec, b, plus, minus))
    for size in {r[0].eigenvalues.size for r in rows}:
        group = [r for r in rows if r[0].eigenvalues.size == size]
        specs, bs, plus, minus = zip(*group)
        w = np.array([s.eigenvalues for s in specs]).reshape(len(group), -1)
        tol = np.array([s.tol for s in specs])
        faults = window_faults(w, tol, list(bs), np.array([plus, minus]).T)
        lo, ncols = interval_columns(cluster_values(w, tol)[1],
                                     -tol[:, None], np.array(bs)[:, None])
        for k, (spec, b, p, m) in enumerate(group):
            want = _loop_frame(spec, 0.0, b, spec.tol, p, m)
            if isinstance(want, Exception):
                kinds.add(str(want)[-7:] if isinstance(want, InfiniteRank)
                          else BoundaryHit)
                assert type(faults[k]) is type(want)
                assert str(faults[k]) == str(want)
                continue
            kinds.add(want is None)
            assert faults[k] is None
            assert ncols[k] == (0 if want is None else want[1] - want[0])
            if want is not None:
                assert lo[k] == want[0]
    assert kinds == {"+1 tail", "-1 tail", BoundaryHit, True, False}


# --- paths -----------------------------------------------------------------


def test_affine_path():
    p = OperatorPath.affine(np.diag([-1.0, 2.0]), np.diag([2.0, 0.0]))
    assert p.kind == "affine"
    assert np.allclose(p.block_at(0.0), np.diag([-1.0, 2.0]))
    assert np.allclose(p.block_at(1.0), np.diag([1.0, 2.0]))
    assert np.allclose(p.block_at(0.5), np.diag([0.0, 2.0]))
    assert p.lipschitz == pytest.approx(2.0)
    assert p.at(0.5).dim == 2
    with pytest.raises(OutOfRange):
        p.block_at(-0.1)
    with pytest.raises(OutOfRange):
        p.block_at(1.0001)
    with pytest.raises(DimensionMismatch):
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


@pytest.mark.parametrize("knots", [[math.nan, 0.5, 1.0], [0.0, 0.5, math.nan],
                                   [0.0, math.nan, 1.0]])
def test_piecewise_linear_refuses_a_nan_knot(knots):
    # an end knot of NaN was snapped to 0 or 1, and an interior one built a
    # path of NaN speeds whose flow failed later with exit 4
    message = ("knots must be strictly increasing" if math.isnan(knots[1])
               else f"knots must run from 0 to 1, got {knots[0]}..{knots[-1]}")
    with pytest.raises(OutOfRange, match=rf"^{re.escape(message)}$") as info:
        OperatorPath.piecewise_linear(knots, [np.eye(1), -np.eye(1), np.eye(1)])
    assert info.value.exit_code == 2


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
    with pytest.raises(DimensionMismatch):
        OperatorPath.piecewise_linear([0.0, 1.0], [np.zeros((1, 1))] * 3)
    with pytest.raises(DimensionMismatch):
        OperatorPath.piecewise_linear([0.0, 1.0], [np.zeros((1, 1)), np.zeros((2, 2))])


def test_knot_snapping():
    # endpoint knots within 1e-12 snap to exact 0 and 1
    p = OperatorPath.piecewise_linear([1e-13, 1.0 - 1e-13],
                                      [np.eye(1), 2.0 * np.eye(1)])
    assert p.knots[0] == 0.0
    assert p.knots[-1] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_paths_reject_data_their_lipschitz_bound_cannot_cover(bad):
    # a non-finite velocity or sample is an input error, not a failed
    # eigensolve inside the Lipschitz bound
    m = np.eye(2)
    m[0, 1] = bad
    with pytest.raises(OutOfRange, match="b has non-finite entries"):
        OperatorPath.affine(np.eye(2), m)
    for i in range(3):
        samples = [np.eye(2)] * 3
        samples[i] = m
        with pytest.raises(OutOfRange,
                           match="samples have non-finite entries"):
            OperatorPath.piecewise_linear([0.0, 0.5, 1.0], samples)


def test_repr_solves_no_speeds():
    # the piece difference overflows, so solving its speed would raise
    big = np.full((4, 4), 0.4e308)
    p = OperatorPath.piecewise_linear([0.0, 1.0], [-big, big])
    assert repr(p) == ("OperatorPath(kind='piecewise_linear', dim=4, "
                       "plus_tail=False, minus_tail=False)")
    assert p._speeds is None
    with pytest.raises(EigenFailure):
        p.lipschitz
    q = OperatorPath.affine(np.eye(2), 2.0 * np.eye(2))
    assert "lipschitz" not in repr(q)
    q.speeds
    assert repr(q).endswith(", lipschitz=2)")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_affine_rejects_a_non_finite_offset(bad):
    # an input error, as for the velocity, not a failed eigensolve later
    m = np.eye(2)
    m[0, 1] = bad
    with pytest.raises(OutOfRange, match="a has non-finite entries"):
        OperatorPath.affine(m, np.eye(2))


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
    assert list(s.knots) == [0.0, 0.5, 1.0]
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
    with pytest.raises(DimensionMismatch):
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
    assert list(rl.knots) == [0.0, 0.75, 1.0]
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
    with pytest.raises(DimensionMismatch):
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


@pytest.mark.parametrize("batch", [1, 40, 1 << 30])
def test_equivariance_defects_in_bounded_chunks(batch, monkeypatch):
    # batch 1 takes one block at a time, 40 two D4 blocks of size 2, and
    # 1 << 30 the whole stack at once; the defects are the same bits
    group, _ = build_group("dihedral", 4)
    c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
    rot = np.array([[c, -s], [s, c]])
    mats = [np.linalg.matrix_power(np.diag([1.0, -1.0]), f)
            @ np.linalg.matrix_power(rot, t) for f in range(2) for t in range(4)]
    action = OrthogonalAction(group, mats)
    rng = np.random.default_rng(11)
    blocks = rng.standard_normal((7, 2, 2))
    blocks = 0.5 * blocks + 0.5 * np.swapaxes(blocks, 1, 2)
    want = [check_equivariance(CPS(b), action) for b in blocks]

    seen = []
    real_norms = operators.opnorms_within

    def counting(m, tol):
        seen.append(m.size)
        return real_norms(m, tol)

    monkeypatch.setattr(operators, "HOMOMORPHISM_BATCH", batch)
    monkeypatch.setattr(operators, "opnorms_within", counting)
    # tol 0: every nonzero defect exact, as check_equivariance gives it
    assert equivariance_defects(blocks, action, np.zeros(7)).tolist() == want
    assert max(seen) <= max(batch, 8 * 2 * 2)
    assert sum(seen) == 7 * 8 * 2 * 2
    assert equivariance_defects(blocks[:0], action, []).shape == (0,)


def test_morse_class_trivial_group():
    group, table = build_group("trivial")
    action = OrthogonalAction(group, [np.eye(2)])
    assert morse_class(CPS(np.diag([-2.0, 3.0])), action, table).coeffs == (1,)
    assert morse_class(CPS(np.diag([1.0, 2.0])), action, table).is_zero()
    # a cluster straddling 0 has value 0.0, which is not below 0, so its
    # negative eigenvalue is refused rather than counted as nonnegative
    action = OrthogonalAction(group, [np.eye(3)])
    straddle = CPS(np.diag([-1e-9, 1e-9, 2.0]))
    assert [v for v, _ in _clusters(block_spectrum(straddle))] == [0.0, 2.0]
    with pytest.raises(NotInvertible, match="-1.000e-09 within cluster"):
        morse_class(straddle, action, table)


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
    # commutator norm 4e-8 against the tolerance 1e-8 (1 + 1 + 2e-8)
    with pytest.raises(NotEquivariant, match="commutator norm 4.000e-08"):
        morse_class(CPS(np.eye(2) + 2e-8 * np.diag([1.0, -1.0])), swap, table)
    # a block of another dimension fails before its solve, as sfl_G fails
    with pytest.raises(DimensionMismatch,
                       match="action dimension 2 vs block dimension 3"):
        morse_classes(np.full((1, 3, 3), np.nan), diag, table)


# --- stacked solves and blocks ----------------------------------------------


def _eigh_error_one_matrix(block, w, v):
    # the per-matrix bound, written with np.linalg.norm: the reference the
    # stacked eigh_error must match bit for bit
    n = w.size
    if n == 0:
        return 0.0
    peak = float(np.max(np.abs(block)))
    exp = int(np.frexp(peak)[1]) if peak > 0.0 else 0
    half = np.ldexp(0.5, -exp)
    a = half * block + half * block.T
    ws = np.ldexp(w, -exp)
    res = np.linalg.norm(a @ v - v * ws)
    orth = np.linalg.norm(v.T @ v - np.eye(n))
    size = np.linalg.norm(a) + float(np.max(np.abs(ws)))
    vnorm = float(np.linalg.norm(v))
    eps = float(np.finfo(float).eps)
    gamma = (n + 2) * eps / (1.0 - (n + 2) * eps)
    bound = (res + gamma * vnorm * size
             + (orth + gamma * vnorm * vnorm) * size)
    return float(np.ldexp(bound * (1.0 + (n + 2) ** 2 * eps), exp))


def _symmetric_stack(n, rng):
    # random, clustered (repeated eigenvalues), zero, and near-overflow
    # blocks; the largest keeps its eigenvalues finite
    raw = rng.standard_normal((4, n, n))
    stack = 0.5 * raw + 0.5 * np.swapaxes(raw, 1, 2)
    q, _ = np.linalg.qr(rng.standard_normal((n, n))) if n else (np.eye(0), 0)
    repeated = np.diag(np.resize([-1.0, 2.0, 3.0], n))
    stack[1] = q @ repeated @ q.T
    stack[2] = 0.0
    stack[3] *= 1e308 / (4.0 * max(n, 1))
    return stack


@pytest.mark.parametrize("n", range(13))
def test_stacked_eigensolve_matches_one_matrix_at_a_time(n):
    rng = np.random.default_rng(100 + n)
    stack = _symmetric_stack(n, rng)
    w, v = jacobi_eigh(stack)
    errs = eigh_error(stack, w, v)
    spectra = [Spectrum(*row) for row in zip(*eigendata_each(stack)[:5])]
    assert w.shape == (4, n) and v.shape == (4, n, n) and errs.shape == (4,)
    for i, block in enumerate(stack):
        wi, vi = jacobi_eigh(block)
        w_ref, v_ref = np.linalg.eigh(0.5 * block + 0.5 * block.T)
        assert np.array_equal(wi, w_ref) and np.array_equal(vi, v_ref)
        assert np.array_equal(w[i], wi) and np.array_equal(v[i], vi)
        err = _eigh_error_one_matrix(block, wi, vi)
        assert errs[i] == err and _one_error(block, wi, vi) == err
        one = block_spectrum(CPS(block))
        assert np.array_equal(spectra[i].eigenvalues, one.eigenvalues)
        assert (spectra[i].tol, spectra[i].err) == (one.tol, one.err) == (
            one.tol, err)
        got, want = _clusters(spectra[i]), _clusters(one)
        assert [v for v, _ in got] == [v for v, _ in want]
        for (_, got_vectors), (_, want_vectors) in zip(got, want):
            assert np.array_equal(got_vectors, want_vectors)
    if n:
        assert len(_clusters(block_spectrum(CPS(stack[1])))) == min(n, 3)


def test_stacked_eigensolve_rejects_any_bad_matrix():
    stack = np.stack([np.eye(2), np.eye(2)])
    stack[1, 0, 1] = stack[1, 1, 0] = np.nan
    with pytest.raises(EigenFailure):
        jacobi_eigh(stack)
    with pytest.raises(EigenFailure):
        operators._specnorm(stack)
    with pytest.raises(ValueError):
        jacobi_eigh(np.zeros((2, 2, 3)))


def _specnorm_one_piece(m):
    # the Lipschitz speed of one piece, from its own eigensolve
    if m.shape[0] == 0:
        return 0.0
    w, v = jacobi_eigh(m)
    return float((np.max(np.abs(w)) + _one_error(m, w, v)) * (1.0 + 2.0 * EPS))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_piecewise_lipschitz_matches_a_per_piece_loop(n):
    rng = np.random.default_rng(200 + n)
    for pieces in (1, 2, 6, 63):
        knots = np.concatenate([[0.0], np.sort(rng.uniform(size=pieces - 1)),
                                [1.0]])
        raw = rng.standard_normal((pieces + 1, n, n))
        raw[-1] *= 1e300  # one piece near the top of the float range
        p = OperatorPath.piecewise_linear(knots, list(raw))
        mats = [0.5 * m + 0.5 * m.T for m in raw]
        lip = 0.0
        for i in range(pieces):
            lip = max(lip, _specnorm_one_piece(mats[i + 1] - mats[i])
                      / (knots[i + 1] - knots[i]))
        assert p.lipschitz == lip
        diffs = np.stack(mats[1:]) - np.stack(mats[:-1])
        stacked = operators._specnorm(diffs)
        assert stacked.tolist() == [_specnorm_one_piece(d) for d in diffs]
        assert [operators._specnorm(d[None])[0] for d in diffs] == stacked.tolist()


def _segment_speed_loop(p, left, right):
    # the fastest piece [k_i, k_(i+1)] meeting [left, right] in more than a
    # point
    knots = p.knots
    return max(float(p.speeds[i]) for i in range(knots.size - 1)
               if knots[i] < right and knots[i + 1] > left)


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_segment_speeds_match_a_per_piece_loop(n):
    rng = np.random.default_rng(300 + n)
    for pieces in (1, 2, 6, 63):
        knots = np.concatenate([[0.0], np.sort(rng.uniform(size=pieces - 1)),
                                [1.0]])
        raw = rng.standard_normal((pieces + 1, n, n))
        raw[pieces // 2] *= 1e300  # pieces near the top of the float range
        paths = [OperatorPath.piecewise_linear(knots, list(raw)),
                 OperatorPath.affine(raw[0], raw[1])]
        # ends on knots, inside pieces, and at 0 and 1
        points = np.unique(np.concatenate([knots,
                                           rng.uniform(size=pieces + 2)]))
        pairs = [(a, b) for i, a in enumerate(points) for b in points[i + 1:]]
        picks = rng.choice(len(pairs), size=min(len(pairs), 300), replace=False)
        ends = np.array([pairs[k] for k in picks])
        speed_of = segment_speeds(paths)
        for k, p in enumerate(paths):
            assert p.speeds.shape == (p.knots.size - 1,)
            assert p.lipschitz == max(p.speeds.tolist(), default=0.0)
            got = speed_of(np.full(len(ends), k), ends)
            assert got.tolist() == [_segment_speed_loop(p, a, b)
                                    for a, b in ends]
            assert speed_of(np.array([k]),
                            np.array([[0.0, 1.0]])).tolist() == [p.lipschitz]
            for (a, b), speed in list(zip(ends, got))[:40]:
                # no pair of dense samples inside [a, b] moves faster, up to
                # the rounding of the interpolated blocks themselves
                lams = np.linspace(a, b, 9)
                blocks = p.blocks_at(lams)
                moved = np.linalg.norm(blocks[1:] - blocks[:-1], ord=2,
                                       axis=(1, 2)) if n else np.zeros(8)
                size = np.abs(blocks).max(initial=0.0)
                assert (moved <= speed * np.diff(lams)
                        + 8 * (n + 1) * EPS * size).all()


def test_eigh_each_keeps_each_failure_with_its_matrix(monkeypatch):
    stack = np.stack([np.eye(2), np.full((2, 2), np.nan), 2.0 * np.eye(2),
                      np.full((2, 2), np.inf)])
    real = operators.jacobi_eigh

    def solve(blocks):
        if np.any(np.isnan(blocks)):  # a second message, for the NaN block
            raise EigenFailure("NaN block")
        return real(blocks)

    monkeypatch.setattr(operators, "jacobi_eigh", solve)
    w, v, errors = eigh_each(stack)
    assert w[0, 0] == 1.0 and w[2, 0] == 2.0
    assert list(errors) == [1, 3]
    assert str(errors[1]) == "NaN block"
    assert str(errors[3]) == "block has non-finite entries"
    # a failed matrix's rows are zero, never NaN
    assert not w[[1, 3]].any() and not v[[1, 3]].any()
    # _specnorm raises the first failing matrix in order
    with pytest.raises(EigenFailure, match="NaN block"):
        operators._specnorm(stack)
    with pytest.raises(EigenFailure, match="non-finite"):
        operators._specnorm(stack[[0, 3, 1]])
    w, _, errors = eigh_each(stack[[0, 2]])
    assert w[:, 0].tolist() == [1.0, 2.0] and errors == {}


def test_eigendata_each_solves_and_bounds_a_good_stack_once(monkeypatch):
    # one stacked solve and one stacked bound, on the stack itself; with a
    # failed block, the bound of the others only, so no NaN reaches it
    stack = _symmetric_stack(3, np.random.default_rng(5))
    calls = []
    real_solve, real_bound = operators.jacobi_eigh, operators.eigh_error

    def solve(blocks):
        calls.append(("solve", len(blocks)))
        return real_solve(blocks)

    def bound(blocks, w, v):
        calls.append(("bound", len(blocks), np.shares_memory(blocks, stack)))
        return real_bound(blocks, w, v)

    monkeypatch.setattr(operators, "jacobi_eigh", solve)
    monkeypatch.setattr(operators, "eigh_error", bound)
    w, v, norm, tol, err, ok, errors = eigendata_each(stack)
    assert calls == [("solve", 4), ("bound", 4, True)]
    assert ok.all() and errors == {}
    assert err.tolist() == real_bound(stack, w, v).tolist()
    assert norm.tolist() == np.abs(w).max(axis=1).tolist()
    assert tol.tolist() == (operators.CLUSTER_FACTOR * (1.0 + norm)).tolist()
    stack[2, 0, 0] = np.nan
    calls.clear()
    got = eigendata_each(stack)
    assert calls == [("solve", 4), *[("solve", 1)] * 4, ("bound", 3, False)]
    assert got[5].tolist() == [True, True, False, True]
    assert got[4][[0, 1, 3]].tolist() == err[[0, 1, 3]].tolist()


def test_a_non_finite_error_bound_fails_its_own_row(monkeypatch):
    stack = np.stack([np.eye(2), 2.0 * np.eye(2), 3.0 * np.eye(2)])
    real = operators.eigh_error

    def bound(blocks, w, v):
        if (blocks[:, 0, 0] == 2.0).any():
            raise EigenFailure("eigenvalue error bound is inf")
        return real(blocks, w, v)

    monkeypatch.setattr(operators, "eigh_error", bound)
    w, v, norm, tol, err, ok, errors = eigendata_each(stack)
    assert ok.tolist() == [True, False, True]
    assert list(errors) == [1]
    assert str(errors[1]) == "eigenvalue error bound is inf"
    assert not w[1].any() and not v[1].any()
    assert w[2].tolist() == [3.0, 3.0] and norm[[0, 2]].tolist() == [1.0, 3.0]
    assert err[[0, 2]].tolist() == real(stack[[0, 2]], w[[0, 2]],
                                        v[[0, 2]]).tolist()
    with pytest.raises(EigenFailure, match="bound is inf"):
        operators._specnorm(stack)


def _block_at_one_parameter(path, lam):
    # the per-parameter interpolation blocks_at replaced: the reference its
    # blocks must match bit for bit
    if path.kind == "affine":
        return path.mat_a + lam * path.mat_b
    i = int(np.searchsorted(path.knots, lam, side="right")) - 1
    i = min(i, path.knots.size - 2)
    if lam == path.knots[i]:
        return path.samples[i].copy()
    if lam == path.knots[i + 1]:
        return path.samples[i + 1].copy()
    t = (lam - path.knots[i]) / (path.knots[i + 1] - path.knots[i])
    return (1.0 - t) * path.samples[i] + t * path.samples[i + 1]


def test_stacked_interpolation_matches_one_parameter_at_a_time():
    rng = np.random.default_rng(9)
    knots = [0.0, 0.2, 0.55, 1.0]
    samples = rng.standard_normal((4, 3, 3))
    # signed zeros at knots, which interpolation with a positive neighbour
    # would turn into +0.0: at an inner knot and at the last one
    samples[1, 0, 0] = samples[3, 2, 2] = -0.0
    samples[2, 0, 0] = samples[2, 2, 2] = 1.0
    a, b = rng.standard_normal((2, 3, 3))
    b[0, 0] = 0.0
    lams = knots + [0.1, 0.3, 0.5, 0.999, float(np.nextafter(0.55, 1.0)),
                    float(np.nextafter(0.2, 0.0)), 5e-324]
    pl = OperatorPath.piecewise_linear(knots, list(samples))
    for path in (OperatorPath.affine(a, b), OperatorPath.affine(-0.0 * a, b),
                 pl, reverse(pl), negate(pl), direct_sum_paths(pl, pl),
                 OperatorPath.piecewise_linear([0.0, 1.0], [np.zeros((0, 0))] * 2)):
        blocks = path.blocks_at(lams)
        assert blocks.shape == (len(lams), path.dim, path.dim)
        assert path.blocks_at([]).shape == (0, path.dim, path.dim)
        for lam, block in zip(lams, blocks):
            want = _block_at_one_parameter(path, lam)
            for got in (block, path.block_at(lam)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def test_stacked_interpolation_names_the_first_parameter_outside():
    path = OperatorPath.affine(np.eye(2), np.eye(2))
    for lams, bad in [([0.5, 1.5, -1.0], "1.5"), ([0.0, np.nan], "nan"),
                      ([-1e-300], "-1e-300")]:
        with pytest.raises(OutOfRange, match=rf"parameter {bad} outside"):
            path.blocks_at(lams)
