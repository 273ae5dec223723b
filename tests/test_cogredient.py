"""Positive splits, congruence normal forms along paths, symmetry sections."""

import numpy as np
import pytest

from sflow import _eig, cogredient, operators
from sflow._eig import EPS, eigh_error, jacobi_eigh
from sflow.cogredient import (
    MIN_SINGULAR,
    POSITIVITY_MARGIN,
    RESIDUAL_FACTOR,
    _check_cover,
    parametrix,
    parametrix_fs_plus,
    pointwise_section,
    split_positive,
)
from sflow.errors import (
    CoverFailure,
    EigenFailure,
    NotFSi,
    NotFSplus,
    NotPositive,
    OutOfRange,
    ResidualTooLarge,
)
from sflow.flow import sfl_G
from sflow.groups import OrthogonalAction, build_group
from sflow.operators import CPS, OperatorPath, check_equivariance, negate
from sflow.sampling import haar_orthogonal, preset_action, random_equivariant_path


# --- split_positive ----------------------------------------------------------


def test_split_keeps_positive_part():
    s, k = split_positive(CPS(np.diag([3.0, -1.0]), plus_tail=True))
    assert np.allclose(s.block, np.diag([3.0, 1.0]))
    assert np.allclose(k.block, np.diag([0.0, -2.0]))
    assert s.plus_tail and not s.minus_tail
    assert k.tails == (False, False)


def test_split_of_positive_definite_is_trivial():
    op = CPS(np.diag([1.0, 2.0]))
    s, k = split_positive(op)
    assert np.allclose(s.block, op.block)
    assert np.allclose(k.block, 0.0)
    s, k = split_positive(CPS(np.diag([0.5]), plus_tail=True))
    assert np.allclose(s.block, [[0.5]])
    assert np.allclose(k.block, 0.0)


def test_split_sends_kernel_to_correction():
    s, k = split_positive(CPS(np.diag([0.0, 2.0]), plus_tail=True))
    assert np.allclose(s.block, np.diag([1.0, 2.0]))
    assert np.allclose(k.block, np.diag([-1.0, 0.0]))


def test_split_rejects_wrong_component():
    with pytest.raises(NotFSplus):
        split_positive(CPS(np.eye(1), minus_tail=True))
    with pytest.raises(NotFSplus):
        split_positive(CPS(np.eye(1), plus_tail=True, minus_tail=True))


# --- parametrix along a path ---------------------------------------------------


def test_parametrix_constant_path():
    p = OperatorPath.affine(np.diag([3.0, -1.0]), np.zeros((2, 2)),
                            plus_tail=True)
    px = parametrix(p, samples=5)
    assert px.sign == 1
    root3 = 1.0 / np.sqrt(3.0)
    for m, k in zip(px.M, px.K):
        assert np.allclose(m, np.diag([root3, 1.0]))
        assert np.allclose(k, np.diag([0.0, -2.0]))
        assert np.allclose(m.T @ np.diag([3.0, -1.0]) @ m, np.diag([1.0, -1.0]))
    assert px.max_residual() <= 1e-9 * (1.0 + 3.0)


def test_parametrix_positive_definite_path_has_no_correction():
    p = OperatorPath.affine(np.diag([2.0, 1.0]), np.eye(2), plus_tail=True)
    px = parametrix(p)
    for lam, m, k in zip(px.lambdas, px.M, px.K):
        assert np.allclose(k, 0.0, atol=1e-12)
        block = p.block_at(lam)
        assert np.allclose(m @ m, np.linalg.inv(block), atol=1e-10)


def test_parametrix_negative_side_flips_sign():
    p = OperatorPath.affine(np.diag([-3.0, 1.0]), np.zeros((2, 2)),
                            minus_tail=True)
    px = parametrix(p, samples=5)
    assert px.sign == -1
    assert px.path is p
    for m, k in zip(px.M, px.K):
        assert np.allclose(k, np.diag([0.0, 2.0]))
        assert np.allclose(m.T @ np.diag([-3.0, 1.0]) @ m,
                           -np.eye(2) + np.diag([0.0, 2.0]))
    m, k = px.at(0.37)
    assert np.allclose(k, np.diag([0.0, 2.0]))


def test_parametrix_rejects_wrong_tails():
    both = OperatorPath.affine(np.eye(1), np.zeros((1, 1)),
                               plus_tail=True, minus_tail=True)
    with pytest.raises(NotFSplus):
        parametrix(both)
    minus = OperatorPath.affine(np.eye(1), np.zeros((1, 1)), minus_tail=True)
    with pytest.raises(NotFSplus):
        parametrix_fs_plus(minus)
    fine = OperatorPath.affine(np.eye(1), np.zeros((1, 1)), plus_tail=True)
    with pytest.raises(OutOfRange):
        parametrix(fine, samples=1)


def test_cover_failure_on_coarse_grid():
    # eigenvalue sweeps -3 to 3; two anchors cannot cover the crossing
    p = OperatorPath.affine(np.array([[-3.0]]), np.array([[6.0]]),
                            plus_tail=True)
    with pytest.raises(CoverFailure):
        parametrix(p, samples=2)
    px = parametrix(p, samples=33)
    assert px.max_residual() <= 1e-9 * (1.0 + 3.0)


def test_parametrix_mid_sample_evaluation():
    rng = np.random.default_rng(23)
    table, action = preset_action("cyclic", 2, 3, rng)
    p = random_equivariant_path(action, rng, plus_tail=True)
    px = parametrix(p, samples=33)
    for lam in (0.0, 0.31, 0.5, 0.77, 1.0):
        m, k = px.at(lam)
        block = p.block_at(lam)
        norm = float(np.linalg.norm(block, 2))
        res = np.linalg.norm(m.T @ block @ m - (np.eye(3) + k), 2)
        assert res <= 1e-8 * (1.0 + norm)
    with pytest.raises(OutOfRange):
        px.at(1.5)


def test_parametrix_equivariance_and_flow_invariance():
    rng = np.random.default_rng(29)
    group, table = build_group("cyclic", 2)
    action = OrthogonalAction(group, [np.eye(3), np.diag([1.0, -1.0, 1.0])])
    for _ in range(3):
        p = random_equivariant_path(action, rng, plus_tail=True)
        px = parametrix(p, samples=33)
        for m in px.M:
            assert check_equivariance(CPS(m), action) <= 1e-8
        direct = sfl_G(p, action, table)
        moved = sfl_G(px.transformed_path(), action, table)
        assert direct.sfl_G == moved.sfl_G


def test_transformed_path_keeps_tails():
    p = OperatorPath.affine(np.diag([-3.0, 1.0]), np.zeros((2, 2)),
                            minus_tail=True)
    t = parametrix(p, samples=5).transformed_path()
    assert t.tails == p.tails
    assert np.allclose(t.block_at(0.0), np.diag([-1.0, 1.0]))


@pytest.mark.parametrize("plus", [True, False])
def test_parametrix_of_a_path_of_empty_blocks_is_trivial(plus):
    # the flow of a 0 x 0 path is the zero class, and so is its normal
    # form's, with no residual
    path = OperatorPath.affine(np.zeros((0, 0)), np.zeros((0, 0)),
                               plus_tail=plus, minus_tail=not plus)
    table, action = preset_action("cyclic", 3, 0)
    px = parametrix(path)
    assert px.sign == (1 if plus else -1)
    assert px.max_residual() == 0.0
    moved = px.flow_class(action, table)
    assert moved.is_zero()
    assert moved == sfl_G(path, action, table).sfl_G
    assert px.transformed_path().dim == 0


# --- pointwise sections ---------------------------------------------------------


def test_section_of_invertible_diagonal():
    op = CPS(np.diag([2.0, -3.0]), plus_tail=True, minus_tail=True)
    sec = pointwise_section(op)
    assert sec.kernel_dim == 0
    assert np.allclose(sec.Q.block, np.diag([1.0, -1.0]))
    assert sec.Q.tails == (True, True)
    assert np.allclose(sec.M, np.diag([np.sqrt(2.0), np.sqrt(3.0)]))
    assert np.allclose(sec.K, 0.0, atol=1e-12)
    assert np.allclose(sec.M @ sec.Q.block @ sec.M.T, op.block)


def test_section_fixes_symmetries():
    op = CPS(np.diag([1.0, -1.0]), plus_tail=True, minus_tail=True)
    sec = pointwise_section(op)
    assert np.allclose(sec.Q.block, op.block)
    assert np.allclose(sec.M, np.eye(2))
    assert np.allclose(sec.K, 0.0, atol=1e-12)


def test_section_kernel_goes_to_correction():
    op = CPS(np.diag([0.0, 1.0]), plus_tail=True, minus_tail=True)
    sec = pointwise_section(op)
    assert sec.kernel_dim == 1
    assert np.allclose(sec.Q.block, np.eye(2))
    assert np.allclose(sec.M, np.eye(2))
    assert np.allclose(sec.K, np.diag([-1.0, 0.0]))


def test_section_rank_matches_kernel():
    rng = np.random.default_rng(31)
    u = haar_orthogonal(3, rng)
    block = u @ np.diag([0.0, 0.7, -0.4]) @ u.T
    sec = pointwise_section(CPS(block, plus_tail=True, minus_tail=True))
    assert sec.kernel_dim == 1
    assert np.linalg.matrix_rank(sec.K, tol=1e-8) == 1
    assert np.allclose(sec.Q.block @ sec.Q.block, np.eye(3), atol=1e-10)
    recon = sec.M @ sec.Q.block @ sec.M.T + sec.K
    assert np.linalg.norm(block - recon, 2) <= 1e-9 * (1.0 + 0.7)


def test_section_is_equivariant():
    rng = np.random.default_rng(37)
    group, _ = build_group("cyclic", 2)
    action = OrthogonalAction(group, [np.eye(4),
                                      np.diag([1.0, 1.0, -1.0, -1.0])])
    from sflow.sampling import random_equivariant_symmetric

    block = random_equivariant_symmetric(action, rng)
    sec = pointwise_section(CPS(block, plus_tail=True, minus_tail=True))
    assert check_equivariance(sec.Q, action) <= 1e-8
    assert check_equivariance(CPS(sec.M), action) <= 1e-8
    assert check_equivariance(CPS(sec.K), action) <= 1e-8


def test_section_measures_its_antisymmetric_residual(monkeypatch):
    # K is the symmetric part of S - M Q M', so the residual S - (M Q M' + K)
    # is antisymmetric, and a symmetric solve of it would read 0 however
    # large it is; it is measured as it is, against the bound of the block
    # spectrum's norm, with the drift K + kernel projection
    rng = np.random.default_rng(53)
    u = haar_orthogonal(6, rng)
    w = np.concatenate([[0.0], 1e6 * rng.uniform(-1.0, 1.0, 5)])
    op = CPS(u @ np.diag(w) @ u.T, plus_tail=True, minus_tail=True)
    seen = []
    real = cogredient.opnorms_within

    def recording(m, tol):
        seen.append((np.array(m), tol))
        return real(m, tol)

    monkeypatch.setattr(cogredient, "opnorms_within", recording)
    sec = pointwise_section(op)
    (((residual, drift), tol),) = seen
    want = op.block - (sec.M @ sec.Q.block @ sec.M.T + sec.K)
    assert np.array_equal(residual, want)
    assert np.linalg.norm(residual, 2) > 0.0
    assert np.allclose(residual, -residual.T, rtol=0.0, atol=1e-12)
    assert real(residual, 0.0) == np.linalg.norm(want, 2)
    spec = operators.block_spectrum(op)
    kernel = np.abs(spec.eigenvalues) <= spec.tol
    assert sec.kernel_dim == kernel.sum() == 1
    k0 = (spec.vectors * kernel) @ spec.vectors.T
    assert np.array_equal(drift, sec.K + k0)
    assert tol == RESIDUAL_FACTOR * (1.0 + spec.block_norm)


def test_section_rejects_one_sided_operators():
    with pytest.raises(NotFSi):
        pointwise_section(CPS(np.eye(1)))
    with pytest.raises(NotFSi):
        pointwise_section(CPS(np.eye(1), plus_tail=True))


# --- stacked solves against the normal form one sample at a time ---------------


def _ref_norm(m):
    w, _ = jacobi_eigh(m)
    return float(np.max(np.abs(w))) if w.size else 0.0


def _ref_specnorm(m):
    w, v = jacobi_eigh(m)
    err = eigh_error(m[None], w[None], v[None])[0]
    return float((np.max(np.abs(w)) + err) * (1.0 + 2.0 * EPS))


def _ref_correction(block, tol):
    w, v = jacobi_eigh(block)
    k = (v * np.where(w > tol, 0.0, w - 1.0)) @ v.T
    return 0.5 * k + 0.5 * k.T


def _ref_inv_sqrt(block, margin):
    w, v = jacobi_eigh(block)
    if w.size and float(w[0]) <= margin:
        raise NotPositive(f"eigenvalue {float(w[0]):.3e} at or below margin "
                          f"{margin:.3e}")
    out = (v / np.sqrt(w)) @ v.T
    return 0.5 * out + 0.5 * out.T


def _ref_cover(path, anchors, corrections):
    # anchor by anchor, the two ends of the hat support and the path knots
    # strictly inside it, in increasing parameter, one eigensolve each
    for j, k_j in enumerate(corrections):
        lo = anchors[max(j - 1, 0)]
        hi = anchors[min(j + 1, len(anchors) - 1)]
        inner = [x for x in path.knots.tolist() if lo < x < hi]
        for lam in [lo, *inner, hi]:
            w, _ = jacobi_eigh(path.block_at(lam) - k_j)
            low = float(w[0]) if w.size else 1.0
            if low <= POSITIVITY_MARGIN:
                raise CoverFailure(
                    f"frozen split at anchor {anchors[j]:.6g} loses "
                    f"positivity at {lam:.6g} (eigenvalue {low:.3e}); "
                    "refine samples")


def _ref_parametrix(path, samples):
    """The one-sided normal form with one eigensolve per sample in Python
    loops: (M, K, corrections, max_residual, transformed Lipschitz bound)."""
    sign, fs_plus = 1, path
    if path.minus_tail and not path.plus_tail:
        sign, fs_plus = -1, negate(path)
    anchors = np.linspace(0.0, 1.0, samples)
    spacing = 1.0 / (samples - 1)
    corrections = []
    for lam in anchors:
        block = fs_plus.block_at(lam)
        cut = max(2.0 * 1e-8 * (1.0 + _ref_norm(block)),
                  4.0 * fs_plus.lipschitz * spacing)
        corrections.append(_ref_correction(block, cut))
    _ref_cover(fs_plus, anchors, corrections)
    ms, ks = [], []
    for lam, k_blend in zip(anchors, corrections):
        m = _ref_inv_sqrt(fs_plus.block_at(lam) - k_blend, POSITIVITY_MARGIN)
        k = m.T @ k_blend @ m
        ms.append(m)
        ks.append(0.5 * k + 0.5 * k.T)
    for lam, m, k in zip(anchors.tolist(), ms, ks):
        op = fs_plus.at(lam)
        res = _ref_norm(m.T @ op.block @ m - (np.eye(path.dim) + k))
        norm = _ref_norm(op.block)
        bound = RESIDUAL_FACTOR * (1.0 + (max(norm, 1.0) if any(op.tails)
                                          else norm))
        if res > bound:
            raise ResidualTooLarge(
                f"residual {res:.3e} at sample {lam} exceeds {bound:.3e}")
        sv = np.linalg.svd(m, compute_uv=False)
        if float(sv[-1]) <= MIN_SINGULAR:
            raise NotPositive(f"M at sample {lam} has singular value "
                              f"{float(sv[-1]):.3e}")
    if sign < 0:
        ks = [-k for k in ks]
    worst = 0.0
    for lam, m, k in zip(anchors, ms, ks):
        target = sign * np.eye(path.dim) + k
        worst = max(worst, _ref_norm(m.T @ path.block_at(lam) @ m - target))
    mats = [sign * np.eye(path.dim) + k for k in ks]
    mats = [0.5 * x + 0.5 * x.T for x in mats]
    knots = anchors.tolist()
    lip = 0.0
    for i in range(len(mats) - 1):
        lip = max(lip, _ref_specnorm(mats[i + 1] - mats[i])
                  / (knots[i + 1] - knots[i]))
    return ms, ks, corrections, worst, lip


def _outcome(fn):
    try:
        return fn()
    except Exception as e:  # noqa: BLE001 - the comparison covers failures
        return type(e).__name__, str(e)


def _same_bits(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_stacked_parametrix_matches_one_sample_at_a_time(dim):
    rng = np.random.default_rng(100 + dim)
    group, _ = build_group("trivial")
    action = OrthogonalAction(group, [np.eye(dim)])
    solved = 0
    for kind in ("affine", "pl"):
        for tails in ({"plus_tail": True}, {"minus_tail": True}, {}):
            for samples in (17, 64):
                p = random_equivariant_path(action, rng, kind=kind, **tails)
                want = _outcome(lambda: _ref_parametrix(p, samples))
                got = _outcome(lambda: parametrix(p, samples))
                if isinstance(want, tuple) and isinstance(want[0], str):
                    assert got == want
                    continue
                ms, ks, corrections, worst, lip = want
                assert _same_bits(got.M, ms)
                assert _same_bits(got.K, ks)
                assert _same_bits(got.anchor_corrections, corrections)
                assert got.max_residual() == worst
                assert got.transformed_path().lipschitz == lip
                solved += 1
    assert solved >= 6


@pytest.mark.parametrize("entry", [1.7e308, -1.7e308, 1e308])
@pytest.mark.parametrize("tails", [{"plus_tail": True}, {"minus_tail": True}])
def test_stacked_parametrix_fails_as_one_sample_at_a_time(entry, tails):
    p = OperatorPath.affine(np.array([[entry]]), np.zeros((1, 1)), **tails)
    want = _outcome(lambda: _ref_parametrix(p, 64))
    assert isinstance(want[0], str)
    assert _outcome(lambda: parametrix(p, 64)) == want


def test_late_cover_failure_names_the_first_failing_sample():
    # flat until 0.9, then the eigenvalue drops through zero: the cover fails
    # near the end of the grid, first at the support end 15/16 of anchor 14/16
    p = OperatorPath.piecewise_linear([0.0, 0.9, 1.0],
                                      [np.eye(2), np.eye(2),
                                       np.diag([-3.0, 1.0])], plus_tail=True)
    want = _outcome(lambda: _ref_parametrix(p, 17))
    assert want[0] == "CoverFailure"
    with pytest.raises(CoverFailure) as info:
        parametrix(p, 17)
    assert str(info.value) == want[1]
    assert "anchor 0.875 loses positivity at 0.9375 " in want[1]


def test_cover_failure_at_an_interior_knot_names_the_knot():
    # a dip to -1 at the knot 0.3, with every anchor block the identity: the
    # frozen corrections are zero, and only the knot inside the supports of
    # anchors 0.25 and 0.5 is not positive
    knots = [0.0, 0.29, 0.3, 0.31, 1.0]
    samples = [np.eye(1)] * 2 + [-np.eye(1)] + [np.eye(1)] * 2
    p = OperatorPath.piecewise_linear(knots, samples, plus_tail=True)
    want = _outcome(lambda: _ref_parametrix(p, 5))
    assert want[0] == "CoverFailure"
    with pytest.raises(CoverFailure) as info:
        parametrix(p, 5)
    assert str(info.value) == want[1]
    assert str(info.value).startswith(
        "frozen split at anchor 0.25 loses positivity at 0.3 (eigenvalue "
        "-1.000e+00)")


class _StubPath:
    """Cover-check input with one unsolvable sample: the block is the scalar
    1, NaN at bad, and 0 (failing the cover) at low, with one interior knot
    at 1/8."""

    knots = np.array([0.0, 0.125, 1.0])

    def __init__(self, bad, low):
        self.bad, self.low = bad, low

    def block_at(self, lam):
        if lam == self.bad:
            return np.array([[np.nan]])
        return np.array([[0.0 if lam == self.low else 1.0]])

    def blocks_at(self, lams):
        return np.stack([self.block_at(lam) for lam in lams])


# with 5 anchors the grid runs 0, 1/8, 1/4 around anchor 0, then 0, 1/8, 1/2
# around anchor 1/4, all in one stacked factorization
@pytest.mark.parametrize("bad, low, raised", [(0.25, 0.125, CoverFailure),
                                              (0.25, 0.5, EigenFailure)])
def test_unsolvable_sample_does_not_preempt_an_earlier_cover_failure(
        bad, low, raised):
    anchors = np.linspace(0.0, 1.0, 5)
    corrections = np.zeros((5, 1, 1))
    stub = _StubPath(bad, low)
    want = _outcome(lambda: _ref_cover(stub, anchors, corrections))
    assert want[0] == raised.__name__
    with pytest.raises(raised) as info:
        _check_cover(stub, anchors, stub.blocks_at(anchors), corrections)
    assert str(info.value) == want[1]


def _count_solves(monkeypatch):
    # every stacked eigensolve the normal form makes, by stack size
    sizes = []
    real = _eig.jacobi_eigh

    def counting(blocks):
        sizes.append(1 if np.ndim(blocks) == 2 else len(blocks))
        return real(blocks)

    for module in (_eig, operators):
        monkeypatch.setattr(module, "jacobi_eigh", counting)
    return sizes


def _cover_solves(monkeypatch):
    # the stack size of each eigensolve of the cover check, and of every
    # eigensolve of the normal form
    sizes = _count_solves(monkeypatch)
    in_cover = []
    real_cover = cogredient._check_cover

    def cover(*args):
        start = len(sizes)
        real_cover(*args)
        in_cover.extend(sizes[start:])

    monkeypatch.setattr(cogredient, "_check_cover", cover)
    return in_cover, sizes


@pytest.mark.parametrize("samples", [33, 64, 100])
@pytest.mark.parametrize("dim, knots", [(2, []), (48, []), (2, [0.3, 0.7]),
                                        (48, [0.3, 0.7])])
def test_cover_grid_is_one_factorization_and_no_solve(samples, dim, knots,
                                                      monkeypatch):
    # the grid holds the two ends of every hat support and each knot strictly
    # inside one; 0.3 and 0.7 fall between anchors, so each lies inside two
    # supports. A grid that certifies is one stacked factorization of
    # 2 samples + 2 x interior knots blocks and takes no eigensolve, and no
    # other stack is larger than the anchors
    lo = np.diag(np.tile([-3.0, 2.0], dim // 2))
    hi = lo + np.diag(np.tile([6.0, 1.0], dim // 2))
    ts = [0.0, *knots, 1.0]
    p = OperatorPath.piecewise_linear(
        ts, [(1.0 - t) * lo + t * hi for t in ts], plus_tail=True)
    in_cover, sizes = _cover_solves(monkeypatch)
    factored = []
    real = np.linalg.cholesky

    def counting(m):
        factored.append(m.shape)
        return real(m)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    parametrix(p, samples=samples)
    assert factored == [(2 * samples + 2 * len(knots), dim, dim)]
    assert in_cover == []
    assert max(sizes) <= samples


@pytest.mark.parametrize("tails, negated", [({"plus_tail": True}, 0),
                                            ({"minus_tail": True}, 1)])
def test_normal_form_makes_a_fixed_number_of_solves(tails, negated,
                                                    monkeypatch):
    # anchors 1 (their norms serve the residual bounds), inverse roots 1,
    # residual check 1 (max_residual reports its worst residual), the
    # samples of the flow class 1, and the negated path's Lipschitz bound on
    # the negative side; the cover is a factorization, not a solve
    rng = np.random.default_rng(5)
    table, action = preset_action("cyclic", 2, 3, rng)
    p = random_equivariant_path(action, rng, kind="pl", **tails)
    p.speeds  # solved before counting, as every path's were when built
    counts = []
    for samples in (64, 128):
        sizes = _count_solves(monkeypatch)
        px = parametrix(p, samples=samples)
        px.max_residual()
        px.flow_class(action, table)
        counts.append(len(sizes))
    assert counts[0] == counts[1] == 4 + negated


def test_anchor_norms_are_the_bits_of_the_checked_blocks_norms(monkeypatch):
    # the residual bounds take each block's norm from the anchor solve; the
    # path's blocks are exactly symmetric, so that solve has the input, and
    # the bits, of solving each path.at(lam).block for its norm
    rng = np.random.default_rng(41)
    seen = []
    real = cogredient._check_residual

    def check(path, lambdas, m, k, b, norms, reported, smallest):
        seen.append((b, norms))
        return real(path, lambdas, m, k, b, norms, reported, smallest)

    monkeypatch.setattr(cogredient, "_check_residual", check)
    for dim in (1, 2, 3, 4):
        table, action = preset_action("cyclic", 2, dim, rng)
        for kind in ("affine", "pl"):
            for tails in ({"plus_tail": True}, {"minus_tail": True}):
                p = random_equivariant_path(action, rng, kind=kind, **tails)
                _outcome(lambda: parametrix(p, 33))
    assert len(seen) == 16
    for b, norms in seen:
        assert np.array_equal(b, b.swapaxes(1, 2))
        w, _ = _eig.jacobi_eigh(0.5 * b + 0.5 * b.swapaxes(1, 2))
        want = np.abs(w).max(axis=1, initial=0.0)
        assert norms.tobytes() == want.tobytes()


@pytest.mark.parametrize("tails", [{"plus_tail": True}, {"minus_tail": True}])
def test_worst_residual_is_solved_with_the_check(tails, monkeypatch):
    # at 1/2 the off-diagonal entry is the odd subnormal 5e-324, which the
    # symmetric part rounds to 0, and on the negative side the residual
    # matrices are negations of the checked ones: in both cases the path's
    # own residuals differ from the checked bits, and are solved in the
    # check's stack, so max_residual solves nothing and has the bits of
    # solving them one sample at a time
    speed = np.array([[1.0, 1e-323], [1e-323, 0.0]])
    sign = 1 if "plus_tail" in tails else -1
    p = OperatorPath.affine(sign * np.diag([1.0, 2.0]), sign * speed, **tails)
    assert p.block_at(0.5)[0, 1] == sign * 5e-324
    p.speeds
    sizes = _count_solves(monkeypatch)
    px = parametrix(p, samples=5)
    worst = px.max_residual()
    # anchors, inverse roots and residual check, and the negated path's
    # Lipschitz bound on the negative side
    assert len(sizes) == 3 + (sign < 0)
    assert sizes[-1] == 2 * 5
    assert worst == _ref_parametrix(p, 5)[3]


# --- masked checks against a per-sample loop ------------------------------------


def _ref_check_residual(lambdas, m, k, b, norms, tails, smallest):
    # the residual checks one sample at a time, in order
    for lam, mj, kj, bj, norm, sv in zip(lambdas, m, k, b, norms, smallest):
        res = _ref_norm(mj.T @ (0.5 * bj + 0.5 * bj.T) @ mj
                        - (np.eye(len(mj)) + kj))
        bound = RESIDUAL_FACTOR * (1.0 + (max(norm, 1.0) if any(tails)
                                          else norm))
        if res > bound:
            raise ResidualTooLarge(
                f"residual {res:.3e} at sample {lam} exceeds {bound:.3e}")
        if sv <= MIN_SINGULAR:
            raise NotPositive(f"M at sample {lam} has singular value "
                              f"{sv:.3e}")


class _TailsOnly:
    # the part of a path the residual check reads
    dim, tails = 2, (True, False)


# (m, k, b) of a sample that passes, or fails in one way: its residual is
# too large, its M is nearly singular, or its residual cannot be solved
_SAMPLES = {
    "good": (np.eye(2), np.zeros((2, 2)), np.eye(2)),
    "residual": (np.eye(2), np.zeros((2, 2)), np.diag([1.0 + 1e-3, 1.0])),
    "singular": (np.diag([1e-11, 1.0]), np.diag([1e-22 - 1.0, 0.0]),
                 np.eye(2)),
    "unsolvable": (np.eye(2), np.zeros((2, 2)), np.diag([np.nan, 1.0])),
}


@pytest.mark.parametrize("first, second", [
    ("residual", "singular"), ("singular", "residual"),
    ("unsolvable", "residual"), ("residual", "unsolvable"),
    ("unsolvable", "singular"), ("singular", "unsolvable")])
def test_masked_residual_check_fails_as_the_loop(first, second):
    order = ["good", first, "good", second, "good"]
    m, k, b = (np.array(x) for x in zip(*(_SAMPLES[s] for s in order)))
    lambdas = tuple(np.linspace(0.0, 1.0, len(order)).tolist())
    norms = np.array([1.0, 2.0, 0.5, 3.0, 1.0])
    # M is the inverse root of a matrix with eigenvalues w: its smallest
    # singular value, 1 / sqrt(max w), is passed in
    smallest = np.linalg.svd(m, compute_uv=False)[:, -1]
    want = _outcome(lambda: _ref_check_residual(lambdas, m, k, b, norms,
                                                _TailsOnly.tails, smallest))
    assert want[0] == {"residual": "ResidualTooLarge",
                       "singular": "NotPositive",
                       "unsolvable": "EigenFailure"}[first]
    checked = m.swapaxes(1, 2) @ b @ m - (np.eye(2) + k)
    got = _outcome(lambda: cogredient._check_residual(
        _TailsOnly(), lambdas, m, k, b, norms, checked, smallest))
    assert got == want


def _ref_inv_sqrt_each(blocks, margin):
    return [_ref_inv_sqrt(block, margin) for block in blocks]


@pytest.mark.parametrize("first, second", [
    ("low", "unsolvable"), ("unsolvable", "low")])
def test_masked_inverse_roots_fail_as_the_loop(first, second):
    # one block at the margin, one that cannot be solved, between good ones
    kinds = {"good": np.diag([2.0, 3.0]), "low": np.diag([1e-9, 3.0]),
             "unsolvable": np.diag([np.inf, 3.0])}
    blocks = np.array([kinds[s] for s in ["good", first, second, "good"]])
    want = _outcome(lambda: _ref_inv_sqrt_each(blocks, POSITIVITY_MARGIN))
    assert want[0] == ("NotPositive" if first == "low" else "EigenFailure")
    got = _outcome(lambda: cogredient._inv_sqrt(blocks, POSITIVITY_MARGIN))
    assert got == want
    good = blocks[[0, 3]]
    assert _same_bits(cogredient._inv_sqrt(good, POSITIVITY_MARGIN)[0],
                      _ref_inv_sqrt_each(good, POSITIVITY_MARGIN))
