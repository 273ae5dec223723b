"""Constructive normal forms for one-sided and two-sided Fredholm models.

For a path with positive essential spectrum, a congruence by inverse square
roots brings every operator to identity plus finite rank, continuously in the
parameter. The finite-rank corrections are frozen on an anchor grid and
blended with hat functions, which keeps the positive part positive as long as
each frozen correction stays admissible across its hat support; that is what
the cover check certifies. Operators with essential spectrum on both sides get
the pointwise symmetry factorization instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._eig import (EPS, ETA, cholesky_above, eigh_error, opnorms_within,
                   symmetric_part)
from .errors import (
    CoverFailure,
    EigenFailure,
    NotEquivariant,
    NotFSi,
    NotFSplus,
    NotPositive,
    OutOfRange,
    ResidualTooLarge,
)
from .groups import OrthogonalAction, RealCharacterTable, VirtualRep
from .operators import (
    CLUSTER_FACTOR,
    CPS,
    INVERT_FACTOR,
    FSComponent,
    OperatorPath,
    _equivariance_rows,
    _negative_classes,
    block_spectrum,
    eigh_each,
    negate,
)

POSITIVITY_MARGIN = 1e-8
RESIDUAL_FACTOR = 1e-9
MIN_SINGULAR = 1e-10


def _residual_bound(norm: float | np.ndarray,
                    tails: tuple[bool, bool]) -> float | np.ndarray:
    # residual tolerance for an operator whose block has two-norm norm, or
    # for each of an array of them; a tail contributes its unit norm
    if any(tails):
        norm = np.maximum(norm, 1.0)
    return RESIDUAL_FACTOR * (1.0 + norm)


def _split_blocks(w: np.ndarray, v: np.ndarray,
                  tol: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of S = P+ L P+ + P0- and K = P0- (L - I) P0- from the
    eigendata (w, v) of L: one operator, or a (k, n, n) stack of them with
    w of shape (k, n) and one tolerance per operator."""
    pos = w > np.asarray(tol)[..., None]
    s_eigs = np.where(pos, w, 1.0)[..., None, :]
    k_eigs = np.where(pos, 0.0, w - 1.0)[..., None, :]
    vt = np.swapaxes(v, -1, -2)
    s = (v * s_eigs) @ vt
    k = (v * k_eigs) @ vt
    return symmetric_part(s), symmetric_part(k)


def split_positive(op: CPS) -> tuple[CPS, CPS]:
    """Split an operator with positive essential spectrum as S + K with S
    positive definite and K symmetric of finite rank.

    S keeps the strictly positive spectral part and is the identity on the
    rest; K carries the nonpositive part shifted by the identity. Eigenvalues
    within the block spectrum's clustering tolerance of zero count as kernel
    and go into K.
    """
    if op.component not in (FSComponent.FS_PLUS, FSComponent.FINITE):
        raise NotFSplus(f"component {op.component.name} has nonpositive "
                        "essential spectrum")
    spec = block_spectrum(op)
    s_block, k_block = _split_blocks(spec.eigenvalues, spec.vectors, spec.tol)
    s = CPS(s_block, plus_tail=op.plus_tail, minus_tail=False)
    ws = block_spectrum(s).eigenvalues
    if ws.size and float(ws[0]) <= spec.tol:
        raise NotPositive(f"split left eigenvalue {float(ws[0]):.3e} in S")
    k = CPS(k_block)
    return s, k


def _raise_first_fault(bad: np.ndarray, errors: dict,
                       fault: Callable[[int], Exception]) -> None:
    """Raise the error of the first sample in order that failed to solve
    (its errors entry) or fails a check (bad, a mask): its EigenFailure, or
    fault of its index."""
    bad = bad.copy()
    bad[list(errors)] = True
    if bad.any():
        k = int(bad.argmax())
        raise errors[k] if k in errors else fault(k)


def _lowest(w: np.ndarray) -> np.ndarray:
    # smallest eigenvalue of each row of a (k, n) ascending stack (1.0 for
    # n = 0)
    return w[:, 0] if w.shape[1] else np.ones(len(w))


def _inv_sqrt(blocks: np.ndarray,
              margin: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric inverse square root of each positive definite matrix of a
    (k, n, n) stack, from one stacked solve, with the (k, n) ascending
    eigenvalues it was built from. The first matrix in order that cannot be
    solved, or whose smallest eigenvalue is at most margin, raises."""
    w, v, errors = eigh_each(blocks)
    low = _lowest(w)
    _raise_first_fault(low <= margin, errors, lambda k: NotPositive(
        f"eigenvalue {float(low[k]):.3e} at or below margin {margin:.3e}"))
    return symmetric_part((v / np.sqrt(w)[:, None, :]) @ v.swapaxes(1, 2)), w


@dataclass(frozen=True)
class Parametrix:
    """Sampled congruence data along a path: at sample lambdas[j] the
    invertible block M[j] satisfies M' L M = sign * I + K[j] up to the
    residual bound, with K[j] symmetric of finite rank. The samples are the
    anchors of the blend, and anchor_corrections holds the frozen split at
    each; the source path is kept for mid-sample evaluation. residual is
    the largest two-norm of M' L M - (sign I + K) over the samples, solved
    together with the residual check, or the EigenFailure of the first
    sample where it could not be solved."""

    sign: int
    lambdas: tuple[float, ...]
    M: tuple[np.ndarray, ...]
    K: tuple[np.ndarray, ...]
    anchor_corrections: tuple[np.ndarray, ...]
    path: OperatorPath
    residual: float | EigenFailure

    def _hat_blend(self, lam: float) -> np.ndarray:
        grid = self.lambdas
        j = int(np.searchsorted(grid, lam, side="right")) - 1
        j = min(max(j, 0), len(grid) - 2)
        t = (lam - grid[j]) / (grid[j + 1] - grid[j])
        return ((1.0 - t) * self.anchor_corrections[j]
                + t * self.anchor_corrections[j + 1])

    def at(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """(M, K) at any parameter, from the frozen blend."""
        if not 0.0 <= lam <= 1.0:
            raise OutOfRange(f"parameter {lam} outside [0, 1]")
        sgn = float(self.sign)
        block = sgn * self.path.block_at(lam)
        k_blend = self._hat_blend(lam)
        (m,), _ = _inv_sqrt((block - k_blend)[None], POSITIVITY_MARGIN)
        return m, sgn * symmetric_part(m.T @ k_blend @ m)

    def transformed_path(self) -> OperatorPath:
        """Piecewise-linear path through sign * I + K at the samples. Its
        endpoints are the exact congruence images of the path's endpoints,
        which is all the flow of a one-sided path depends on."""
        samples = self.sign * np.eye(self.path.dim) + np.array(self.K)
        return OperatorPath.piecewise_linear(self.lambdas, samples,
                                             plus_tail=self.path.plus_tail,
                                             minus_tail=self.path.minus_tail)

    def flow_class(self, action: OrthogonalAction, table: RealCharacterTable,
                   *, tol_cluster: float = CLUSTER_FACTOR,
                   tol_invert: float = INVERT_FACTOR) -> VirtualRep:
        """The class of the flow of transformed_path, read from its samples
        sign * I + K: the negative-space class at 0 less that at 1. In this
        finite model a flow is endpoint data, so comparing it with the flow
        of the path is the equivariant Sylvester law of inertia at the two
        ends.

        The samples are solved in one stack and checked for equivariance at
        the flow's tolerance (operators._equivariance_rows), so the first
        failing sample in order raises its EigenFailure or NotEquivariant;
        then the two ends, the only rows whose solver error bound is read,
        raise the errors of morse_classes past its equivariance check."""
        samples = self.sign * np.eye(self.path.dim) + np.array(self.K)
        w, v, errors = eigh_each(samples)
        norm, ok = np.abs(w).max(axis=1, initial=0.0), np.ones(len(w), bool)
        ok[list(errors)] = False
        defects, scale, bad = _equivariance_rows(samples, action, norm, ok)
        _raise_first_fault(bad, errors, lambda k: NotEquivariant(
            f"commutator norm {defects[k]:.3e} at sample {self.lambdas[k]} "
            f"exceeds {scale[k]:.3e}"))
        ends = [0, -1]
        start, end = _negative_classes(
            action, table, w[ends], v[ends], norm[ends],
            tol_cluster * (1.0 + norm[ends]),
            eigh_error(samples[ends], w[ends], v[ends]), tol_invert)
        return start - end

    def max_residual(self) -> float:
        """Largest two-norm of M' L M - (sign I + K) over the samples, L
        the path's block there, as solved when the parametrix was built."""
        if isinstance(self.residual, EigenFailure):
            raise self.residual
        return self.residual


def _check_cover(path: OperatorPath, anchors: np.ndarray, blocks: np.ndarray,
                 corrections: np.ndarray) -> None:
    """Certify lambda_min(L(p) - K_j) > POSITIVITY_MARGIN across the hat
    support of every anchor j, L(p) the path's block and blocks its stack at
    the anchors. Positivity of both frozen neighbours on a segment makes
    every hat blend on it, a convex combination, positive too.

    On each path piece p -> L(p) - K_j is affine, so its smallest eigenvalue
    is concave there and least at a piece end. The grid is therefore, anchor
    by anchor in increasing parameter, the support's two ends (anchor
    blocks) and every path knot strictly inside it (the path's own sample):
    at most 2 samples blocks plus two per interior knot. One cholesky_above
    verdict decides it, where f bounds the rounding that formed each grid
    block B as d times a bound on its entries' error: eps |B| for subtracting
    K_j, and at an anchor off the knots 4 eps (|s_i| + |s_(i+1)|) + eta for
    interpolating the samples s of its piece (or a and a + b of an affine
    path), at most 8 eps max|s| + eta. Only the first refused sample in grid
    order is solved: it raises its EigenFailure if it cannot be solved, else
    a CoverFailure with its smallest eigenvalue."""
    n, d = len(anchors), corrections.shape[-1]
    j = np.arange(n)
    lo, hi = np.maximum(j - 1, 0), np.minimum(j + 1, n - 1)
    samples = path.blocks_at(path.knots)
    inner = path.knots[1:-1]
    first = inner.searchsorted(anchors[lo], side="right")
    size = inner.searchsorted(anchors[hi], side="left") - first + 2
    owner = j.repeat(size)
    at = np.arange(owner.size) - (np.cumsum(size) - size)[owner]
    # rows of the anchor blocks followed by the knot samples
    row = n + first[owner] + at
    row[at == 0] = lo
    row[at == size[owner] - 1] = hi
    grid = np.concatenate([blocks, samples])[row] - corrections[owner]
    interp = 8.0 * EPS * np.abs(samples).max(initial=0.0) + ETA
    f = d * (EPS * np.abs(grid).max(axis=(1, 2), initial=0.0)
             + np.where(row < n, interp, 0.0))
    refused = ~cholesky_above(grid, POSITIVITY_MARGIN, np.nextafter(f, np.inf))
    if refused.any():
        i = int(refused.argmax())
        w, _, errors = eigh_each(grid[i:i + 1])
        if errors:
            raise errors[0]
        lam = np.concatenate([anchors, path.knots])[row[i]]
        raise CoverFailure(
            f"frozen split at anchor {float(anchors[owner[i]]):.6g} loses "
            f"positivity at {float(lam):.6g} (eigenvalue "
            f"{float(_lowest(w)[0]):.3e}); refine samples")


def parametrix_fs_plus(path: OperatorPath, samples: int = 17) -> Parametrix:
    """Congruence normal form M' L M = I + K along a path with positive
    essential spectrum.

    Splits the operator at each of `samples` uniform anchors, certifies that
    every frozen finite-rank correction stays admissible across its hat
    support, and returns the blended family. Raises CoverFailure when the
    grid is too coarse for the certificate.
    """
    return _normal_form(path, samples, path, 1)


def _normal_form(path: OperatorPath, samples: int, source: OperatorPath,
                 sign: int) -> Parametrix:
    # parametrix_fs_plus of path, returned as the parametrix of source =
    # sign * path: sign I + sign K, with the worst residual of source
    if path.minus_tail:
        raise NotFSplus("path must have positive essential spectrum")
    if samples < 2:
        raise OutOfRange("need at least 2 samples")
    anchors = np.linspace(0.0, 1.0, samples)
    spacing = 1.0 / (samples - 1)
    drift = 4.0 * path.lipschitz * spacing

    blocks = path.blocks_at(anchors)
    w, v, errors = eigh_each(blocks)
    if errors:  # the first anchor that fails to solve
        raise errors[min(errors)]
    norms = np.abs(w).max(axis=1, initial=0.0)
    # absorb a near-zero band wide enough that eigenvalues entering it
    # between anchors cannot drag the frozen positive part below zero
    cut = np.maximum(2.0 * CLUSTER_FACTOR * (1.0 + norms), drift)
    corrections = _split_blocks(w, v, cut)[1]
    _check_cover(path, anchors, blocks, corrections)

    m, w = _inv_sqrt(blocks - corrections, POSITIVITY_MARGIN)
    k = symmetric_part(m.swapaxes(1, 2) @ corrections @ m)
    lambdas = tuple(anchors.tolist())
    k_source = k if sign > 0 else -k
    residual = _check_residual(
        path, lambdas, m, k, blocks, norms,
        m.swapaxes(1, 2) @ source.blocks_at(anchors) @ m
        - (sign * np.eye(path.dim) + k_source),
        (1.0 / np.sqrt(w[:, -1:])).min(axis=1, initial=np.inf))
    return Parametrix(sign=sign, lambdas=lambdas, M=tuple(m),
                      K=tuple(k_source), anchor_corrections=tuple(corrections),
                      path=source, residual=residual)


def _check_residual(path: OperatorPath, lambdas: tuple[float, ...],
                    m: np.ndarray, k: np.ndarray, b: np.ndarray,
                    norms: np.ndarray, reported: np.ndarray,
                    smallest: np.ndarray) -> float | EigenFailure:
    """Check each sample's residual M' L M - (I + K) against its bound, then
    the smallest singular value of its M, by masks over the stack, so the
    first failing sample in order raises. b holds the path's blocks at the
    samples (exactly symmetric) and norms their two-norms from the anchor
    solve: each path.at(lam).block is the symmetric part of b, whose
    eigensolve is that anchor solve, bit for bit. M is the inverse square
    root of a matrix with eigenvalues w, so smallest, its least singular
    value, is 1 / sqrt(max w), and inf for a 0 x 0 M.

    Returns the worst two-norm of the reported residual matrices, or the
    EigenFailure of the first that cannot be solved. They are solved in the
    same stack as the checked ones, unless they are the same bits. They
    differ where symmetrizing b rounds a subnormal entry, and on the
    negative side, whose matrices are negations of these: the eigensolver
    need not give a negated matrix the negated eigenvalues to the bit."""
    checked = m.swapaxes(1, 2) @ symmetric_part(b) @ m - (np.eye(path.dim) + k)
    same = checked.tobytes() == reported.tobytes()
    w, _, errors = eigh_each(checked if same
                              else np.concatenate([checked, reported]))
    norm = np.abs(w).max(axis=1, initial=0.0)
    res = norm[:len(b)]
    bound = _residual_bound(norms, path.tails)
    too_large = res > bound

    def fault(i: int) -> Exception:
        if too_large[i]:
            return ResidualTooLarge(f"residual {float(res[i]):.3e} at sample "
                                    f"{lambdas[i]} exceeds {float(bound[i]):.3e}")
        return NotPositive(f"M at sample {lambdas[i]} has singular value "
                           f"{float(smallest[i]):.3e}")

    _raise_first_fault(too_large | (smallest <= MIN_SINGULAR),
                       {i: e for i, e in errors.items() if i < len(b)}, fault)
    if errors:  # only reported residuals are left
        return errors[min(errors)]
    return float(np.max(norm if same else norm[len(b):], initial=0.0))


def parametrix(path: OperatorPath, samples: int = 17) -> Parametrix:
    """Normal form for a one-sided path: direct for positive essential
    spectrum, through negation with flipped sign for negative."""
    if path.plus_tail and path.minus_tail:
        raise NotFSplus("two-sided essential spectrum has no one-sided "
                        "parametrix")
    if not path.minus_tail:
        return parametrix_fs_plus(path, samples)
    return _normal_form(negate(path), samples, path, -1)


@dataclass(frozen=True)
class PointwiseSection:
    """Symmetry factorization S = M Q M' + K of a single operator."""

    Q: CPS
    M: np.ndarray
    K: np.ndarray
    kernel_dim: int


def pointwise_section(op: CPS) -> PointwiseSection:
    """Factor a two-sided operator as M Q M' + K with Q a symmetry, M an
    invertible block map acting as the identity on the tails, and K symmetric
    of rank equal to the kernel dimension.

    The kernel projection fills the gap: V = S + ker-projection is invertible,
    Q is its sign, M its absolute-value square root, and K comes out as minus
    the kernel projection.
    """
    if op.component is not FSComponent.FS_I:
        raise NotFSi(f"component {op.component.name}, need essential spectrum "
                     "on both sides")
    spec = block_spectrum(op)
    w, v = spec.eigenvalues, spec.vectors
    in_kernel = np.abs(w) <= spec.tol
    kernel_dim = int(np.count_nonzero(in_kernel))

    w_v = np.where(in_kernel, 1.0, w)
    q_eigs = np.where(w_v > 0.0, 1.0, -1.0)
    q_block = symmetric_part((v * q_eigs) @ v.T)
    m_block = symmetric_part((v * np.sqrt(np.abs(w_v))) @ v.T)
    k_block = symmetric_part(op.block - m_block @ q_block @ m_block.T)
    k0 = (v * np.where(in_kernel, 1.0, 0.0)) @ v.T
    # the residual is antisymmetric (K is the symmetric part of what it
    # leaves), so it is measured as it is, not through a symmetric solve
    bound = _residual_bound(spec.block_norm, op.tails)
    res, drift = opnorms_within(np.array([
        op.block - (m_block @ q_block @ m_block.T + k_block),
        k_block + k0]), bound).tolist()
    if max(res, drift) > bound:
        raise ResidualTooLarge(f"factorization residual {max(res, drift):.3e} "
                               f"exceeds {bound:.3e}")
    q = CPS(q_block, plus_tail=True, minus_tail=True)
    return PointwiseSection(Q=q, M=m_block, K=k_block, kernel_dim=kernel_dim)
