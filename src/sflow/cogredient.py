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

import numpy as np

from ._eig import jacobi_eigh, solve_each, spectral_norm_sym
from .errors import (
    CoverFailure,
    EigenFailure,
    NotFSi,
    NotFSplus,
    NotPositive,
    OutOfRange,
    ResidualTooLarge,
)
from .operators import CLUSTER_FACTOR, CPS, FSComponent, OperatorPath, negate

POSITIVITY_MARGIN = 1e-8
RESIDUAL_FACTOR = 1e-9
MIN_SINGULAR = 1e-10
COVER_SUBSTEPS = 8


def _residual_bound(norm: float, tails: tuple[bool, bool]) -> float:
    # residual tolerance for an operator whose block has two-norm norm; a
    # tail contributes its unit norm
    if any(tails):
        norm = max(norm, 1.0)
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
    return (0.5 * s + 0.5 * np.swapaxes(s, -1, -2),
            0.5 * k + 0.5 * np.swapaxes(k, -1, -2))


def split_positive(op: CPS, tol_cluster: float = CLUSTER_FACTOR) -> tuple[CPS, CPS]:
    """Split an operator with positive essential spectrum as S + K with S
    positive definite and K symmetric of finite rank.

    S keeps the strictly positive spectral part and is the identity on the
    rest; K carries the nonpositive part shifted by the identity. Eigenvalues
    within tol_cluster * (1 + norm) of zero count as kernel and go into K.
    """
    if op.component not in (FSComponent.FS_PLUS, FSComponent.FINITE):
        raise NotFSplus(f"component {op.component.name} has nonpositive "
                        "essential spectrum")
    w, v = jacobi_eigh(op.block)
    norm = float(np.max(np.abs(w))) if w.size else 0.0
    tol = tol_cluster * (1.0 + norm)
    s_block, k_block = _split_blocks(w, v, tol)
    ws, _ = jacobi_eigh(s_block)
    if ws.size and float(ws[0]) <= tol:
        raise NotPositive(f"split left eigenvalue {float(ws[0]):.3e} in S")
    s = CPS(s_block, plus_tail=op.plus_tail, minus_tail=False)
    k = CPS(k_block)
    return s, k


def _eigh_pairs(blocks: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    # jacobi_eigh of a stack as one (w, v) pair per matrix, for solve_each
    return list(zip(*jacobi_eigh(blocks)))


def _inv_sqrt(blocks: np.ndarray, margin: float) -> np.ndarray:
    """Symmetric inverse square root of each positive definite matrix of a
    (k, n, n) stack, from one stacked solve. The first matrix in order that
    cannot be solved, or whose smallest eigenvalue is at most margin,
    raises."""
    pairs = solve_each(_eigh_pairs, blocks)
    for pair in pairs:
        if isinstance(pair, EigenFailure):
            raise pair
        if pair[0].size and float(pair[0][0]) <= margin:
            raise NotPositive(f"eigenvalue {float(pair[0][0]):.3e} at or "
                              f"below margin {margin:.3e}")
    w, v = (np.stack(x) for x in zip(*pairs))
    out = (v / np.sqrt(w)[:, None, :]) @ v.swapaxes(1, 2)
    return 0.5 * out + 0.5 * out.swapaxes(1, 2)


@dataclass(frozen=True)
class Parametrix:
    """Sampled congruence data along a path: at sample lambdas[j] the
    invertible block M[j] satisfies M' L M = sign * I + K[j] up to the
    residual bound, with K[j] symmetric of finite rank. The samples are the
    anchors of the blend, and anchor_corrections holds the frozen split at
    each; the source path is kept for mid-sample evaluation."""

    sign: int
    lambdas: tuple[float, ...]
    M: tuple[np.ndarray, ...]
    K: tuple[np.ndarray, ...]
    anchor_corrections: tuple[np.ndarray, ...]
    path: OperatorPath

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
        (m,) = _inv_sqrt((block - k_blend)[None], POSITIVITY_MARGIN)
        k = m.T @ k_blend @ m
        k = sgn * (0.5 * k + 0.5 * k.T)
        return m, k

    def transformed_path(self) -> OperatorPath:
        """Piecewise-linear path through sign * I + K at the samples. Its
        endpoints are the exact congruence images of the path's endpoints,
        which is all the flow of a one-sided path depends on."""
        d = self.path.dim
        samples = [self.sign * np.eye(d) + k for k in self.K]
        return OperatorPath.piecewise_linear(self.lambdas, samples,
                                             plus_tail=self.path.plus_tail,
                                             minus_tail=self.path.minus_tail)

    def _residuals(self, blocks: np.ndarray, *, strict: bool) -> list:
        # two-norm of M' L M - (sign I + K) at every sample, L from blocks,
        # as solve_each returns them
        m = np.stack(self.M)
        target = self.sign * np.eye(self.path.dim) + np.stack(self.K)
        return solve_each(spectral_norm_sym,
                          m.swapaxes(1, 2) @ blocks @ m - target, strict=strict)

    def max_residual(self) -> float:
        blocks = self.path.blocks_at(self.lambdas)
        return float(np.max(self._residuals(blocks, strict=True), initial=0.0))


def _lowest(blocks: np.ndarray) -> list[float]:
    # smallest eigenvalue of each matrix of a stack (1.0 for a 0 x 0 one)
    w, _ = jacobi_eigh(blocks)
    return (w[:, 0] if w.shape[1] else np.ones(len(w))).tolist()


def _check_cover(path: OperatorPath, anchors: np.ndarray,
                 corrections: np.ndarray) -> None:
    """Certify L_lam - K_j positive definite with Weyl slack across the hat
    support of every anchor j. Positivity of both frozen neighbours on a
    segment makes every hat blend on it positive too.

    The samples are solved in stacked chunks of as many blocks as there are
    anchors, built one chunk at a time, and checked in the order anchor by
    anchor, so the first failing sample raises."""
    lip = path.lipschitz
    grid = []  # (anchor index, parameter, slack) in checking order
    for j in range(len(anchors)):
        lo = anchors[max(j - 1, 0)]
        hi = anchors[min(j + 1, len(anchors) - 1)]
        step = (hi - lo) / COVER_SUBSTEPS
        slack = lip * step / 2.0
        grid += [(j, lo + i * step, slack) for i in range(COVER_SUBSTEPS + 1)]
    for start in range(0, len(grid), len(anchors)):
        chunk = grid[start:start + len(anchors)]
        blocks = (path.blocks_at([lam for _, lam, _ in chunk])
                  - corrections[[j for j, _, _ in chunk]])
        for (j, lam, slack), low in zip(chunk, solve_each(_lowest, blocks)):
            if isinstance(low, EigenFailure):
                raise low
            if low - slack <= POSITIVITY_MARGIN:
                raise CoverFailure(
                    f"frozen split at anchor {anchors[j]:.6g} loses "
                    f"positivity near {lam:.6g} (eigenvalue {low:.3e}, "
                    f"slack {slack:.3e}); refine samples")


def parametrix_fs_plus(path: OperatorPath, samples: int = 17) -> Parametrix:
    """Congruence normal form M' L M = I + K along a path with positive
    essential spectrum.

    Splits the operator at each of `samples` uniform anchors, certifies that
    every frozen finite-rank correction stays admissible across its hat
    support, and returns the blended family. Raises CoverFailure when the
    grid is too coarse for the certificate.
    """
    if path.minus_tail:
        raise NotFSplus("path must have positive essential spectrum")
    if samples < 2:
        raise OutOfRange("need at least 2 samples")
    anchors = np.linspace(0.0, 1.0, samples)
    spacing = 1.0 / (samples - 1)
    drift = 4.0 * path.lipschitz * spacing

    def correction(blocks: np.ndarray) -> np.ndarray:
        w, v = jacobi_eigh(blocks)
        norm = np.abs(w).max(axis=1, initial=0.0)
        # absorb a near-zero band wide enough that eigenvalues entering it
        # between anchors cannot drag the frozen positive part below zero
        cut = np.maximum(2.0 * CLUSTER_FACTOR * (1.0 + norm), drift)
        return _split_blocks(w, v, cut)[1]

    blocks = path.blocks_at(anchors)
    corrections = solve_each(correction, blocks, strict=True)
    _check_cover(path, anchors, corrections)

    m = _inv_sqrt(blocks - corrections, POSITIVITY_MARGIN)
    k = m.swapaxes(1, 2) @ corrections @ m
    px = Parametrix(sign=1, lambdas=tuple(float(a) for a in anchors),
                    M=tuple(m), K=tuple(0.5 * k + 0.5 * k.swapaxes(1, 2)),
                    anchor_corrections=tuple(corrections), path=path)
    _check_residual(px, blocks)
    return px


def _check_residual(px: Parametrix, b: np.ndarray) -> None:
    # the checks of each sample in turn, b holding its block_at: its
    # residual, then the smallest singular value of its M
    blocks = 0.5 * b + 0.5 * b.swapaxes(1, 2)  # each path.at(lam).block
    residuals = px._residuals(blocks, strict=False)
    norms = solve_each(spectral_norm_sym, blocks)
    smallest = np.linalg.svd(np.stack(px.M), compute_uv=False)[:, -1].tolist()
    for lam, res, norm, sv in zip(px.lambdas, residuals, norms, smallest):
        for value in (res, norm):
            if isinstance(value, EigenFailure):
                raise value
        bound = _residual_bound(float(norm), px.path.tails)
        if res > bound:
            raise ResidualTooLarge(
                f"residual {res:.3e} at sample {lam} exceeds {bound:.3e}")
        if sv <= MIN_SINGULAR:
            raise NotPositive(f"M at sample {lam} has singular value "
                              f"{sv:.3e}")


def parametrix(path: OperatorPath, samples: int = 17) -> Parametrix:
    """Normal form for a one-sided path: direct for positive essential
    spectrum, through negation with flipped sign for negative."""
    if path.plus_tail and path.minus_tail:
        raise NotFSplus("two-sided essential spectrum has no one-sided "
                        "parametrix")
    if not path.minus_tail:
        return parametrix_fs_plus(path, samples)
    flipped = parametrix_fs_plus(negate(path), samples)
    return Parametrix(sign=-1, lambdas=flipped.lambdas, M=flipped.M,
                      K=tuple(-k for k in flipped.K),
                      anchor_corrections=flipped.anchor_corrections, path=path)


@dataclass(frozen=True)
class PointwiseSection:
    """Symmetry factorization S = M Q M' + K of a single operator."""

    Q: CPS
    M: np.ndarray
    K: np.ndarray
    kernel_dim: int


def pointwise_section(op: CPS, tol_cluster: float = CLUSTER_FACTOR) -> PointwiseSection:
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
    w, v = jacobi_eigh(op.block)
    norm = float(np.max(np.abs(w))) if w.size else 0.0
    tol = tol_cluster * (1.0 + norm)
    in_kernel = np.abs(w) <= tol
    kernel_dim = int(np.count_nonzero(in_kernel))

    w_v = np.where(in_kernel, 1.0, w)
    q_eigs = np.where(w_v > 0.0, 1.0, -1.0)
    q_block = (v * q_eigs) @ v.T
    m_block = (v * np.sqrt(np.abs(w_v))) @ v.T
    q_block = 0.5 * q_block + 0.5 * q_block.T
    m_block = 0.5 * m_block + 0.5 * m_block.T

    k_block = op.block - m_block @ q_block @ m_block.T
    k_block = 0.5 * k_block + 0.5 * k_block.T
    res = spectral_norm_sym(op.block - (m_block @ q_block @ m_block.T + k_block))
    bound = _residual_bound(spectral_norm_sym(op.block), op.tails)
    k0 = (v * np.where(in_kernel, 1.0, 0.0)) @ v.T
    drift = spectral_norm_sym(k_block + k0)
    if max(res, drift) > bound:
        raise ResidualTooLarge(f"factorization residual {max(res, drift):.3e} "
                               f"exceeds {bound:.3e}")
    q = CPS(q_block, plus_tail=True, minus_tail=True)
    return PointwiseSection(Q=q, M=m_block, K=k_block, kernel_dim=kernel_dim)
