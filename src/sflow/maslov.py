"""Lagrangian frames in R^{2m}, graph paths, and the equivariant crossing
index of a graph path against the horizontal subspace.

The boundary-value operator behind the index is never discretized. For graph
paths its spectrum inside (-pi/2, pi/2) is exactly the arctangent of the block
spectrum, with the same eigenspaces, so the index is computed by running the
flow machinery on the arctangent-transformed path and cross-checked against
the flow of the original path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._eig import jacobi_eigh, opnorms, spectral_norm_sym
from .errors import (
    ConsistencyFailure,
    NotLagrangian,
    NotOrthonormal,
    NotSymmetric,
    TailMismatch,
)
from .flow import FlowOptions, sfl_G
from .groups import (
    OrthogonalAction,
    RealCharacterTable,
    VirtualRep,
    build_group,
    forgetful_F,
    phi_Z2,
)
from .operators import CPS, OperatorPath, block_spectrum, direct_sum_paths, negate
from .sampling import identity_action

ORTHONORMAL_TOL = 1e-10
LAGRANGIAN_TOL = 1e-9
INTERSECTION_TOL = 1e-8
SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class SymplecticSpace:
    """R^{2m} with the standard complex structure [[0, -I], [I, 0]]."""

    half_dim: int

    @property
    def J(self) -> np.ndarray:
        m = self.half_dim
        j = np.zeros((2 * m, 2 * m))
        j[:m, m:] = -np.eye(m)
        j[m:, :m] = np.eye(m)
        return j


@dataclass(frozen=True)
class LagrangianFrame:
    """2m x m matrix with orthonormal columns spanning a Lagrangian
    subspace: the span is orthogonal to its own J-image."""

    frame: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.frame, dtype=float)
        if f.ndim != 2 or f.shape[0] != 2 * f.shape[1]:
            raise NotLagrangian(f"frame shape {f.shape}, need (2m, m)")
        gram = f.T @ f - np.eye(f.shape[1])
        if f.shape[1] and spectral_norm_sym((gram + gram.T) / 2.0) > ORTHONORMAL_TOL:
            raise NotOrthonormal("frame columns are not orthonormal")
        if f.shape[1]:
            j = SymplecticSpace(f.shape[1]).J
            p = f @ f.T
            defect = float(opnorms(p @ j @ p))
            if defect > LAGRANGIAN_TOL:
                raise NotLagrangian(f"symplectic defect {defect:.3e}")
        f = f.copy()
        f.flags.writeable = False
        object.__setattr__(self, "frame", f)

    @property
    def half_dim(self) -> int:
        return self.frame.shape[1]

    def projection(self) -> np.ndarray:
        return self.frame @ self.frame.T


def horizontal_lagrangian(m: int) -> LagrangianFrame:
    """W = H x {0}, the fixed reference subspace."""
    f = np.zeros((2 * m, m))
    f[:m, :] = np.eye(m)
    return LagrangianFrame(f)


def graph_lagrangian(block: np.ndarray) -> LagrangianFrame:
    """Orthonormalized frame of {(u, L u)} for a symmetric block L."""
    l = np.asarray(block, dtype=float)
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise NotSymmetric(f"need a square matrix, got shape {l.shape}")
    if np.max(np.abs(l - l.T), initial=0.0) > SYMMETRY_TOL:
        raise NotSymmetric("block is not symmetric")
    m = l.shape[0]
    stacked = np.vstack([np.eye(m), l])
    q, _ = np.linalg.qr(stacked)
    return LagrangianFrame(q)


def is_lagrangian(frame: np.ndarray | LagrangianFrame) -> bool:
    if isinstance(frame, LagrangianFrame):
        return True
    f = np.asarray(frame, dtype=float)
    if f.ndim != 2 or f.shape[0] != 2 * f.shape[1]:
        return False
    gram = f.T @ f - np.eye(f.shape[1])
    if f.shape[1] and spectral_norm_sym((gram + gram.T) / 2.0) > ORTHONORMAL_TOL:
        raise NotOrthonormal("frame columns are not orthonormal")
    j = SymplecticSpace(f.shape[1]).J
    p = f @ f.T
    return bool(opnorms(p @ j @ p) <= LAGRANGIAN_TOL)


def gap_distance(f1: LagrangianFrame, f2: LagrangianFrame) -> float:
    """Spectral-norm distance of the orthogonal projections, in [0, 1]."""
    diff = f1.projection() - f2.projection()
    return spectral_norm_sym((diff + diff.T) / 2.0)


def fredholm_pair_dims(f: LagrangianFrame, w: LagrangianFrame
                       ) -> tuple[int, int]:
    """(dim of intersection, codimension of the sum) for two frames.

    Intersection directions show up as singular values 1 of the cross Gram
    matrix; the sum's dimension is the rank of the concatenated frames.
    """
    cross = f.frame.T @ w.frame
    if cross.size:
        sv = np.linalg.svd(cross, compute_uv=False)
        dim_int = int(np.count_nonzero(1.0 - sv <= INTERSECTION_TOL))
    else:
        dim_int = 0
    both = np.concatenate([f.frame, w.frame], axis=1)
    rank = int(np.linalg.matrix_rank(both, tol=INTERSECTION_TOL))
    return dim_int, 2 * f.half_dim - rank


@dataclass(frozen=True)
class WindowEigenvalue:
    """One certified point of the boundary-value spectrum in (-pi/2, pi/2):
    the angle, its multiplicity, and a frame of the matching block
    eigenspace, onto which the angle eigenspace maps equivariantly."""

    mu: float
    multiplicity: int
    vectors: np.ndarray


def maslov_operator_spectrum(block: np.ndarray, tol_cluster: float = 1e-8
                             ) -> list[WindowEigenvalue]:
    """Window spectrum of the boundary-value operator of one graph: exactly
    arctan of each block eigenvalue, multiplicities preserved."""
    l = np.asarray(block, dtype=float)
    if np.max(np.abs(l - l.T), initial=0.0) > SYMMETRY_TOL:
        raise NotSymmetric("block is not symmetric")
    spec = block_spectrum(CPS(l), tol_cluster)
    return [WindowEigenvalue(float(np.arctan(c.value)), c.multiplicity,
                             c.vectors)
            for c in spec.clusters]


def _arctan_block(block: np.ndarray) -> np.ndarray:
    w, v = jacobi_eigh(block)
    out = (v * np.arctan(w)) @ v.T
    return (out + out.T) / 2.0


def _arctan_path(path: OperatorPath, per_segment: int = 4) -> OperatorPath:
    knots = list(path.knots)
    grid: list[float] = []
    for a, b in zip(knots, knots[1:]):
        for i in range(per_segment):
            grid.append(a + (b - a) * i / per_segment)
    grid.append(1.0)
    samples = [_arctan_block(path.block_at(lam)) for lam in grid]
    return OperatorPath.piecewise_linear(grid, samples)


def maslov_index_G(path: OperatorPath, action: OrthogonalAction,
                   table: RealCharacterTable,
                   opts: FlowOptions | None = None) -> VirtualRep:
    """Equivariant crossing index of the graph path of `path` against the
    horizontal subspace.

    Computed as the flow of the arctangent-transformed path, then compared
    with the flow of the original path; the two must agree exactly.
    """
    if path.plus_tail or path.minus_tail:
        raise TailMismatch("graph paths live on a finite block, no tails")
    opts = opts or FlowOptions()
    direct = sfl_G(path, action, table, opts).sfl_G
    transformed = sfl_G(_arctan_path(path), action, table, opts).sfl_G
    if direct != transformed:
        raise ConsistencyFailure(
            f"index routes disagree: transformed {transformed.as_dict()} vs "
            f"direct {direct.as_dict()}")
    return transformed


@dataclass(frozen=True)
class Z2ExampleReport:
    """Doubled-path demonstration: the full flow vanishes while the
    fixed-part refinement recovers the flow of the half."""

    sfl_M: int
    sfl_L: int
    phi: tuple[int, int]
    expected: tuple[int, int]
    sfl_Z2: VirtualRep


def z2_example(m_path: OperatorPath, opts: FlowOptions | None = None
               ) -> Z2ExampleReport:
    """Order-two symmetry demo: L = diag(M, -M) with the action negating the
    second summand. The plain flow of L is 0; the equivariant flow refines it
    to (0, sfl(M)) under the dimension/fixed-dimension map."""
    if m_path.plus_tail or m_path.minus_tail:
        raise TailMismatch("the doubled path needs a finite block")
    opts = opts or FlowOptions()
    k = m_path.dim

    triv_group, triv_table = build_group("trivial")
    sfl_m = sfl_G(m_path, identity_action(triv_group, k), triv_table, opts).sfl

    group, table = build_group("cyclic", 2)
    rho = np.eye(2 * k)
    rho[k:, k:] *= -1.0
    action = OrthogonalAction(group, [np.eye(2 * k), rho])
    l_path = direct_sum_paths(m_path, negate(m_path))
    report = sfl_G(l_path, action, table, opts)
    phi = phi_Z2(report.sfl_G)
    expected = (0, sfl_m)
    if phi != expected or report.sfl != 0:
        raise ConsistencyFailure(
            f"doubled-path identity failed: phi {phi}, plain flow "
            f"{report.sfl}, expected {expected} and 0")
    return Z2ExampleReport(sfl_M=sfl_m, sfl_L=report.sfl, phi=phi,
                           expected=expected, sfl_Z2=report.sfl_G)
