"""Symmetric finite blocks with fixed scalar tails, and paths of them.

An operator here is a symmetric d x d block plus an optional infinite tail at
+1 and an optional one at -1. The tails are where the essential spectrum
lives; everything that moves is inside the block. Paths are affine or
piecewise linear in the parameter and carry a recomputed Lipschitz bound that
downstream certification relies on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._eig import EPS, eigh_error, jacobi_eigh, opnorms
from .errors import (
    BoundaryHit,
    DimMismatch,
    EndpointMismatch,
    InfiniteRank,
    NotEquivariant,
    NotInvertible,
    OutOfRange,
    TailMismatch,
)
from .groups import (
    OrthogonalAction,
    RealCharacterTable,
    VirtualRep,
    character_of_subspace,
    multiplicity_vector,
)

CLUSTER_FACTOR = 1e-8
INVERT_FACTOR = 1e-10
EQUIVARIANCE_FACTOR = 1e-8
JUNCTION_TOL = 1e-9


class FSComponent(enum.Enum):
    """Connected component of the selfadjoint Fredholm picture the operator
    sits in, read off from its tail flags."""

    FINITE = "finite"
    FS_PLUS = "fs_plus"
    FS_MINUS = "fs_minus"
    FS_I = "fs_i"


@dataclass(frozen=True)
class CPS:
    """Compactly perturbed symmetry: symmetric block plus scalar tails."""

    block: np.ndarray
    plus_tail: bool = False
    minus_tail: bool = False

    def __post_init__(self) -> None:
        b = np.asarray(self.block, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise DimMismatch(f"block must be square, got shape {b.shape}")
        b = 0.5 * b + 0.5 * b.T
        b.flags.writeable = False
        object.__setattr__(self, "block", b)

    @property
    def dim(self) -> int:
        return self.block.shape[0]

    @property
    def component(self) -> FSComponent:
        if self.plus_tail and self.minus_tail:
            return FSComponent.FS_I
        if self.plus_tail:
            return FSComponent.FS_PLUS
        if self.minus_tail:
            return FSComponent.FS_MINUS
        return FSComponent.FINITE

    @property
    def tails(self) -> tuple[bool, bool]:
        return (self.plus_tail, self.minus_tail)

    def essential_values(self) -> tuple[float, ...]:
        vals = []
        if self.plus_tail:
            vals.append(1.0)
        if self.minus_tail:
            vals.append(-1.0)
        return tuple(vals)

    def __repr__(self) -> str:
        return (f"CPS(dim={self.dim}, plus_tail={self.plus_tail}, "
                f"minus_tail={self.minus_tail})")


@dataclass(frozen=True)
class EigenCluster:
    """A group of numerically coincident block eigenvalues and an orthonormal
    basis of their joint eigenspace."""

    value: float
    vectors: np.ndarray

    @property
    def multiplicity(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class Spectrum:
    """Full block eigendata: raw ascending eigenvalues, the clustering used,
    the absolute tolerance that produced it, and err, a bound on how far any
    computed eigenvalue lies from the exact one."""

    eigenvalues: np.ndarray
    clusters: tuple[EigenCluster, ...]
    tol: float
    err: float

    @property
    def block_norm(self) -> float:
        if self.eigenvalues.size == 0:
            return 0.0
        return float(np.max(np.abs(self.eigenvalues)))

    def min_abs(self) -> float:
        if self.eigenvalues.size == 0:
            return np.inf
        return float(np.min(np.abs(self.eigenvalues)))


def block_spectrum(op: CPS, tol_cluster: float = CLUSTER_FACTOR) -> Spectrum:
    """Eigen-decompose the block and merge eigenvalues within
    tol_cluster * (1 + ||block||) into clusters."""
    w, v = jacobi_eigh(op.block)
    norm = float(np.max(np.abs(w))) if w.size else 0.0
    tol = tol_cluster * (1.0 + norm)
    clusters = []
    i = 0
    n = w.size
    while i < n:
        j = i + 1
        while j < n and w[j] - w[j - 1] <= tol:
            j += 1
        clusters.append(EigenCluster(float(np.mean(w[i:j])), v[:, i:j]))
        i = j
    return Spectrum(w, tuple(clusters), tol, eigh_error(op.block, w, v))


def spectral_interval_frame(op: CPS, a: float, b: float,
                            tol_cluster: float = CLUSTER_FACTOR, *,
                            spectrum: Spectrum | None = None,
                            closed_left_tol: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the eigenspaces with eigenvalues in [a, b].

    Raises InfiniteRank if a tail value lies in the window and BoundaryHit if
    an eigenvalue sits within the cluster tolerance of a window edge. With
    closed_left_tol > 0 the left edge is treated as closed with that slack and
    its boundary guard is waived; callers use this for windows anchored at 0,
    where a kernel vector must count as inside.
    """
    if not a <= b:
        raise OutOfRange(f"empty window [{a}, {b}]")
    if op.plus_tail and a - closed_left_tol <= 1.0 <= b:
        raise InfiniteRank(f"window [{a}, {b}] contains the +1 tail")
    if op.minus_tail and a - closed_left_tol <= -1.0 <= b:
        raise InfiniteRank(f"window [{a}, {b}] contains the -1 tail")
    spec = spectrum if spectrum is not None else block_spectrum(op, tol_cluster)
    # Python floats: a distance past the float range is inf, without a warning
    for e in spec.eigenvalues.tolist():
        if closed_left_tol == 0.0 and abs(e - a) <= spec.tol:
            raise BoundaryHit(f"eigenvalue {e} at window edge {a}")
        if abs(e - b) <= spec.tol:
            raise BoundaryHit(f"eigenvalue {e} at window edge {b}")
    picked = [c.vectors for c in spec.clusters
              if a - closed_left_tol <= c.value <= b]
    if not picked:
        return np.zeros((op.dim, 0))
    return np.concatenate(picked, axis=1)


class OperatorPath:
    """Affine or piecewise-linear path of blocks with fixed tails.

    The Lipschitz bound is recomputed from the data on construction and never
    trusted from the caller; certification downstream depends on it being a
    true upper bound for the block's spectral-norm velocity.
    """

    def __init__(self) -> None:
        raise TypeError("use OperatorPath.affine or OperatorPath.piecewise_linear")

    @classmethod
    def _new(cls) -> "OperatorPath":
        return object.__new__(cls)

    @classmethod
    def affine(cls, a: np.ndarray, b: np.ndarray, *, plus_tail: bool = False,
               minus_tail: bool = False) -> "OperatorPath":
        """Path lambda -> a + lambda * b."""
        self = cls._new()
        a = _sym(np.asarray(a, dtype=float))
        b = _sym(np.asarray(b, dtype=float))
        if a.shape != b.shape:
            raise DimMismatch(f"shapes {a.shape} and {b.shape} differ")
        self.kind = "affine"
        self.mat_a = a
        self.mat_b = b
        self.knots = np.array([0.0, 1.0])
        self.samples = None
        self.plus_tail = bool(plus_tail)
        self.minus_tail = bool(minus_tail)
        self.dim = a.shape[0]
        self.lipschitz = _specnorm(b)
        return self

    @classmethod
    def piecewise_linear(cls, knots: Sequence[float],
                         samples: Sequence[np.ndarray], *,
                         plus_tail: bool = False,
                         minus_tail: bool = False) -> "OperatorPath":
        """Path interpolating the given blocks linearly between knots."""
        self = cls._new()
        knots = np.asarray([float(k) for k in knots])
        if knots.ndim != 1 or knots.size < 2:
            raise OutOfRange("need at least the two endpoint knots")
        if abs(knots[0]) > 1e-12 or abs(knots[-1] - 1.0) > 1e-12:
            raise OutOfRange(f"knots must run from 0 to 1, got {knots[0]}..{knots[-1]}")
        knots[0], knots[-1] = 0.0, 1.0
        if np.any(np.diff(knots) <= 0):
            raise OutOfRange("knots must be strictly increasing")
        if len(samples) != knots.size:
            raise DimMismatch(f"{len(samples)} samples for {knots.size} knots")
        mats = [_sym(np.asarray(s, dtype=float)) for s in samples]
        dim = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (dim, dim):
                raise DimMismatch(f"sample {i} has shape {m.shape}, expected "
                                  f"({dim}, {dim})")
        self.kind = "piecewise_linear"
        self.mat_a = None
        self.mat_b = None
        self.knots = knots
        self.samples = tuple(mats)
        self.plus_tail = bool(plus_tail)
        self.minus_tail = bool(minus_tail)
        self.dim = dim
        lip = 0.0
        for i in range(knots.size - 1):
            dt = knots[i + 1] - knots[i]
            lip = max(lip, _specnorm(mats[i + 1] - mats[i]) / dt)
        self.lipschitz = lip
        return self

    @property
    def tails(self) -> tuple[bool, bool]:
        return (self.plus_tail, self.minus_tail)

    def block_at(self, lam: float) -> np.ndarray:
        if not 0.0 <= lam <= 1.0:
            raise OutOfRange(f"parameter {lam} outside [0, 1]")
        if self.kind == "affine":
            return self.mat_a + lam * self.mat_b
        i = int(np.searchsorted(self.knots, lam, side="right")) - 1
        if i >= self.knots.size - 1:
            i = self.knots.size - 2
        if lam == self.knots[i]:
            return self.samples[i].copy()
        if lam == self.knots[i + 1]:
            return self.samples[i + 1].copy()
        t = (lam - self.knots[i]) / (self.knots[i + 1] - self.knots[i])
        return (1.0 - t) * self.samples[i] + t * self.samples[i + 1]

    def at(self, lam: float) -> CPS:
        return CPS(self.block_at(lam), plus_tail=self.plus_tail,
                   minus_tail=self.minus_tail)

    def knot_values(self) -> np.ndarray:
        return self.knots.copy()

    def __repr__(self) -> str:
        return (f"OperatorPath(kind={self.kind!r}, dim={self.dim}, "
                f"plus_tail={self.plus_tail}, minus_tail={self.minus_tail}, "
                f"lipschitz={self.lipschitz:.4g})")


def _sym(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * m + 0.5 * m.T


def _specnorm(m: np.ndarray) -> float:
    # upper bound on the two-norm of a symmetric matrix: the largest computed
    # absolute eigenvalue plus the solver error, rounded up
    if m.shape[0] == 0:
        return 0.0
    w, v = jacobi_eigh(m)
    return float((np.max(np.abs(w)) + eigh_error(m, w, v)) * (1.0 + 2.0 * EPS))


def evaluate(path: OperatorPath, lam: float) -> CPS:
    """Operator at parameter lam in [0, 1]."""
    return path.at(lam)


def direct_sum(a: CPS, b: CPS) -> CPS:
    """Block-diagonal join; tail flags are merged."""
    big = np.zeros((a.dim + b.dim, a.dim + b.dim))
    big[: a.dim, : a.dim] = a.block
    big[a.dim:, a.dim:] = b.block
    return CPS(big, plus_tail=a.plus_tail or b.plus_tail,
               minus_tail=a.minus_tail or b.minus_tail)


def direct_sum_paths(p: OperatorPath, q: OperatorPath) -> OperatorPath:
    """Parameterwise block-diagonal join of two paths."""
    plus = p.plus_tail or q.plus_tail
    minus = p.minus_tail or q.minus_tail
    if p.kind == "affine" and q.kind == "affine":
        a = _blockdiag(p.mat_a, q.mat_a)
        b = _blockdiag(p.mat_b, q.mat_b)
        return OperatorPath.affine(a, b, plus_tail=plus, minus_tail=minus)
    ts = np.unique(np.concatenate([p.knot_values(), q.knot_values()]))
    samples = [_blockdiag(p.block_at(t), q.block_at(t)) for t in ts]
    return OperatorPath.piecewise_linear(ts, samples, plus_tail=plus,
                                         minus_tail=minus)


def _blockdiag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    big = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]))
    big[: a.shape[0], : a.shape[1]] = a
    big[a.shape[0]:, a.shape[1]:] = b
    return big


def concatenate(p: OperatorPath, q: OperatorPath) -> OperatorPath:
    """Run p on [0, 1/2] and q on [1/2, 1]. Requires matching junction blocks
    and identical tails."""
    if p.tails != q.tails:
        raise TailMismatch(f"tails {p.tails} vs {q.tails}")
    if p.dim != q.dim:
        raise DimMismatch(f"dimensions {p.dim} and {q.dim} differ")
    junction_gap = _specnorm(p.block_at(1.0) - q.block_at(0.0))
    if junction_gap > JUNCTION_TOL:
        raise EndpointMismatch(
            f"p(1) and q(0) differ by {junction_gap:.3e} > {JUNCTION_TOL}")
    knots_p = [k / 2.0 for k in p.knot_values()]
    knots_q = [0.5 + k / 2.0 for k in q.knot_values()]
    samples_p = [p.block_at(k) for k in p.knot_values()]
    samples_q = [q.block_at(k) for k in q.knot_values()[1:]]
    return OperatorPath.piecewise_linear(
        knots_p + knots_q[1:], samples_p + samples_q,
        plus_tail=p.plus_tail, minus_tail=p.minus_tail)


def reverse(p: OperatorPath) -> OperatorPath:
    """The path run backwards: lambda -> p(1 - lambda)."""
    if p.kind == "affine":
        return OperatorPath.affine(p.mat_a + p.mat_b, -p.mat_b,
                                   plus_tail=p.plus_tail, minus_tail=p.minus_tail)
    knots = [1.0 - k for k in reversed(p.knot_values())]
    samples = list(reversed([p.block_at(k) for k in p.knot_values()]))
    return OperatorPath.piecewise_linear(knots, samples, plus_tail=p.plus_tail,
                                         minus_tail=p.minus_tail)


def negate(p: OperatorPath) -> OperatorPath:
    """The path lambda -> -p(lambda); tails swap sides."""
    if p.kind == "affine":
        return OperatorPath.affine(-p.mat_a, -p.mat_b, plus_tail=p.minus_tail,
                                   minus_tail=p.plus_tail)
    samples = [-p.block_at(k) for k in p.knot_values()]
    return OperatorPath.piecewise_linear(p.knot_values(), samples,
                                         plus_tail=p.minus_tail,
                                         minus_tail=p.plus_tail)


def compress(path: OperatorPath, m: int = 0) -> OperatorPath:
    """Finite-dimensional model of the path: each tail is replaced by m copies
    of its scalar value appended to the block, tail flags dropped."""
    if m < 0:
        raise OutOfRange(f"m must be nonnegative, got {m}")
    extra_vals = [1.0] * (m if path.plus_tail else 0) \
        + [-1.0] * (m if path.minus_tail else 0)
    extra = len(extra_vals)
    if extra == 0:
        if path.kind == "affine":
            return OperatorPath.affine(path.mat_a, path.mat_b)
        return OperatorPath.piecewise_linear(
            path.knot_values(), [path.block_at(k) for k in path.knot_values()])

    def extend(block: np.ndarray, moving: bool) -> np.ndarray:
        tail = np.diag(extra_vals) if not moving else np.zeros((extra, extra))
        return _blockdiag(block, tail)

    if path.kind == "affine":
        return OperatorPath.affine(extend(path.mat_a, False),
                                   extend(path.mat_b, True))
    samples = [extend(path.block_at(k), False) for k in path.knot_values()]
    return OperatorPath.piecewise_linear(path.knot_values(), samples)


def check_equivariance(op: CPS, action: OrthogonalAction) -> float:
    """Largest commutator norm between the block and any action matrix."""
    if action.dim != op.dim:
        raise DimMismatch(
            f"action dimension {action.dim} vs block dimension {op.dim}")
    rho = action.stack
    return float(np.max(opnorms(rho @ op.block - op.block @ rho)))


def morse_class(op: CPS, action: OrthogonalAction, table: RealCharacterTable, *,
                tol_cluster: float = CLUSTER_FACTOR,
                tol_invert: float = INVERT_FACTOR,
                tol_equivariance: float = EQUIVARIANCE_FACTOR,
                tol_invariance: float = 1e-7) -> VirtualRep:
    """Class of the negative eigenspace of an invertible finite-dimensional
    equivariant operator."""
    if op.plus_tail or op.minus_tail:
        raise InfiniteRank("negative-space class needs a finite-dimensional operator")
    spec = block_spectrum(op, tol_cluster)
    scale = 1.0 + spec.block_norm
    defect = check_equivariance(op, action)
    if defect > tol_equivariance * scale:
        raise NotEquivariant(f"commutator norm {defect:.3e} exceeds tolerance")
    if spec.min_abs() <= tol_invert * scale:
        raise NotInvertible(
            f"eigenvalue {spec.min_abs():.3e} within invertibility threshold")
    picked = [c.vectors for c in spec.clusters if c.value < 0.0]
    frame = np.concatenate(picked, axis=1) if picked else np.zeros((op.dim, 0))
    chi = character_of_subspace(action, frame, tol_inv=tol_invariance)
    return multiplicity_vector(chi, table)
