"""Symmetric finite blocks with fixed scalar tails, and paths of them.

An operator here is a symmetric d x d block plus an optional infinite tail at
+1 and an optional one at -1. The tails are where the essential spectrum
lives; everything that moves is inside the block. Paths are affine or
piecewise linear in the parameter and carry a recomputed Lipschitz bound that
downstream certification relies on. Every block spectrum, solver error
bound and two-norm bound of the package comes from eigh_each, one stacked
solve in which a block that fails fails alone, and eigendata_each on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._eig import (EPS, block_diag, eigh_error, jacobi_eigh, opnorms_within,
                   symmetric_part)
from .errors import (
    BoundaryHit,
    DimensionMismatch,
    EigenFailure,
    EndpointMismatch,
    InfiniteRank,
    NotEquivariant,
    NotInvertible,
    OutOfRange,
    TailMismatch,
    WrongGroup,
    raise_first,
)
from .groups import (
    HOMOMORPHISM_BATCH,
    OrthogonalAction,
    RealCharacterTable,
    VirtualRep,
    subspace_classes,
)

CLUSTER_FACTOR = 1e-8
INVERT_FACTOR = 1e-10
EQUIVARIANCE_FACTOR = 1e-8
JUNCTION_TOL = 1e-9
# the values of the +1 and -1 tails, in the order of the tail flags
_TAIL_VALUES = np.array([1.0, -1.0])


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
            raise DimensionMismatch(f"block must be square, got shape {b.shape}")
        if not np.isfinite(b).all():
            raise OutOfRange("block has non-finite entries")
        b = symmetric_part(b)
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

    def __repr__(self) -> str:
        return (f"CPS(dim={self.dim}, plus_tail={self.plus_tail}, "
                f"minus_tail={self.minus_tail})")


@dataclass(frozen=True)
class Spectrum:
    """Full block eigendata: raw ascending eigenvalues and their orthonormal
    eigenvector columns, the largest eigenvalue magnitude, the absolute
    clustering tolerance, and err, a bound on how far any computed
    eigenvalue lies from the exact one."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    block_norm: float
    tol: float
    err: float


def eigh_each(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """(w, v, errors): jacobi_eigh of a (k, n, n) stack from one stacked
    solve. Only if the stack fails is each matrix solved alone, so that a
    failure belongs to its own matrix: its rows of w and v are zero, and
    errors maps its index to its EigenFailure."""
    try:
        return (*jacobi_eigh(blocks), {})
    except EigenFailure:
        w, v, errors = np.zeros(blocks.shape[:2]), np.zeros(blocks.shape), {}
    for i, block in enumerate(blocks):
        try:
            (w[i],), (v[i],) = jacobi_eigh(block[None])
        except EigenFailure as e:
            errors[i] = e
    return w, v, errors


def eigendata_each(blocks: np.ndarray, tol_cluster: float = CLUSTER_FACTOR
                   ) -> tuple:
    """(w, v, norm, tol, err, ok, errors) of a (k, n, n) stack of symmetric
    blocks: w and v of eigh_each and, per block, the largest eigenvalue
    magnitude, the clustering tolerance tol_cluster * (1 + norm) and the
    solver error bound. A block that fails to solve, or whose bound is not
    finite, fails alone: its rows of w and v are zero, ok is false there,
    and errors maps its index to its EigenFailure."""
    w, v, errors = eigh_each(blocks)
    ok = np.ones(len(w), dtype=bool)
    ok[list(errors)] = False
    # the whole stack as a view unless a block failed; a substitute bound
    # returning one scalar (as tests install) applies to every matrix
    solved = ok if errors else slice(None)
    err = np.zeros(len(w))
    try:
        err[solved] = eigh_error(blocks[solved], w[solved], v[solved])
    except EigenFailure:
        for i in ok.nonzero()[0].tolist():
            r = slice(i, i + 1)
            try:
                err[r] = eigh_error(blocks[r], w[r], v[r])
            except EigenFailure as e:
                errors[i], ok[i], w[i], v[i] = e, False, 0.0, 0.0
        errors = dict(sorted(errors.items()))
    norms = np.abs(w).max(axis=1, initial=0.0)
    return w, v, norms, tol_cluster * (1.0 + norms), err, ok, errors


def _norm_bound(norm: np.ndarray, err: np.ndarray) -> np.ndarray:
    # upper bound on the two-norm of a symmetric matrix from its largest
    # computed eigenvalue magnitude and solver error bound, rounded up
    return (norm + err) * (1.0 + 2.0 * EPS)


def _specnorm(m: np.ndarray) -> np.ndarray:
    # _norm_bound of each symmetric matrix of a (k, n, n) stack; the first
    # matrix in order that cannot be solved raises its EigenFailure
    _, _, norm, _, err, _, errors = eigendata_each(m)
    raise_first(errors.values())
    return _norm_bound(norm, err)


def block_spectrum(op: CPS, tol_cluster: float = CLUSTER_FACTOR) -> Spectrum:
    """The Spectrum of the operator's block, as eigendata_each gives it."""
    w, v, *scalars, _, errors = eigendata_each(op.block[None], tol_cluster)
    raise_first(errors.values())
    return Spectrum(w[0], v[0], *(float(s[0]) for s in scalars))


def _singular_rows(w: np.ndarray, norms: np.ndarray, errs: np.ndarray,
                  tol: np.ndarray, tol_invert: float) -> tuple[np.ndarray, ...]:
    """(min_abs, threshold, singular, near) of each row of a (..., n) stack
    of spectra with their block norms, clustering tolerances and solver
    error bounds: the smallest eigenvalue magnitude (inf when n is 0), the
    invertibility threshold tol_invert * (1 + norm), whether min_abs less
    the error bound is within it or NaN, and the mask of the negative
    eigenvalues within tol of 0. A window closed at -tol would count such
    an eigenvalue with the nonnegative ones, so an end is refused for it."""
    min_abs = np.abs(w).min(axis=-1, initial=np.inf)
    threshold = tol_invert * (1.0 + norms)
    near = (w < 0.0) & (w >= -tol[..., None])
    return min_abs, threshold, ~(min_abs - errs > threshold), near


def cluster_values(w: np.ndarray,
                   tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clusters of each row of a (k, n) stack of ascending spectra, at one
    tolerance per row: (starts, values). starts marks the first eigenvalue
    of each run of eigenvalues each within tol of its neighbour, and values
    gives each eigenvalue its run's value: itself when alone, else the bits
    of np.mean over the run."""
    starts = np.ones(w.shape, dtype=bool)
    with np.errstate(over="ignore"):  # a gap past the float range is inf
        starts[:, 1:] = w[:, 1:] - w[:, :-1] > tol[:, None]
    if starts.all():  # every run is one eigenvalue, valued at itself
        return starts, w
    flat, first = w.reshape(-1), starts.reshape(-1).nonzero()[0]
    size = np.append(first[1:], flat.size) - first
    # np.mean sums from +0.0, pairwise past seven terms; reduceat has its
    # bits on runs of one and two
    means = np.add.reduceat(flat, first)
    means = np.where(size > 1, means + 0.0, means) / size
    for r in (size > 2).nonzero()[0].tolist():
        means[r] = np.mean(flat[first[r]:first[r] + size[r]])
    return starts, means.repeat(size).reshape(w.shape)


def interval_columns(values: np.ndarray, lower,
                     upper) -> tuple[np.ndarray, np.ndarray]:
    """(lo, ncols) per row of a (k, n) cluster_values array: the clusters
    valued in [lower, upper] are the eigenvector columns lo..lo + ncols, as
    cluster values ascend. lower and upper are scalars or (k, 1) arrays."""
    lo = (values < lower).sum(axis=1)
    return lo, (values <= upper).sum(axis=1) - lo


def window_faults(w: np.ndarray, tol: np.ndarray, levels: Sequence[float],
                  tails) -> list[InfiniteRank | BoundaryHit | None]:
    """The error of the window [0, levels[i]], closed at -tol[i], of row i
    of a (k, n) stack of eigenvalues w, or None: InfiniteRank if a tail
    value (tails: (plus, minus) flags per row or for all) lies in
    [-tol[i], levels[i]], else BoundaryHit for the first eigenvalue within
    tol[i] of the level, or equal to 0 where tol[i] is 0."""
    b = np.asarray(levels, dtype=float)
    inside = (np.asarray(tails) & (-tol[:, None] <= _TAIL_VALUES)
              & (_TAIL_VALUES <= b[:, None]))
    with np.errstate(over="ignore"):  # a distance past the float range is inf
        left = (tol == 0.0)[:, None] & (w == 0.0)
        hit = left | (np.abs(w - b[:, None]) <= tol[:, None])
    faults: list[InfiniteRank | BoundaryHit | None] = [None] * len(w)
    for i in np.flatnonzero(inside.any(axis=1) | hit.any(axis=1)):
        j = int(np.argmax(hit[i])) if w.shape[1] else 0
        faults[i] = (InfiniteRank(f"window [0.0, {levels[i]}] contains the "
                                  f"{'+1' if inside[i, 0] else '-1'} tail")
                     if inside[i].any() else
                     BoundaryHit(f"eigenvalue {float(w[i, j])} at window "
                                 f"edge {0.0 if left[i, j] else levels[i]}"))
    return faults


class OperatorPath:
    """Affine or piecewise-linear path of blocks with fixed tails.

    The speed of each piece (speeds, one per pair of consecutive knots) and
    the Lipschitz bound, their maximum, are computed from the data and never
    trusted from the caller; certification downstream depends on them being
    true upper bounds for the block's spectral-norm velocity. They are
    solved on first read, or in the first stacked solve of a bisection
    (flow._Eigendata.add), with the bits of the path's own solve.
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
            raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
        if not np.isfinite(a).all():
            raise OutOfRange("a has non-finite entries")
        if not np.isfinite(b).all():  # the Lipschitz bound is read from b
            raise OutOfRange("b has non-finite entries")
        self.kind = "affine"
        self.mat_a = a
        self.mat_b = b
        self.knots = np.array([0.0, 1.0])
        self.samples = None
        self.plus_tail = bool(plus_tail)
        self.minus_tail = bool(minus_tail)
        self.dim = a.shape[0]
        self._diffs, self._speeds = b[None], None
        return self

    @classmethod
    def piecewise_linear(cls, knots: Sequence[float],
                         samples: Sequence[np.ndarray], *,
                         plus_tail: bool = False,
                         minus_tail: bool = False) -> "OperatorPath":
        """Path interpolating the given blocks linearly between knots."""
        knots = np.asarray([float(k) for k in knots])
        if knots.ndim != 1 or knots.size < 2:
            raise OutOfRange("need at least the two endpoint knots")
        if not (abs(knots[0]) <= 1e-12 and abs(knots[-1] - 1.0) <= 1e-12):
            raise OutOfRange(f"knots must run from 0 to 1, got {knots[0]}..{knots[-1]}")
        knots[0], knots[-1] = 0.0, 1.0
        _increasing(knots)
        if len(samples) != knots.size:
            raise DimensionMismatch(f"{len(samples)} samples for {knots.size} knots")
        try:
            stack = np.asarray(samples, dtype=float)
        except (TypeError, ValueError, OverflowError):
            stack = None
        if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            # a stack of square samples of one shape is valid; otherwise the
            # first bad sample raises its own error
            mats = [_sym(np.asarray(s, dtype=float)) for s in samples]
            dim = mats[0].shape[0]
            for i, m in enumerate(mats):
                if m.shape != (dim, dim):
                    raise DimensionMismatch(f"sample {i} has shape {m.shape}, "
                                            f"expected ({dim}, {dim})")
            stack = np.array([np.asarray(s, dtype=float) for s in samples])
        return cls._through(knots, _finite(stack), (plus_tail, minus_tail))

    @classmethod
    def _through(cls, knots: np.ndarray, samples: np.ndarray,
                 tails: tuple[bool, bool]) -> "OperatorPath":
        """Path through the symmetric parts of a finite (k, d, d) stack at k
        strictly increasing knots from exactly 0 to 1, checking only their
        differences. A derived path passes what its piecewise_linear call
        would get: a second symmetrization rounds odd subnormal entries."""
        stack = symmetric_part(samples)
        with np.errstate(over="ignore"):
            diffs = stack[1:] - stack[:-1]
        if not np.isfinite(diffs).all():
            raise EigenFailure("block has non-finite entries")
        self = cls._new()
        self.kind = "piecewise_linear"
        self.mat_a = None
        self.mat_b = None
        self.knots = knots
        self._stack = stack
        self.samples = tuple(stack)
        self.plus_tail, self.minus_tail = map(bool, tails)
        self.dim = stack.shape[1]
        self._diffs, self._speeds = diffs, None
        return self

    @property
    def speeds(self) -> np.ndarray:
        if self._speeds is None:
            self._speeds = _specnorm(self._diffs) / np.diff(self.knots)
        return self._speeds

    @property
    def lipschitz(self) -> float:
        return float(np.max(self.speeds, initial=0.0))

    @property
    def tails(self) -> tuple[bool, bool]:
        return (self.plus_tail, self.minus_tail)

    def blocks_at(self, lams: Sequence[float]) -> np.ndarray:
        """(k, d, d) stack of the blocks at k parameters, interpolated in one
        pass. A parameter on a knot gets that knot's sample, signed zeros
        included; elsewhere each entry is (1 - t) s_i + t s_(i+1), computed
        entry by entry, so a block's bits do not depend on the other
        parameters."""
        lams = np.asarray(lams, dtype=float).reshape(-1)
        outside = ~((lams >= 0.0) & (lams <= 1.0))  # NaN is outside
        if outside.any():
            raise OutOfRange(f"parameter {lams[outside][0]} outside [0, 1]")
        if self.kind == "affine":
            return self.mat_a + lams[:, None, None] * self.mat_b
        i = np.minimum(self.knots.searchsorted(lams, side="right") - 1,
                       self.knots.size - 2)
        return _lerp(lams, self.knots[i], self.knots[i + 1], self._stack[i],
                     self._stack[i + 1])

    def block_at(self, lam: float) -> np.ndarray:
        return self.blocks_at([lam])[0]

    def at(self, lam: float) -> CPS:
        return CPS(self.block_at(lam), plus_tail=self.plus_tail,
                   minus_tail=self.minus_tail)

    def __repr__(self) -> str:
        # the Lipschitz bound only once solved: printing solves nothing
        speed = ("" if self._speeds is None
                 else f", lipschitz={self.lipschitz:.4g}")
        return (f"OperatorPath(kind={self.kind!r}, dim={self.dim}, "
                f"plus_tail={self.plus_tail}, minus_tail={self.minus_tail}"
                f"{speed})")


def _lerp(lams: np.ndarray, lo: np.ndarray, hi: np.ndarray, s_lo: np.ndarray,
          s_hi: np.ndarray) -> np.ndarray:
    # (1 - t) s_lo + t s_hi at t = (lam - lo) / (hi - lo) for each parameter
    # and its piece, where a parameter on a knot gets that knot's sample
    t = ((lams - lo) / (hi - lo))[:, None, None]
    out = np.where((lams == hi)[:, None, None], s_hi, (1.0 - t) * s_lo + t * s_hi)
    return np.where((lams == lo)[:, None, None], s_lo, out)


def _padded_knots(paths: Sequence[OperatorPath]) -> np.ndarray:
    # the knots of each path as one row, padded with inf
    knots = np.full((len(paths), max((p.knots.size for p in paths), default=0)),
                    np.inf)
    for row, p in zip(knots, paths):
        row[:p.knots.size] = p.knots
    return knots


class PathStack:
    """OperatorPaths of one dimension stacked, so that the blocks of many
    (path, parameter) pairs are interpolated in one pass per kind of path,
    with the bits of blocks_at: a block's bits depend on neither the other
    parameters nor the other paths."""

    def __init__(self, paths: Sequence[OperatorPath]):
        n = paths[0].dim
        self.affine = np.array([p.kind == "affine" for p in paths], dtype=bool)
        # each path's place among the paths of its kind
        self.place = np.where(self.affine, self.affine.cumsum(),
                              (~self.affine).cumsum()) - 1
        lines = [p for p in paths if p.kind == "affine"]
        self.a = np.array([p.mat_a for p in lines]).reshape(len(lines), n, n)
        self.b = np.array([p.mat_b for p in lines]).reshape(len(lines), n, n)
        pieces = [p for p in paths if p.kind != "affine"]
        self.knots = _padded_knots(pieces)
        self.first = np.cumsum([0] + [p.knots.size for p in pieces])[:-1]
        self.samples = np.concatenate([p._stack for p in pieces] or
                                      [np.empty((0, n, n))])

    def blocks(self, which: np.ndarray, lams: np.ndarray) -> np.ndarray:
        """The block of path which[j] at lams[j] in [0, 1], for each j."""
        on, k = self.affine[which], self.place[which]
        if on.all():
            return self.a[k] + lams[:, None, None] * self.b[k]
        out = np.empty((len(lams),) + self.samples.shape[1:])
        if on.any():
            out[on] = self.a[k[on]] + lams[on][:, None, None] * self.b[k[on]]
            k, lam = k[~on], lams[~on]
        else:
            lam = lams
        # the piece that holds lam, the first for lam = 0 and otherwise the
        # one that lam ends where it is a knot
        i = np.maximum((self.knots[k] < lam[:, None]).sum(axis=1) - 1, 0)
        s = self.first[k] + i
        out[~on] = _lerp(lam, self.knots[k, i], self.knots[k, i + 1],
                         self.samples[s], self.samples[s + 1])
        return out


def segment_speeds(paths: Sequence[OperatorPath]
                   ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The function of (which, ends) that gives, for segment j of an (m, 2)
    array of (left, right) ends, left < right, the largest speed among the
    pieces of paths[which[j]] that meet it: those that start before right
    and end after left."""
    knots = _padded_knots(paths)
    speeds = np.zeros((len(paths), max(knots.shape[1] - 1, 0)))
    for row, p in zip(speeds, paths):
        row[:len(p.speeds)] = p.speeds

    def of(which: np.ndarray, ends: np.ndarray) -> np.ndarray:
        k = knots[which]
        meets = (k[:, :-1] < ends[:, 1:]) & (k[:, 1:] > ends[:, :1])
        return np.where(meets, speeds[which], 0.0).max(axis=1, initial=0.0)
    return of


def _sym(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return symmetric_part(m)


def _finite(stack: np.ndarray) -> np.ndarray:
    if not np.isfinite(stack).all():
        raise OutOfRange("samples have non-finite entries")
    return stack


def _increasing(knots: np.ndarray) -> np.ndarray:
    # a knot computed from valid ones (k / 2, 1 - k) can round onto another;
    # a NaN knot fails
    if not np.all(np.diff(knots) > 0):
        raise OutOfRange("knots must be strictly increasing")
    return knots


def direct_sum(a: CPS, b: CPS) -> CPS:
    """Block-diagonal join; tail flags are merged."""
    return CPS(block_diag(a.block, b.block), plus_tail=a.plus_tail or b.plus_tail,
               minus_tail=a.minus_tail or b.minus_tail)


def direct_sum_paths(p: OperatorPath, q: OperatorPath) -> OperatorPath:
    """Parameterwise block-diagonal join of two paths."""
    plus = p.plus_tail or q.plus_tail
    minus = p.minus_tail or q.minus_tail
    if p.kind == "affine" and q.kind == "affine":
        return OperatorPath.affine(block_diag(p.mat_a, q.mat_a),
                                   block_diag(p.mat_b, q.mat_b),
                                   plus_tail=plus, minus_tail=minus)
    ts = np.unique(np.concatenate([p.knots, q.knots]))
    with np.errstate(over="ignore"):  # an overflowed block is refused
        stack = block_diag(p.blocks_at(ts), q.blocks_at(ts))
    return OperatorPath._through(ts, _finite(stack), (plus, minus))


def concatenate(p: OperatorPath, q: OperatorPath) -> OperatorPath:
    """Run p on [0, 1/2] and q on [1/2, 1]. Requires matching junction blocks
    and identical tails."""
    if p.tails != q.tails:
        raise TailMismatch(f"tails {p.tails} vs {q.tails}")
    if p.dim != q.dim:
        raise DimensionMismatch(f"dimensions {p.dim} and {q.dim} differ")
    with np.errstate(over="ignore"):  # an overflowed block is refused
        ps, qs = (x.blocks_at(x.knots) if x.kind == "affine" else x._stack
                  for x in (p, q))
    if not np.array_equal(ps[-1], qs[0]):  # equal blocks are 0 apart
        (junction_gap,) = _specnorm((ps[-1] - qs[0])[None])
        if junction_gap > JUNCTION_TOL:
            raise EndpointMismatch(
                f"p(1) and q(0) differ by {junction_gap:.3e} > {JUNCTION_TOL}")
    knots = _increasing(np.concatenate([p.knots / 2.0, 0.5 + q.knots[1:] / 2.0]))
    return OperatorPath._through(knots, _finite(np.concatenate([ps, qs[1:]])),
                                 p.tails)


def reverse(p: OperatorPath) -> OperatorPath:
    """The path run backwards: lambda -> p(1 - lambda)."""
    if p.kind == "affine":
        with np.errstate(over="ignore"):  # an overflowed a is refused
            return OperatorPath.affine(p.mat_a + p.mat_b, -p.mat_b,
                                       plus_tail=p.plus_tail, minus_tail=p.minus_tail)
    return OperatorPath._through(_increasing(1.0 - p.knots[::-1]),
                                 p._stack[::-1], p.tails)


def negate(p: OperatorPath) -> OperatorPath:
    """The path lambda -> -p(lambda); tails swap sides."""
    if p.kind == "affine":
        return OperatorPath.affine(-p.mat_a, -p.mat_b, plus_tail=p.minus_tail,
                                   minus_tail=p.plus_tail)
    return OperatorPath._through(p.knots, -p._stack, p.tails[::-1])


def compression_tail(path: OperatorPath, m: int = 0) -> np.ndarray:
    """Diagonal block of m copies of each tail value of the path, the part
    compress appends to every block."""
    if m < 0:
        raise OutOfRange(f"m must be nonnegative, got {m}")
    return np.diag([1.0] * (m if path.plus_tail else 0)
                   + [-1.0] * (m if path.minus_tail else 0))


def compress(path: OperatorPath, m: int = 0) -> OperatorPath:
    """Finite-dimensional model of the path: each tail is replaced by m copies
    of its scalar value appended to the block, tail flags dropped."""
    tail = compression_tail(path, m)
    if path.kind == "affine":
        return OperatorPath.affine(block_diag(path.mat_a, tail),
                                   block_diag(path.mat_b, np.zeros_like(tail)))
    return OperatorPath._through(path.knots, block_diag(path._stack, tail),
                                 (False, False))


def equivariance_defects(blocks: np.ndarray, action: OrthogonalAction,
                         tol: Sequence[float]) -> np.ndarray:
    """Largest commutator norm between each block of a (k, n, n) stack and
    any action matrix, from stacked products over as many blocks at a time
    as keep each temporary within HOMOMORPHISM_BATCH entries (at least one
    block), so memory stays near |G| n^2 for large explicit groups. A
    defect is exact only where it exceeds its block's tol, as in
    opnorms_within."""
    if action.dim != blocks.shape[-1]:
        raise DimensionMismatch(f"action dimension {action.dim} vs block "
                                f"dimension {blocks.shape[-1]}")
    rho = action.stack
    step = max(1, HOMOMORPHISM_BATCH // max(1, rho.size))
    defects = np.empty(len(blocks))
    for k0 in range(0, len(blocks), step):
        b = blocks[k0:k0 + step, None]
        # a commutator that overflows has norm inf and fails every check
        with np.errstate(over="ignore", invalid="ignore"):
            c = rho @ b - b @ rho
        norms = opnorms_within(c, np.asarray(tol)[k0:k0 + step, None])
        defects[k0:k0 + step] = norms.max(axis=1)
    return defects


def _equivariance_rows(blocks: np.ndarray, action: OrthogonalAction,
                       norm: np.ndarray, ok: np.ndarray) -> tuple:
    """(defects, tol, bad) of a (k, n, n) stack of blocks whose largest
    eigenvalue magnitudes are norm: equivariance_defects at the tolerance
    EQUIVARIANCE_FACTOR * (1 + norm), inf where the solve failed (ok is
    false), and whether a block failed its solve or its check, NaN too."""
    tol = EQUIVARIANCE_FACTOR * np.where(ok, 1.0 + norm, np.inf)
    defects = equivariance_defects(blocks, action, tol)
    return defects, tol, ~ok | ~(defects <= tol)


def check_equivariance(op: CPS, action: OrthogonalAction) -> float:
    """Largest commutator norm between the block and any action matrix."""
    # a tol of 0 passes only a zero commutator, whose norm is 0 either way
    return float(equivariance_defects(op.block[None], action, [0.0])[0])


def morse_class(op: CPS, action: OrthogonalAction, table: RealCharacterTable, *,
                tol_cluster: float = CLUSTER_FACTOR,
                tol_invert: float = INVERT_FACTOR) -> VirtualRep:
    """Class of the negative eigenspace of an invertible finite-dimensional
    equivariant operator: the one-block case of morse_classes."""
    if op.plus_tail or op.minus_tail:
        raise InfiniteRank("negative-space class needs a finite-dimensional operator")
    return morse_classes(op.block[None], action, table, tol_cluster=tol_cluster,
                         tol_invert=tol_invert)[0]


def morse_classes(blocks: np.ndarray, action: OrthogonalAction,
                  table: RealCharacterTable, *,
                  tol_cluster: float = CLUSTER_FACTOR,
                  tol_invert: float = INVERT_FACTOR) -> list[VirtualRep]:
    """Classes of the negative eigenspaces of a (k, n, n) stack of invertible
    equivariant blocks, from one stacked solve, one equivariance check and
    one subspace_classes call. Raises the first error of morse_class run on
    the blocks in order: WrongGroup, DimensionMismatch before any solve,
    then for each block its failed solve, NotEquivariant, then the errors
    of _negative_classes."""
    if table.group != action.group:
        raise WrongGroup("character table and action belong to different groups")
    if action.dim != blocks.shape[-1]:
        raise DimensionMismatch(f"action dimension {action.dim} vs block "
                                f"dimension {blocks.shape[-1]}")
    w, v, norm, tol, err, ok, errors = eigendata_each(blocks, tol_cluster)
    raise_first([errors.get(0)])
    defects, _, bad = _equivariance_rows(blocks, action, norm, ok)
    # the first block that fails its solve or equivariance; the faults of
    # the blocks before it come first
    k = int(bad.argmax()) if bad.any() else len(blocks)
    classes = _negative_classes(action, table, w[:k], v[:k], norm[:k],
                                tol[:k], err[:k], tol_invert)
    if k < len(blocks):
        raise errors.get(k) or NotEquivariant(
            f"commutator norm {defects[k]:.3e} exceeds tolerance")
    return classes


def _negative_classes(action: OrthogonalAction, table: RealCharacterTable,
                      w: np.ndarray, v: np.ndarray, norm: np.ndarray,
                      tol: np.ndarray, err: np.ndarray,
                      tol_invert: float) -> list[VirtualRep]:
    """Classes of the negative eigenspaces of solved equivariant blocks,
    from their eigendata rows (w, v, norm, tol, err as eigendata_each gives
    them): the column range of the clusters valued below 0. Raises the
    first error of a loop over the blocks in order, each checked for
    NotInvertible (an eigenvalue within the invertibility threshold of 0,
    else a negative one within the cluster tolerance), then classified."""
    min_abs, _, singular, near = _singular_rows(w, norm, err, tol, tol_invert)
    bad = singular | near.any(axis=1)
    k = int(bad.argmax()) if bad.any() else len(w)
    fault = None if k == len(w) else (
        NotInvertible(f"eigenvalue {min_abs[k]:.3e} within invertibility "
                      "threshold") if singular[k] else
        NotInvertible(f"eigenvalue {w[k][near[k]][-1]:.3e} within cluster "
                      f"tolerance {tol[k]:.3e} below 0"))
    # the clusters valued below 0: up to the largest double below 0
    _, ncols = interval_columns(cluster_values(w[:k], tol[:k])[1], -np.inf,
                                np.nextafter(0.0, -1.0))
    classes = subspace_classes(action, table, [
        v[i, :, :c] for i, c in enumerate(ncols.tolist())])
    raise_first([*classes, fault])
    return classes
