"""Randomized generators for equivariant blocks, paths, and group actions.

Equivariance is produced by group averaging, never by rejection, so every
draw is exactly invariant up to roundoff. Invertible endpoints come from
spectral clamping away from zero, which preserves equivariance because it is
a spectral function of an equivariant matrix.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._eig import block_diag, jacobi_eigh, symmetric_part
from .errors import OutOfRange, SflowError, raise_first
from .groups import (
    FiniteGroup,
    OrthogonalAction,
    RealCharacterTable,
    _preset_irreps,
    build_group,
)
from .operators import OperatorPath, eigh_each

CLAMP_DELTA = 0.3
# entries of one stacked product of the group average (512 KiB of floats)
REYNOLDS_CHUNK = 2 ** 16


def haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix drawn from the Haar measure via sign-fixed QR."""
    if dim == 0:
        return np.zeros((0, 0))
    z = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diag(r))


def reynolds_symmetric(action: OrthogonalAction, x: np.ndarray) -> np.ndarray:
    """Group average of x, or of each matrix of a (k, d, d) stack,
    symmetrized. Lands in the commutant exactly."""
    return symmetric_part(_reynolds(action, x))


def _reynolds(action: OrthogonalAction, x: np.ndarray) -> np.ndarray:
    # every rho x rho^T of a chunk of x from one stacked product, summed in
    # element order from zero: the bits of a running sum over the elements
    # (a reduction over the stack's axis would sum 1 x 1 products in another
    # order); each matrix of x gets the bits of its own average, and a
    # product holds at most REYNOLDS_CHUNK entries, or one matrix's products
    stack = x if x.ndim == 3 else x[None]
    rho = action.stack[:, None]
    avg = np.zeros_like(stack, dtype=float)
    step = max(1, REYNOLDS_CHUNK // max(1, rho.size))
    for lo in range(0, len(stack), step):
        for term in rho @ stack[lo:lo + step] @ rho.swapaxes(-1, -2):
            avg[lo:lo + step] += term
    avg /= action.group.order
    return avg if x.ndim == 3 else avg[0]


def random_equivariant_symmetric(action: OrthogonalAction,
                                 rng: np.random.Generator,
                                 k: int | None = None) -> np.ndarray:
    """Random symmetric block in the commutant, or a (k, d, d) stack of k of
    them drawn and averaged at once, with the numbers and bits of k draws in
    turn."""
    shape = (action.dim,) * 2 if k is None else (k, action.dim, action.dim)
    return reynolds_symmetric(action, rng.standard_normal(shape))


def _clamped(action: OrthogonalAction, w: np.ndarray, v: np.ndarray
             ) -> np.ndarray:
    # push eigenvalues in (-CLAMP_DELTA, CLAMP_DELTA) out to +-CLAMP_DELTA,
    # zeros to +CLAMP_DELTA, then re-average to scrub roundoff from the
    # reconstruction; a (k, d, d) stack is clamped each matrix as if alone
    clamped = np.where(np.abs(w) >= CLAMP_DELTA, w,
                       np.where(w >= 0.0, CLAMP_DELTA, -CLAMP_DELTA))
    return reynolds_symmetric(action,
                              (v * clamped[..., None, :]) @ v.swapaxes(-1, -2))


def random_equivariant_invertible(action: OrthogonalAction,
                                  rng: np.random.Generator) -> np.ndarray:
    """Random symmetric block in the commutant with its spectrum clamped
    out of (-CLAMP_DELTA, CLAMP_DELTA)."""
    return _clamped(action,
                    *jacobi_eigh(random_equivariant_symmetric(action, rng)))


class PathDraws:
    """Random equivariant paths of one action, drawn in two phases so that
    all of them share their averages and their solve.

    The draw methods take every random number a path needs from rng, in
    the order drawing it alone takes them, and return its index. build()
    takes no random number: it averages every normal draw in one Reynolds
    pass, solves every block to clamp, and every bump whose norm scales it,
    in one eigensolve, averages the clamped blocks in a second pass, and
    builds the paths in draw order, each with the numbers and bits of
    drawing it alone. random_equivariant_path and random_invertible_path
    are the case of one draw.
    """

    def __init__(self, action: OrthogonalAction):
        self.action = action
        self._normals: list[np.ndarray] = []  # raw (k, d, d) draws in order
        self._rows = 0  # rows drawn so far
        self._solve: list[int] = []  # rows to solve, in order
        # per path: its rows of the solved stack, and what builds it from
        # the averaged draws, the solved eigenvalues, the clamped blocks and
        # the paths built before it
        self._builds: list[tuple[range, Callable]] = []

    def _draw(self, rng: np.random.Generator, k: int) -> range:
        # k normal draws: their rows of the averaged stack
        d = self.action.dim
        self._normals.append(rng.standard_normal((k, d, d)))
        self._rows += k
        return range(self._rows - k, self._rows)

    def _solved(self, rows: range) -> range:
        # rows of the averaged stack to solve: their rows of the solved one
        self._solve.extend(rows)
        return range(len(self._solve) - len(rows), len(self._solve))

    def equivariant(self, rng: np.random.Generator, *,
                    plus_tail: bool = False, minus_tail: bool = False,
                    kind: str | None = None,
                    start: np.ndarray | int | None = None) -> int:
        """Draw a path whose clamped endpoints are invertible and well
        separated. kind is "affine", "pl" (1 to 3 interior samples drawn
        as they are) or None for a coin flip. start pins the initial block,
        for building concatenation chains: a block, trusted to be
        equivariant and invertible, or the index of an earlier path of this
        batch, whose block at 1 it takes."""
        if kind is None:
            kind = "affine" if rng.random() < 0.5 else "pl"
        ends = self._solved(self._draw(rng, 1 if start is not None else 2))
        if kind not in ("affine", "pl"):
            raise OutOfRange(f"unknown path kind {kind!r}")
        interior = (self._draw(rng, int(rng.integers(1, 4))) if kind == "pl"
                    else None)
        tails = {"plus_tail": plus_tail, "minus_tail": minus_tail}

        def build(avg, w, clamped, paths):
            if start is None:
                first = clamped[ends[0]]
            elif isinstance(start, int):
                raise_first([paths[start]])
                first = paths[start].block_at(1.0)
            else:
                first = start
            last = clamped[ends[-1]]
            if interior is None:
                return OperatorPath.affine(first, last - first, **tails)
            return OperatorPath.piecewise_linear(
                np.linspace(0.0, 1.0, len(interior) + 2),
                [first, *avg[interior.start:interior.stop], last], **tails)

        self._builds.append((ends, build))
        return len(self._builds) - 1

    def invertible(self, rng: np.random.Generator, *,
                   plus_tail: bool = False, minus_tail: bool = False) -> int:
        """Draw a path invertible at every parameter: a clamped base plus a
        perturbation kept strictly inside the spectral gap, so no
        eigenvalue can reach zero, affine or, on a coin flip, piecewise
        linear through 3 to 5 multiples of it."""
        rows = self._draw(rng, 2)
        pair = self._solved(rows)
        scales = None
        if self.action.dim and rng.random() >= 0.5:
            scales = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 4)) + 2)
        tails = {"plus_tail": plus_tail, "minus_tail": minus_tail}

        def build(avg, w, clamped, paths):
            # a bump's own row is clamped with the rest and left unread
            base, bump = clamped[pair[0]], avg[rows[1]]
            if self.action.dim == 0:
                return OperatorPath.affine(base, np.zeros_like(base), **tails)
            norm = float(np.abs(w[pair[1]]).max())
            if norm > 0.0:
                bump = bump * ((0.4 * CLAMP_DELTA) / norm)
            if scales is None:
                return OperatorPath.affine(base, bump, **tails)
            return OperatorPath.piecewise_linear(
                np.linspace(0.0, 1.0, len(scales)),
                [base + s * bump for s in scales], **tails)

        self._builds.append((pair, build))
        return len(self._builds) - 1

    def build(self) -> list[OperatorPath | SflowError]:
        """Every path drawn, in draw order; a path whose solve or build
        fails has in its place the error that drawing it alone raises."""
        if not self._builds:
            return []
        avg = reynolds_symmetric(self.action, np.concatenate(self._normals))
        w, v, errors = eigh_each(avg[self._solve])
        clamped = _clamped(self.action, w, v)
        paths: list[OperatorPath | SflowError] = []
        for rows, build in self._builds:
            try:
                raise_first([errors.get(r) for r in rows])
                paths.append(build(avg, w, clamped, paths))
            except SflowError as e:
                paths.append(e)
        return paths


def _only(draws: PathDraws) -> OperatorPath:
    (path,) = draws.build()
    raise_first([path])
    return path


def random_equivariant_path(action: OrthogonalAction,
                            rng: np.random.Generator, *,
                            plus_tail: bool = False, minus_tail: bool = False,
                            kind: str | None = None,
                            start_block: np.ndarray | None = None
                            ) -> OperatorPath:
    """Random equivariant path with invertible, well separated endpoints
    (PathDraws.equivariant): kind is "affine", "pl", or None for a coin
    flip, and start_block pins the initial block exactly, trusted to be
    equivariant and invertible."""
    draws = PathDraws(action)
    draws.equivariant(rng, plus_tail=plus_tail, minus_tail=minus_tail,
                      kind=kind, start=start_block)
    return _only(draws)


def random_invertible_path(action: OrthogonalAction,
                           rng: np.random.Generator, *,
                           plus_tail: bool = False, minus_tail: bool = False
                           ) -> OperatorPath:
    """Path invertible at every parameter (PathDraws.invertible)."""
    draws = PathDraws(action)
    draws.invertible(rng, plus_tail=plus_tail, minus_tail=minus_tail)
    return _only(draws)


def reparametrize(path: OperatorPath, rng: np.random.Generator
                  ) -> OperatorPath:
    """Run an affine path through a random monotone piecewise-linear change
    of parameter fixing 0 and 1. The image is the same operator family."""
    if path.kind != "affine":
        raise OutOfRange("only affine paths are reparametrized here")
    return _reparametrized(path, _parameter_change(rng))


def _parameter_change(rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray]:
    # knots and their values of a random increasing piecewise-linear map of
    # [0, 1] onto itself, through three interior knots
    gaps_t = rng.uniform(0.2, 1.0, size=4)
    knots = np.concatenate(([0.0], np.cumsum(gaps_t))) / np.sum(gaps_t)
    gaps_v = rng.uniform(0.2, 1.0, size=4)
    values = np.concatenate(([0.0], np.cumsum(gaps_v))) / np.sum(gaps_v)
    return knots, values


def _reparametrized(path: OperatorPath,
                    change: tuple[np.ndarray, np.ndarray]) -> OperatorPath:
    # an affine path run through a change of parameter: all of it is new
    knots, values = change
    with np.errstate(over="ignore"):  # an overflowed sample is refused
        samples = path.mat_a + np.asarray(values)[:, None, None] * path.mat_b
    return OperatorPath.piecewise_linear(knots, samples,
                                         plus_tail=path.plus_tail,
                                         minus_tail=path.minus_tail)


def random_equivariant_orthogonal(action: OrthogonalAction,
                                  rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix commuting with the action: polar factor of a group
    averaged random matrix. Falls back to the identity if the average is
    numerically singular, which only happens on measure-zero draws."""
    dim = action.dim
    if dim == 0:
        return np.zeros((0, 0))
    for _ in range(8):
        avg = _reynolds(action, rng.standard_normal((dim, dim)))
        u, s, vt = np.linalg.svd(avg)
        if s[-1] > 1e-10 * (1.0 + s[0]):
            return u @ vt
    return np.eye(dim)


def conjugate_path(path: OperatorPath, u: np.ndarray) -> OperatorPath:
    """Transport a path by an orthogonal change of frame on the block part."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused if so
        if path.kind == "affine":
            return OperatorPath.affine(u.T @ path.mat_a @ u,
                                       u.T @ path.mat_b @ u,
                                       plus_tail=path.plus_tail,
                                       minus_tail=path.minus_tail)
        samples = u.T @ path._stack @ u
    return OperatorPath.piecewise_linear(path.knots, samples,
                                         plus_tail=path.plus_tail,
                                         minus_tail=path.minus_tail)


# --- concrete actions for the preset groups --------------------------------


def identity_action(group: FiniteGroup, dim: int) -> OrthogonalAction:
    return OrthogonalAction(group, [np.eye(dim)] * group.order)


def preset_action(preset: str, n: int, dim: int,
                  rng: np.random.Generator | None = None, *,
                  conjugate: bool = False
                  ) -> tuple[RealCharacterTable, OrthogonalAction]:
    """Character table plus a dim-dimensional orthogonal action for one of
    the preset groups, assembled as a random direct sum of irreducible
    realizations. conjugate hides the block structure behind a Haar change
    of basis."""
    rng = rng or np.random.default_rng(0)
    group, table = build_group(preset, n)
    stacks = [mats for _, _, mats in _preset_irreps(preset, n)]
    parts: list[np.ndarray] = []
    remaining = dim
    while remaining > 0:
        options = [mats for mats in stacks if mats.shape[1] <= remaining]
        parts.append(options[int(rng.integers(len(options)))])
        remaining -= parts[-1].shape[1]

    mats = [block_diag(*(p[g] for p in parts)) for g in range(group.order)]
    if conjugate and dim > 0:
        c = haar_orthogonal(dim, rng)
        mats = [c.T @ m @ c for m in mats]
    return table, OrthogonalAction(group, mats)
