"""Randomized generators for equivariant blocks, paths, and group actions.

Equivariance is produced by group averaging, never by rejection, so every
draw is exactly invariant up to roundoff. Invertible endpoints come from
spectral clamping away from zero, which preserves equivariance because it is
a spectral function of an equivariant matrix.
"""

from __future__ import annotations

import numpy as np

from ._eig import block_diag, jacobi_eigh
from .errors import OutOfRange
from .groups import (
    FiniteGroup,
    OrthogonalAction,
    RealCharacterTable,
    _preset_irreps,
    build_group,
)
from .operators import OperatorPath

CLAMP_DELTA = 0.3


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
    avg = _reynolds(action, x)
    return 0.5 * avg + 0.5 * avg.swapaxes(-1, -2)


def _reynolds(action: OrthogonalAction, x: np.ndarray) -> np.ndarray:
    # every rho x rho^T from one stacked product, summed in element order
    # from zero: the bits of a running sum over the elements (a reduction
    # over the stack's axis would sum 1 x 1 products in another order); a
    # stack of x gives each matrix the bits of its own average
    rho = action.stack if x.ndim == 2 else action.stack[:, None]
    avg = np.zeros_like(x, dtype=float)
    for term in rho @ x @ rho.swapaxes(-1, -2):
        avg += term
    return avg / action.group.order


def random_equivariant_symmetric(action: OrthogonalAction,
                                 rng: np.random.Generator,
                                 k: int | None = None) -> np.ndarray:
    """Random symmetric block in the commutant, or a (k, d, d) stack of k of
    them drawn and averaged at once, with the numbers and bits of k draws in
    turn."""
    shape = (action.dim,) * 2 if k is None else (k, action.dim, action.dim)
    return reynolds_symmetric(action, rng.standard_normal(shape))


def clamp_spectrum(action: OrthogonalAction, block: np.ndarray,
                   delta: float = CLAMP_DELTA) -> np.ndarray:
    """Push eigenvalues in (-delta, delta) out to +-delta, zeros to +delta,
    then re-average to scrub roundoff from the reconstruction. A (k, d, d)
    stack is clamped in one eigensolve, each matrix as if alone."""
    w, v = jacobi_eigh(block)
    return reynolds_symmetric(action, _clamped(w, v, delta))


def _clamped(w: np.ndarray, v: np.ndarray, delta: float) -> np.ndarray:
    clamped = np.where(np.abs(w) >= delta, w, np.where(w >= 0.0, delta, -delta))
    return (v * clamped[..., None, :]) @ v.swapaxes(-1, -2)


def random_equivariant_invertible(action: OrthogonalAction,
                                  rng: np.random.Generator,
                                  delta: float = CLAMP_DELTA) -> np.ndarray:
    return clamp_spectrum(action, random_equivariant_symmetric(action, rng), delta)


def random_equivariant_path(action: OrthogonalAction,
                            rng: np.random.Generator, *,
                            plus_tail: bool = False, minus_tail: bool = False,
                            kind: str | None = None,
                            start_block: np.ndarray | None = None,
                            delta: float = CLAMP_DELTA) -> OperatorPath:
    """Random equivariant path with invertible, well separated endpoints.

    kind is "affine", "pl", or None for a coin flip. start_block pins the
    initial block exactly, for building concatenation chains; it is trusted
    to be equivariant and invertible. The endpoints are drawn and clamped as
    one stack and the interior samples drawn as another.
    """
    if kind is None:
        kind = "affine" if rng.random() < 0.5 else "pl"
    ends = clamp_spectrum(action, random_equivariant_symmetric(
        action, rng, 1 if start_block is not None else 2), delta)
    start = start_block if start_block is not None else ends[0]
    end = ends[-1]
    if kind == "affine":
        return OperatorPath.affine(start, end - start, plus_tail=plus_tail,
                                   minus_tail=minus_tail)
    if kind != "pl":
        raise OutOfRange(f"unknown path kind {kind!r}")
    n_interior = int(rng.integers(1, 4))
    knots = np.linspace(0.0, 1.0, n_interior + 2)
    samples = [start, *random_equivariant_symmetric(action, rng, n_interior),
               end]
    return OperatorPath.piecewise_linear(knots, samples, plus_tail=plus_tail,
                                         minus_tail=minus_tail)


def random_invertible_path(action: OrthogonalAction,
                           rng: np.random.Generator, *,
                           plus_tail: bool = False, minus_tail: bool = False,
                           delta: float = CLAMP_DELTA) -> OperatorPath:
    """Path invertible at every parameter: a clamped base plus a perturbation
    kept strictly inside the spectral gap, so no eigenvalue can reach zero.
    The base and the perturbation are drawn as one stack and solved in one
    eigensolve."""
    pair = random_equivariant_symmetric(action, rng, 2)
    w, v = jacobi_eigh(pair)
    base, bump = reynolds_symmetric(action, _clamped(w[0], v[0], delta)), pair[1]
    if action.dim == 0:
        return OperatorPath.affine(base, np.zeros_like(base),
                                   plus_tail=plus_tail, minus_tail=minus_tail)
    norm = float(np.abs(w[1]).max())
    if norm > 0.0:
        bump *= (0.4 * delta) / norm
    if rng.random() < 0.5:
        return OperatorPath.affine(base, bump, plus_tail=plus_tail,
                                   minus_tail=minus_tail)
    n_interior = int(rng.integers(1, 4))
    knots = np.linspace(0.0, 1.0, n_interior + 2)
    scales = rng.uniform(-1.0, 1.0, size=n_interior + 2)
    samples = [base + s * bump for s in scales]
    return OperatorPath.piecewise_linear(knots, samples, plus_tail=plus_tail,
                                         minus_tail=minus_tail)


def reparametrize(path: OperatorPath, rng: np.random.Generator,
                  n_interior: int = 3) -> OperatorPath:
    """Run an affine path through a random monotone piecewise-linear change
    of parameter fixing 0 and 1. The image is the same operator family."""
    if path.kind != "affine":
        raise OutOfRange("only affine paths are reparametrized here")
    gaps_t = rng.uniform(0.2, 1.0, size=n_interior + 1)
    knots = np.concatenate(([0.0], np.cumsum(gaps_t))) / np.sum(gaps_t)
    gaps_v = rng.uniform(0.2, 1.0, size=n_interior + 1)
    values = np.concatenate(([0.0], np.cumsum(gaps_v))) / np.sum(gaps_v)
    a, b = path.mat_a, path.mat_b
    samples = [a + v * b for v in values]
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
    if path.kind == "affine":
        return OperatorPath.affine(u.T @ path.mat_a @ u,
                                   u.T @ path.mat_b @ u,
                                   plus_tail=path.plus_tail,
                                   minus_tail=path.minus_tail)
    samples = [u.T @ s @ u for s in path.samples]
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
