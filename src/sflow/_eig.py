"""Dense symmetric eigensolver used for every block spectrum in the package.

LAPACK's symmetric driver (through ``numpy.linalg.eigh``) computes the
decomposition, and ``eigh_error`` turns its residual into a bound on the
eigenvalue error that certificates add to their envelopes. Identical inputs
give bit-identical output on the same machine and BLAS.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenFailure

EPS = float(np.finfo(float).eps)


def jacobi_eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    symmetric matrix.

    The name predates the LAPACK backend. Raises EigenFailure on non-finite
    entries or when LAPACK does not converge, never returns a NaN spectrum.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {block.shape}")
    if not np.isfinite(block).all():
        raise EigenFailure("block has non-finite entries")
    # eigh reads one triangle only; average away roundoff asymmetry so the
    # spectrum is that of the symmetric part (halving first cannot overflow)
    try:
        w, v = np.linalg.eigh(0.5 * block + 0.5 * block.T)
    except np.linalg.LinAlgError as e:
        raise EigenFailure(f"LAPACK eigh failed: {e}") from None
    if not np.isfinite(w).all():
        raise EigenFailure("eigenvalues overflowed")
    return w, v


def eigh_error(block: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    """Upper bound on max_i |lambda_i(A) - w_i|, where A is the symmetric part
    of block and (w ascending, v) a computed decomposition of it.

    With R = A V - V diag(w) and E = V^T V - I, Weyl's inequality on the
    orthogonal polar factor of V gives
    |lambda_i(A) - w_i| <= ||R||_2 + ||E||_2 (||A||_2 + max|w|)
    (Parlett, The Symmetric Eigenvalue Problem, ch. 4). Frobenius norms
    stand in for the 2-norms, terms for the rounding of both matrix products
    are added, and the sum is rounded up by a relative (n + 2)^2 eps that
    covers the norm sums. A is scaled by a power of two first, so no
    intermediate overflows for finite input. Raises EigenFailure if the
    bound is not finite.
    """
    n = w.size
    if n == 0:
        return 0.0
    block = np.asarray(block, dtype=float)
    peak = float(np.max(np.abs(block)))
    exp = int(np.frexp(peak)[1]) if peak > 0.0 else 0
    half = np.ldexp(0.5, -exp)  # exact: symmetrize and scale in one step
    a = half * block + half * block.T
    ws = np.ldexp(w, -exp)
    res = np.linalg.norm(a @ v - v * ws)
    orth = np.linalg.norm(v.T @ v - np.eye(n))
    size = np.linalg.norm(a) + float(np.max(np.abs(ws)))
    vnorm = float(np.linalg.norm(v))
    gamma = (n + 2) * EPS / (1.0 - (n + 2) * EPS)
    bound = (res + gamma * vnorm * size
             + (orth + gamma * vnorm * vnorm) * size)
    err = float(np.ldexp(bound * (1.0 + (n + 2) ** 2 * EPS), exp))
    if not np.isfinite(err):
        raise EigenFailure(f"eigenvalue error bound is {err}")
    return err


def opnorms(m: np.ndarray) -> np.ndarray:
    """Two-norm of each matrix in a (..., r, c) stack, from one batched SVD.
    Zero-size matrices have norm 0."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return np.zeros(m.shape[:-2])
    return np.linalg.norm(m, 2, axis=(-2, -1))


def spectral_norm_sym(block: np.ndarray) -> float:
    """Two-norm of a symmetric matrix, via its eigenvalues."""
    w, _ = jacobi_eigh(block)
    if w.size == 0:
        return 0.0
    return float(np.max(np.abs(w)))
