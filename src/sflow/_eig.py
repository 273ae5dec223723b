"""Kernels: the symmetric part, the dense symmetric eigensolver, its error
bound, two-norms, and a verified lower bound on the smallest eigenvalue.

LAPACK's symmetric driver (through ``numpy.linalg.eigh``) computes the
decomposition, and ``eigh_error`` turns its residual into a bound on the
eigenvalue error that certificates add to their envelopes. Identical inputs
give bit-identical output on the same machine and BLAS. The per-block
fallback of a failed stack is ``operators.eigh_each``. ``cholesky_above``
proves eigenvalues above a floor from one Cholesky factorization, without
an eigensolve.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenFailure

EPS = float(np.finfo(float).eps)
ETA = float(np.finfo(float).smallest_subnormal)


def symmetric_part(m: np.ndarray) -> np.ndarray:
    """(m + m^T) / 2 of a matrix, or of each matrix of a stack, as
    0.5 m + 0.5 m^T: halving first cannot overflow."""
    return 0.5 * m + 0.5 * m.swapaxes(-1, -2)


def jacobi_eigh(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    symmetric matrix, or of each matrix in a (k, n, n) stack.

    The name predates the LAPACK backend. A stack is solved in one call and
    gives the same bits as solving its matrices one at a time. Raises
    EigenFailure on non-finite entries or when LAPACK does not converge,
    never returns a NaN spectrum.
    """
    block = np.asarray(block, dtype=float)
    if block.ndim not in (2, 3) or block.shape[-1] != block.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, "
                         f"got shape {block.shape}")
    if not np.isfinite(block).all():
        raise EigenFailure("block has non-finite entries")
    # eigh reads one triangle only; average away roundoff asymmetry so the
    # spectrum is that of the symmetric part
    try:
        w, v = np.linalg.eigh(symmetric_part(block))
    except np.linalg.LinAlgError as e:
        raise EigenFailure(f"LAPACK eigh failed: {e}") from None
    if not np.isfinite(w).all():
        raise EigenFailure("eigenvalues overflowed")
    return w, v


def _frobenius(m: np.ndarray) -> np.ndarray:
    # Frobenius norm of each matrix in a (..., r, c) stack: sqrt of the BLAS
    # dot of each flattened matrix with itself, the same dot (and so the same
    # bits) as np.linalg.norm on one matrix
    f = m.reshape(m.shape[:-2] + (1, -1))
    return np.sqrt(f @ f.swapaxes(-1, -2))[..., 0, 0]


def eigh_error(block: np.ndarray, w: np.ndarray,
               v: np.ndarray) -> np.ndarray:
    """Upper bound on max_i |lambda_i(A) - w_i| for each matrix of a
    (k, n, n) stack, where A is the symmetric part of the matrix and (w
    ascending, v) its row of (k, n) and (k, n, n) computed eigendata. Each
    bound equals the bound for its matrix alone.

    With R = A V - V diag(w) and E = V^T V - I, Weyl's inequality on the
    orthogonal polar factor of V gives
    |lambda_i(A) - w_i| <= ||R||_2 + ||E||_2 (||A||_2 + max|w|)
    (Parlett, The Symmetric Eigenvalue Problem, ch. 4). Frobenius norms
    stand in for the 2-norms, terms for the rounding of both matrix products
    are added, and the sum is rounded up by a relative (n + 2)^2 eps that
    covers the norm sums. Each A is scaled by a power of two first, so no
    intermediate overflows for finite input; a bound that lands among the
    subnormals from a matrix of subnormals is rounded up. Raises
    EigenFailure if a bound is not finite.
    """
    block = np.asarray(block, dtype=float)
    k, n = w.shape
    if n == 0 or k == 0:
        return np.zeros(k)
    # frexp gives exponent 0 for a zero matrix, which then stays unscaled; a
    # matrix of subnormals is scaled as one whose largest entry is the
    # smallest normal double, so that the scale stays finite
    exp = np.frexp(np.abs(block).max(axis=(1, 2)))[1]
    tiny = exp < np.finfo(float).minexp + 1
    exp[tiny] = np.finfo(float).minexp + 1
    half = np.ldexp(0.5, -exp)[:, None, None]  # exact: symmetrize and scale
    a = half * block + half * block.swapaxes(1, 2)
    ws = np.ldexp(w, -exp[:, None])
    res, orth, anorm, vnorm = _frobenius(np.array(
        [a @ v - v * ws[:, None, :], v.swapaxes(1, 2) @ v - np.eye(n), a, v]))
    size = anorm + np.abs(ws).max(axis=1)
    gamma = (n + 2) * EPS / (1.0 - (n + 2) * EPS)
    bound = (res + gamma * vnorm * size
             + (orth + gamma * vnorm * vnorm) * size)
    err = np.ldexp(bound * (1.0 + (n + 2) ** 2 * EPS), exp)
    # such a matrix's bound lands among the subnormals, where ldexp rounds
    # to nearest: one step up keeps it an upper bound
    err[tiny] = np.nextafter(err[tiny], np.inf)
    if not np.isfinite(err).all():
        bad = err[~np.isfinite(err)][0]
        raise EigenFailure(f"eigenvalue error bound is {float(bad)}")
    return err


def opnorms_within(m: np.ndarray, tol: float | np.ndarray) -> np.ndarray:
    """Two-norm of each matrix of a (..., r, c) stack as far as it is
    compared with its tol (broadcast over the stack): an entry is <= tol
    exactly when the two-norm is, and every entry above tol is the two-norm
    itself, from one batched SVD. Zero-size matrices have norm 0, and a
    matrix with a non-finite entry, such as a product that overflowed, has
    norm inf. ||X||_2 <= ||X||_F (Golub & Van Loan, Matrix Computations,
    2.3), so only matrices whose Frobenius norm, rounded up by 1 + 4 (r c +
    2) eps, exceeds tol get an SVD. That factor covers the rounding of the
    r c squares summed and of the square root, and LAPACK's SVD error, a
    modest multiple of eps."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return np.zeros(m.shape[:-2])
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _frobenius(m)
        norms *= 1.0 + 4 * (m.shape[-1] * m.shape[-2] + 2) * EPS
    exact = ~(norms <= tol)  # NaN fails the screen
    if exact.any():
        norms[exact] = np.inf
        exact &= np.isfinite(m).all(axis=(-2, -1))
        if exact.any():
            norms[exact] = np.linalg.norm(m[exact], 2, axis=(-2, -1))
    return norms


def _cholesky_error(blocks: np.ndarray) -> np.ndarray:
    # c of cholesky_above for each matrix of a (k, n, n) stack, rounded up:
    # the relative (n + 8) eps covers the sums and products that form it
    n = blocks.shape[-1]
    diag = np.diagonal(blocks, axis1=1, axis2=2)
    gamma = (n + 1) * EPS / (1.0 - (n + 1) * EPS)  # gamma_(2n+2)
    c = (gamma / (1.0 - gamma) * np.maximum(diag, 0.0).sum(axis=1)
         + 2 * n * (n * ETA + 2.0 * ETA * diag.max(axis=1, initial=1.0)))
    return np.nextafter(c * (1.0 + (n + 8) * EPS), np.inf)


def cholesky_above(blocks: np.ndarray, t: float | np.ndarray,
                   f: float | np.ndarray) -> np.ndarray:
    """Whether a Cholesky factorization proves every eigenvalue above t, for
    each matrix of a (k, n, n) stack: a (k,) mask. Block i stands for every
    symmetric matrix within Frobenius distance f[i] of the symmetric matrix
    of its lower triangle; t >= 0 and f >= 0 broadcast over the stack. One
    factorization of the stack decides, and only if numpy.linalg.cholesky
    refuses it is each block factored alone. A block with a non-finite entry
    is refused, an empty block is certified, and no eigenvalue is computed.

    Proof. Let A be a block, u = eps / 2, gamma_m = m u / (1 - m u) and eta
    the smallest subnormal. The factored matrix M is A with A_ii - s on the
    diagonal, rounded down, where s >= t + c + f rounds both sums up and
    c = g max(tr A, 0) + 2 n (n + 2 d) eta, g = gamma_(2n+2) / (1 -
    gamma_(2n+2)) and d = max(1, A_11, ..., A_nn), is rounded up. So A - s I
    = M + D with D diagonal and nonnegative, and lambda_min(A) >=
    s + lambda_min(M). If potrf completes with a finite factor R, then
    R'R = M + E with |E| <= gamma_(n+1) |R'| |R| + e (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3), where e covers
    gradual underflow: each product or quotient that underflows is off by at
    most eta / 2, so an entry of e is at most (n + 2 d) eta, as R_ii <= 2 d.
    gamma_(2n+2) in place of gamma_(n+1) leaves room for blocked and
    recursive potrf, which may split an inner product into partial sums and
    divide through a reciprocal. Then ||E||_2 <= gamma ||R||_F^2 + n max e,
    and ||R||_F^2 = tr(M + E) <= tr M + gamma ||R||_F^2 + n max e, so
    ||E||_2 <= g max(tr M, 0) + 2 n max e <= c, as tr M <= tr A (s > 0). R
    has a positive diagonal, so R'R is positive definite and lambda_min(M)
    > -||E||_2 >= -c, hence lambda_min(A) > s - c >= t + f (Rump,
    Verification of positive definiteness, BIT 46, 2006). By Weyl's
    inequality a matrix within Frobenius, and so two-norm, distance f of A
    has every eigenvalue above t."""
    blocks = np.asarray(blocks, dtype=float)
    n = blocks.shape[-1]
    ok = np.isfinite(blocks).all(axis=(1, 2))
    if n == 0 or not ok.any():
        return ok
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.nextafter(np.nextafter(t + _cholesky_error(blocks), np.inf)
                         + f, np.inf)
        m = blocks.copy()
        at = np.arange(n)
        m[:, at, at] = np.nextafter(blocks[:, at, at] - s[:, None], -np.inf)
    try:
        if ok.all() and np.isfinite(np.linalg.cholesky(m)).all():
            return ok
    except np.linalg.LinAlgError:
        pass
    for i in ok.nonzero()[0]:
        try:
            ok[i] = np.isfinite(np.linalg.cholesky(m[i])).all()
        except np.linalg.LinAlgError:
            ok[i] = False
    return ok


def block_diag(*mats: np.ndarray) -> np.ndarray:
    """Matrix with the given matrices along its diagonal and zeros elsewhere;
    given (k, n, n) stacks, and matrices that join each of their k, a stack."""
    out = np.zeros(np.broadcast_shapes(*(m.shape[:-2] for m in mats))
                   + (sum(m.shape[-2] for m in mats),
                      sum(m.shape[-1] for m in mats)))
    r = c = 0
    for m in mats:
        out[..., r:r + m.shape[-2], c:c + m.shape[-1]] = m
        r, c = r + m.shape[-2], c + m.shape[-1]
    return out
