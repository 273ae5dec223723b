"""Exception types shared across the package.

Every error carries the process exit code the command line front end maps it
to: 2 invalid input, 3 endpoint not invertible, 4 certification or numerical
verification failed, 5 equivariance or invariance violated.
"""

from __future__ import annotations

from typing import Iterable


class SflowError(Exception):
    """Base class for all library errors."""

    exit_code = 4


def raise_first(results: Iterable) -> None:
    """Raise the first SflowError among results; any other entry, such as a
    result or None, is passed over."""
    for result in results:
        if isinstance(result, SflowError):
            raise result


class InvalidInput(SflowError):
    """Caller handed something malformed or out of contract."""

    exit_code = 2


class CertificationError(SflowError):
    """A numerical certificate could not be produced or checked."""

    exit_code = 4


class InvertibilityError(SflowError):
    """An operator that must be invertible is not."""

    exit_code = 3


class EquivarianceError(SflowError):
    """A symmetry requirement is violated beyond tolerance."""

    exit_code = 5


# --- groups and character tables ---------------------------------------


class NonGroup(InvalidInput):
    """Multiplication table fails a group axiom."""


class BadCharacterTable(InvalidInput):
    """Character data inconsistent with the group or with orthogonality."""


class BadAction(InvalidInput):
    """Matrices fail orthogonality or the homomorphism property."""


class WrongGroup(InvalidInput):
    """Operation requires a different group than the one supplied."""


class TableMismatch(InvalidInput):
    """Virtual representations over different character tables were mixed."""


class NotInvariant(EquivarianceError):
    """Subspace is not preserved by the group action."""


class NonIntegralMultiplicity(CertificationError):
    """Character pairing did not round cleanly to integers."""


class ProjectionResidual(CertificationError):
    """Candidate projection fails idempotency or symmetry checks."""


# --- operators and paths ------------------------------------------------


class OutOfRange(InvalidInput):
    """Parameter outside its admissible interval."""


class DimensionMismatch(InvalidInput):
    """Block, action or job-document matrix dimensions do not line up."""


class TailMismatch(InvalidInput):
    """Operands carry different scalar tails."""


class EndpointMismatch(InvalidInput):
    """Paths to concatenate do not share the junction operator."""


class EigenFailure(CertificationError):
    """A block spectrum could not be computed or bounded: non-finite entries,
    no LAPACK convergence, or a non-finite eigenvalue error bound."""


class InfiniteRank(InvalidInput):
    """Requested spectral window contains a tail value."""


class BoundaryHit(CertificationError):
    """An eigenvalue sits on the boundary of the requested window."""


class NotInvertible(InvertibilityError):
    """Operator has an eigenvalue at or numerically near zero."""


class EndpointNotInvertible(InvertibilityError):
    """A path endpoint fails the invertibility threshold."""


class NotEquivariant(EquivarianceError):
    """Operator does not commute with the group action within tolerance."""


# --- flow certification -------------------------------------------------


class CertificationFailed(CertificationError):
    """No certified partition exists within the bisection depth budget."""


# --- cogredient normal forms --------------------------------------------


class NotFSplus(InvalidInput):
    """Operator or path is not in the positive-tail component."""


class NotFSi(InvalidInput):
    """Operator is not in the two-sided-tail component."""


class NotPositive(CertificationError):
    """Split produced a part that is not positive definite."""


class CoverFailure(CertificationError):
    """No positive-margin frozen-split cover at the requested resolution."""


class ResidualTooLarge(CertificationError):
    """Normal-form residual exceeds its tolerance."""


# --- symplectic geometry ------------------------------------------------


class NotSymmetric(InvalidInput):
    """Matrix expected to be symmetric is not."""


class NotOrthonormal(InvalidInput):
    """Frame columns are not orthonormal within tolerance."""


class NotLagrangian(InvalidInput):
    """Subspace fails the Lagrangian condition."""


class ConsistencyFailure(CertificationError):
    """Two independent computation routes disagree."""


# --- command line -------------------------------------------------------


class ParseError(InvalidInput):
    """Job document is not valid JSON."""


class SchemaError(InvalidInput):
    """Job document violates the input schema."""
