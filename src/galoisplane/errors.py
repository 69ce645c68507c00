"""Typed errors shared across the package.

Grouping convention: GuardedInputError subclasses mean the caller handed in
something the operation's contract rejects; InternalCheckFailed subclasses
mean a mathematical self-check that can only fail on an implementation bug
(or a falsified theorem) fired.  The CLI maps these groups to exit codes.
"""


class GaloisPlaneError(Exception):
    """Base class for every error raised by this package."""


class GuardedInputError(GaloisPlaneError):
    """An operation precondition was violated by the caller."""


class BoundExceeded(GaloisPlaneError):
    """A configured size bound (field order, search order, ...) was exceeded."""


class InternalCheckFailed(GaloisPlaneError):
    """A built-in mathematical self-check failed; this indicates a bug."""


# field construction and arithmetic

class NotPrime(GuardedInputError):
    """The requested characteristic is not a prime number."""


class NotIrreducible(GuardedInputError):
    """The supplied modulus is not a monic irreducible polynomial of the right degree."""


class SpecMismatch(GuardedInputError):
    """Operands belong to different field specs."""


class DivisionByZero(GuardedInputError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


# linear algebra

class BadShape(GuardedInputError):
    """Matrix shape does not match what the operation requires."""


class Singular(GuardedInputError):
    """The matrix is not invertible."""


# projective plane

class ZeroVector(GuardedInputError):
    """The zero vector does not represent a projective point or line."""


class EqualPoints(GuardedInputError):
    """Two distinct points were required."""


class EqualLines(GuardedInputError):
    """Two distinct lines were required."""


class DegenerateFrame(GuardedInputError):
    """The four frame points are not in general position."""


# conics

class EvenCharacteristic(GuardedInputError):
    """The operation needs odd characteristic (it divides by 2)."""


class NotOnVariety(GuardedInputError):
    """The point does not lie on the conic."""


class Degenerate(GuardedInputError):
    """The conic is degenerate where a non-degenerate one is required."""


# arcs

class PointNotOnArc(GuardedInputError):
    """The point is not a member of the arc."""


# Desargues configurations

class DegenerateTriangle(GuardedInputError):
    """Three non-collinear points were required."""


class NotInPerspective(GuardedInputError):
    """The two triangles are not in perspective from any point."""


class SharedSide(GuardedInputError):
    """Corresponding sides of the two triangles coincide."""


# tangent frames and reconstruction

class NotAnOval(GuardedInputError):
    """The point set is not an oval (size q+1, no three collinear)."""


class EvenOrder(GuardedInputError):
    """The operation is defined only for odd field order."""


class PointsNotOnOval(GuardedInputError):
    """A base point is missing from the oval."""


class NotMaximalOval(GuardedInputError):
    """The point set does not have the maximal oval size q+1."""


class RelationViolated(GuardedInputError):
    """The supplied tangent slopes do not satisfy k1*k2*k3 = -1."""


class SegreRelationViolated(InternalCheckFailed):
    """Extracted tangent slopes violate k1*k2*k3 = -1; should be impossible."""


class VerificationFailed(InternalCheckFailed):
    """A reconstruction cross-check (containment, identities, oracle) failed.

    `certificate` is the certificate built before the check failed, or None
    where the failing check builds none.
    """

    def __init__(self, *args, certificate=None):
        super().__init__(*args)
        self.certificate = certificate


# conic fitting

class UnderDetermined(GuardedInputError):
    """The points do not determine a unique conic."""


class Inconsistent(GuardedInputError):
    """No conic passes through all the supplied points."""
