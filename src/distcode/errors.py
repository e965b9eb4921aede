"""Exception hierarchy for the distcode package."""


class DistcodeError(Exception):
    """Base class for all package-specific errors."""


# --- field / linear algebra ---------------------------------------------

class NonPrimeModulus(DistcodeError, ValueError):
    """The requested field modulus is not a prime number."""


class ModulusTooSmall(DistcodeError):
    """The modulus is below the large-field floor enforced for production use."""


class DimensionMismatch(DistcodeError):
    """Matrix or vector shapes are incompatible for the requested operation."""


# --- code construction ---------------------------------------------------

class BadDimensions(DistcodeError, ValueError):
    """Dimensions violate N >= K >= 1, 1 <= beta < K or v >= 1, or a count
    of rows, messages, values or evaluation points disagrees with them."""


class DuplicatePoints(DistcodeError):
    """Evaluation points for a Vandermonde generator are not distinct."""


class SelectionImpossible(DistcodeError):
    """No encoder subset / source-column pair satisfies the attack preconditions.

    Signals a generator matrix whose support structure cannot arise from a
    correct MDS code, so the worst-case construction has nothing to work with.
    """


# --- system model --------------------------------------------------------

class TooManyAdversaries(DistcodeError):
    """A source behavior declares more adversarial nodes than the model allows."""


class NodeOutOfRange(DistcodeError):
    """An encoder index lies outside [0, N) or is repeated, or a decoded
    encoder set is empty."""


# --- decoding ------------------------------------------------------------

class TranscriptMismatch(DistcodeError):
    """Transcript node set disagrees with the requested decode."""


class BudgetExceeded(DistcodeError):
    """The scenario enumeration would exceed the configured solve budget."""


# --- attack construction --------------------------------------------------

class PreconditionViolated(DistcodeError):
    """An input matrix fails one of the structural preconditions.

    ``property_index`` identifies which one: 1 = full rank, 2 = too many
    zero rows, 3 = some (h+beta)-row submatrix is rank deficient.
    """

    def __init__(self, property_index: int, message: str = ""):
        self.property_index = property_index
        super().__init__(message or f"precondition {property_index} violated")


class NullspaceDeltaZero(DistcodeError):
    """Every nullspace vector keeps the honest messages fixed.

    Not expected for codes whose selected blocks are full rank; surfaced after
    retrying alternative encoder/column selections.
    """


class AttackConstructionFailed(DistcodeError):
    """The constructed attack failed its own consistency verification."""


# --- experiments ----------------------------------------------------------

class BadParameter(DistcodeError, ValueError):
    """An experiment-spec field or a command-line value is malformed or out
    of range."""


class IoFailure(DistcodeError):
    """Reading or writing a file failed (results, or a code, transcript or
    spec file read by the command line)."""
