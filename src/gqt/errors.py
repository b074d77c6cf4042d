"""Exception hierarchy shared by all modules.

Every error carries a short machine-readable ``code`` so the CLI can emit
structured error objects without string-matching messages.
"""

from __future__ import annotations


class GQTError(Exception):
    """Base class for all domain errors."""

    code = "Error"

    def to_json(self) -> dict:
        return {"type": self.code, "message": str(self)}


class InvariantError(GQTError):
    """An internal cross-check failed: two exact routes to one fact disagree.

    Raised instead of ``assert`` so the check survives ``python -O``.
    """

    code = "Invariant"


# --- field construction / arithmetic ---------------------------------------

class NotPrimeError(GQTError):
    code = "NotPrime"


class ReducibleModulusError(GQTError):
    code = "Reducible"


class DegreeMismatchError(GQTError):
    code = "DegreeMismatch"


class NoInvolutionError(GQTError):
    code = "NoInvolution"


class DivisionByZeroError(GQTError):
    code = "DivisionByZero"


class FieldMismatchError(GQTError):
    code = "FieldMismatch"


class ParseError(GQTError):
    """Text input (an element, a coefficient list, a lattice point) is malformed."""

    code = "Parse"


# --- linear algebra / forms -------------------------------------------------

class DimensionMismatchError(GQTError):
    code = "DimensionMismatch"


class NotSquareError(GQTError):
    code = "NotSquare"


class NotHermitianError(GQTError):
    code = "NotHermitian"


class DegenerateFormError(GQTError):
    code = "DegenerateForm"


class NotUnitaryError(GQTError):
    code = "NotUnitary"


class SingularMatrixError(GQTError):
    code = "SingularMatrix"


# --- kernel geometry ---------------------------------------------------------

class ZeroVectorError(GQTError):
    code = "ZeroVector"


class DependentBasisError(GQTError):
    code = "DependentBasis"


class TooLargeError(GQTError):
    code = "TooLarge"


class NotKernelPointError(GQTError):
    code = "NotKernelPoint"


class SelfOrthogonalInputError(GQTError):
    code = "SelfOrthogonalInput"


class NotUniqueError(GQTError):
    code = "NotUnique"


# --- protocols ----------------------------------------------------------------

class ZeroStateError(GQTError):
    code = "ZeroState"


class Char2NotSupportedError(GQTError):
    code = "Char2NotSupported"


class NotChar2Error(GQTError):
    code = "NotChar2"


class Char2MessageUnsupportedError(GQTError):
    code = "Char2MessageUnsupported"


class NotBellRayError(GQTError):
    code = "NotBellRay"


class NotInSpanError(GQTError):
    code = "NotInSpan"


class BadMessageError(GQTError):
    code = "BadMessage"


# --- geometric coding ----------------------------------------------------------

class ExhaustedSearchError(GQTError):
    code = "ExhaustedSearch"


class SelfOrthogonalStateError(GQTError):
    code = "SelfOrthogonalState"


class DegenerateSpanError(GQTError):
    code = "DegenerateSpan"


class MalformedBitstreamError(GQTError):
    code = "MalformedBitstream"
