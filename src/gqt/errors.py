"""Exception hierarchy shared by all modules.

Every error carries a short machine-readable ``code`` so the CLI can emit
structured error objects without string-matching messages.  A subclass's
code is its class name without the ``Error`` suffix unless its body sets one.
"""

from __future__ import annotations

import os


class GQTError(Exception):
    """Base class for all domain errors."""

    code = "Error"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "code" not in vars(cls):
            cls.code = cls.__name__.removesuffix("Error")

    def to_json(self) -> dict:
        return {"type": self.code, "message": str(self)}


class InvariantError(GQTError):
    """An internal cross-check failed: two exact routes to one fact disagree.

    Raised instead of ``assert`` so the check survives ``python -O``.
    """


# --- field construction / arithmetic ---------------------------------------

class NotPrimeError(GQTError):
    pass


class ReducibleModulusError(GQTError):
    code = "Reducible"


class DegreeMismatchError(GQTError):
    pass


class NoInvolutionError(GQTError):
    pass


class DivisionByZeroError(GQTError):
    pass


class FieldMismatchError(GQTError):
    pass


class ParseError(GQTError):
    """Text input (an element, a coefficient list, a lattice point) is malformed."""


# --- linear algebra / forms -------------------------------------------------

class DimensionMismatchError(GQTError):
    pass


class NotSquareError(GQTError):
    pass


class NotHermitianError(GQTError):
    pass


class DegenerateFormError(GQTError):
    pass


class NotUnitaryError(GQTError):
    pass


class SingularMatrixError(GQTError):
    pass


# --- kernel geometry ---------------------------------------------------------

class ZeroVectorError(GQTError):
    pass


class DependentBasisError(GQTError):
    pass


class TooLargeError(GQTError):
    pass


def _guard(refused: bool, bound: str) -> None:
    """Raise ``TooLarge`` naming ``bound`` when ``refused``, unless GQT_GUARD_OVERRIDE=1."""
    if refused and os.environ.get("GQT_GUARD_OVERRIDE") != "1":
        raise TooLargeError(f"{bound}; set GQT_GUARD_OVERRIDE=1")


class NotKernelPointError(GQTError):
    pass


class SelfOrthogonalInputError(GQTError):
    pass


class NotUniqueError(GQTError):
    pass


# --- protocols ----------------------------------------------------------------

class ZeroStateError(GQTError):
    pass


class Char2NotSupportedError(GQTError):
    pass


class NotChar2Error(GQTError):
    pass


class Char2MessageUnsupportedError(GQTError):
    pass


class NotBellRayError(GQTError):
    pass


class NotInSpanError(GQTError):
    pass


class BadMessageError(GQTError):
    pass


# --- geometric coding ----------------------------------------------------------

class ExhaustedSearchError(GQTError):
    pass


class SelfOrthogonalStateError(GQTError):
    pass


class DegenerateSpanError(GQTError):
    pass


class MalformedBitstreamError(GQTError):
    pass
