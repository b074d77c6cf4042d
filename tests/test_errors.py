import pytest

from gqt import errors
from gqt.errors import GQTError

# The JSON ``type`` of every domain error, as the CLI prints it.
TYPES = {
    "GQTError": "Error",
    "InvariantError": "Invariant",
    "NotPrimeError": "NotPrime",
    "ReducibleModulusError": "Reducible",
    "DegreeMismatchError": "DegreeMismatch",
    "NoInvolutionError": "NoInvolution",
    "DivisionByZeroError": "DivisionByZero",
    "FieldMismatchError": "FieldMismatch",
    "ParseError": "Parse",
    "DimensionMismatchError": "DimensionMismatch",
    "NotSquareError": "NotSquare",
    "NotHermitianError": "NotHermitian",
    "DegenerateFormError": "DegenerateForm",
    "NotUnitaryError": "NotUnitary",
    "SingularMatrixError": "SingularMatrix",
    "ZeroVectorError": "ZeroVector",
    "DependentBasisError": "DependentBasis",
    "TooLargeError": "TooLarge",
    "NotKernelPointError": "NotKernelPoint",
    "SelfOrthogonalInputError": "SelfOrthogonalInput",
    "NotUniqueError": "NotUnique",
    "ZeroStateError": "ZeroState",
    "Char2NotSupportedError": "Char2NotSupported",
    "NotChar2Error": "NotChar2",
    "Char2MessageUnsupportedError": "Char2MessageUnsupported",
    "NotBellRayError": "NotBellRay",
    "NotInSpanError": "NotInSpan",
    "BadMessageError": "BadMessage",
    "ExhaustedSearchError": "ExhaustedSearch",
    "SelfOrthogonalStateError": "SelfOrthogonalState",
    "DegenerateSpanError": "DegenerateSpan",
    "MalformedBitstreamError": "MalformedBitstream",
}


def test_every_error_class_has_a_pinned_type():
    assert {"GQTError"} | {c.__name__ for c in GQTError.__subclasses__()} == set(TYPES)


@pytest.mark.parametrize("name", sorted(TYPES))
def test_error_json_type(name):
    assert getattr(errors, name)("why").to_json() == {"type": TYPES[name], "message": "why"}
