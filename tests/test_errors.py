import pytest

from gqt import errors
from gqt.errors import GQTError
from gqt.field import build_field
from gqt.forms import _rref, standard_form
from gqt.geocode import GeoCiphertext, GeoParams, agree_parameters, geo_decode
from gqt.kernel import enumerate_kernel
from gqt.linalg import FieldMatrix, FieldVector, basis_vector, identity_matrix, is_unitary, tensor
from gqt.nogo import clone_obstruction, permutation_clone_check, scan
from gqt.points import ProjectivePoint, polar_of_subspace, polar_point
from gqt.protocols import decompose_in_basis, sdc_decode

GF4, GF9 = build_field(2, 2), build_field(3, 2)

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


def _decode_four_points():
    """``geo_decode`` of the q=2 kernel's first four points that span GF(4)^4:
    no dependence, but the polar of the whole space is 0-dimensional."""
    geom = enumerate_kernel(standard_form(GF4, 4))
    picked = []
    for ray in geom.rays:
        if len(_rref(picked + [ray], GF4)[1]) > len(picked):
            picked.append(ray)
    points = tuple(ProjectivePoint(FieldVector.from_indices(GF4, r)) for r in picked)
    geo_decode(GeoCiphertext(points), agree_parameters(geom, 0))


def _shared_lines(line_indices):
    """``GeoParams`` on the q=2 kernel with the identity unitary: 27 lines, of
    which lines 0 and 1 meet."""
    geom = enumerate_kernel(standard_form(GF4, 4))
    assert len(geom.lines) == 27 and geom.lines[0] & geom.lines[1]
    GeoParams(geom, line_indices, identity_matrix(GF4, 4))


def _vec(spec, *entries):
    return FieldVector(spec, entries)


# One refusal per case, each reachable from the public API and raised as its
# own type rather than as an IndexError or a wrong answer.
REFUSALS = [
    ("field-kappa-odd-degree", errors.NoInvolutionError, lambda: build_field(3, 3).kappa),
    ("forms-standard-form-dim-0", errors.DimensionMismatchError,
     lambda: standard_form(GF4, 0)),
    ("geocode-agree-parameters-no-lines", errors.ExhaustedSearchError,
     lambda: agree_parameters(enumerate_kernel(standard_form(GF4, 3)), 0)),
    ("geocode-decode-four-points", errors.NotUniqueError, _decode_four_points),
    # the shared lines must be three in-range, pairwise disjoint lines
    *[(f"geocode-params-lines-{name}", errors.DegenerateSpanError,
       lambda lines=lines: _shared_lines(lines))
      for name, lines in [("repeated", (0, 0, 0)), ("two", (0, 1)), ("negative", (-1, 0, 1)),
                          ("out-of-range", (0, 1, 27)), ("meeting", (0, 1, 26))]],
    ("linalg-empty-vector", errors.DimensionMismatchError, lambda: FieldVector(GF4, [])),
    ("linalg-empty-matrix", errors.DimensionMismatchError, lambda: FieldMatrix(GF4, [])),
    ("linalg-ragged-rows", errors.DimensionMismatchError,
     lambda: FieldMatrix(GF4, [[1, 0], [1]])),
    ("linalg-matvec-length", errors.DimensionMismatchError,
     lambda: identity_matrix(GF4, 2) @ _vec(GF4, 1, 0, 0)),
    ("linalg-matmul-shape", errors.DimensionMismatchError,
     lambda: identity_matrix(GF4, 2) @ identity_matrix(GF4, 3)),
    ("linalg-inverse-not-square", errors.NotSquareError,
     lambda: FieldMatrix(GF4, [[1, 0, 0], [0, 1, 0]]).inverse()),
    ("linalg-tensor-fields", errors.FieldMismatchError,
     lambda: tensor(identity_matrix(GF4, 2), identity_matrix(GF9, 2))),
    ("linalg-tensor-matrix-vector", TypeError,
     lambda: tensor(identity_matrix(GF4, 2), _vec(GF4, 1, 0))),
    ("linalg-is-unitary-dim", errors.DimensionMismatchError,
     lambda: is_unitary(identity_matrix(GF4, 3), standard_form(GF4, 2))),
    ("nogo-clone-fields", errors.FieldMismatchError,
     lambda: clone_obstruction(_vec(GF4, 1, 0), _vec(GF9, 1, 0))),
    ("nogo-clone-lengths", errors.DimensionMismatchError,
     lambda: clone_obstruction(_vec(GF4, 1, 0), _vec(GF4, 1, 0, 0))),
    ("nogo-scan-kind", ValueError, lambda: scan(GF4, 1, "copy")),
    ("nogo-permutation-blank-length", errors.DimensionMismatchError,
     lambda: permutation_clone_check(identity_matrix(GF4, 4), [_vec(GF4, 1, 0)],
                                     _vec(GF4, 1, 0, 0))),
    ("points-polar-of-empty-basis", errors.DependentBasisError,
     lambda: polar_of_subspace([], standard_form(GF4, 2))),
    ("points-polar-point-of-two", errors.NotUniqueError,
     lambda: polar_point([basis_vector(GF4, 4, 0), basis_vector(GF4, 4, 1)],
                         standard_form(GF4, 4))),
    ("protocols-basis-lengths", errors.DimensionMismatchError,
     lambda: decompose_in_basis(_vec(GF4, 1, 0, 0, 1), [_vec(GF4, 1, 0), _vec(GF4, 1, 0, 0)])),
    ("protocols-state-length", errors.DimensionMismatchError,
     lambda: decompose_in_basis(_vec(GF4, 1, 0, 0), [_vec(GF4, 1, 0), _vec(GF4, 0, 1)])),
    ("protocols-sdc-decode-length", errors.DimensionMismatchError,
     lambda: sdc_decode(_vec(GF9, 1, 0))),
]


@pytest.mark.parametrize("error, refused", [pytest.param(e, r, id=i) for i, e, r in REFUSALS])
def test_each_refusal_raises_its_own_type(error, refused):
    with pytest.raises(error):
        refused()
