"""Exact quantum states over GF(q^2): Hermitian forms, the self-orthogonal
kernel geometry, cloning/deleting obstructions, teleportation, super-dense
coding, and a polarity-based point-transport code."""

__version__ = "0.1.0"

from .errors import GQTError, InvariantError
from .field import FieldElement, FieldSpec, build_field, theory_coordinates
from .kernel import (
    KernelGeometry,
    ProjectivePoint,
    collinear,
    enumerate_kernel,
    hermitian_curve,
    is_self_orthogonal,
    polar_hyperplane,
    polar_of_subspace,
    unique_meet,
    unitary_escapes,
    verify_one_or_all,
)
from .linalg import (
    FieldMatrix,
    FieldVector,
    HermitianForm,
    evaluate_form,
    is_hermitian_matrix,
    is_unitary,
    random_unitary,
    standard_form,
    tensor,
)
from .nogo import (
    CloneClassification,
    CloneVerdict,
    clone_obstruction,
    delete_obstruction,
    f2_orthogonal_special_case,
    permutation_clone_check,
)
from .protocols import (
    ProtocolTranscript,
    bell_basis,
    bell_state,
    measure_modal,
    possible_branches,
    sdc_decode,
    sdc_encode,
    teleport,
    teleport_char2,
)
from .geocode import GeoCiphertext, GeoParams, agree_parameters, geo_decode, geo_encode, geo_transmit
