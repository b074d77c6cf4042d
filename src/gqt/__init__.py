"""Exact quantum states over GF(q^2): Hermitian forms, the self-orthogonal
kernel geometry, cloning/deleting obstructions, teleportation, super-dense
coding, and a polarity-based point-transport code.

``import gqt`` loads no submodule: each public name below is imported from
its module the first time it is read (PEP 562 module ``__getattr__``, the
pattern of Scientific Python SPEC 1).
"""

__version__ = "0.1.0"

# Module -> the public names it defines.
_EXPORTS = {
    "errors": ("GQTError", "InvariantError"),
    "field": ("FieldSpec", "build_field"),
    "elements": ("FieldElement", "theory_coordinates"),
    "forms": ("HermitianForm", "standard_form"),
    "kernel": ("KernelGeometry", "enumerate_kernel", "unitary_escapes", "verify_one_or_all"),
    "points": ("ProjectivePoint", "collinear", "hermitian_curve", "is_self_orthogonal",
               "polar_hyperplane", "polar_of_subspace", "unique_meet"),
    "linalg": ("FieldMatrix", "FieldVector", "is_hermitian_matrix", "is_unitary",
               "random_unitary", "tensor"),
    "nogo": ("CloneClassification", "CloneVerdict", "clone_obstruction", "delete_obstruction",
             "f2_orthogonal_special_case", "permutation_clone_check"),
    "protocols": ("ProtocolTranscript", "bell_basis", "bell_state", "measure_modal",
                  "possible_branches", "sdc_decode", "sdc_encode", "teleport", "teleport_char2"),
    "geocode": ("GeoCiphertext", "GeoParams", "agree_parameters", "geo_decode", "geo_encode",
                "geo_transmit"),
    "bell": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name, or a submodule, on first access."""
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
