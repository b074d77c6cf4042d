"""The super-dense index core against the object-level protocol it replaced."""

import pytest

from gqt.bell import _PAULI, _indices, _sdc_decode, _sdc_encode, sdc_messages
from gqt.errors import (
    BadMessageError,
    Char2MessageUnsupportedError,
    DimensionMismatchError,
    NotBellRayError,
)
from gqt.field import build_field
from gqt.linalg import FieldMatrix, FieldVector, identity_matrix, tensor
from gqt.protocols import gate

FIELDS = [build_field(p, 2) for p in (2, 3, 5)]
IDS = ["gf4", "gf9", "gf25"]


def object_gates(spec):
    """The Pauli gates built from element objects, each gate's matrix written out."""
    x = FieldMatrix(spec, [[0, 1], [1, 0]])
    z = FieldMatrix(spec, [[1, 0], [0, spec.from_int(-1)]])
    return {"id": identity_matrix(spec, 2), "X": x, "Z": z, "ZX": z @ x}


@pytest.mark.parametrize("spec", FIELDS, ids=IDS)
def test_encode_applies_the_gate_of_each_message_to_phi_plus(spec):
    gates = object_gates(spec)
    phi_plus = FieldVector(spec, [1, 0, 0, 1])
    for message, gate in {"00": "id", "10": "Z", "01": "X", "11": "ZX"}.items():
        if message not in sdc_messages(spec):
            continue
        expected = tensor(gates[gate], identity_matrix(spec, 2)) @ phi_plus
        assert _sdc_encode(message, spec) == expected.indices()


@pytest.mark.parametrize("spec", FIELDS, ids=IDS)
def test_the_gate_rows_are_the_pauli_gates(spec):
    gates = object_gates(spec)
    for name, rows in _PAULI.items():
        assert [_indices(spec, row) for row in rows] == list(gates[name].indices())
    assert gate(spec, "ZX") == gate(spec, "Z") @ gate(spec, "X") == gates["ZX"]


@pytest.mark.parametrize("spec", FIELDS, ids=IDS)
def test_decode_reads_every_multiple_of_each_bell_vector(spec):
    minus = spec.from_int(-1)
    vectors = {"00": [1, 0, 0, 1], "10": [1, 0, 0, minus], "01": [0, 1, 1, 0], "11": [0, 1, minus, 0]}
    # in characteristic 2, phi- = phi+ and psi- = psi+
    assert sdc_messages(spec) == (["00", "01"] if spec.p == 2 else ["00", "10", "01", "11"])
    for message in sdc_messages(spec):
        for c in list(spec.elements())[1:]:
            state = FieldVector(spec, vectors[message]).scale(c)
            assert _sdc_decode(state.indices(), spec) == message


def test_decode_and_encode_refusals():
    gf9 = build_field(3, 2)
    for state, error in [((1, 0), DimensionMismatchError), ((0, 0, 0, 0), NotBellRayError),
                         ((1, 1, 0, 0), NotBellRayError)]:
        with pytest.raises(error):
            _sdc_decode(state, gf9)
    with pytest.raises(BadMessageError):
        _sdc_encode("2", gf9)
    with pytest.raises(Char2MessageUnsupportedError):
        _sdc_encode("10", build_field(2, 2))
