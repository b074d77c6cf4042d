"""Internal cross-checks raise InvariantError, which survives ``python -O``."""

import json

import pytest

import gqt.field
import gqt.nogo
import gqt.protocols
from gqt.cli import run
from gqt.errors import GQTError, InvariantError
from gqt.field import FieldSpec, build_field
from gqt.kernel import KernelGeometry
from gqt.linalg import FieldVector
from gqt.nogo import CloneVerdict
from gqt.points import collinear


def test_invariant_error_is_a_domain_error():
    assert issubclass(InvariantError, GQTError)
    assert InvariantError("x").to_json() == {"type": "Invariant", "message": "x"}


def test_entrywise_reading_is_computed_apart_from_the_obstruction(monkeypatch):
    # a zero phi makes every a_i b_j and b_i a_j zero, whatever the core returns
    def nonzero_obstruction(spec, a, b):
        return CloneVerdict.ZERO_STATE, (1,) * (len(a) * len(b)), None

    spec = build_field(2, 2)
    phi, psi = FieldVector(spec, [0, 0]), FieldVector(spec, [1, "t"])
    assert gqt.nogo.clone_obstruction(phi, psi).entrywise_agrees is True
    monkeypatch.setattr(gqt.nogo, "_classify_indices", nonzero_obstruction)
    assert gqt.nogo.clone_obstruction(phi, psi).entrywise_agrees is False
    assert gqt.nogo.delete_obstruction(phi, psi).entrywise_agrees is False


def test_teleport_char2_invariant_failure(monkeypatch, capsys):
    def swapped_basis(spec):
        return [("phi+", FieldVector(spec, [0, 1, 1, 0])),
                ("psi+", FieldVector(spec, [1, 0, 0, 1]))]

    monkeypatch.setattr(gqt.protocols, "bell_basis", swapped_basis)
    with pytest.raises(InvariantError):
        gqt.protocols.teleport_char2("t", "1", build_field(2, 2), seed=0)
    code = run(["teleport", "--p", "2", "--alpha", "t", "--beta", "1", "--char2",
                "--seed", "0", "--deterministic"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "Invariant"


def test_collinear_invariant_failure(kernel_q2):
    i = 0
    j = next(iter(kernel_q2.adjacency[i]))
    # drop every line through i, so incidence no longer sees the collinear pair
    tampered = KernelGeometry(kernel_q2.form, kernel_q2.rays,
                              [line for line in kernel_q2.lines if i not in line])
    with pytest.raises(InvariantError):
        collinear(kernel_q2.points[i], kernel_q2.points[j], tampered)


def test_field_spec_invariant_failure(monkeypatch):
    # a broken conjugation fixes every element, so the subfield has the wrong size
    monkeypatch.setattr(gqt.field.FieldSpec, "frob_i", lambda self, a: a)
    with pytest.raises(InvariantError):
        FieldSpec(2, 2)
