import hashlib
import itertools
import json

import pytest

from gqt.bell import sdc_messages
from gqt.elements import FieldElement
from gqt.errors import (
    BadMessageError,
    Char2MessageUnsupportedError,
    Char2NotSupportedError,
    DimensionMismatchError,
    NotBellRayError,
    NotChar2Error,
    NotInSpanError,
    ZeroStateError,
)
from gqt.field import build_field
from gqt.forms import standard_form
from gqt.linalg import FieldMatrix, FieldVector, identity_matrix, is_unitary, tensor
from gqt.protocols import (
    anti_diagonal,
    bell_basis,
    bell_state,
    decompose_in_basis,
    gate,
    measure_modal,
    possible_branches,
    sdc_decode,
    sdc_encode,
    sdc_transcript,
    teleport,
    teleport_char2,
)


def nonzero_pairs(spec):
    for a in spec.elements():
        for b in spec.elements():
            if not (a.is_zero() and b.is_zero()):
                yield a, b


def test_bell_state_and_self_pairing(gf4, gf9, form4_dim4, form9_dim4):
    b9 = bell_state(gf9)
    assert b9 == FieldVector(gf9, [1, 0, 0, 1])
    assert form9_dim4.evaluate(b9, b9) == gf9.from_int(2)
    # characteristic 2: the Bell state is self-orthogonal
    b4 = bell_state(gf4)
    assert form4_dim4.evaluate(b4, b4).is_zero()


def test_gates_are_unitary(gf9):
    f2 = standard_form(gf9, 2)
    assert gate(gf9, "id") == identity_matrix(gf9, 2)
    for g in (gate(gf9, "id"), gate(gf9, "X"), gate(gf9, "Z"), gate(gf9, "ZX")):
        assert is_unitary(g, f2)
    f8 = standard_form(gf9, 8)
    assert is_unitary(anti_diagonal(gf9, 8), f8)


def test_anti_diagonal_reverses_indices(gf9):
    rev = anti_diagonal(gf9, 4)
    v = FieldVector(gf9, [1, 2, 0, 1])
    assert rev @ v == FieldVector(gf9, [1, 0, 2, 1])


def test_bell_basis_char2_collapse(gf4):
    basis = bell_basis(gf4)
    assert [lbl for lbl, _ in basis] == ["phi+", "psi+"]
    # phi- coincides with phi+ and psi- with psi+ when -1 = 1
    assert FieldVector(gf4, [1, 0, 0, gf4.from_int(-1)]) == basis[0][1]
    assert FieldVector(gf4, [0, 1, gf4.from_int(-1), 0]) == basis[1][1]


def test_bell_basis_odd_char_spans(gf9):
    basis = [v for _, v in bell_basis(gf9)]
    assert len(basis) == 4
    m = FieldMatrix(gf9, [list(v.entries) for v in basis])
    assert m.rank() == 4


def test_decompose_certainty(gf9):
    basis = [v for _, v in bell_basis(gf9)]
    state = tensor(basis[2], FieldVector(gf9, [1, 2]))
    branches = possible_branches(state, basis)
    assert branches == [(2, FieldVector(gf9, [1, 2]))]
    idx, res = measure_modal(state, basis, seed=0)
    assert idx == 2 and res == FieldVector(gf9, [1, 2])


def test_decompose_reconstructs(gf9):
    basis = [v for _, v in bell_basis(gf9)]
    state = FieldVector(gf9, [1, 2, 0, 1, 1, 0, 2, 2])
    residuals = decompose_in_basis(state, basis)
    rebuilt = FieldVector(gf9, [0] * 8)
    for b, r in zip(basis, residuals):
        rebuilt = rebuilt + tensor(b, r)
    assert rebuilt == state


def test_decompose_not_in_span(gf9):
    basis = [FieldVector(gf9, [1, 0, 0, 0]), FieldVector(gf9, [0, 1, 0, 0])]
    state = FieldVector(gf9, [0, 0, 0, 0, 0, 0, 1, 0])  # leading factor e3
    with pytest.raises(NotInSpanError):
        decompose_in_basis(state, basis)


def test_measure_modal_zero_state(gf9):
    basis = [v for _, v in bell_basis(gf9)]
    with pytest.raises(ZeroStateError):
        measure_modal(FieldVector(gf9, [0] * 8), basis, seed=1)


@pytest.mark.parametrize("measure", [
    decompose_in_basis, possible_branches, lambda state, basis: measure_modal(state, basis, 0),
], ids=["decompose_in_basis", "possible_branches", "measure_modal"])
def test_empty_basis_is_a_dimension_mismatch(gf9, measure):
    with pytest.raises(DimensionMismatchError):
        measure(FieldVector(gf9, [1, 0, 0, 0]), [])


def test_change_of_basis_identities(gf9):
    """|00> +/- |11> and |01> +/- |10> expand correctly over the Bell vectors."""
    minus = gf9.from_int(-1)
    lut = {lbl: v for lbl, v in bell_basis(gf9)}

    def ket(i):
        return FieldVector(gf9, [1 if j == i else 0 for j in range(4)])

    two_inv = gf9.from_int(2).inverse()
    # |00> = (phi+ + phi-)/2, |11> = (phi+ - phi-)/2
    assert ket(0) == (lut["phi+"] + lut["phi-"]).scale(two_inv)
    assert ket(3) == (lut["phi+"] + lut["phi-"].scale(minus)).scale(two_inv)
    # |01> = (psi+ + psi-)/2, |10> = (psi+ - psi-)/2
    assert ket(1) == (lut["psi+"] + lut["psi-"]).scale(two_inv)
    assert ket(2) == (lut["psi+"] + lut["psi-"].scale(minus)).scale(two_inv)


def test_teleport_worked_example(gf9):
    tr = teleport(gf9.one, gf9.from_int(2), gf9, seed=0, branch=3)
    assert tr.branch_label == "psi-"
    assert tr.correction == "ZX"
    assert tr.classical_message == "11"
    pre = next(st for lbl, st in tr.states if lbl.startswith("bob_pre"))
    assert gf9.parse(pre[0]) == gf9.one and gf9.parse(pre[1]) == gf9.one
    assert tr.final_state == FieldVector(gf9, [1, 2])


def test_teleport_exhaustive_gf9(gf9):
    # every branch is possible for every nonzero input
    for alpha, beta in nonzero_pairs(gf9):
        for branch in range(4):
            tr = teleport(alpha, beta, gf9, seed=7, branch=branch)
            assert tr.final_state == FieldVector(gf9, [alpha, beta])


def test_teleport_seeded_draw_is_deterministic(gf9):
    a = teleport(gf9.one, gf9.gen, gf9, seed=5)
    b = teleport(gf9.one, gf9.gen, gf9, seed=5)
    assert a.to_json() == b.to_json()
    assert a.final_state == FieldVector(gf9, [gf9.one, gf9.gen])


def test_teleport_rejects_char2_and_zero(gf4, gf9):
    with pytest.raises(Char2NotSupportedError):
        teleport(gf4.one, gf4.zero, gf4, seed=0)
    with pytest.raises(ZeroStateError):
        teleport(gf9.zero, gf9.zero, gf9, seed=0)


def test_teleport_char2_worked_example(gf4):
    t = gf4.gen
    tr = teleport_char2(t, t + 1, gf4, seed=0, branch=1)
    assert tr.branch_label == "psi+"
    assert tr.correction == "X"
    pre = next(st for lbl, st in tr.states if lbl.startswith("bob_pre"))
    assert gf4.parse(pre[0]) == t + 1 and gf4.parse(pre[1]) == t
    assert tr.final_state == FieldVector(gf4, [t, t + 1])


def test_teleport_char2_exhaustive(gf4):
    for alpha, beta in nonzero_pairs(gf4):
        for branch in range(2):
            tr = teleport_char2(alpha, beta, gf4, seed=3, branch=branch)
            assert tr.final_state == FieldVector(gf4, [alpha, beta])


@pytest.mark.parametrize("p, branch", [(3, -1), (3, 4), (2, 2)])
def test_teleport_refuses_a_branch_out_of_range(p, branch):
    # unchecked, a negative index reads a branch from the end and one past
    # the end raises a bare IndexError
    spec = build_field(p, 2)
    run, branches = (teleport_char2, 2) if p == 2 else (teleport, 4)
    with pytest.raises(ZeroStateError, match=rf"range\({branches}\)"):
        run(1, 2 % p, spec, 0, branch=branch)


# SHA-256 of every forced-branch transcript's JSON (sorted keys), nonzero
# inputs in element order and branches in order, seed 0, recorded before the
# branch range check replaced a residual-is-zero check that never fired.
FORCED_BRANCH_TRANSCRIPTS = {
    2: "ecd68e46612fb8b7367fd4255cedc24c283de121774e538cbf856cf1d0766091",
    3: "9866f751def4675226094828c2436cccfd27b8bd2aa3b09da39899b4ae06869a",
    5: "b38a74c21534bb4c21274177369f8134471fe821af102e377ee61de0ed24c64b",
}


@pytest.mark.parametrize("p", sorted(FORCED_BRANCH_TRANSCRIPTS))
def test_every_forced_branch_keeps_its_transcript(p):
    spec = build_field(p, 2)
    run, branches = (teleport_char2, 2) if p == 2 else (teleport, 4)
    digest = hashlib.sha256()
    for alpha, beta in nonzero_pairs(spec):
        for branch in range(branches):
            tr = run(alpha, beta, spec, 0, branch=branch)
            digest.update(json.dumps(tr.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == FORCED_BRANCH_TRANSCRIPTS[p]


def test_teleport_char2_joint_identity(gf4):
    """Joint state equals phi+ (x) (a,b) + psi+ (x) (b,a) for every input."""
    basis = {lbl: v for lbl, v in bell_basis(gf4)}
    rev = anti_diagonal(gf4, 8)
    b, b_tilde = bell_state(gf4), FieldVector(gf4, [0, 1, 1, 0])
    for alpha, beta in nonzero_pairs(gf4):
        phi = FieldVector(gf4, [alpha, beta])
        joint = tensor(phi, b) + (rev @ tensor(phi, b_tilde))
        expected = tensor(basis["phi+"], FieldVector(gf4, [alpha, beta])) + \
            tensor(basis["psi+"], FieldVector(gf4, [beta, alpha]))
        assert joint == expected


def test_teleport_char2_rejects_odd_char(gf9):
    with pytest.raises(NotChar2Error):
        teleport_char2(gf9.one, gf9.zero, gf9, seed=0)


def test_sdc_roundtrip_gf9(gf9):
    # decode tolerates scalar multiples, t among them: t^-1 = 2t is not t
    for bits in ("00", "10", "01", "11"):
        for c in list(gf9.elements())[1:]:
            assert sdc_decode(sdc_encode(bits, gf9).scale(c)) == bits
    assert sdc_decode(FieldVector(gf9, [1, 0, 0, gf9.from_int(-1)])) == "10"


def test_sdc_char2(gf4):
    for bits in ("00", "01"):
        assert sdc_decode(sdc_encode(bits, gf4)) == bits
    for bits in ("10", "11"):
        with pytest.raises(Char2MessageUnsupportedError):
            sdc_encode(bits, gf4)
    # Z (x) id fixes the Bell state in characteristic 2
    full = tensor(gate(gf4, "Z"), identity_matrix(gf4, 2))
    assert full @ bell_state(gf4) == bell_state(gf4)


def test_sdc_errors(gf9):
    with pytest.raises(BadMessageError):
        sdc_encode("2", gf9)
    with pytest.raises(NotBellRayError):
        sdc_decode(FieldVector(gf9, [1, 1, 0, 0]))
    with pytest.raises(NotBellRayError):
        sdc_decode(FieldVector(gf9, [0, 0, 0, 0]))


def test_sdc_transcript(gf9):
    tr = sdc_transcript("01", gf9)
    assert tr.classical_message == "01"
    labels = [lbl for lbl, _ in tr.states]
    assert labels == ["shared", "encoded"]


def test_change_of_modulus_carries_teleport_and_sdc_transcripts(modulus_change):
    """Metamorphic oracle: under the isomorphism phi of ``modulus_change``,
    teleporting (alpha, beta) over GF(9) modulo t^2 + 1 with a seed, then
    mapping every entry by phi, gives the transcript of teleporting
    (phi alpha, phi beta) over GF(9) modulo t^2 + t + 2 with that seed: the
    same branch, message and correction, and the image of every recorded
    state.  Super-dense coding of each message maps the same way.

    Fails when ``_teleport`` strips its branch factor with ``spec.gen ** 2``
    for ``spec.from_int(2)``, treating t as a square root of -1: t^2 = -1 = 2
    under t^2 + 1, the default GF(9) modulus and the only field teleport is
    tested over elsewhere, so no other test fails on it; under t^2 + t + 2,
    t^2 = 2t + 1.
    """
    first, second, image = modulus_change

    def moved(state):  # a recorded state, as coefficient lists, under phi
        return [list(second.coeffs[image[first.parse(c).index]]) for c in state]

    def assert_maps(tr, expected):
        assert (tr.branch_index, tr.branch_label, tr.classical_message, tr.correction) == (
            expected.branch_index, expected.branch_label, expected.classical_message,
            expected.correction)
        assert [(label, moved(state)) for label, state in tr.states] == expected.states
        assert moved(tr.final_state.to_json()) == expected.final_state.to_json()

    for seed, (alpha, beta) in enumerate(nonzero_pairs(first)):
        assert_maps(teleport(alpha, beta, first, seed),
                    teleport(FieldElement(second, image[alpha.index]),
                             FieldElement(second, image[beta.index]), second, seed))
    for bits in sdc_messages(first):
        assert_maps(sdc_transcript(bits, first, seed=0), sdc_transcript(bits, second, seed=0))


def test_transcript_rejects_zero_record(gf9):
    tr = sdc_transcript("00", gf9)
    with pytest.raises(ZeroStateError):
        tr.record("bogus", FieldVector(gf9, [0, 0]))
