"""Entanglement protocols with modal measurement semantics.

States are unnormalized; equality checks are exact vector equality.
Qubit ordering: |ab...c> has index with the leftmost factor most
significant, so the 8x8 anti-diagonal matrix is exactly index reversal.

Measurement in positive characteristic carries no probability weights:
every basis direction with a nonzero component is possible, and a seeded
generator picks one uniformly.  ``all_branches`` enumerates them all so
correctness checks never depend on the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    BadMessageError,
    Char2MessageUnsupportedError,
    Char2NotSupportedError,
    DimensionMismatchError,
    InvariantError,
    NotBellRayError,
    NotChar2Error,
    NotInSpanError,
    ZeroStateError,
)
from .field import FieldSpec
from .linalg import (
    FieldMatrix,
    FieldVector,
    _rref,
    identity_matrix,
    tensor,
)

# --- gates ----------------------------------------------------------------------

def gate_x(spec: FieldSpec) -> FieldMatrix:
    return FieldMatrix(spec, [[0, 1], [1, 0]])


def gate_z(spec: FieldSpec) -> FieldMatrix:
    return FieldMatrix(spec, [[1, 0], [0, spec.from_int(-1)]])


def gate_zx(spec: FieldSpec) -> FieldMatrix:
    return gate_z(spec) @ gate_x(spec)


def anti_diagonal(spec: FieldSpec, n: int) -> FieldMatrix:
    """n x n permutation with 1's on the anti-diagonal (index reversal)."""
    one, zero = spec.one, spec.zero
    return FieldMatrix(spec, [
        [one if j == n - 1 - i else zero for j in range(n)] for i in range(n)
    ])


# --- Bell states -----------------------------------------------------------------

def bell_state(spec: FieldSpec) -> FieldVector:
    """|00> + |11>, unnormalized."""
    return FieldVector(spec, [1, 0, 0, 1])


def bell_basis(spec: FieldSpec) -> List[Tuple[str, FieldVector]]:
    """Labeled Bell vectors; in characteristic 2 the four collapse to two."""
    minus = spec.from_int(-1)
    if spec.p == 2:
        return [
            ("phi+", FieldVector(spec, [1, 0, 0, 1])),
            ("psi+", FieldVector(spec, [0, 1, 1, 0])),
        ]
    return [
        ("phi+", FieldVector(spec, [1, 0, 0, 1])),
        ("phi-", FieldVector(spec, [spec.one, spec.zero, spec.zero, minus])),
        ("psi+", FieldVector(spec, [0, 1, 1, 0])),
        ("psi-", FieldVector(spec, [spec.zero, spec.one, -spec.one, spec.zero])),
    ]


# --- modal measurement --------------------------------------------------------------

def decompose_in_basis(state: FieldVector, basis: Sequence[FieldVector]) -> List[FieldVector]:
    """Residual co-factors r_k with state = sum_k basis_k (x) r_k.

    The basis vectors live on the leading tensor factor of dimension d;
    the state has dimension d * m.  Raises NotInSpan when the leading
    factor of the state does not lie in the span of the basis.
    """
    spec = state.spec
    d = len(basis[0])
    if any(len(b) != d for b in basis):
        raise DimensionMismatchError("basis vectors of unequal length")
    total = len(state)
    if total % d != 0:
        raise DimensionMismatchError(
            f"state length {total} is not a multiple of basis dimension {d}"
        )
    m = total // d
    # state reshaped to d x m; solve B @ R = M with B columns = basis vectors
    nb = len(basis)
    aug = [[b[i].index for b in basis] + [e.index for e in state.entries[i * m:(i + 1) * m]]
           for i in range(d)]
    rows, pivots = _rref(aug, spec)
    if any(p >= nb for p in pivots):
        raise NotInSpanError("state component lies outside the span of the basis")
    residuals = [[0] * m for _ in range(nb)]
    for r, pc in enumerate(pivots):
        residuals[pc] = rows[r][nb:]
    return [FieldVector.from_indices(spec, res) for res in residuals]


def possible_branches(state: FieldVector,
                      basis: Sequence[FieldVector]) -> List[Tuple[int, FieldVector]]:
    """Every measurement branch with a nonzero residual."""
    residuals = decompose_in_basis(state, basis)
    return [(k, r) for k, r in enumerate(residuals) if not r.is_zero()]


def measure_modal(state: FieldVector, basis: Sequence[FieldVector],
                  seed: int) -> Tuple[int, FieldVector]:
    """Pick one possible branch uniformly with the seeded generator."""
    branches = possible_branches(state, basis)
    if not branches:
        raise ZeroStateError("state has no nonzero branch in this basis")
    return random.Random(seed).choice(branches)


# --- transcripts -----------------------------------------------------------------------

@dataclass
class ProtocolTranscript:
    """Replayable record of one protocol run."""

    protocol: str
    spec: FieldSpec
    inputs: Dict[str, object]
    seed: Optional[int]
    states: List[Tuple[str, list]] = field(default_factory=list)
    branch_label: Optional[str] = None
    branch_index: Optional[int] = None
    classical_message: Optional[str] = None
    correction: Optional[str] = None
    final_state: Optional[FieldVector] = None

    def record(self, label: str, state: FieldVector) -> None:
        if state.is_zero():
            raise ZeroStateError(f"transcript state {label!r} is zero")
        self.states.append((label, state.to_json()))

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "field": self.spec.to_json(),
            "inputs": self.inputs,
            "seed": self.seed,
            "states": [{"label": lbl, "state": st} for lbl, st in self.states],
            "branch_index": self.branch_index,
            "branch_label": self.branch_label,
            "classical_message": self.classical_message,
            "correction": self.correction,
            "final_state": self.final_state.to_json() if self.final_state else None,
        }


# --- gates and branches -----------------------------------------------------------------

# The one gate/branch table: Bell label -> (two-bit message, Pauli gate), in
# bell_basis order.  Teleportation reports the message of the measured Bell
# vector and corrects with its gate; super-dense coding encodes a message
# with its gate and decodes the Bell vector it lands on back to the message.
_BELL_TABLE = {
    "phi+": ("00", "id"),
    "phi-": ("10", "Z"),
    "psi+": ("01", "X"),
    "psi-": ("11", "ZX"),
}

# Pauli gate name -> its builder.
_GATES = {
    "id": lambda spec: identity_matrix(spec, 2),
    "Z": gate_z,
    "X": gate_x,
    "ZX": gate_zx,
}


# --- teleportation -----------------------------------------------------------------------

def teleport(alpha, beta, spec: FieldSpec, seed: int,
             branch: Optional[int] = None) -> ProtocolTranscript:
    """Odd-characteristic teleportation; Bob recovers the input exactly.

    ``branch`` forces a measurement outcome (for exhaustive sweeps);
    otherwise the seeded generator picks among the possible branches.
    """
    if spec.p == 2:
        raise Char2NotSupportedError(
            "characteristic 2 collapses the Bell basis; use teleport_char2"
        )
    alpha, beta = spec.parse(alpha), spec.parse(beta)
    if alpha.is_zero() and beta.is_zero():
        raise ZeroStateError("input state must be nonzero")
    tr = ProtocolTranscript(
        protocol="teleport",
        spec=spec,
        inputs={"alpha": alpha.to_json(), "beta": beta.to_json()},
        seed=seed,
    )
    phi = FieldVector(spec, [alpha, beta])
    shared = bell_state(spec)
    system = tensor(phi, shared)
    tr.record("input", phi)
    tr.record("joint", system)

    basis = bell_basis(spec)
    vectors = [v for _, v in basis]
    if branch is None:
        idx, residual = measure_modal(system, vectors, seed)
    else:
        residuals = decompose_in_basis(system, vectors)
        idx, residual = branch, residuals[branch]
        if residual.is_zero():
            raise ZeroStateError(f"branch {branch} is impossible for this input")
    label = basis[idx][0]
    # each branch carries an explicit 1/2 factor; strip it before correcting
    residual = residual.scale(spec.from_int(2))
    tr.branch_index, tr.branch_label = idx, label
    tr.classical_message, correction = _BELL_TABLE[label]
    tr.record(f"bob_pre_correction[{label}]", residual)
    tr.correction = correction
    final = _GATES[correction](spec) @ residual
    tr.final_state = final
    tr.record("bob_final", final)
    return tr


def teleport_char2(alpha, beta, spec: FieldSpec, seed: int,
                   branch: Optional[int] = None) -> ProtocolTranscript:
    """Characteristic-2 teleportation via the doubled entangled resource."""
    if spec.p != 2:
        raise NotChar2Error("this variant requires characteristic 2")
    alpha, beta = spec.parse(alpha), spec.parse(beta)
    if alpha.is_zero() and beta.is_zero():
        raise ZeroStateError("input state must be nonzero")
    tr = ProtocolTranscript(
        protocol="teleport_char2",
        spec=spec,
        inputs={"alpha": alpha.to_json(), "beta": beta.to_json()},
        seed=seed,
    )
    phi = FieldVector(spec, [alpha, beta])
    b = bell_state(spec)
    b_tilde = FieldVector(spec, [0, 1, 1, 0])
    rev = anti_diagonal(spec, 8)
    system = tensor(phi, b) + (rev @ tensor(phi, b_tilde))
    tr.record("input", phi)
    tr.record("joint", system)

    # internal identity check: phi+ (x) (a,b) + psi+ (x) (b,a)
    basis = bell_basis(spec)  # [phi+, psi+]
    expected = tensor(basis[0][1], FieldVector(spec, [alpha, beta])) + \
        tensor(basis[1][1], FieldVector(spec, [beta, alpha]))
    if system != expected:
        raise InvariantError("char-2 joint-state identity failed")

    vectors = [v for _, v in basis]
    if branch is None:
        idx, residual = measure_modal(system, vectors, seed)
    else:
        residuals = decompose_in_basis(system, vectors)
        idx, residual = branch, residuals[branch]
        if residual.is_zero():
            raise ZeroStateError(f"branch {branch} is impossible for this input")
    label = basis[idx][0]
    tr.branch_index, tr.branch_label = idx, label
    message, correction = _BELL_TABLE[label]
    tr.classical_message = message[1]  # phi+ and psi+ differ in the second bit only
    tr.record(f"bob_pre_correction[{label}]", residual)
    tr.correction = correction
    final = _GATES[correction](spec) @ residual
    tr.final_state = final
    tr.record("bob_final", final)
    return tr


# --- super-dense coding -----------------------------------------------------------------

def sdc_messages(spec: FieldSpec) -> List[str]:
    """The two-bit messages super-dense coding carries over ``spec``.

    Z acts trivially in characteristic 2, so there only the messages whose
    gate has no Z (00 and 01) stay distinguishable.
    """
    return [msg for msg, gate in _BELL_TABLE.values() if spec.p != 2 or "Z" not in gate]


def sdc_encode(bits: str, spec: FieldSpec) -> FieldVector:
    """Apply the two-bit gate rule to the shared Bell state."""
    gate = next((g for msg, g in _BELL_TABLE.values() if msg == bits), None)
    if gate is None:
        messages = sorted(msg for msg, _ in _BELL_TABLE.values())
        raise BadMessageError(f"message must be one of {messages}, got {bits!r}")
    if bits not in sdc_messages(spec):
        raise Char2MessageUnsupportedError(
            f"message {bits}: Z acts trivially in characteristic 2, "
            "only the messages 00 and 01 are distinguishable"
        )
    full = tensor(_GATES[gate](spec), identity_matrix(spec, 2))
    return full @ bell_state(spec)


def sdc_decode(state: FieldVector, spec: FieldSpec) -> str:
    """Identify the Bell ray and invert the gate rule."""
    if len(state) != 4:
        raise DimensionMismatchError("expected a two-qubit state")
    if state.is_zero():
        raise NotBellRayError("zero state")
    for label, vec in bell_basis(spec):
        # scalar multiple test: state = lam * vec
        lead = next(i for i, e in enumerate(vec.entries) if not e.is_zero())
        lam = state[lead] / vec[lead]
        if not lam.is_zero() and vec.scale(lam) == state:
            return _BELL_TABLE[label][0]
    raise NotBellRayError("state is not a nonzero multiple of a Bell vector")


def sdc_transcript(bits: str, spec: FieldSpec, seed: Optional[int] = None) -> ProtocolTranscript:
    """One encode/decode round as a replayable transcript."""
    tr = ProtocolTranscript(
        protocol="superdense",
        spec=spec,
        inputs={"message": bits},
        seed=seed,
    )
    tr.record("shared", bell_state(spec))
    encoded = sdc_encode(bits, spec)
    tr.record("encoded", encoded)
    decoded = sdc_decode(encoded, spec)
    tr.classical_message = decoded
    tr.final_state = encoded
    return tr
