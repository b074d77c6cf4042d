"""Entanglement protocols with modal measurement semantics.

States are unnormalized; equality checks are exact vector equality.
Qubit ordering: |ab...c> has index with the leftmost factor most
significant, so the 8x8 anti-diagonal matrix is exactly index reversal.

Measurement in positive characteristic carries no probability weights:
every basis direction with a nonzero component is possible, and a seeded
generator picks one uniformly.  ``possible_branches`` lists them all so
correctness checks never depend on the draw.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from .bell import _BELL_TABLE, _PAULI, _indices, _sdc_decode, _sdc_encode, sdc_bits, sdc_messages
from .errors import (
    Char2NotSupportedError,
    DimensionMismatchError,
    FieldMismatchError,
    InvariantError,
    NotChar2Error,
    NotInSpanError,
    ZeroStateError,
)
from .field import FieldSpec
from .forms import _rref
from .linalg import FieldMatrix, FieldVector, tensor

# --- gates ----------------------------------------------------------------------

def gate(spec: FieldSpec, name: str) -> FieldMatrix:
    """The Pauli gate ``name`` of ``gqt.bell``: id, X, Z or ZX."""
    return FieldMatrix.from_indices(spec, [_indices(spec, row) for row in _PAULI[name]])


def anti_diagonal(spec: FieldSpec, n: int) -> FieldMatrix:
    """n x n permutation with 1's on the anti-diagonal (index reversal)."""
    return FieldMatrix.from_indices(spec, [[int(j == n - 1 - i) for j in range(n)]
                                           for i in range(n)])


# --- Bell states -----------------------------------------------------------------

def _bell_vector(spec: FieldSpec, label: str) -> FieldVector:
    return FieldVector.from_indices(spec, _indices(spec, _BELL_TABLE[label][2]))


def bell_state(spec: FieldSpec) -> FieldVector:
    """|00> + |11>, unnormalized."""
    return _bell_vector(spec, "phi+")


def bell_basis(spec: FieldSpec) -> List[Tuple[str, FieldVector]]:
    """Labeled Bell vectors of the messages ``sdc_messages`` allows.

    In characteristic 2 the four collapse to two: phi- = phi+, psi- = psi+.
    """
    messages = sdc_messages(spec)
    return [(label, _bell_vector(spec, label))
            for label, (message, _, _) in _BELL_TABLE.items() if message in messages]


# --- modal measurement --------------------------------------------------------------

def decompose_in_basis(state: FieldVector, basis: Sequence[FieldVector]) -> List[FieldVector]:
    """Residual co-factors r_k with state = sum_k basis_k (x) r_k.

    The basis vectors live on the leading tensor factor of dimension d;
    the state has dimension d * m.  Raises NotInSpan when the leading
    factor of the state does not lie in the span of the basis.
    """
    if not basis:
        raise DimensionMismatchError("the measurement basis is empty")
    spec = state.spec
    if any(b.spec != spec for b in basis):
        raise FieldMismatchError("state and basis over different fields")
    d = len(basis[0])
    if any(len(b) != d for b in basis):
        raise DimensionMismatchError("basis vectors of unequal length")
    total = len(state)
    if total % d != 0:
        raise DimensionMismatchError(f"state length {total} is not a multiple of basis "
                                     f"dimension {d}")
    m = total // d
    # state reshaped to d x m; solve B @ R = M with B columns = basis vectors
    nb = len(basis)
    columns, s = [b.indices() for b in basis], state.indices()
    aug = [[b[i] for b in columns] + list(s[i * m:(i + 1) * m]) for i in range(d)]
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

class ProtocolTranscript:
    """Replayable record of one protocol run.

    The run fills in its states, branch, message, correction and final
    state step by step.
    """

    def __init__(self, protocol: str, spec: FieldSpec, inputs: Dict[str, object],
                 seed: Optional[int]):
        self.protocol, self.spec, self.inputs, self.seed = protocol, spec, inputs, seed
        self.states: List[Tuple[str, list]] = []
        self.branch_label: Optional[str] = None
        self.branch_index: Optional[int] = None
        self.classical_message: Optional[str] = None
        self.correction: Optional[str] = None
        self.final_state: Optional[FieldVector] = None

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


# --- teleportation -----------------------------------------------------------------------

def teleport(alpha, beta, spec: FieldSpec, seed: int,
             branch: Optional[int] = None) -> ProtocolTranscript:
    """Odd-characteristic teleportation; Bob recovers the input exactly.

    ``branch`` in range(4) forces a measurement outcome (for exhaustive
    sweeps); otherwise the seeded generator picks among the possible branches.
    """
    if spec.p == 2:
        raise Char2NotSupportedError("characteristic 2 collapses the Bell basis; "
                                     "use teleport_char2")
    return _teleport(alpha, beta, spec, seed, branch)


def teleport_char2(alpha, beta, spec: FieldSpec, seed: int,
                   branch: Optional[int] = None) -> ProtocolTranscript:
    """Characteristic-2 teleportation via the doubled resource; ``branch`` in range(2)."""
    if spec.p != 2:
        raise NotChar2Error("this variant requires characteristic 2")
    return _teleport(alpha, beta, spec, seed, branch)


def _teleport(alpha, beta, spec: FieldSpec, seed: int,
              branch: Optional[int]) -> ProtocolTranscript:
    """The one teleportation body: joint state, Bell measurement, correction.

    Odd characteristic shares one Bell state.  Characteristic 2 adds the
    anti-diagonal image of the psi+ resource and checks the joint state
    against phi+ (x) (a,b) + psi+ (x) (b,a).  The message reported is the
    last ``sdc_bits`` bits of the measured Bell vector's: one bit there.
    """
    alpha, beta = spec.parse(alpha), spec.parse(beta)
    if alpha.is_zero() and beta.is_zero():
        raise ZeroStateError("input state must be nonzero")
    char2 = spec.p == 2
    tr = ProtocolTranscript("teleport_char2" if char2 else "teleport", spec,
                            {"alpha": alpha.to_json(), "beta": beta.to_json()}, seed)
    phi = FieldVector(spec, [alpha, beta])
    system = tensor(phi, bell_state(spec))
    if char2:
        system = system + (anti_diagonal(spec, 8) @ tensor(phi, _bell_vector(spec, "psi+")))
    tr.record("input", phi)
    tr.record("joint", system)

    basis = bell_basis(spec)  # char 2: [phi+, psi+]
    if char2 and system != (tensor(basis[0][1], phi)
                            + tensor(basis[1][1], FieldVector(spec, [beta, alpha]))):
        raise InvariantError("char-2 joint-state identity failed")
    vectors = [v for _, v in basis]
    if branch is None:
        idx, residual = measure_modal(system, vectors, seed)
    else:
        # each residual is a nonzero multiple of (alpha, beta) or its swap
        residuals = decompose_in_basis(system, vectors)
        if branch not in range(len(residuals)):
            raise ZeroStateError(f"branch must be in range({len(residuals)}), got {branch}")
        idx, residual = branch, residuals[branch]
    label = basis[idx][0]
    if not char2:
        # each branch carries an explicit 1/2 factor; strip it before correcting
        residual = residual.scale(spec.from_int(2))
    tr.branch_index, tr.branch_label = idx, label
    message, tr.correction, _ = _BELL_TABLE[label]
    tr.classical_message = message[-sdc_bits(spec):]
    tr.record(f"bob_pre_correction[{label}]", residual)
    tr.final_state = gate(spec, tr.correction) @ residual
    tr.record("bob_final", tr.final_state)
    return tr


# --- super-dense coding -----------------------------------------------------------------

def sdc_encode(bits: str, spec: FieldSpec) -> FieldVector:
    """Apply the two-bit gate rule to the shared Bell state."""
    return FieldVector.from_indices(spec, _sdc_encode(bits, spec))


def sdc_decode(state: FieldVector) -> str:
    """Identify the Bell ray over the state's field and invert the gate rule."""
    return _sdc_decode(state.indices(), state.spec)


def sdc_transcript(bits: str, spec: FieldSpec, seed: Optional[int] = None) -> ProtocolTranscript:
    """One encode/decode round as a replayable transcript."""
    tr = ProtocolTranscript("superdense", spec, {"message": bits}, seed)
    tr.record("shared", bell_state(spec))
    encoded = sdc_encode(bits, spec)
    tr.record("encoded", encoded)
    tr.classical_message = sdc_decode(encoded)
    tr.final_state = encoded
    return tr
