"""Super-dense coding on element indices: the Bell table and the Pauli gates as rows.

Entries are 0, 1 and -1, which ``_indices`` reads as element indices.  The
protocol here builds no ``FieldVector`` or ``FieldMatrix``: ``gqt.protocols``
wraps it and its rows, and ``gqt.geocode`` builds its codebook from it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .errors import (BadMessageError, Char2MessageUnsupportedError, DimensionMismatchError,
                     NotBellRayError)
from .field import FieldSpec, _ray
from .forms import _identity, _kron, _matvec

# The one gate/branch table: Bell label -> (two-bit message, Pauli gate,
# Bell vector), in bell_basis order.  Teleportation reports the message of
# the measured Bell vector and corrects with its gate; super-dense coding
# encodes a message with its gate and decodes the Bell vector it lands on
# back to the message.
_BELL_TABLE = {
    "phi+": ("00", "id", (1, 0, 0, 1)),
    "phi-": ("10", "Z", (1, 0, 0, -1)),
    "psi+": ("01", "X", (0, 1, 1, 0)),
    "psi-": ("11", "ZX", (0, 1, -1, 0)),
}

# Pauli gate name -> its rows; ZX is Z @ X.
_PAULI = {
    "id": ((1, 0), (0, 1)),
    "Z": ((1, 0), (0, -1)),
    "X": ((0, 1), (1, 0)),
    "ZX": ((0, 1), (-1, 0)),
}


def _indices(spec: FieldSpec, entries: Sequence[int]) -> Tuple[int, ...]:
    """The element indices of entries 0, 1 and -1 over ``spec``."""
    minus_one = spec.neg[1]
    return tuple([minus_one if e == -1 else e for e in entries])


def sdc_messages(spec: FieldSpec) -> List[str]:
    """The two-bit messages super-dense coding carries over ``spec``.

    Z acts trivially in characteristic 2, so there only the messages whose
    gate has no Z (00 and 01) stay distinguishable.
    """
    return [msg for msg, gate, _ in _BELL_TABLE.values() if spec.p != 2 or "Z" not in gate]


def sdc_bits(spec: FieldSpec) -> int:
    """Bits one Bell use carries, the last of its message: log2 of len(sdc_messages)."""
    return len(sdc_messages(spec)).bit_length() - 1


def _sdc_encode(bits: str, spec: FieldSpec) -> Tuple[int, ...]:
    """(gate (x) identity) @ phi+ for the gate of the two-bit message, as element indices."""
    gate = next((g for msg, g, _ in _BELL_TABLE.values() if msg == bits), None)
    if gate is None:
        messages = sorted(msg for msg, _, _ in _BELL_TABLE.values())
        raise BadMessageError(f"message must be one of {messages}, got {bits!r}")
    if bits not in sdc_messages(spec):
        raise Char2MessageUnsupportedError(
            f"message {bits}: Z acts trivially in characteristic 2, "
            "only the messages 00 and 01 are distinguishable"
        )
    full = [_kron(_indices(spec, g), i, spec) for g in _PAULI[gate] for i in _identity(2)]
    return _matvec(full, _indices(spec, _BELL_TABLE["phi+"][2]), spec)


def _sdc_decode(state: Sequence[int], spec: FieldSpec) -> str:
    """The message whose Bell ray the element indices ``state`` span."""
    if len(state) != 4:
        raise DimensionMismatchError("expected a two-qubit state")
    ray = _ray(tuple(state), spec)
    if ray is None:
        raise NotBellRayError("zero state")
    for message, _, vec in _BELL_TABLE.values():
        # every Bell vector leads with 1, so it is its own ray
        if _indices(spec, vec) == ray and message in sdc_messages(spec):
            return message
    raise NotBellRayError("state is not a nonzero multiple of a Bell vector")
