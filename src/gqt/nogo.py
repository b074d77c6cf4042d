"""Cloneability and deletability classification of state pairs.

A cloning (or deleting) operator forces phi (x) psi + psi (x) phi = 0,
which over a field vanishes only when a state is zero or, in
characteristic 2, when the two states lie on the same ray.
Commutators [a_i, a_j] are evaluated once per field: they vanish for
every state exactly when the field's multiplication table is symmetric,
which documents the general division-ring statement without fake
arithmetic.

States are element-index tuples.  ``scan`` computes each state's ray once,
classifies every pair by comparing rays (``_verdict``) and calls the core,
``_classify_indices``, only on the first pair of each verdict.  The core
reads the obstruction off the field tables, so a scan never loads ``linalg``.
``clone_obstruction``/``delete_obstruction`` convert at their edges and
check it entrywise, a_i b_j = -(b_i a_j), in element arithmetic.
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotUnitaryError,
    _guard,
)
from .field import FieldSpec, _ray, build_field

if TYPE_CHECKING:
    from .elements import FieldElement
    from .forms import HermitianForm
    from .linalg import FieldMatrix, FieldVector

# Largest exhaustive scan, in state pairs, unless GQT_GUARD_OVERRIDE=1.
_MAX_SCAN_PAIRS = 10 ** 6

IndexVector = Tuple[int, ...]


class CloneVerdict(str, Enum):
    ZERO_STATE = "ZeroState"
    SAME_RAY_CHAR2 = "SameRayChar2"
    SAME_RAY_CHAR_ODD = "SameRayCharOdd"
    INDEPENDENT = "Independent"


class CloneClassification:
    """Verdict for one (phi, psi) pair, with the tensor obstruction value."""

    def __init__(self, verdict: CloneVerdict, tensor_obstruction: FieldVector,
                 witness: Optional[FieldElement], entrywise_agrees: bool,
                 commutators_vanish: bool, kind: str = "clone"):
        self.verdict = verdict
        self.tensor_obstruction = tensor_obstruction
        self.witness = witness  # rho with psi = phi * rho, when on one ray
        self.entrywise_agrees = entrywise_agrees
        self.commutators_vanish = commutators_vanish
        self.kind = kind  # or "delete"

    @property
    def obstruction_vanishes(self) -> bool:
        return self.tensor_obstruction.is_zero()

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict.value,
            "tensor_obstruction": self.tensor_obstruction.to_json(),
            "obstruction_vanishes": self.obstruction_vanishes,
            "witness": self.witness.to_json() if self.witness is not None else None,
            "entrywise_agrees": self.entrywise_agrees,
            "commutators_vanish": self.commutators_vanish,
        }


@lru_cache(maxsize=None)
def _commutators_vanish(spec: FieldSpec) -> bool:
    """Whether every commutator xy - yx of ``spec`` is zero: its mul table is symmetric."""
    mul = spec.mul
    return all(row[b] == mul[b][a] for a, row in enumerate(mul) for b in range(a))


def _verdict(spec: FieldSpec, ray_a: Optional[IndexVector],
             ray_b: Optional[IndexVector]) -> CloneVerdict:
    """The verdict of a pair, read off the two states' ``field._ray`` values."""
    if ray_a is None or ray_b is None:
        return CloneVerdict.ZERO_STATE
    if ray_a == ray_b:
        return CloneVerdict.SAME_RAY_CHAR2 if spec.p == 2 else CloneVerdict.SAME_RAY_CHAR_ODD
    return CloneVerdict.INDEPENDENT


def _classify_indices(
    spec: FieldSpec, a: IndexVector, b: IndexVector
) -> Tuple[CloneVerdict, IndexVector, Optional[int]]:
    """Classify the pair (phi, psi) given by the element indices a and b.

    Returns the verdict, the tensor obstruction phi (x) psi + psi (x) phi
    and the witness rho with psi = phi * rho (None off one ray).
    """
    add, mul = spec.add, spec.mul
    # entry (i, j), row-major: a_i b_j + b_i a_j
    obstruction = tuple([add[mul[ai][bj]][mul[bi][aj]]
                         for ai, bi in zip(a, b) for aj, bj in zip(a, b)])
    verdict = _verdict(spec, _ray(a, spec), _ray(b, spec))
    witness = None
    if verdict in (CloneVerdict.SAME_RAY_CHAR2, CloneVerdict.SAME_RAY_CHAR_ODD):
        # psi = phi * rho, so rho is read off the lead coordinate of phi
        lead = next(i for i, ai in enumerate(a) if ai)
        witness = spec.mul[b[lead]][spec.inv[a[lead]]]
    return verdict, obstruction, witness


def _classify(phi: FieldVector, psi: FieldVector, kind: str) -> CloneClassification:
    from .elements import FieldElement
    from .linalg import FieldVector

    if phi.spec != psi.spec:
        raise FieldMismatchError("states over different fields")
    if len(phi) != len(psi):
        raise DimensionMismatchError("states of different lengths")
    spec = phi.spec
    verdict, obstruction, witness = _classify_indices(spec, phi.indices(), psi.indices())
    # entrywise reading of the same equation: a_i b_j = -(b_i a_j)
    pairs = list(zip(phi, psi))
    entrywise_zero = all(ai * bj == -(bi * aj) for ai, bi in pairs for aj, bj in pairs)
    return CloneClassification(
        verdict=verdict,
        tensor_obstruction=FieldVector.from_indices(spec, obstruction),
        witness=FieldElement(spec, witness) if witness is not None else None,
        entrywise_agrees=entrywise_zero == (not any(obstruction)),
        commutators_vanish=_commutators_vanish(spec),
        kind=kind,
    )


def clone_obstruction(phi: FieldVector, psi: FieldVector) -> CloneClassification:
    """Classify whether a single unitary could clone both states."""
    return _classify(phi, psi, "clone")


def delete_obstruction(phi: FieldVector, psi: FieldVector) -> CloneClassification:
    """Same tensor equation as cloning; invertibility alone forces it."""
    return _classify(phi, psi, "delete")


def _index_vectors(order: int, dim: int) -> Iterator[IndexVector]:
    """Every state of length dim as an index tuple, in ``FieldSpec.elements`` order."""
    return itertools.product(range(order), repeat=dim)


def _scan_guard(order: int, dim: int) -> None:
    """Refuse more than ``_MAX_SCAN_PAIRS`` pairs before anything is allocated."""
    if dim < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {dim}")
    # (order^dim)^2 one factor at a time, so a huge dim stops early.
    pairs = 1
    for _ in range(2 * dim):
        pairs *= order
        if pairs > _MAX_SCAN_PAIRS:
            break
    _guard(pairs > _MAX_SCAN_PAIRS,
           f"scan guard: GF({order})^{dim} has more than {_MAX_SCAN_PAIRS} state pairs")


def scan(spec: FieldSpec, dim: int, kind: str) -> dict:
    """Classify every (phi, psi) pair of states of length dim.

    kind is "clone" or "delete".  The report counts the verdicts and keeps
    the first pair of each as a sample witness.
    """
    if kind not in ("clone", "delete"):
        raise ValueError(f"kind must be 'clone' or 'delete', got {kind!r}")
    _scan_guard(spec.order, dim)
    states = list(_index_vectors(spec.order, dim))
    rays = [_ray(a, spec) for a in states]
    # Every pair by its rays; verdicts keep the order in which they first occur.
    counts: Dict[CloneVerdict, int] = {}
    first: Dict[CloneVerdict, Tuple[IndexVector, IndexVector]] = {}
    for a, ray_a in zip(states, rays):
        for b, ray_b in zip(states, rays):
            verdict = _verdict(spec, ray_a, ray_b)
            if verdict in counts:
                counts[verdict] += 1
            else:
                counts[verdict] = 1
                first[verdict] = (a, b)
    coeffs = spec.coeffs
    sample_witnesses = {}
    for verdict, (a, b) in first.items():
        _, obstruction, _ = _classify_indices(spec, a, b)
        sample_witnesses[verdict.value] = {
            "phi": [list(coeffs[x]) for x in a],
            "psi": [list(coeffs[x]) for x in b],
            "obstruction_vanishes": not any(obstruction),
        }
    report = {
        "kind": kind,
        "field": spec.to_json(),
        "dim": dim,
        "pairs": len(states) ** 2,
        "counts": {verdict.value: n for verdict, n in counts.items()},
        "sample_witnesses": sample_witnesses,
    }
    if kind == "clone":
        report["f2_special_case"] = f2_orthogonal_special_case()
    return report


def f2_orthogonal_special_case() -> dict:
    """Check alpha^2 = alpha (and beta^2 = beta) across the fields of order <= 9.

    It holds for every element exactly in F_2; every larger field yields a
    counterexample, the first in index order, which is recorded.
    """
    results = []
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        spec = build_field(p, k)
        counterexample = next((x for x in range(spec.order) if spec.mul[x][x] != x), None)
        results.append({
            "p": p,
            "k": k,
            "order": spec.order,
            "idempotent_everywhere": counterexample is None,
            "counterexample": (None if counterexample is None
                               else {"coeffs": list(spec.coeffs[counterexample])}),
        })
    only_f2 = all(
        r["idempotent_everywhere"] == (r["order"] == 2) for r in results
    )
    return {"fields": results, "holds_only_in_f2": only_f2}


def permutation_clone_check(
    u: FieldMatrix,
    states: Sequence[FieldVector],
    blank: FieldVector,
    form: Optional[HermitianForm] = None,
) -> dict:
    """Does u map {psi (x) blank} bijectively onto {phi (x) phi}?

    Returns the induced mapping when it does; an identity mapping means u
    clones every element of the set.
    """
    from .linalg import is_unitary, tensor

    states = list(states)
    if not states:
        raise DimensionMismatchError("empty state set")
    n = len(states[0])
    if any(len(s) != n for s in states) or len(blank) != n:
        raise DimensionMismatchError("all states and the blank must share a length")
    if u.nrows != n * n or not u.is_square():
        raise DimensionMismatchError(
            f"operator must act on the {n * n}-dimensional tensor space"
        )
    if form is not None and not is_unitary(u, form):
        raise NotUnitaryError("operator is not unitary for the supplied form")

    targets = {tensor(s, s): i for i, s in enumerate(states)}
    mapping: Dict[int, int] = {}
    used = set()
    witness = None
    for i, s in enumerate(states):
        image = u @ tensor(s, blank)
        j = targets.get(image)
        if j is None or j in used:
            witness = {"state_index": i, "image": image.to_json()}
            break
        mapping[i] = j
        used.add(j)
    ok = witness is None and len(mapping) == len(states)
    return {
        "is_permutation_clone": ok,
        "associated_permutation": mapping if ok else None,
        "is_identity_permutation": ok and all(i == j for i, j in mapping.items()),
        "failure_witness": witness,
    }
