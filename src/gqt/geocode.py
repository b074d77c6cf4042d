"""Point-transport coding scheme over the self-orthogonal geometry.

Alice and Bob share three pairwise disjoint kernel lines and a unitary.
A non-self-orthogonal state is encoded as the three intersection points
of its polar plane's curve with the shared lines, pushed through the
unitary; decoding inverts the unitary, spans the plane through the three
points and takes its polar point.  Encoding and decoding run on element
index tuples; points become ``ProjectivePoint`` objects only where the
public functions hand them over.

Transport carries the bitstream over the super-dense channel.  Each field
gets a codebook, built on first use from ``sdc_encode`` and ``sdc_decode``
themselves: the encoded Bell state of every allowed message, and the
message ``sdc_decode`` reads back from it.  A symbol then costs two
lookups instead of a run of the protocol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import (
    DegenerateSpanError,
    ExhaustedSearchError,
    MalformedBitstreamError,
    NotKernelPointError,
    SelfOrthogonalStateError,
)
from .field import FieldSpec
from .kernel import (
    KernelGeometry,
    ProjectivePoint,
    Ray,
    _matvec,
    _mul_rows,
    _normalize_ray,
    hermitian_curve,
    is_self_orthogonal,
    polar_point,
    unique_meet,
)
from .linalg import FieldMatrix, FieldVector, _rref, random_unitary
from .protocols import sdc_decode, sdc_encode, sdc_messages

SERIALIZATION_VERSION = 1


@dataclass
class GeoParams:
    """Shared parameters: three disjoint line indices and a unitary."""

    geom: KernelGeometry
    line_indices: Tuple[int, int, int]
    eta: FieldMatrix
    eta_inverse: FieldMatrix
    seed: int

    def to_json(self) -> dict:
        return {
            "field": self.geom.spec.to_json(),
            "seed": self.seed,
            "lines": [sorted(self.geom.lines[i]) for i in self.line_indices],
            "line_indices": list(self.line_indices),
            "eta": self.eta.to_json(),
        }


@dataclass
class GeoCiphertext:
    """Three transported kernel points plus their canonical bitstream."""

    points: Tuple[ProjectivePoint, ProjectivePoint, ProjectivePoint]
    bitstream: str

    def to_json(self) -> dict:
        return {
            "version": SERIALIZATION_VERSION,
            "points": [p.to_json() for p in self.points],
            "bitstream": self.bitstream,
        }


def agree_parameters(geom: KernelGeometry, seed: int) -> GeoParams:
    """Seeded choice of three pairwise disjoint lines and a unitary."""
    rng = random.Random(seed)
    order = list(range(len(geom.lines)))
    rng.shuffle(order)
    chosen: List[int] = []
    for li in order:
        if all(not (geom.lines[li] & geom.lines[cj]) for cj in chosen):
            chosen.append(li)
            if len(chosen) == 3:
                break
    if len(chosen) < 3:
        raise ExhaustedSearchError("no three pairwise disjoint lines found")
    eta = random_unitary(geom.form, rng.getrandbits(63))
    return GeoParams(
        geom=geom,
        line_indices=(chosen[0], chosen[1], chosen[2]),
        eta=eta,
        eta_inverse=eta.inverse(),
        seed=seed,
    )


def _spans_plane(rays: Sequence[Ray], spec: FieldSpec) -> bool:
    return len(_rref([list(r) for r in rays], spec)[1]) >= 3


def geo_encode(state: FieldVector, params: GeoParams) -> GeoCiphertext:
    """Three curve points on the shared lines, pushed through the unitary."""
    geom = params.geom
    spec = geom.spec
    if is_self_orthogonal(state, geom.form):
        raise SelfOrthogonalStateError("state must not be self-orthogonal")
    curve = hermitian_curve(ProjectivePoint(state), geom)
    meets = [unique_meet(geom.lines[li], curve, geom).ray for li in params.line_indices]
    if not _spans_plane(meets, spec):
        raise DegenerateSpanError(
            "the three intersection points do not span a plane"
        )
    add, _, _, mul, inv, _ = spec.tables()
    eta = _mul_rows(params.eta)
    transported = tuple(
        ProjectivePoint(FieldVector.from_indices(spec, _normalize_ray(_matvec(eta, m, add), mul, inv)))
        for m in meets
    )
    bits = serialize_points(transported, spec)
    return GeoCiphertext(points=transported, bitstream=bits)


def geo_decode(ct: GeoCiphertext, params: GeoParams) -> ProjectivePoint:
    """Invert the unitary, span the plane, return its polar point."""
    geom = params.geom
    spec = geom.spec
    for p in ct.points:
        if not geom.contains(p):
            raise NotKernelPointError(f"{p!r} is not a kernel point")
    add = spec.tables().add
    eta_inverse = _mul_rows(params.eta_inverse)
    pulled = [_matvec(eta_inverse, p.ray, add) for p in ct.points]
    if not _spans_plane(pulled, spec):
        raise DegenerateSpanError("ciphertext points do not span a plane")
    return polar_point([FieldVector.from_indices(spec, r) for r in pulled], geom.form)


# --- bit serialization and transport ------------------------------------------------

def _bits_per_coeff(p: int) -> int:
    return max(1, (p - 1).bit_length())


def serialize_points(points: Sequence[ProjectivePoint], spec: FieldSpec) -> str:
    """Fixed-width bits: coordinates in order, coefficients little-endian."""
    width = _bits_per_coeff(spec.p)
    bits = []
    for point in points:
        for entry in point.coords.entries:
            for c in entry.coeffs:
                bits.append(format(c, f"0{width}b"))
    return "".join(bits)


def deserialize_points(bits: str, spec: FieldSpec, dim: int) -> List[ProjectivePoint]:
    """Inverse of serialize_points; validates widths and coefficient range."""
    width = _bits_per_coeff(spec.p)
    per_point = dim * spec.k * width
    if not bits or len(bits) % per_point != 0 or any(b not in "01" for b in bits):
        raise MalformedBitstreamError(
            f"bitstream length must be a positive multiple of {per_point}"
        )
    points = []
    for start in range(0, len(bits), per_point):
        chunk = bits[start:start + per_point]
        entries = []
        pos = 0
        for _ in range(dim):
            coeffs = []
            for _ in range(spec.k):
                c = int(chunk[pos:pos + width], 2)
                if c >= spec.p:
                    raise MalformedBitstreamError(f"coefficient {c} out of range for p={spec.p}")
                coeffs.append(c)
                pos += width
            entries.append(spec.element(coeffs))
        vec = FieldVector(spec, entries)
        if vec.is_zero():
            raise MalformedBitstreamError("decoded point is the zero vector")
        points.append(ProjectivePoint(vec))
    return points


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def parse_bitstream(text: str, spec: FieldSpec, dim: int) -> str:
    """Ciphertext bits from text: the bits of three points, or their hex.

    Hex (as ``geocode encode`` prints it) may drop leading zeros.  A bit
    string is always longer than the hex of the same points, so text of
    exactly that many 0s and 1s is bits and anything shorter is hex.
    """
    width = 3 * dim * spec.k * _bits_per_coeff(spec.p)
    if len(text) == width and set(text) <= {"0", "1"}:
        return text
    digits = (width + 3) // 4
    if not text or not set(text) <= _HEX_DIGITS or len(text) > digits or int(text, 16) >> width:
        raise MalformedBitstreamError(
            f"bitstream must be {width} bits or at most {digits} hex digits, got {text!r}"
        )
    return format(int(text, 16), f"0{width}b")


@lru_cache(maxsize=None)
def _sdc_codebook(spec: FieldSpec) -> Tuple[Mapping[str, Ray], Mapping[Ray, str]]:
    """Super-dense code words of ``spec``, from ``sdc_encode``/``sdc_decode``.

    Returns the encoded state (as element indices) of every allowed
    message, and the message ``sdc_decode`` reads from each encoded state,
    as read-only views since every caller shares them.
    """
    words: Dict[str, Ray] = {}
    readings: Dict[Ray, str] = {}
    for message in sdc_messages(spec):
        state = sdc_encode(message, spec)
        words[message] = state.indices()
        readings[state.indices()] = sdc_decode(state, spec)
    return MappingProxyType(words), MappingProxyType(readings)


def geo_transmit(ct: GeoCiphertext, spec: FieldSpec) -> Tuple[str, List[ProjectivePoint]]:
    """Push every chunk of the bitstream through the super-dense channel.

    Characteristic 2 carries one bit per Bell use (messages 00/01), other
    characteristics two bits; odd tails are padded with a zero bit that is
    stripped on receipt.
    """
    if not ct.points:
        raise MalformedBitstreamError("empty ciphertext")
    bits = ct.bitstream
    if not bits:
        raise MalformedBitstreamError("empty bitstream")
    if not set(bits) <= {"0", "1"}:
        raise MalformedBitstreamError("bitstream holds characters other than 0 and 1")
    words, readings = _sdc_codebook(spec)
    per_use = 1 if spec.p == 2 else 2
    padded = bits + "0" * (-len(bits) % per_use)
    # A chunk is sent as the message that ends in it (char 2: 0b).
    received_bits = "".join(
        readings[words[padded[i:i + per_use].rjust(2, "0")]][-per_use:]
        for i in range(0, len(padded), per_use)
    )[:len(bits)]
    dim = len(ct.points[0].coords)
    points = deserialize_points(received_bits, spec, dim)
    return received_bits, points


@dataclass
class RoundTripReport:
    """Batch encode/transmit/decode sweep outcome."""

    trials: int
    successes: int
    degenerate: int
    self_orthogonal_skipped: int
    witnesses: List[dict]

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "degenerate_count": self.degenerate,
            "self_orthogonal_skipped": self.self_orthogonal_skipped,
            "witnesses": self.witnesses,
        }


def roundtrip_sweep(params: GeoParams, trials: int, seed: int) -> RoundTripReport:
    """Seeded random non-self-orthogonal states through the full pipeline."""
    geom = params.geom
    spec = geom.spec
    form = geom.form
    rng = random.Random(seed)
    dim = form.dim
    order = spec.order
    _, _, _, mul, inv, _ = spec.tables()
    successes = 0
    degenerate = 0
    skipped = 0
    witnesses: List[dict] = []
    done = 0
    while done < trials:
        ray = tuple(rng.randrange(order) for _ in range(dim))
        if not any(ray):
            continue
        vec = FieldVector.from_indices(spec, ray)
        if is_self_orthogonal(vec, form):
            skipped += 1
            continue
        done += 1
        try:
            ct = geo_encode(vec, params)
        except DegenerateSpanError:
            degenerate += 1
            witnesses.append({"state": vec.to_json(), "failure": "DegenerateSpan"})
            continue
        _, received = geo_transmit(ct, spec)
        recovered = geo_decode(GeoCiphertext(points=tuple(received), bitstream=ct.bitstream),
                               params)
        if recovered.ray == _normalize_ray(ray, mul, inv):
            successes += 1
        else:
            witnesses.append({
                "state": vec.to_json(),
                "failure": "Mismatch",
                "recovered": recovered.to_json(),
            })
    return RoundTripReport(
        trials=trials,
        successes=successes,
        degenerate=degenerate,
        self_orthogonal_skipped=skipped,
        witnesses=witnesses,
    )
