"""Point-transport coding scheme over the self-orthogonal geometry.

Alice and Bob share three pairwise disjoint kernel lines and a unitary.
A non-self-orthogonal state is encoded as the three intersection points
of its polar plane's curve with the shared lines, pushed through the
unitary; decoding inverts the unitary, spans the plane through the three
points and takes its polar point.  The unitary permutes the kernel
points; ``GeoParams`` computes that permutation once and inverts it.

Every stage has an index-level core that works on element-index rays and
field tables: ``_encode_ray``, ``_rays_to_bits``, ``_transmit_bits``,
``_bits_to_rays`` and ``_decode_rays``.  ``GeoParams`` keeps the unitary as
index rows, drawn by ``forms._unitary_rows``.  ``roundtrip_sweep`` runs each
distinct ray through the cores once and builds no objects, not even for its
witnesses; the public functions convert to and from
``FieldVector``/``ProjectivePoint`` objects at their edges, importing
``gqt.linalg`` and ``gqt.points`` only then.

Transport carries the bitstream over the super-dense channel.  Each field
gets a codebook, built on first use from ``gqt.bell``'s index-level
protocol, which ``sdc_encode`` and ``sdc_decode`` wrap: every chunk one
Bell use carries, and the chunk read back after it crossed.  A chunk then
costs one lookup instead of a run of the protocol.

The ``geocode`` CLI reports are built here on the cores alone, so the
three jobs compile no object class (``encode`` loads ``gqt.elements`` to
read its state text), and this module alone writes (``bitstream_hex``)
and reads (``parse_bitstream``) the ciphertext hex.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, List, Mapping, Sequence, Tuple

from .bell import _sdc_decode, _sdc_encode, sdc_bits, sdc_messages
from .errors import (
    DegenerateSpanError,
    DependentBasisError,
    DimensionMismatchError,
    ExhaustedSearchError,
    FieldMismatchError,
    MalformedBitstreamError,
    NotKernelPointError,
    NotUniqueError,
    NotUnitaryError,
    SelfOrthogonalStateError,
    _guard,
)
from .field import FieldSpec, _ray
from .forms import Rows, _pair, _rows_json, _rref, _unitary_rows
from .kernel import (
    KernelGeometry,
    Ray,
    _meet,
    _permutation,
    _polar,
    standard_kernel,
)

if TYPE_CHECKING:
    from .linalg import FieldMatrix, FieldVector
    from .points import ProjectivePoint

SERIALIZATION_VERSION = 1

# Largest ``geocode roundtrip`` sweep, in trials, unless GQT_GUARD_OVERRIDE=1:
# each degenerate trial keeps a witness.
_MAX_TRIALS = 100_000


class GeoParams:
    """Shared lines and unitary; ``_push``/``_pull`` map kernel point indices by eta/eta^-1.

    The unitary is kept as rows of element indices (``eta_rows``); ``eta``
    builds the ``FieldMatrix`` on first read.
    """

    def __init__(self, geom: KernelGeometry, line_indices: Tuple[int, int, int],
                 eta: FieldMatrix):
        dim = geom.form.dim
        if eta.spec != geom.spec:
            raise FieldMismatchError("eta and the geometry are over different fields")
        if (eta.nrows, eta.ncols) != (dim, dim):
            raise DimensionMismatchError(f"eta must be {dim} x {dim}")
        self._set(geom, line_indices, eta.indices())

    @classmethod
    def _from_rows(cls, geom: KernelGeometry, line_indices: Tuple[int, int, int],
                   rows: Rows) -> "GeoParams":
        """The parameters whose unitary has the given rows of element indices."""
        params = cls.__new__(cls)
        params._set(geom, line_indices, rows)
        return params

    def _set(self, geom: KernelGeometry, line_indices: Tuple[int, int, int], rows: Rows) -> None:
        lines = geom.lines
        if (len(line_indices) != 3 or any(li not in range(len(lines)) for li in line_indices)
                or any(lines[a] & lines[b] for a, b in itertools.combinations(line_indices, 2))):
            raise DegenerateSpanError("the shared lines must be three pairwise disjoint lines "
                                      f"of the kernel, got line_indices={line_indices!r}")
        push = _permutation(rows, geom)
        if push is None:
            raise NotUnitaryError("eta must permute the kernel points and lines")
        self.geom, self.line_indices, self.eta_rows = geom, line_indices, rows
        # point i goes to push[i], so sorting the points by image inverts push
        self._push, self._pull = push, tuple(sorted(range(len(push)), key=push.__getitem__))

    @cached_property
    def eta(self) -> FieldMatrix:
        from .linalg import FieldMatrix

        return FieldMatrix.from_indices(self.geom.spec, self.eta_rows)


class GeoCiphertext:
    """Three transported kernel points."""

    def __init__(self, points: Tuple[ProjectivePoint, ProjectivePoint, ProjectivePoint]):
        self.points = points

    @property
    def bitstream(self) -> str:
        """The points' bits, ``serialize_points`` of them."""
        return serialize_points(self.points)

    def to_json(self) -> dict:
        spec = _field_of(self.points)
        rays = [p.ray for p in self.points]
        return _ciphertext_json(rays, _rays_to_bits(rays, spec), spec)


def _ciphertext_json(rays: Sequence[Ray], bits: str, spec: FieldSpec) -> dict:
    """The JSON form of a ciphertext: its points' rays and their bits."""
    return {"version": SERIALIZATION_VERSION, "points": _rows_json(rays, spec), "bitstream": bits}


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
    return GeoParams._from_rows(geom, (chosen[0], chosen[1], chosen[2]),
                                _unitary_rows(geom.form, rng.getrandbits(63)))


def _point(spec: FieldSpec, ray: Ray) -> ProjectivePoint:
    """The point of a ray, importing the object layer on first use: the
    ``geocode`` reports build a point only for an error message."""
    from .linalg import FieldVector
    from .points import ProjectivePoint

    return ProjectivePoint(FieldVector.from_indices(spec, ray))


def _encode_ray(state: Ray, params: GeoParams) -> Tuple[Ray, Ray, Ray]:
    """``geo_encode`` on element indices: the three transported, normalized rays."""
    geom = params.geom
    spec = geom.spec
    rays = geom.rays
    row = geom.form._row(state)
    if _pair(row, state, spec) == 0:
        raise SelfOrthogonalStateError("state must not be self-orthogonal")
    # Each meet among its line's points only; the push table moves it through eta.
    meets = [_meet(line, [i for i in line if _pair(row, rays[i], spec) == 0])
             for line in (geom.lines[li] for li in params.line_indices)]
    if len(_rref([rays[m] for m in meets], spec)[1]) < 3:
        raise DegenerateSpanError(
            "the three intersection points do not span a plane"
        )
    return tuple(rays[params._push[m]] for m in meets)


def _decode_rays(rays: Sequence[Ray], params: GeoParams) -> Ray:
    """``geo_decode`` on normalized element-index rays: the recovered ray."""
    geom = params.geom
    spec = geom.spec
    indices = [geom._point_index.get(r) for r in rays]
    if None in indices:
        r = rays[indices.index(None)]
        raise NotKernelPointError(f"{_point(spec, r)!r} is not a kernel point")
    # Pull back by index and read the polar rows the geometry keeps.
    rank, polar = _polar([geom.rows[params._pull[i]] for i in indices], geom.form)
    if rank < 3:
        raise DegenerateSpanError("ciphertext points do not span a plane")
    if rank < len(rays):
        raise DependentBasisError("basis vectors are linearly dependent")
    if len(polar) != 1:
        raise NotUniqueError(f"polar has dimension {len(polar)}, expected a point")
    return _ray(tuple(polar[0]), spec)


def geo_encode(state: FieldVector, params: GeoParams) -> GeoCiphertext:
    """Three curve points on the shared lines, pushed through the unitary."""
    spec = params.geom.spec
    if state.spec != spec:
        raise FieldMismatchError("state and parameters over different fields")
    return GeoCiphertext(tuple(_point(spec, r) for r in _encode_ray(state.indices(), params)))


def geo_decode(ct: GeoCiphertext, params: GeoParams) -> ProjectivePoint:
    """Invert the unitary, span the plane, return its polar point."""
    spec = params.geom.spec
    for p in ct.points:
        if p.spec != spec:
            raise NotKernelPointError(f"{p!r} is not a kernel point")
    return _point(spec, _decode_rays([p.ray for p in ct.points], params))


# --- bit serialization and transport ------------------------------------------------

def _bits_per_coeff(p: int) -> int:
    return max(1, (p - 1).bit_length())


@lru_cache(maxsize=None)
def _element_bits(spec: FieldSpec) -> Tuple[Tuple[str, ...], Mapping[str, int]]:
    """Serialized bits of every element of ``spec`` (by index), and back.

    An element is its coefficients, low degree first, each in
    ``_bits_per_coeff(p)`` bits.
    """
    width = _bits_per_coeff(spec.p)
    words = tuple("".join(format(c, f"0{width}b") for c in cs) for cs in spec.coeffs)
    return words, MappingProxyType({w: n for n, w in enumerate(words)})


def _rays_to_bits(rays: Sequence[Ray], spec: FieldSpec) -> str:
    words = _element_bits(spec)[0]
    return "".join(words[x] for r in rays for x in r)


def _bits_to_rays(bits: str, spec: FieldSpec, dim: int) -> List[Ray]:
    """``deserialize_points`` on element indices: normalized rays."""
    if dim < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {dim}")
    width = _bits_per_coeff(spec.p)
    per_entry = spec.k * width
    per_point = dim * per_entry
    if not bits or len(bits) % per_point != 0 or not set(bits) <= {"0", "1"}:
        raise MalformedBitstreamError(
            f"bitstream length must be a positive multiple of {per_point}"
        )
    index = _element_bits(spec)[1]
    rays = []
    for start in range(0, len(bits), per_point):
        ray = []
        for pos in range(start, start + per_point, per_entry):
            word = bits[pos:pos + per_entry]
            if word not in index:
                c = next(c for c in (int(word[i:i + width], 2) for i in range(0, per_entry, width))
                         if c >= spec.p)
                raise MalformedBitstreamError(f"coefficient {c} out of range for p={spec.p}")
            ray.append(index[word])
        ray = _ray(tuple(ray), spec)
        if ray is None:
            raise MalformedBitstreamError("decoded point is the zero vector")
        rays.append(ray)
    return rays


def _field_of(points: Sequence[ProjectivePoint]) -> FieldSpec:
    """The one field every point lies over; the points share one dimension too."""
    if not points:
        raise MalformedBitstreamError("no points")
    spec, dim = points[0].spec, len(points[0].coords)
    if any(p.spec != spec for p in points):
        raise FieldMismatchError("points lie over different fields")
    if any(len(p.coords) != dim for p in points):
        raise DimensionMismatchError("points have different dimensions")
    return spec


def serialize_points(points: Sequence[ProjectivePoint]) -> str:
    """Fixed-width bits: coordinates in order, coefficients little-endian."""
    return _rays_to_bits([p.ray for p in points], _field_of(points))


def deserialize_points(bits: str, spec: FieldSpec, dim: int) -> List[ProjectivePoint]:
    """Inverse of serialize_points; validates widths and coefficient range."""
    return [_point(spec, r) for r in _bits_to_rays(bits, spec, dim)]


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def parse_bitstream(text: str, spec: FieldSpec, dim: int) -> str:
    """Ciphertext bits from text: the bits of three points, or their hex.

    Hex (as ``geocode encode`` prints it) may drop leading zeros.  A bit
    string is always longer than the hex of the same points, so text of
    exactly that many 0s and 1s is bits and anything shorter is hex.
    """
    if dim < 1:
        raise DimensionMismatchError(f"dimension must be >= 1, got {dim}")
    width = 3 * dim * spec.k * _bits_per_coeff(spec.p)
    if len(text) == width and set(text) <= {"0", "1"}:
        return text
    digits = (width + 3) // 4
    if not text or not set(text) <= _HEX_DIGITS or len(text) > digits or int(text, 16) >> width:
        raise MalformedBitstreamError(
            f"bitstream must be {width} bits or at most {digits} hex digits, got {text!r}"
        )
    return format(int(text, 16), f"0{width}b")


def bitstream_hex(bits: str) -> str:
    """The hex ``geocode encode`` prints: the bits as one number, zero-padded
    to a digit per 4 bits; ``parse_bitstream`` reads it back."""
    return f"{int(bits, 2):0{(len(bits) + 3) // 4}x}"


@lru_cache(maxsize=None)
def _sdc_codebook(spec: FieldSpec) -> Mapping[str, str]:
    """Super-dense code words of ``spec``, from ``gqt.bell``'s index-level
    ``_sdc_encode``/``_sdc_decode``, which ``sdc_encode``/``sdc_decode`` wrap.

    One Bell use carries ``sdc_bits`` bits, sent as the message that ends
    in them (characteristic 2: 0b).  Maps every such chunk to the chunk
    ``_sdc_decode`` reads back, as a read-only view since every caller
    shares it.
    """
    width = sdc_bits(spec)
    return MappingProxyType({m[-width:]: _sdc_decode(_sdc_encode(m, spec), spec)[-width:]
                             for m in sdc_messages(spec)})


def _transmit_bits(bits: str, spec: FieldSpec) -> str:
    """The bits read back after every chunk crossed the super-dense channel.

    A tail shorter than a chunk is padded with zero bits that are stripped
    on receipt.
    """
    codebook = _sdc_codebook(spec)
    width = sdc_bits(spec)
    padded = bits + "0" * (-len(bits) % width)
    return "".join(codebook[padded[i:i + width]]
                   for i in range(0, len(padded), width))[:len(bits)]


def geo_transmit(ct: GeoCiphertext) -> Tuple[str, List[ProjectivePoint]]:
    """Push every chunk of the points' bits through the super-dense channel
    of their field."""
    bits = ct.bitstream
    spec = ct.points[0].spec
    received_bits = _transmit_bits(bits, spec)
    return received_bits, deserialize_points(received_bits, spec, len(ct.points[0].coords))


def _coordinates(rng: random.Random, order: int) -> Iterator[int]:
    """``rng.randrange(order)``, over and over, from the same stream.

    Each attempt is one ``getrandbits(order.bit_length())`` and a value of
    ``order`` or more is drawn again, which is how ``random.Random`` draws
    ``randrange`` of a positive int (``_randbelow_with_getrandbits``).
    """
    getrandbits, width = rng.getrandbits, order.bit_length()
    while True:
        r = getrandbits(width)
        if r < order:
            yield r


def roundtrip_sweep(params: GeoParams, trials: int, seed: int) -> dict:
    """Seeded random non-self-orthogonal states through the full pipeline.

    Each distinct ray runs the index-level cores, encode to decode, once, and
    trials reuse its outcome.  It builds no objects: a witness's rays are written
    as coefficient lists by ``forms._rows_json``, as ``kernel enumerate`` writes points.
    Returns the sweep's keys of the ``geocode roundtrip`` report.
    """
    geom = params.geom
    spec = geom.spec
    coordinates = _coordinates(random.Random(seed), spec.order)
    dim = geom.form.dim
    successes = 0
    degenerate = 0
    skipped = 0
    witnesses: List[dict] = []
    # Scaling a state changes neither its meets nor its polar, so the outcome
    # is the ray's: the recovered ray, or the error class that stopped it.
    # Each distinct draw is normalized once (None for the zero tuple).
    keys: dict = {}
    outcomes: dict = {}
    done = 0
    while done < trials:
        ray = tuple(itertools.islice(coordinates, dim))
        if ray not in keys:
            keys[ray] = _ray(ray, spec)
        key = keys[ray]
        if key is None:
            continue
        if key not in outcomes:
            try:
                sent = _encode_ray(key, params)
            except (SelfOrthogonalStateError, DegenerateSpanError) as exc:
                outcomes[key] = type(exc)
            else:
                bits = _transmit_bits(_rays_to_bits(sent, spec), spec)
                outcomes[key] = _decode_rays(_bits_to_rays(bits, spec, dim), params)
        outcome = outcomes[key]
        if outcome is SelfOrthogonalStateError:
            skipped += 1
            continue
        done += 1
        if outcome is DegenerateSpanError:
            degenerate += 1
            witnesses.append({"state": _rows_json([ray], spec)[0], "failure": "DegenerateSpan"})
        elif outcome == key:
            successes += 1
        else:
            witnesses.append({
                "state": _rows_json([ray], spec)[0],
                "failure": "Mismatch",
                "recovered": _rows_json([outcome], spec)[0],
            })
    return {
        "trials": trials,
        "successes": successes,
        "degenerate_count": degenerate,
        "self_orthogonal_skipped": skipped,
        "witnesses": witnesses,
    }


# --- CLI reports -------------------------------------------------------------------

def _standard_params(spec: FieldSpec, seed: int) -> GeoParams:
    """``agree_parameters`` on the kernel of the standard form in dimension 4."""
    return agree_parameters(standard_kernel(spec, 4), seed)


def roundtrip_report(spec: FieldSpec, seed: int, trials: int) -> dict:
    """The ``gqt geocode roundtrip`` report: the sweep, its field and shared lines."""
    _guard(trials > _MAX_TRIALS, f"roundtrip guard: trials <= {_MAX_TRIALS}")
    params = _standard_params(spec, seed)
    return {**roundtrip_sweep(params, trials, seed), "field": spec.to_json(),
            "params": {"line_indices": list(params.line_indices), "seed": seed}}


def encode_report(spec: FieldSpec, seed: int, state: str) -> dict:
    """The ``gqt geocode encode`` report for ';'-separated coordinate text."""
    params = _standard_params(spec, seed)
    # each entry read as ``FieldVector`` reads it
    rays = _encode_ray(tuple(spec.parse(e).index for e in state.split(";")), params)
    bits = _rays_to_bits(rays, spec)
    received = _bits_to_rays(_transmit_bits(bits, spec), spec, params.geom.form.dim)
    return {
        "field": spec.to_json(),
        "ciphertext": _ciphertext_json(rays, bits, spec),
        "bitstream_hex": bitstream_hex(bits),
        "transmitted_ok": received == list(rays),
    }


def decode_report(spec: FieldSpec, seed: int, bitstream: str) -> dict:
    """The ``gqt geocode decode`` report for ciphertext bits or their hex."""
    params = _standard_params(spec, seed)
    dim = params.geom.form.dim
    rays = _bits_to_rays(parse_bitstream(bitstream, spec, dim), spec, dim)
    recovered = _decode_rays(rays, params)
    return {"field": spec.to_json(), "recovered_point": _rows_json([recovered], spec)[0]}
