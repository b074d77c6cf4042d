import itertools
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gqt.errors import (
    DegenerateSpanError,
    DependentBasisError,
    DimensionMismatchError,
    FieldMismatchError,
    GQTError,
    MalformedBitstreamError,
    NotKernelPointError,
    NotUnitaryError,
    SelfOrthogonalStateError,
)
from gqt import geocode
from gqt.bell import sdc_messages
from gqt.field import _ray, build_field
from gqt.geocode import (
    GeoCiphertext,
    GeoParams,
    _bits_to_rays,
    _coordinates,
    _decode_rays,
    _encode_ray,
    _rays_to_bits,
    _sdc_codebook,
    _transmit_bits,
    agree_parameters,
    bitstream_hex,
    deserialize_points,
    geo_decode,
    geo_encode,
    geo_transmit,
    parse_bitstream,
    roundtrip_sweep,
    serialize_points,
)
from gqt.linalg import (
    FieldMatrix,
    FieldVector,
    basis_vector,
    identity_matrix,
    is_unitary,
    nullspace,
    random_unitary,
)
from gqt.points import (
    ProjectivePoint,
    enumerate_projective_points,
    hermitian_curve,
    normalize_ray,
    unique_meet,
)
from gqt.protocols import sdc_decode, sdc_encode


@pytest.fixture(scope="module")
def params_q2(kernel_q2):
    return agree_parameters(kernel_q2, seed=2024)


@pytest.fixture(scope="module")
def params_q3(kernel_q3):
    return agree_parameters(kernel_q3, seed=2024)


def identity_params(params):
    ident = identity_matrix(params.geom.spec, params.geom.form.dim)
    return GeoParams(params.geom, params.line_indices, ident)


def test_agree_parameters_deterministic_and_disjoint(kernel_q2, params_q2):
    again = agree_parameters(kernel_q2, seed=2024)
    assert again.line_indices == params_q2.line_indices
    assert again.eta == params_q2.eta
    a, b, c = (kernel_q2.lines[i] for i in params_q2.line_indices)
    assert not (a & b) and not (a & c) and not (b & c)
    assert is_unitary(params_q2.eta, kernel_q2.form)
    # eta is built once, on first read, from the rows the parameters keep
    assert params_q2.eta is params_q2.eta and params_q2.eta.indices() == params_q2.eta_rows
    assert agree_parameters(kernel_q2, seed=99).line_indices != params_q2.line_indices


def test_encode_decode_identity_eta(gf4, params_q2):
    params = identity_params(params_q2)
    state = FieldVector(gf4, [1, 0, 0, 0])
    ct = geo_encode(state, params)
    # with the identity unitary, the three points sit on the agreed lines
    # and on the curve of the state
    curve = set(hermitian_curve(ProjectivePoint(state), params.geom))
    for p, li in zip(ct.points, params.line_indices):
        assert p in curve
        assert params.geom.index_of(p) in params.geom.lines[li]
    assert geo_decode(ct, params) == ProjectivePoint(state)


def test_encode_rejects_self_orthogonal(gf4, params_q2):
    with pytest.raises(SelfOrthogonalStateError):
        geo_encode(FieldVector(gf4, [1, 1, 0, 0]), params_q2)


def test_roundtrip_single_state(gf9, params_q3):
    state = FieldVector(gf9, [1, 1, 0, 0])
    assert not params_q3.geom.form.evaluate(state, state).is_zero()
    ct = geo_encode(state, params_q3)
    received_bits, received = geo_transmit(ct)
    assert received_bits == ct.bitstream
    assert tuple(received) == ct.points
    assert geo_decode(ct, params_q3) == ProjectivePoint(state)


def test_serialize_roundtrip(kernel_q2, kernel_q3):
    for geom in (kernel_q2, kernel_q3):
        spec = geom.spec
        pts = geom.points[:5]
        bits = serialize_points(pts)
        assert set(bits) <= {"0", "1"}
        assert deserialize_points(bits, spec, geom.form.dim) == list(pts)


@given(data=st.data())
def test_deserialize_inverts_serialize(kernel_q2, kernel_q3, data):
    geom = data.draw(st.sampled_from([kernel_q2, kernel_q3]))
    picks = data.draw(st.lists(st.integers(0, len(geom.points) - 1), min_size=1, max_size=6))
    pts = [geom.points[i] for i in picks]
    assert deserialize_points(serialize_points(pts), geom.spec, geom.form.dim) == pts


def test_deserialize_malformed(gf4, gf9):
    with pytest.raises(MalformedBitstreamError):
        deserialize_points("", gf4, 4)
    with pytest.raises(MalformedBitstreamError):
        deserialize_points("0101", gf4, 4)  # wrong width for dim 4, k 2
    with pytest.raises(MalformedBitstreamError):
        deserialize_points("0" * 8, gf4, 4)  # zero vector
    # GF(9) coefficients use 2 bits but must stay below 3
    with pytest.raises(MalformedBitstreamError):
        deserialize_points("11" * 8, gf9, 4)
    for dim in (0, -1):
        with pytest.raises(DimensionMismatchError):
            deserialize_points("0101", gf4, dim)


def test_bits_to_rays_normalizes_every_vector_of_gf4_4(gf4):
    """``_bits_to_rays`` on the bits of every nonzero vector of GF(4)^4 as it
    stands, against a normalization that does not call ``field._ray``: the one
    multiple lambda * v, over every nonzero lambda, whose first nonzero entry is 1."""
    vectors = [v for v in itertools.product(range(gf4.order), repeat=4) if any(v)]
    rays = _bits_to_rays(_rays_to_bits(vectors, gf4), gf4, 4)
    assert len(rays) == len(vectors) == 255
    for v, ray in zip(vectors, rays):
        multiples = [tuple(gf4.mul[lam][x] for x in v) for lam in range(1, gf4.order)]
        assert [ray] == [w for w in multiples if next(x for x in w if x) == 1]


def test_transmit_rejects_empty():
    with pytest.raises(MalformedBitstreamError):
        geo_transmit(GeoCiphertext(()))
    with pytest.raises(GQTError):
        serialize_points([])


def test_points_over_mixed_fields_are_refused(kernel_q2, kernel_q3, params_q3):
    # the field comes from the points, so mixing two is refused
    mixed = [kernel_q2.points[0], kernel_q3.points[0]]
    for pts in (mixed, mixed[::-1]):
        with pytest.raises(FieldMismatchError):
            serialize_points(pts)
    ct = geo_encode(FieldVector(kernel_q3.spec, [1, 1, 0, 0]), params_q3)
    with pytest.raises(FieldMismatchError):
        geo_transmit(GeoCiphertext((kernel_q2.points[0],) + ct.points[1:]))


def test_points_of_mixed_dimensions_are_refused(gf4):
    # the bits were re-split by the first point's dimension: (1,0) and
    # (1,1,1,0) came back from the channel as three points of dimension 2
    mixed = (ProjectivePoint(FieldVector(gf4, [1, 0])),
             ProjectivePoint(FieldVector(gf4, [1, 1, 1, 0])))
    for pts in (mixed, mixed[::-1]):
        with pytest.raises(DimensionMismatchError):
            serialize_points(pts)
        with pytest.raises(DimensionMismatchError):
            geo_transmit(GeoCiphertext(pts))


def test_decode_of_an_empty_ciphertext_is_a_domain_error(params_q2):
    # no points span no plane: rank 0, not an IndexError from the reduction
    with pytest.raises(DegenerateSpanError):
        geo_decode(GeoCiphertext(()), params_q2)


def test_decode_of_four_points_of_rank_three_is_a_dependent_basis(gf4, params_q2):
    # the points span a plane, but a repeated point is not a basis of it
    ct = geo_encode(FieldVector(gf4, [1, 0, 0, 0]), params_q2)
    with pytest.raises(DependentBasisError):
        geo_decode(GeoCiphertext(ct.points + ct.points[:1]), params_q2)


def test_decode_rejects_tampered_point(gf4, params_q2):
    state = FieldVector(gf4, [1, 0, 0, 0])
    ct = geo_encode(state, params_q2)
    bad = ProjectivePoint(FieldVector(gf4, [1, 0, 0, 0]))  # not on the surface
    tampered = GeoCiphertext((bad, ct.points[1], ct.points[2]))
    with pytest.raises(NotKernelPointError):
        geo_decode(tampered, params_q2)


def test_sweep_q2(params_q2):
    report = roundtrip_sweep(params_q2, trials=100, seed=1)
    assert report.trials == 100
    assert report.successes + report.degenerate == 100
    assert all(w["failure"] == "DegenerateSpan" for w in report.witnesses)
    assert len(report.witnesses) == report.degenerate
    assert report.successes > 0


def test_sweep_q3(params_q3):
    report = roundtrip_sweep(params_q3, trials=50, seed=1)
    assert report.successes + report.degenerate == 50
    assert all(w["failure"] == "DegenerateSpan" for w in report.witnesses)
    assert report.successes > 0


def test_sweep_deterministic(params_q2):
    a = roundtrip_sweep(params_q2, trials=20, seed=9)
    b = roundtrip_sweep(params_q2, trials=20, seed=9)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_codebook_matches_sdc_protocol(p):
    # one Bell use carries the last bit of 00/01 in characteristic 2, else two bits
    spec = build_field(p, 2)
    codebook = _sdc_codebook(spec)
    messages = sdc_messages(spec)
    width = 1 if p == 2 else 2
    assert sorted(messages) == (["00", "01"] if p == 2 else ["00", "01", "10", "11"])
    assert sorted(codebook) == sorted(m[-width:] for m in messages)
    for message in messages:
        read = sdc_decode(sdc_encode(message, spec))
        assert codebook[message[-width:]] == read[-width:] == message[-width:]
    assert _sdc_codebook(spec) is _sdc_codebook(spec)


def test_sweep_transmits_the_points_of_the_roundtrip_golden_job(gf4, kernel_q2, monkeypatch):
    # tests/golden/geocode_roundtrip_q2.json: seed 0, 200 trials, 22 degenerate
    encoded, sent = [], []

    def recording_encode(state, params):
        rays = _encode_ray(state, params)
        encoded.append(rays)
        return rays

    def recording_transmit(bits, spec):
        received = _transmit_bits(bits, spec)
        sent.append((bits, received))
        return received

    params = agree_parameters(kernel_q2, 0)
    monkeypatch.setattr(geocode, "_encode_ray", recording_encode)
    monkeypatch.setattr(geocode, "_transmit_bits", recording_transmit)
    report = roundtrip_sweep(params, 200, 0)
    assert (report.successes, report.degenerate) == (178, 22)
    # one transmission per distinct ray that encodes, however often it is drawn
    assert len(encoded) == len(sent) == len(encoding_rays(params, drawn_rays(params, report, 0)))
    for rays, (bits, received) in zip(encoded, sent):
        assert received == bits
        assert _bits_to_rays(received, gf4, 4) == list(rays)


# --- the sweep against the loop that ran every trial ---------------------------------


def reference_sweep(params, trials, seed):
    """``roundtrip_sweep`` as it ran before it kept one outcome per ray:
    every trial through the index-level cores, looked up on ``geocode``."""
    geom = params.geom
    spec = geom.spec
    rng = random.Random(seed)
    dim = geom.form.dim
    successes = degenerate = skipped = done = 0
    witnesses = []
    while done < trials:
        ray = tuple(rng.randrange(spec.order) for _ in range(dim))
        if not any(ray):
            continue
        try:
            sent = geocode._encode_ray(ray, params)
        except SelfOrthogonalStateError:
            skipped += 1
            continue
        except DegenerateSpanError:
            done += 1
            degenerate += 1
            witnesses.append({"state": FieldVector.from_indices(spec, ray).to_json(),
                              "failure": "DegenerateSpan"})
            continue
        done += 1
        bits = geocode._transmit_bits(geocode._rays_to_bits(sent, spec), spec)
        recovered = geocode._decode_rays(geocode._bits_to_rays(bits, spec, dim), params)
        if recovered == _ray(ray, spec):
            successes += 1
        else:
            witnesses.append({
                "state": FieldVector.from_indices(spec, ray).to_json(),
                "failure": "Mismatch",
                "recovered": geocode._point(spec, recovered).to_json(),
            })
    return geocode.RoundTripReport(trials, successes, degenerate, skipped, witnesses)


def drawn_rays(params, report, seed):
    """The normalized non-zero rays the sweep drew: one per trial or skipped state."""
    spec = params.geom.spec
    rng = random.Random(seed)
    rays = []
    while len(rays) < report.trials + report.self_orthogonal_skipped:
        ray = tuple(rng.randrange(spec.order) for _ in range(params.geom.form.dim))
        if any(ray):
            rays.append(_ray(ray, spec))
    return rays


def encoding_rays(params, rays):
    """The distinct rays among ``rays`` that ``_encode_ray`` takes."""
    out = set()
    for ray in set(rays):
        try:
            _encode_ray(ray, params)
        except (SelfOrthogonalStateError, DegenerateSpanError):
            continue
        out.add(ray)
    return out


SWEEPS = [(2, seed, seed, trials) for seed in (0, 1, 5) for trials in (200, 1000)] + [
    (3, 5, 5, 2000),
    # parameters agreed under another seed than the sweep's
    (2, 2024, 7, 500),
    (3, 11, 3, 500),
]


@pytest.mark.parametrize("p, params_seed, seed, trials", SWEEPS)
def test_sweep_matches_the_per_trial_reference(p, params_seed, seed, trials, kernel_q2, kernel_q3):
    params = agree_parameters(kernel_q2 if p == 2 else kernel_q3, params_seed)
    assert roundtrip_sweep(params, trials, seed).to_json() == \
        reference_sweep(params, trials, seed).to_json()


@pytest.mark.parametrize("p, seed, trials", [(2, 5, 1000), (3, 5, 2000)])
def test_sweep_runs_each_ray_once(p, seed, trials, kernel_q2, kernel_q3, monkeypatch):
    params = agree_parameters(kernel_q2 if p == 2 else kernel_q3, seed)
    spec = params.geom.spec
    encoded, decoded = [], []

    def recording_encode(state, params):
        encoded.append(_ray(state, spec))
        return _encode_ray(state, params)

    def recording_decode(rays, params):
        recovered = _decode_rays(rays, params)
        decoded.append(recovered)
        return recovered

    monkeypatch.setattr(geocode, "_encode_ray", recording_encode)
    monkeypatch.setattr(geocode, "_decode_rays", recording_decode)
    report = roundtrip_sweep(params, trials, seed)
    rays = drawn_rays(params, report, seed)
    assert len(rays) > 2 * len(set(rays))
    assert sorted(encoded) == sorted(set(rays))
    assert sorted(decoded) == sorted(encoding_rays(params, rays))


@pytest.mark.parametrize("p, seed, trials", [(2, 5, 1000), (2, 0, 200), (3, 5, 2000)])
def test_the_sweep_normalizes_each_distinct_draw_once(p, seed, trials, kernel_q2, kernel_q3,
                                                      monkeypatch):
    # ``_ray`` as the sweep itself calls it, not as its encode and decode cores do
    params = agree_parameters(kernel_q2 if p == 2 else kernel_q3, seed)
    spec = params.geom.spec
    normalized = []

    def recording_ray(v, spec):
        if sys._getframe(1).f_code is roundtrip_sweep.__code__:
            normalized.append(v)
        return _ray(v, spec)

    monkeypatch.setattr(geocode, "_ray", recording_ray)
    report = roundtrip_sweep(params, trials, seed)
    # every draw, the zero tuple included, until the last trial's state
    rng, draws, states = random.Random(seed), [], 0
    while states < report.trials + report.self_orthogonal_skipped:
        draws.append(tuple(rng.randrange(spec.order) for _ in range(params.geom.form.dim)))
        states += any(draws[-1])
    assert sorted(normalized) == sorted(set(draws))
    assert len(set(draws)) < len(draws)


def test_a_mismatch_is_witnessed_by_each_trial_that_draws_the_ray(gf4, kernel_q2, monkeypatch):
    # a decoder that returns a kernel point recovers no state: every trial is
    # a witness with the multiple of its ray that it drew
    params = agree_parameters(kernel_q2, 5)
    wrong = params.geom.rays[0]
    monkeypatch.setattr(geocode, "_decode_rays", lambda rays, params: wrong)
    report = roundtrip_sweep(params, 300, 5)
    assert report.to_json() == reference_sweep(params, 300, 5).to_json()
    states = [FieldVector(gf4, w["state"]).indices() for w in report.witnesses
              if w["failure"] == "Mismatch"]
    assert report.successes == 0 and len(states) + report.degenerate == 300
    assert len(set(states)) > len({_ray(s, gf4) for s in states})


@pytest.mark.parametrize("decoder", ["real", "wrong"])
def test_the_sweep_builds_no_objects(gf4, kernel_q2, monkeypatch, decoder):
    # GF(4) seed 0 draws degenerate witnesses; a decoder that returns a kernel
    # point makes every other trial a Mismatch witness with a recovered ray
    params = agree_parameters(kernel_q2, 0)
    if decoder == "wrong":
        wrong = params.geom.rays[0]
        monkeypatch.setattr(geocode, "_decode_rays", lambda rays, params: wrong)
    expected = roundtrip_sweep(params, 200, 0).to_json()
    assert expected["witnesses"]

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built an object")

    for cls, name in [(FieldVector, "__init__"), (FieldVector, "from_indices"),
                      (FieldMatrix, "__init__"), (FieldMatrix, "from_indices"),
                      (ProjectivePoint, "__init__")]:
        monkeypatch.setattr(cls, name, refuse)
    # the parameters and the codebook are built inside the patched region too
    _sdc_codebook.cache_clear()
    assert roundtrip_sweep(agree_parameters(kernel_q2, 0), 200, 0).to_json() == expected


@pytest.mark.parametrize("order", [4, 9, 25])
def test_the_sweep_draws_each_coordinate_as_randrange(order):
    # the same stream as randrange, so every sweep and its witnesses are unchanged
    for seed in range(50):
        rng = random.Random(seed)
        drawn = list(itertools.islice(_coordinates(random.Random(seed), order), 200))
        assert drawn == [rng.randrange(order) for _ in range(200)]


def test_parse_bitstream(gf4, gf9):
    bits = format(0xBABEA7, "024b")
    assert parse_bitstream(bits, gf4, 4) == bits
    assert parse_bitstream("babea7", gf4, 4) == bits
    assert parse_bitstream("a7", gf4, 4) == format(0xA7, "024b")
    # hex whose digits are all 0 or 1 is still hex
    assert parse_bitstream("100000", gf4, 4) == format(0x100000, "024b")
    assert len(parse_bitstream("2" * 12, gf9, 4)) == 48
    for bad in ["", "zz", "babea70", "0x1f", " 1f", "-1f", "0" * 8, "1" * 25]:
        with pytest.raises(MalformedBitstreamError):
            parse_bitstream(bad, gf4, 4)
    for dim in (0, -1):
        with pytest.raises(DimensionMismatchError):
            parse_bitstream("", gf4, dim)


@given(data=st.data())
def test_parse_bitstream_reads_back_the_hex_of_three_points(gf4, gf9, data):
    spec = data.draw(st.sampled_from([gf4, gf9]))
    width = 3 * 4 * spec.k * (1 if spec.p == 2 else 2)
    bits = data.draw(st.text(alphabet="01", min_size=width, max_size=width))
    text = bitstream_hex(bits)  # as ``geocode encode`` prints it
    assert len(text) == (width + 3) // 4
    assert parse_bitstream(text, spec, 4) == bits
    assert parse_bitstream(text.lstrip("0") or "0", spec, 4) == bits
    assert parse_bitstream(bits, spec, 4) == bits


_BITSTREAM_TEXT = st.one_of(st.text(max_size=60), st.text(alphabet="01", max_size=100),
                            st.text(alphabet="0123456789abcdefABCDEF", max_size=14))


@given(text=_BITSTREAM_TEXT, dim=st.integers(-2, 5))
def test_bitstream_text_raises_only_domain_errors(gf4, gf9, text, dim):
    for spec in (gf4, gf9):
        for read in (deserialize_points, parse_bitstream):
            try:
                read(text, spec, dim)
            except GQTError:
                pass


@st.composite
def _ciphertexts(draw, geoms):
    """0-5 points over GF(2), GF(4) or GF(9) of dimension 1-5, kernel points or not."""
    points = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            points.append(draw(st.sampled_from(draw(st.sampled_from(geoms)).points)))
            continue
        spec = build_field(*draw(st.sampled_from([(2, 1), (2, 2), (3, 2)])))
        dim = draw(st.integers(1, 5))
        ray = draw(st.lists(st.integers(0, spec.order - 1), min_size=dim, max_size=dim)
                   .filter(any))
        points.append(ProjectivePoint(FieldVector.from_indices(spec, ray)))
    return GeoCiphertext(tuple(points))


@given(data=st.data())
def test_ciphertext_objects_raise_only_domain_errors(params_q2, params_q3, data):
    ct = data.draw(_ciphertexts([params_q2.geom, params_q3.geom]))
    for params in (params_q2, params_q3):
        try:
            geo_decode(ct, params)
        except GQTError:
            pass
    try:
        geo_transmit(ct)
    except GQTError:
        pass


# --- the index-level trial against an object-level reference ---------------------


def reference_trial(state, params, channel):
    """One roundtrip trial on objects, from ``HermitianForm.evaluate`` alone.

    Returns "DegenerateSpan", or the transported points, their bits, the
    received bits and points, and the recovered point.  ``channel`` maps
    each super-dense message to the message read back.
    """
    geom, form, spec = params.geom, params.geom.form, params.geom.spec
    meets = []
    for li in params.line_indices:
        on_curve = [geom.points[i].coords for i in sorted(geom.lines[li])
                    if form.evaluate(state, geom.points[i].coords).is_zero()]
        assert len(on_curve) == 1
        meets.append(on_curve[0])
    if FieldMatrix(spec, [list(m) for m in meets]).rank() < 3:
        return "DegenerateSpan"
    sent = [ProjectivePoint(params.eta @ m) for m in meets]
    width = max(1, (spec.p - 1).bit_length())
    bits = "".join(format(c, f"0{width}b") for p in sent for e in p.coords for c in e.coeffs)
    per_use = 1 if spec.p == 2 else 2
    padded = bits + "0" * (-len(bits) % per_use)
    received_bits = "".join(channel[padded[i:i + per_use].rjust(2, "0")][-per_use:]
                            for i in range(0, len(padded), per_use))[:len(bits)]
    per_entry = spec.k * width
    entries = [spec.element([int(received_bits[j:j + width], 2)
                             for j in range(i, i + per_entry, width)])
               for i in range(0, len(received_bits), per_entry)]
    received = [ProjectivePoint(FieldVector(spec, entries[i:i + form.dim]))
                for i in range(0, len(entries), form.dim)]
    eta_inverse = params.eta.inverse()
    pulled = [eta_inverse @ p.coords for p in received]
    units = [basis_vector(spec, form.dim, j) for j in range(form.dim)]
    functionals = FieldMatrix(spec, [[form.evaluate(v, e) for e in units] for v in pulled])
    assert functionals.rank() == 3
    (polar,) = nullspace(functionals)
    return sent, bits, received_bits, received, ProjectivePoint(polar)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", [0, 5])
def test_index_trial_matches_object_reference(p, seed, kernel_q2, kernel_q3):
    geom = kernel_q2 if p == 2 else kernel_q3
    spec, form = geom.spec, geom.form
    params = agree_parameters(geom, seed)
    channel = {m: sdc_decode(sdc_encode(m, spec)) for m in sdc_messages(spec)}
    states = [v for v in enumerate_projective_points(spec, form.dim)
              if not form.evaluate(v, v).is_zero()]
    assert len(states) == {2: 40, 3: 540}[p]
    degenerate = 0
    for state in states:
        expected = reference_trial(state, params, channel)
        if expected == "DegenerateSpan":
            degenerate += 1
            with pytest.raises(DegenerateSpanError):
                _encode_ray(state.indices(), params)
            continue
        sent, bits, received_bits, received, recovered = expected
        rays = _encode_ray(state.indices(), params)
        assert list(rays) == [pt.ray for pt in sent]
        assert _rays_to_bits(rays, spec) == bits
        assert _transmit_bits(bits, spec) == received_bits == bits
        received_rays = _bits_to_rays(received_bits, spec, form.dim)
        assert received_rays == [pt.ray for pt in received]
        assert _decode_rays(received_rays, params) == recovered.ray == state.indices()
    assert 0 < degenerate < len(states)


def test_hand_made_non_unitary_eta_is_refused(gf4, params_q2):
    # the shear sends kernel points off the surface; with it geo_encode
    # emitted non-kernel points and a sweep aborted with NotKernelPoint
    shear = FieldMatrix(gf4, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not is_unitary(shear, params_q2.geom.form)
    zero = FieldMatrix(gf4, [[0] * 4] * 4)
    for eta in (shear, zero):
        with pytest.raises(NotUnitaryError):
            GeoParams(params_q2.geom, params_q2.line_indices, eta)


def test_eta_over_another_field_or_shape_is_refused(gf4, gf9, params_q2, kernel_q3):
    # both reached the table lookups: an IndexError, or a 4 x 5 eta read truncated
    u9 = random_unitary(kernel_q3.form, 3)
    u4 = random_unitary(params_q2.geom.form, 3)
    wide = FieldMatrix.from_indices(gf4, [row + (0,) for row in u4.indices()])
    tall = FieldMatrix.from_indices(gf4, u4.indices() + ((0, 0, 0, 0),))
    for eta, error in [(u9, FieldMismatchError), (wide, DimensionMismatchError),
                       (tall, DimensionMismatchError)]:
        with pytest.raises(error):
            GeoParams(params_q2.geom, params_q2.line_indices, eta)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_eta_permutes_the_kernel_points(p, seed, kernel_q2, kernel_q3):
    geom = kernel_q2 if p == 2 else kernel_q3
    params = agree_parameters(geom, seed)
    push, pull = params._push, params._pull
    eta_inverse = params.eta.inverse()
    n = len(geom.points)
    assert sorted(push) == list(range(n))
    for i, point in enumerate(geom.points):
        assert geom.points[push[i]].coords == normalize_ray(params.eta @ point.coords)
        assert geom.points[pull[i]].coords == normalize_ray(eta_inverse @ point.coords)
    # U(V, phi) preserves the polar space: lines go onto lines
    assert {frozenset(push[i] for i in line) for line in geom.lines} == set(geom.lines)
    assert all(pull[push[i]] == i and push[pull[i]] == i for i in range(n))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", [0, 5])
def test_encode_matches_the_object_route(p, seed, kernel_q2, kernel_q3):
    # independent route: the curve of the state, its unique meet with each
    # shared line, then eta @ the point
    geom = kernel_q2 if p == 2 else kernel_q3
    spec, form = geom.spec, geom.form
    params = agree_parameters(geom, seed)
    states = [v for v in enumerate_projective_points(spec, form.dim)
              if not form.evaluate(v, v).is_zero()]
    if p == 3:
        states = random.Random(seed).sample(states, 80)
    degenerate = 0
    for state in states:
        curve = hermitian_curve(ProjectivePoint(state), geom)
        meets = [unique_meet(geom.lines[li], curve, geom) for li in params.line_indices]
        if FieldMatrix(spec, [list(m.coords) for m in meets]).rank() < 3:
            degenerate += 1
            with pytest.raises(DegenerateSpanError):
                _encode_ray(state.indices(), params)
            continue
        expected = tuple(ProjectivePoint(params.eta @ m.coords).ray for m in meets)
        assert _encode_ray(state.indices(), params) == expected
    assert 0 < degenerate < len(states)
