import pytest

from gqt.errors import (
    MalformedBitstreamError,
    NotKernelPointError,
    SelfOrthogonalStateError,
)
from gqt import geocode
from gqt.field import build_field
from gqt.geocode import (
    GeoCiphertext,
    GeoParams,
    _sdc_codebook,
    agree_parameters,
    deserialize_points,
    geo_decode,
    geo_encode,
    geo_transmit,
    parse_bitstream,
    roundtrip_sweep,
    serialize_points,
)
from gqt.kernel import ProjectivePoint, hermitian_curve
from gqt.linalg import FieldVector, identity_matrix, is_unitary
from gqt.protocols import sdc_decode, sdc_encode, sdc_messages


@pytest.fixture(scope="module")
def params_q2(kernel_q2):
    return agree_parameters(kernel_q2, seed=2024)


@pytest.fixture(scope="module")
def params_q3(kernel_q3):
    return agree_parameters(kernel_q3, seed=2024)


def identity_params(params):
    ident = identity_matrix(params.geom.spec, params.geom.form.dim)
    return GeoParams(geom=params.geom, line_indices=params.line_indices,
                     eta=ident, eta_inverse=ident, seed=params.seed)


def test_agree_parameters_deterministic_and_disjoint(kernel_q2, params_q2):
    again = agree_parameters(kernel_q2, seed=2024)
    assert again.line_indices == params_q2.line_indices
    assert again.eta == params_q2.eta
    a, b, c = (kernel_q2.lines[i] for i in params_q2.line_indices)
    assert not (a & b) and not (a & c) and not (b & c)
    assert is_unitary(params_q2.eta, kernel_q2.form)
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
    received_bits, received = geo_transmit(ct, gf9)
    assert received_bits == ct.bitstream
    assert tuple(received) == ct.points
    assert geo_decode(ct, params_q3) == ProjectivePoint(state)


def test_serialize_roundtrip(kernel_q2, kernel_q3):
    for geom in (kernel_q2, kernel_q3):
        spec = geom.spec
        pts = geom.points[:5]
        bits = serialize_points(pts, spec)
        assert set(bits) <= {"0", "1"}
        assert deserialize_points(bits, spec, geom.form.dim) == list(pts)


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


def test_transmit_rejects_empty(gf4):
    with pytest.raises(MalformedBitstreamError):
        geo_transmit(GeoCiphertext(points=(), bitstream=""), gf4)


def test_decode_rejects_tampered_point(gf4, params_q2):
    state = FieldVector(gf4, [1, 0, 0, 0])
    ct = geo_encode(state, params_q2)
    bad = ProjectivePoint(FieldVector(gf4, [1, 0, 0, 0]))  # not on the surface
    tampered = GeoCiphertext(points=(bad, ct.points[1], ct.points[2]),
                             bitstream=ct.bitstream)
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
    spec = build_field(p, 2)
    words, readings = _sdc_codebook(spec)
    messages = sdc_messages(spec)
    assert sorted(words) == sorted(messages) == (["00", "01"] if p == 2 else
                                                 ["00", "01", "10", "11"])
    for message in messages:
        encoded = sdc_encode(message, spec)
        assert words[message] == encoded.indices()
        assert readings[words[message]] == sdc_decode(encoded, spec) == message
    assert _sdc_codebook(spec) is _sdc_codebook(spec)


def test_transmit_returns_the_points_of_the_roundtrip_golden_job(kernel_q2, monkeypatch):
    # tests/golden/geocode_roundtrip_q2.json: seed 0, 200 trials, 22 degenerate
    sent = []

    def recording_transmit(ct, spec):
        bits, points = geo_transmit(ct, spec)
        sent.append((ct, bits, points))
        return bits, points

    monkeypatch.setattr(geocode, "geo_transmit", recording_transmit)
    report = roundtrip_sweep(agree_parameters(kernel_q2, 0), 200, 0)
    assert (report.successes, report.degenerate) == (178, 22)
    assert len(sent) == 178
    for ct, bits, points in sent:
        assert bits == ct.bitstream
        assert tuple(points) == ct.points


def test_transmit_rejects_non_binary_bitstream(gf4, params_q2):
    ct = geo_encode(FieldVector(gf4, [1, 0, 0, 0]), params_q2)
    with pytest.raises(MalformedBitstreamError):
        geo_transmit(GeoCiphertext(points=ct.points, bitstream=ct.bitstream[:-1] + "2"), gf4)


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
