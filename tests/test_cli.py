import json

import pytest

from gqt.cli import run


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_field_command(capsys):
    code, report = run_json(capsys, [
        "field", "--p", "2", "--element", "t+1", "--deterministic"])
    assert code == 0
    assert report["order"] == 4 and report["q"] == 2
    assert report["analysis"]["conjugate"] == {"coeffs": [0, 1]}
    assert report["analysis"]["norm"] == {"coeffs": [1, 0]}
    assert "generated_at" not in report


def test_field_error_is_json_exit_1(capsys):
    code, report = run_json(capsys, ["field", "--p", "4", "--deterministic"])
    assert code == 1
    assert report["error"]["type"] == "NotPrime"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["field"])  # missing required --p
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_theory_command(capsys):
    code, report = run_json(capsys, [
        "theory", "--i", "1", "--m", "4", "--pp", "3", "--deterministic"])
    assert code == 0
    assert report["field"]["p"] == 3 and report["dimension"] == 4


def test_kernel_enumerate(capsys):
    code, report = run_json(capsys, [
        "kernel", "enumerate", "--p", "2", "--deterministic"])
    assert code == 0
    assert report["num_points"] == 45 and report["num_lines"] == 27


def test_kernel_guard(capsys):
    code, report = run_json(capsys, [
        "kernel", "enumerate", "--p", "7", "--deterministic"])
    assert code == 1
    assert report["error"]["type"] == "TooLarge"


def test_kernel_csv(capsys):
    code = run(["kernel", "enumerate", "--p", "2", "--csv", "--deterministic"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# p,2,k,2,dim,4")
    assert "point,0," in out and "line,0," in out


def test_out_flag(tmp_path):
    target = tmp_path / "kernel.json"
    code = run(["kernel", "enumerate", "--p", "2", "--deterministic",
                "--out", str(target)])
    assert code == 0
    data = json.loads(target.read_text())
    assert data["num_points"] == 45


def test_verify_command(capsys):
    code, report = run_json(capsys, [
        "verify", "--p", "2", "--seed", "0", "--samples", "3", "--deterministic"])
    assert code == 0
    assert report["one_or_all"]["passed"]
    assert report["double_counting_ok"]
    assert report["unitary_escapes"] == 0


def test_teleport_command(capsys):
    code, report = run_json(capsys, [
        "teleport", "--p", "3", "--alpha", "1", "--beta", "2",
        "--seed", "0", "--deterministic"])
    assert code == 0
    assert report["final_state"] == [[1, 0], [2, 0]]

    code, report = run_json(capsys, [
        "teleport", "--p", "2", "--alpha", "t", "--beta", "t+1",
        "--char2", "--seed", "0", "--deterministic"])
    assert code == 0
    assert report["final_state"] == [[0, 1], [1, 1]]


def test_teleport_char2_guard(capsys):
    code, report = run_json(capsys, [
        "teleport", "--p", "2", "--alpha", "1", "--beta", "0",
        "--seed", "0", "--deterministic"])
    assert code == 1
    assert report["error"]["type"] == "Char2NotSupported"


def test_sdc_command(capsys):
    code, report = run_json(capsys, [
        "sdc", "--p", "3", "--message", "11", "--deterministic"])
    assert code == 0
    assert report["classical_message"] == "11"

    code, report = run_json(capsys, [
        "sdc", "--p", "2", "--message", "10", "--deterministic"])
    assert code == 1
    assert report["error"]["type"] == "Char2MessageUnsupported"


def test_noclone_scan(capsys):
    code, report = run_json(capsys, [
        "noclone", "scan", "--p", "2", "--deterministic"])
    assert code == 0
    assert report["pairs"] == 256
    assert report["counts"] == {
        "ZeroState": 31, "SameRayChar2": 45, "Independent": 180}
    assert report["f2_special_case"]["holds_only_in_f2"]


def test_nodelete_scan(capsys):
    code, report = run_json(capsys, [
        "nodelete", "scan", "--p", "3", "--deterministic"])
    assert code == 0
    assert report["kind"] == "delete"
    assert report["pairs"] == 9 ** 4
    assert "f2_special_case" not in report


def test_geocode_roundtrip_command(capsys):
    code, report = run_json(capsys, [
        "geocode", "roundtrip", "--p", "2", "--seed", "5",
        "--trials", "20", "--deterministic"])
    assert code == 0
    assert report["successes"] + report["degenerate_count"] == 20


def test_geocode_encode_decode_roundtrip(capsys):
    code, enc = run_json(capsys, [
        "geocode", "encode", "--p", "2", "--seed", "5",
        "--state", "1;0;0;0", "--deterministic"])
    assert code == 0
    assert enc["transmitted_ok"]
    code, dec = run_json(capsys, [
        "geocode", "decode", "--p", "2", "--seed", "5",
        "--bitstream", enc["ciphertext"]["bitstream"], "--deterministic"])
    assert code == 0
    assert dec["recovered_point"] == [[1, 0], [0, 0], [0, 0], [0, 0]]


def test_deterministic_repeat_is_byte_identical(capsys):
    argv = ["verify", "--p", "2", "--seed", "3", "--samples", "2", "--deterministic"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("bitstream", ["zz", "babea70", "0x1f", "12_34"])
def test_geocode_decode_malformed_bitstream_is_json_exit_1(capsys, bitstream):
    # "babea70" is one hex digit longer than three GF(4) points
    code, report = run_json(capsys, [
        "geocode", "decode", "--p", "2", "--seed", "5",
        "--bitstream", bitstream, "--deterministic"])
    assert code == 1
    assert report["error"]["type"] == "MalformedBitstream"


@pytest.mark.parametrize("argv", [
    ["geocode", "roundtrip", "--p", "2", "--seed", "1", "--trials", "-5"],
    ["verify", "--p", "2", "--seed", "1", "--samples", "-1"],
])
def test_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--deterministic"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["field", "--p", "3"],
    ["verify", "--p", "2", "--seed", "0"],
    ["geocode", "roundtrip", "--p", "2", "--seed", "0"],
])
def test_csv_flag_only_on_kernel_enumerate(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--csv", "--deterministic"])
    assert exc.value.code == 2
