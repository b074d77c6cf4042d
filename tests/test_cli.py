import argparse
import contextlib
import io
import itertools
import json
import math
import re
import tracemalloc

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import gqt.field
import gqt.geocode
import gqt.kernel
from gqt.cli import _dumps, _field_from_args, build_parser, run
from gqt.errors import GQTError, TooLargeError
from golden_jobs import GOLDEN, JOBS


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


@pytest.mark.parametrize("argv", [["field", "--p", "2"], ["field", "--p", "4"]],
                         ids=["report", "error"])
@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv, target):
    # Both the report and the error object go to --out; neither may escape
    # as an OSError.
    path = str(tmp_path / target)
    assert run(argv + ["--deterministic", "--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and path in captured.err


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


@pytest.mark.parametrize("argv,error", [
    (["field", "--p", "3", "--element", "zz"], "Parse"),
    (["field", "--p", "3", "--element", "1,x"], "Parse"),
    (["field", "--p", "3", "--k", "1", "--element", "t"], "Parse"),
    (["field", "--p", "3", "--modulus", "1,x"], "Parse"),
    (["teleport", "--p", "3", "--alpha", "q", "--beta", "1", "--seed", "0"], "Parse"),
    (["theory", "--i", "0", "--m", "2", "--pp", "3"], "Parse"),
    (["noclone", "scan", "--p", "5", "--dim", "4"], "TooLarge"),
    (["field", "--p", "2", "--k", "13"], "TooLarge"),
    (["theory", "--i", "7", "--m", "1", "--pp", "2"], "TooLarge"),
    (["field", "--p", "10007"], "TooLarge"),
    (["field", "--p", "1", "--k", "1000000000"], "NotPrime"),
    # numbers beyond the interpreter's int-from-text digit limit
    (["field", "--p", "3", "--element", "1" * 5000], "Parse"),
    (["field", "--p", "3", "--element", "t^" + "1" * 5000], "Parse"),
    (["geocode", "encode", "--p", "2", "--seed", "5", "--state", "1" * 5000 + ";1;0;0"], "Parse"),
    # orders just above the table limit
    (["field", "--p", "2", "--k", "11"], "TooLarge"),
    (["field", "--p", "1031"], "TooLarge"),
    # a coefficient list longer than k, as t^k is
    (["field", "--p", "3", "--element", "0,0,1"], "Parse"),
    (["teleport", "--p", "3", "--alpha", "1,0,0", "--beta", "1", "--seed", "0"], "Parse"),
    # empty terms and integers other than ASCII [+-]?[0-9]+, in element and modulus text
    (["field", "--p", "2", "--element", ""], "Parse"),
    (["field", "--p", "3", "--element", "1++1"], "Parse"),
    (["field", "--p", "3", "--element", "\u0661"], "Parse"),
    (["field", "--p", "2", "--modulus", ""], "Parse"),
    (["field", "--p", "3", "--modulus", "1_0,0,1"], "Parse"),
    (["teleport", "--p", "3", "--alpha", "", "--beta", "1", "--seed", "0"], "Parse"),
    (["geocode", "encode", "--p", "2", "--seed", "5", "--state", "1;;0;0"], "Parse"),
    # an odd degree has no Hermitian form at any order; a large dim is still too large
    (["kernel", "enumerate", "--p", "5", "--k", "1"], "NoInvolution"),
    (["kernel", "enumerate", "--p", "7", "--k", "1"], "NoInvolution"),
    (["kernel", "enumerate", "--p", "2", "--k", "3"], "NoInvolution"),
    (["verify", "--p", "2", "--k", "3", "--seed", "0"], "NoInvolution"),
    (["geocode", "roundtrip", "--p", "2", "--k", "3", "--seed", "0"], "NoInvolution"),
    (["kernel", "enumerate", "--p", "2", "--k", "5", "--dim", "400"], "TooLarge"),
    # the characteristic is checked before the modulus is reduced mod p
    (["field", "--p", "0", "--modulus", "1,0,1"], "NotPrime"),
])
def test_domain_errors_are_json_exit_1(capsys, monkeypatch, argv, error):
    monkeypatch.delenv("GQT_GUARD_OVERRIDE", raising=False)
    code, report = run_json(capsys, argv + ["--deterministic"])
    assert code == 1
    assert report["error"]["type"] == error


@pytest.mark.parametrize("argv", [
    ["field", "--p", "2", "--element", "{}"],
    ["teleport", "--p", "3", "--seed", "7", "--beta", "t", "--alpha", "{}"],
    ["geocode", "encode", "--p", "2", "--seed", "5", "--state", "{};1;1;0"],
])
def test_every_element_argument_reads_polynomials_and_coefficient_lists(capsys, argv):
    outputs = []
    for text in ("t+1", "1,1"):
        assert run([a.format(text) for a in argv] + ["--deterministic"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["field", "--p", "3", "--element", "t^" + "9" * 4000],
    ["field", "--p", "3", "--modulus", "1" * 5000 + ",1"],
    ["field", "--p", "3", "--element", "1," + "1" * 5000],
    ["field", "--p", "3", "--element", "z" * 5000],
])
def test_parse_errors_quote_a_bounded_part_of_the_text(capsys, argv):
    code = run(argv + ["--deterministic"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["error"]["type"] == "Parse"
    assert len(out.encode()) < 200


@pytest.mark.parametrize("dim", ["0", "-1", "x"])
def test_scan_dim_below_one_is_usage_error(capsys, dim):
    with pytest.raises(SystemExit) as exc:
        run(["noclone", "scan", "--p", "3", "--dim", dim, "--deterministic"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["kernel", "enumerate"], ["verify", "--seed", "0"]])
@pytest.mark.parametrize("dim", ["0", "-1", "x"])
def test_enumeration_dim_below_one_is_usage_error(capsys, command, dim):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--p", "2", "--dim", dim, "--deterministic"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["kernel", "enumerate"], ["verify", "--seed", "0"]])
@pytest.mark.parametrize("args", [["--p", "2", "--dim", "400"], ["--p", "7"]])
def test_enumeration_guard_comes_before_the_form(capsys, monkeypatch, command, args):
    monkeypatch.delenv("GQT_GUARD_OVERRIDE", raising=False)

    def no_form(spec, dim):
        raise AssertionError("the form was built before the guard")

    monkeypatch.setattr(gqt.kernel, "standard_form", no_form)
    code, report = run_json(capsys, command + args + ["--deterministic"])
    assert code == 1
    assert report["error"]["type"] == "TooLarge"


@pytest.mark.parametrize("command", [["kernel", "enumerate"], ["verify", "--seed", "0"]])
def test_unsafe_size_flag_is_gone(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--p", "2", "--unsafe-size", "--deterministic"])
    assert exc.value.code == 2


def test_guard_override_variable_lifts_the_enumeration_guard(capsys, monkeypatch):
    argv = ["kernel", "enumerate", "--p", "2", "--dim", "5", "--deterministic"]
    monkeypatch.delenv("GQT_GUARD_OVERRIDE", raising=False)
    code, report = run_json(capsys, argv)
    assert (code, report["error"]["type"]) == (1, "TooLarge")
    assert "set GQT_GUARD_OVERRIDE=1" in report["error"]["message"]
    monkeypatch.setenv("GQT_GUARD_OVERRIDE", "1")
    code, report = run_json(capsys, argv)
    assert code == 0
    assert (report["num_points"], report["num_lines"]) == (165, 297)


@pytest.mark.parametrize("module,bound,argv", [
    (gqt.kernel, "_MAX_SAMPLES", ["verify", "--p", "2", "--seed", "0", "--samples"]),
    (gqt.geocode, "_MAX_TRIALS", ["geocode", "roundtrip", "--p", "2", "--seed", "0", "--trials"]),
])
def test_sample_and_trial_counts_are_bounded_before_the_kernel(capsys, monkeypatch, module,
                                                               bound, argv):
    monkeypatch.delenv("GQT_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(module, bound, 2)
    with monkeypatch.context() as m:
        def no_kernel(spec, dim):
            raise AssertionError("the kernel was built before the bound was checked")

        m.setattr(module, "standard_kernel", no_kernel)
        code, report = run_json(capsys, argv + ["3", "--deterministic"])
    assert (code, report["error"]["type"]) == (1, "TooLarge")
    assert "set GQT_GUARD_OVERRIDE=1" in report["error"]["message"]
    assert run_json(capsys, argv + ["2", "--deterministic"])[0] == 0
    monkeypatch.setenv("GQT_GUARD_OVERRIDE", "1")
    assert run_json(capsys, argv + ["3", "--deterministic"])[0] == 0


def test_the_count_bounds_sit_above_every_golden_job():
    counts = {"--samples": [], "--trials": []}
    for qs in JOBS.values():
        for argv in qs.values():
            for flag, values in counts.items():
                if flag in argv:
                    values.append(int(argv[argv.index(flag) + 1]))
    assert max(counts["--samples"]) == 20 < gqt.kernel._MAX_SAMPLES
    assert max(counts["--trials"]) == 2000 < gqt.geocode._MAX_TRIALS


# Malformed or out-of-range arguments across the subcommands.  An exception
# escaping ``run`` is what ``gqt`` prints as a traceback.
MALFORMED = [
    "field --p 3 --element zz", "field --p 3 --element 1,x", "field --p 3 --element t^",
    "field --p 3 --k 1 --element t", "field --p 3 --modulus 1,x", "field --p 3 --modulus 1,,1",
    "field --p 3 --modulus 1,1", "field --p 3 --modulus 2,0,1", "field --p 4", "field --p 1",
    "field --p 3 --k 0", "field --p 3 --k -1", "field --p x",
    "theory --i 0 --m 2 --pp 3", "theory --i 1 --m 0 --pp 3", "theory --i 1 --m 2 --pp 4",
    "teleport --p 3 --alpha q --beta 1 --seed 0", "teleport --p 3 --alpha 1 --beta zz --seed 0",
    "teleport --p 3 --alpha 0 --beta 0 --seed 0",
    "sdc --p 3 --message 2", "sdc --p 3 --message 0101",
    "kernel enumerate --p 2 --dim 0", "kernel enumerate --p 2 --k 3",
    "verify --p 2 --dim 0 --seed 0", "verify --p 3 --k 1 --seed 0",
    "geocode encode --p 2 --seed 5 --state q;1;1;0", "geocode encode --p 2 --seed 5 --state 1;0",
    "geocode encode --p 2 --seed 5 --state 0;0;0;0", "geocode roundtrip --p 3 --k 1 --seed 0",
    "geocode decode --p 2 --seed 5 --bitstream zz",
    "noclone scan --p 3 --dim -1", "nodelete scan --p 2 --dim 0", "noclone scan --p 5 --dim 4",
    "nodelete scan --p 3 --dim 1000000000",
    "field --p 2 --k 13", "field --p 2 --k 1000000", "field --p 10007",
    "field --p 0 --k 1000000000", "field --p 1 --k 1000000000", "theory --i 7 --m 1 --pp 2", "theory --i 1 --m 1 --pp 10007",
    "kernel enumerate --p 2 --k 14", "noclone scan --p 4099 --k 1",
] + [
    pytest.param(line.replace("<5000 ones>", "1" * 5000), id=line)
    for line in ["field --p 3 --element <5000 ones>", "field --p 3 --element t^<5000 ones>",
                 "geocode encode --p 2 --seed 5 --state <5000 ones>;1;0;0"]
]


@pytest.mark.parametrize("line", MALFORMED)
def test_malformed_arguments_never_escape(capsys, monkeypatch, line):
    monkeypatch.delenv("GQT_GUARD_OVERRIDE", raising=False)
    try:
        code = run(line.split(" ") + ["--deterministic"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 1:
        assert "type" in json.loads(out)["error"]
    assert "Traceback" not in err


# --- the failure contract, as a property -------------------------------------------
# Each argv is drawn from one leaf command's options as ``golden/cli_parser.json``
# pins them, so an option added there is drawn without editing this test.
# ``OPTION_VALUES`` gives each dest the values a job accepts and its edge
# values: ints at and just past each guard, and malformed text; a dest it does
# not name draws from ``ANY_VALUE``.  ``--out`` (its writes are tested above)
# and ``--help`` are not drawn.

LEAVES = {path: [a for a in actions if a["options"] and a["dest"] not in ("help", "out")]
          for path, actions in json.loads((GOLDEN / "cli_parser.json").read_text())
          ["parsers"].items()
          if path and not any("commands" in a for a in actions)}


def values(valid, edge):
    """The (valid, edge) strategies of a dest, each from a list or a strategy."""
    return tuple(v if isinstance(v, st.SearchStrategy) else st.sampled_from(v)
                 for v in (valid, edge))


ELEMENT = st.sampled_from(["0", "1", "t", "t+1", "2*t+1", "1,1"])
ODD_TEXT = st.text("t0123456789+-*^,x ", max_size=6)
# p^k <= 1024 bounds the field (p itself at 1024 and 1025, GF(2^10) at the
# bound and GF(2^11) past it); q <= 5 and dim <= 4 bound the kernel (p = 5 at
# the bound, 7 past it); the counts are bounded at 1000 samples and 100,000
# trials; theory's GF(pp^2i) is GF(2^10) at i = 5.
PRIMES = values(["2", "3"], ["5", "7", "4", "1", "0", "1024", "1025", "x"])
OPTION_VALUES = {
    "p": PRIMES,
    "pp": PRIMES,
    "k": values(["2"], ["1", "3", "4", "10", "11", "0", "x"]),
    "modulus": values(["1,1,1"], ["1,0,1", "2,0,1", "1,1", "2,2,1,1", "1,,1", "x"]),
    "dim": values(["1", "2", "3"], ["4", "5", "0", "1000000000", "x"]),
    "samples": values(["0", "3"], ["1001", "1000", "-1"]),
    "trials": values(["0", "20"], ["100001", "100000", "-1"]),
    "seed": values(st.integers(-2 ** 70, 2 ** 70).map(str), ["x", "", "1.5"]),
    "i": values(["1", "2"], ["5", "6", "0", "x"]),
    "m": values(["1", "4"], ["0", "-1", "x"]),
    "element": values(ELEMENT, ODD_TEXT),
    "alpha": values(ELEMENT, ODD_TEXT),
    "beta": values(ELEMENT, ODD_TEXT),
    "state": values(st.lists(ELEMENT, min_size=4, max_size=4).map(";".join),
                    st.lists(ELEMENT | ODD_TEXT, min_size=1, max_size=5).map(";".join)),
    "bitstream": values(["babea7", "0" * 24],
                        st.text("0123456789abcdefxz", max_size=8) | st.text("01", max_size=28)),
    "message": values(["00", "01", "10", "11"], st.text("012", max_size=4)),
}
ANY_VALUE = values(["0", "1", "2"], ["-1", "x", ""])


# Each leaf command with each of its options that takes a value as the odd one,
# and with none.
CASES = [(path, odd) for path, actions in sorted(LEAVES.items())
         for odd in [a["dest"] for a in actions if a["default"] is not False] + [None]]


@st.composite
def drawn_argv(draw, path, odd):
    """An argv of the leaf command ``path`` with valid values but for the option
    of dest ``odd``, which takes an edge value or, if it is required, may be left
    out.  Each flag and each other optional option is given half the time."""
    argv = path.split()
    for action in LEAVES[path]:
        option = action["options"][0]
        valid, edge = OPTION_VALUES.get(action["dest"], ANY_VALUE)
        if action["default"] is False:  # a store_true flag
            if draw(st.booleans()):
                argv.append(option)
        elif action["dest"] == odd:
            if not (action["required"] and draw(st.booleans())):
                argv += [option, draw(edge)]
        elif action["required"] or draw(st.booleans()):
            argv += [option, draw(valid)]
    return argv


def slow_if_accepted(argv) -> bool:
    """Whether a job may pass every guard and then run for 20 ms or more: a
    kernel at q >= 3, more than 100 samples or 5,000 trials, or a scan of more
    than 20,000 pairs.  (A field of 1,024 elements takes 0.2 s, but once.)"""
    n = {option: int(value) for option, value in zip(argv, argv[1:])
         if option.startswith("--") and re.fullmatch(r"-?[0-9]+", value)}
    p = n.get("--p", n.get("--pp"))
    k = 2 * n["--i"] if "--i" in n else n.get("--k", 2)
    if p is None or not 2 <= p <= 1024 or any(p % d == 0 for d in range(2, p)) or not 1 <= k <= 10:
        return False
    order = p ** k
    q = math.isqrt(order) if k % 2 == 0 else 0
    command = " ".join(itertools.takewhile(lambda word: not word.startswith("-"), argv))
    if command.endswith("scan"):
        dim = n.get("--dim", 2)
        return 1 <= dim <= 10 and 20_000 < order ** (2 * dim) <= 10 ** 6
    if command in ("verify", "kernel enumerate") or command.startswith("geocode"):
        samples, trials = n.get("--samples", 20), n.get("--trials", 100)
        if order > 1024 or not 1 <= q <= 5 or not 1 <= n.get("--dim", 4) <= 4 \
                or samples > 1000 or trials > 100_000:
            return False
        return q >= 3 or samples > 100 or trials > 5_000
    return False


def run_captured(argv):
    """Exit code, stdout and stderr of ``run(argv)``; any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# The heap a refused job's handler may take, with gqt's modules loaded (all of
# them are by now) and its arguments parsed.  A refusal takes 1-2 KB; the q=2
# kernel and shared parameters, built before a guard, take about 55 KB.
REFUSAL_HEAP_CAP = 32 * 1024


def handler_heap_peak(argv) -> int:
    """The tracemalloc peak of a refused job's handler, run again once its
    field is built.

    Each handler builds its job's field before its command's guards run, so
    a field of up to 1,024 elements (18 MB for GF(2^10)) can precede a
    refusal; ``test_a_refusal_after_the_field_is_built_costs_no_tables`` pins that.
    """
    args = build_parser().parse_args(argv)
    if hasattr(args, "p"):
        with contextlib.suppress(GQTError):
            _field_from_args(args)
    tracemalloc.start()
    try:
        args.handler(args)
    except TooLargeError:
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    raise AssertionError(f"{argv} was accepted when run again")


@pytest.mark.parametrize("path, odd", CASES, ids=[f"{path}-{odd or 'valid'}" for path, odd in CASES])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_drawn_argv_keeps_the_failure_contract(path, odd, data):
    argv = data.draw(drawn_argv(path, odd), label="argv")
    assume(not slow_if_accepted(argv))
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("GQT_GUARD_OVERRIDE", raising=False)
        code, out, err = run_captured(argv)
        event(f"exit {code}")
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
            if "--csv" in argv:
                assert out.startswith("# p,")
            else:
                assert isinstance(json.loads(out), dict)
        elif code == 1:
            report = json.loads(out)
            assert err == "" and list(report) == ["error"]
            assert list(report["error"]) == ["type", "message"]
            assert all(isinstance(v, str) for v in report["error"].values())
            event(f"error {report['error']['type']}")
            if report["error"]["type"] == "TooLarge":
                assert handler_heap_peak(argv) < REFUSAL_HEAP_CAP
        else:
            assert code == 2 and out == "" and err.startswith("usage: gqt ")


@pytest.mark.xfail(strict=True, reason="a job builds its field before its command's guards run")
def test_a_refusal_after_the_field_is_built_costs_no_tables(monkeypatch):
    # GF(2^10) passes the field's order bound and q = 32 fails the kernel's
    monkeypatch.delenv("GQT_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(gqt.field, "_fields", {})
    args = build_parser().parse_args(["kernel", "enumerate", "--p", "2", "--k", "10"])
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError):
            args.handler(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < REFUSAL_HEAP_CAP


# --- the parser, pinned ---------------------------------------------------------------
# One job per leaf command.  ``golden/cli_parser.json`` holds what every parser
# on a job's path (the root, the command and its subcommand) had after parsing
# it, recorded before the subcommand parsers began to add their arguments on
# first parse.  Read as data, not as ``--help`` text, it holds on every
# supported Python, although their help layouts differ.
PARSED_JOBS = [
    ["field", "--p", "2"],
    ["theory", "--i", "1", "--m", "2", "--pp", "3"],
    ["kernel", "enumerate", "--p", "2"],
    ["verify", "--p", "2", "--seed", "0"],
    ["teleport", "--p", "3", "--alpha", "1", "--beta", "t", "--seed", "0"],
    ["sdc", "--p", "2", "--message", "01"],
    ["noclone", "scan", "--p", "2"],
    ["nodelete", "scan", "--p", "2"],
    ["geocode", "roundtrip", "--p", "2", "--seed", "1"],
    ["geocode", "encode", "--p", "2", "--seed", "1", "--state", "1;0;0;0"],
    ["geocode", "decode", "--p", "2", "--seed", "1", "--bitstream", "00"],
]


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """The subcommand parsers of ``parser`` by name; empty for a leaf."""
    return next((a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)),
                {})


def _arguments(parser: argparse.ArgumentParser) -> list:
    """Each action of ``parser`` as data, with the names and help of its subcommands."""
    out = []
    for action in parser._actions:
        entry = {"options": action.option_strings, "dest": action.dest, "default": action.default,
                 "required": action.required, "help": action.help}
        if isinstance(action, argparse._SubParsersAction):
            entry["commands"] = [[c.dest, c.help] for c in action._choices_actions]
        out.append(entry)
    return out


def parser_record() -> dict:
    """Each parser's arguments, by command path, and each job's parsed namespace."""
    parsers, namespaces = {}, {}
    for argv in PARSED_JOBS:
        root = build_parser()
        args = vars(root.parse_args(argv))
        words = list(itertools.takewhile(lambda w: not w.startswith("-"), argv))
        node = root
        for depth in range(len(words) + 1):
            parsers[" ".join(words[:depth])] = _arguments(node)
            node = _subcommands(node).get(words[depth]) if depth < len(words) else None
        namespaces[" ".join(words)] = {k: getattr(v, "__name__", v) for k, v in args.items()}
    return {"parsers": parsers, "namespaces": namespaces}


def test_every_parser_holds_its_recorded_arguments():
    assert parser_record() == json.loads((GOLDEN / "cli_parser.json").read_text())


def test_a_job_fills_in_only_its_own_subcommands_parsers():
    root = build_parser()
    root.parse_args(["geocode", "encode", "--p", "2", "--seed", "1", "--state", "1;0;0;0"])
    filled, bare, todo = [], [], [("", root)]
    while todo:
        path, parser = todo.pop()
        for name, sub in _subcommands(parser).items():
            todo.append((f"{path} {name}".strip(), sub))
            if [a.dest for a in sub._actions] == ["help"]:
                bare.append(f"{path} {name}".strip())
            else:
                filled.append(f"{path} {name}".strip())
    assert sorted(filled) == ["geocode", "geocode encode"]
    assert sorted(bare) == ["field", "geocode decode", "geocode roundtrip", "kernel", "noclone",
                            "nodelete", "sdc", "teleport", "theory", "verify"]


# --- the report writer ------------------------------------------------------------

_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children) | st.tuples(children, children)
                      | st.lists(st.integers() | st.booleans())
                      | st.dictionaries(_KEYS, children)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_the_writer_is_json_dumps_with_indent_2(value):
    assert _dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    [True, 1, 0], [0, False, 2], [[1, 2], [True], []],
    {1: "int", 2.5: "float", True: "bool", None: "none", "s": "str"},
    {False: [], -3: {}, math.inf: 0, math.nan: 1},
    ["\u00e9\u4e2d\U0001f600", "\x00\x1f\n\t\"\\", {"\u00fc\x07": "\u2028"}],
    [math.nan, math.inf, -math.inf, -0.0, 1e300], {"x": math.nan},
    [], {}, [[]], [{}], {"a": [], "b": {}}, (), (1, 2), ((True, None), ("a",)),
    0, -7, 1.5, True, None, "text",
], ids=repr)
def test_the_writer_matches_json_dumps_case_by_case(value):
    assert _dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {(1, 2): 0}, {"a": {frozenset(): 1}}, [set()], {"a": object()}, [1, 2j], b"bytes",
], ids=lambda value: re.sub(r" at 0x[0-9a-f]+", "", repr(value)))  # ids stable across runs
def test_the_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as raised:
        _dumps(value)
    assert str(raised.value) == str(expected.value)
