import argparse
import itertools
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gqt.geocode
import gqt.kernel
from gqt.cli import _dumps, build_parser, run
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
