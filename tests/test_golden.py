"""Byte-level behaviour contract for the CLI jobs.

The files under ``tests/golden/`` were recorded from ``gqt`` before the
kernel, later the transport path, the no-go scan and then the geocode
trial moved onto integer indices: the q=2 outputs in full, the q=3 and
q=5 outputs as SHA-256 digests in ``q3.sha256`` and ``q5.sha256``.
Every job runs in-process with ``--deterministic --out`` and must
reproduce those bytes exactly.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gqt.cli import run

GOLDEN = Path(__file__).parent / "golden"

# The ``geocode decode`` input is the ``bitstream_hex`` of the ``geocode
# encode`` job, which uses the same seed.
ENCODE_ARGS = ["--seed", "5", "--state", "t;1;1;0"]
ENCODED_HEX = "babea7"

# Job name -> {q: argv without --p}; a job is recorded at the q values it lists.
JOBS = {
    "kernel_enumerate": {q: ["kernel", "enumerate"] for q in (2, 3)},
    "kernel_enumerate_csv": {q: ["kernel", "enumerate", "--csv"] for q in (2, 3)},
    "verify": {q: ["verify", "--samples", "5", "--seed", "0"] for q in (2, 3)},
    "geocode_roundtrip": {
        q: ["geocode", "roundtrip", "--seed", "0", "--trials", trials]
        for q, trials in ((2, "200"), (3, "100"))
    },
    # The transport-q2 benchmark job, and a q=5 sweep.
    "geocode_roundtrip_seed5": {2: ["geocode", "roundtrip", "--seed", "5", "--trials", "1000"]},
    "geocode_roundtrip_seed0": {5: ["geocode", "roundtrip", "--seed", "0", "--trials", "50"]},
    "geocode_encode": {2: ["geocode", "encode"] + ENCODE_ARGS},
    "geocode_decode": {2: ["geocode", "decode", "--seed", "5", "--bitstream", ENCODED_HEX]},
    **{
        f"sdc_{msg}": {q: ["sdc", "--message", msg] for q in qs}
        for msg, qs in (("00", (2, 3)), ("01", (2, 3)), ("10", (3,)), ("11", (3,)))
    },
    "noclone_scan": {q: ["noclone", "scan"] for q in (2, 3)},
    "nodelete_scan": {q: ["nodelete", "scan"] for q in (2, 3)},
    "noclone_scan_dim3": {2: ["noclone", "scan", "--dim", "3"]},
    "field_element": {2: ["field", "--element", "t+1"], 3: ["field", "--element", "1,2"]},
    # ``theory`` takes its prime as --pp, so it gets no --p (see NO_FIELD).
    "theory": {3: ["theory", "--i", "1", "--m", "4", "--pp", "3"]},
    "teleport": {3: ["teleport", "--alpha", "2*t+1", "--beta", "t", "--seed", "7"]},
    "teleport_char2": {2: ["teleport", "--char2", "--alpha", "t", "--beta", "t+1", "--seed", "7"]},
}
SUFFIX = {"kernel_enumerate_csv": ".csv"}
NO_FIELD = {"theory"}


def golden_name(job: str, q: int) -> str:
    return f"{job}_q{q}{SUFFIX.get(job, '.json')}"


def job_output(tmp_path, job: str, q: int) -> bytes:
    target = tmp_path / golden_name(job, q)
    field = [] if job in NO_FIELD else ["--p", str(q)]
    argv = JOBS[job][q] + field + ["--deterministic", "--out", str(target)]
    assert run(argv) == 0
    return target.read_bytes()


def _digests(q: int) -> dict:
    digests = {}
    for line in (GOLDEN / f"q{q}.sha256").read_text().splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests


@pytest.mark.parametrize("job", sorted(j for j in JOBS if 2 in JOBS[j]))
def test_golden_q2(tmp_path, job):
    expected = (GOLDEN / golden_name(job, 2)).read_bytes()
    assert job_output(tmp_path, job, 2) == expected


@pytest.mark.parametrize("job", sorted(j for j in JOBS if 3 in JOBS[j]))
def test_golden_q3(tmp_path, job):
    digest = hashlib.sha256(job_output(tmp_path, job, 3)).hexdigest()
    assert digest == _digests(3)[golden_name(job, 3)]


@pytest.mark.parametrize("job", sorted(j for j in JOBS if 5 in JOBS[j]))
def test_golden_q5(tmp_path, job):
    digest = hashlib.sha256(job_output(tmp_path, job, 5)).hexdigest()
    assert digest == _digests(5)[golden_name(job, 5)]


def test_decode_input_is_the_encode_output(tmp_path):
    encoded = json.loads(job_output(tmp_path, "geocode_encode", 2))
    assert encoded["bitstream_hex"] == ENCODED_HEX
