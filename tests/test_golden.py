"""Byte-level behaviour contract for the CLI jobs.

The files under ``tests/golden/`` were recorded from ``gqt`` before the
kernel, and later the transport path, moved onto integer indices: the q=2
outputs in full, the q=3 outputs as SHA-256 digests in ``q3.sha256``.
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
    "geocode_encode": {2: ["geocode", "encode"] + ENCODE_ARGS},
    "geocode_decode": {2: ["geocode", "decode", "--seed", "5", "--bitstream", ENCODED_HEX]},
    **{
        f"sdc_{msg}": {q: ["sdc", "--message", msg] for q in qs}
        for msg, qs in (("00", (2, 3)), ("01", (2, 3)), ("10", (3,)), ("11", (3,)))
    },
}
SUFFIX = {"kernel_enumerate_csv": ".csv"}


def golden_name(job: str, q: int) -> str:
    return f"{job}_q{q}{SUFFIX.get(job, '.json')}"


def job_output(tmp_path, job: str, q: int) -> bytes:
    target = tmp_path / golden_name(job, q)
    argv = JOBS[job][q] + ["--p", str(q), "--deterministic", "--out", str(target)]
    assert run(argv) == 0
    return target.read_bytes()


def _q3_digests() -> dict:
    digests = {}
    for line in (GOLDEN / "q3.sha256").read_text().splitlines():
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
    assert digest == _q3_digests()[golden_name(job, 3)]


def test_decode_input_is_the_encode_output(tmp_path):
    encoded = json.loads(job_output(tmp_path, "geocode_encode", 2))
    assert encoded["bitstream_hex"] == ENCODED_HEX
