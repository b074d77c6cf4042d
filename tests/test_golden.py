"""Byte-level behaviour contract for the kernel CLI jobs.

The files under ``tests/golden/`` were recorded from ``gqt`` before the
kernel moved onto integer indices: the q=2 outputs in full, the q=3
outputs (about 60 kB of JSON) as SHA-256 digests in ``q3.sha256``.
Every job runs in-process with ``--deterministic --out`` and must
reproduce those bytes exactly.
"""

import hashlib
from pathlib import Path

import pytest

from gqt.cli import run

GOLDEN = Path(__file__).parent / "golden"

JOBS = {
    "kernel_enumerate": ["kernel", "enumerate"],
    "kernel_enumerate_csv": ["kernel", "enumerate", "--csv"],
    "verify": ["verify", "--samples", "5", "--seed", "0"],
}
SUFFIX = {"kernel_enumerate": ".json", "kernel_enumerate_csv": ".csv", "verify": ".json"}


def _job_output(tmp_path, job: str, q: int) -> bytes:
    target = tmp_path / f"{job}_q{q}{SUFFIX[job]}"
    argv = JOBS[job] + ["--p", str(q), "--deterministic", "--out", str(target)]
    assert run(argv) == 0
    return target.read_bytes()


def _q3_digests() -> dict:
    digests = {}
    for line in (GOLDEN / "q3.sha256").read_text().splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests


@pytest.mark.parametrize("job", sorted(JOBS))
def test_golden_q2(tmp_path, job):
    expected = (GOLDEN / f"{job}_q2{SUFFIX[job]}").read_bytes()
    assert _job_output(tmp_path, job, 2) == expected


@pytest.mark.parametrize("job", sorted(JOBS))
def test_golden_q3(tmp_path, job):
    digest = hashlib.sha256(_job_output(tmp_path, job, 3)).hexdigest()
    assert digest == _q3_digests()[f"{job}_q3{SUFFIX[job]}"]
