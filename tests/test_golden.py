"""Byte-level behaviour contract for the CLI jobs.

The jobs and their recorded outputs are listed once, in ``golden_jobs``.
Every job runs in-process with ``--deterministic --out`` and must
reproduce those bytes exactly.
"""

import json

import pytest

from gqt.cli import run
from gqt.geocode import agree_parameters, roundtrip_sweep
from gqt.kernel import verify_one_or_all
from golden_jobs import ENCODED_HEX, GOLDEN, JOBS, golden_name, job_argv, matches


def job_output(tmp_path, job: str, q: int) -> bytes:
    target = tmp_path / golden_name(job, q)
    assert run(job_argv(job, q) + ["--out", str(target)]) == 0
    return target.read_bytes()


@pytest.mark.parametrize("job", sorted(j for j in JOBS if 2 in JOBS[j]))
def test_golden_q2(tmp_path, job):
    expected = (GOLDEN / golden_name(job, 2)).read_bytes()
    assert job_output(tmp_path, job, 2) == expected


@pytest.mark.parametrize("job", sorted(j for j in JOBS if 3 in JOBS[j]))
def test_golden_q3(tmp_path, job):
    assert matches(job, 3, job_output(tmp_path, job, 3))


@pytest.mark.parametrize("job", sorted(j for j in JOBS if 5 in JOBS[j]))
def test_golden_q5(tmp_path, job):
    assert matches(job, 5, job_output(tmp_path, job, 5))


def test_decode_input_is_the_encode_output(tmp_path):
    encoded = json.loads(job_output(tmp_path, "geocode_encode", 2))
    assert encoded["bitstream_hex"] == ENCODED_HEX


def test_the_sweeps_return_the_reports_they_print(kernel_q2):
    # ``verify`` and ``geocode roundtrip`` embed the sweeps' dicts as they are,
    # keys in order, so the library and the golden files agree
    verify = json.loads((GOLDEN / golden_name("verify", 2)).read_bytes())
    one_or_all = verify_one_or_all(kernel_q2)
    assert one_or_all == verify["one_or_all"]
    assert list(one_or_all) == list(verify["one_or_all"])
    roundtrip = json.loads((GOLDEN / golden_name("geocode_roundtrip", 2)).read_bytes())
    sweep = roundtrip_sweep(agree_parameters(kernel_q2, 0), 200, 0)
    assert list(sweep) == list(roundtrip)[:len(sweep)]
    assert sweep == {key: roundtrip[key] for key in sweep}
