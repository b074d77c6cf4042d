"""The golden CLI jobs: one list for the test suite and for CI.

The files under ``tests/golden/`` were recorded from ``gqt`` before the
kernel, later the transport path, the no-go scan and then the geocode
trial moved onto integer indices: the q=2 outputs in full, the q=3 and
q=5 outputs as SHA-256 digests in ``q3.sha256`` and ``q5.sha256``.
The q=5 ``kernel enumerate`` digests, JSON and ``--csv``, were recorded
before enumeration began to span lines from polar planes, the change that
moves the q=5 geometry most.  ``tests/test_golden.py`` runs every job
in-process.

Run as a script, the module runs every job through a command and checks
the bytes it prints::

    python tests/golden_jobs.py gqt
    python tests/golden_jobs.py python -m gqt.cli

It prints one line per mismatch, with the last line the job wrote to
stderr, and a count; it exits 1 on any mismatch.
Standard library only, and no ``assert``: the checks must hold under
``python -O`` too.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

# The ``geocode decode`` input is the ``bitstream_hex`` of the ``geocode
# encode`` job, which uses the same seed.
ENCODE_ARGS = ["--seed", "5", "--state", "t;1;1;0"]
ENCODED_HEX = "babea7"

# Job name -> {q: argv without --p}; a job is recorded at the q values it lists.
JOBS = {
    "kernel_enumerate": {q: ["kernel", "enumerate"] for q in (2, 3, 5)},
    "kernel_enumerate_csv": {q: ["kernel", "enumerate", "--csv"] for q in (2, 3, 5)},
    "verify": {q: ["verify", "--samples", "5", "--seed", "0"] for q in (2, 3)},
    # GF(16): the unitary sampler and the form checks on a larger field and
    # with more samples than any other job.
    "verify_gf16": {2: ["verify", "--k", "4", "--samples", "20", "--seed", "0"]},
    "geocode_roundtrip": {
        q: ["geocode", "roundtrip", "--seed", "0", "--trials", trials]
        for q, trials in ((2, "200"), (3, "100"))
    },
    # The transport-q2 benchmark job, a q=3 sweep whose states repeat their
    # rays many times over, and a q=5 sweep.
    "geocode_roundtrip_seed5": {
        q: ["geocode", "roundtrip", "--seed", "5", "--trials", trials]
        for q, trials in ((2, "1000"), (3, "2000"))
    },
    "geocode_roundtrip_seed0": {5: ["geocode", "roundtrip", "--seed", "0", "--trials", "50"]},
    "geocode_encode": {2: ["geocode", "encode"] + ENCODE_ARGS},
    "geocode_decode": {2: ["geocode", "decode", "--seed", "5", "--bitstream", ENCODED_HEX]},
    **{
        f"sdc_{msg}": {q: ["sdc", "--message", msg] for q in qs}
        for msg, qs in (("00", (2, 3)), ("01", (2, 3)), ("10", (3,)), ("11", (3,)))
    },
    # The two largest scans inside the scan guard are noclone at p=3 dim 3
    # (531,441 pairs) and nodelete at p=5 (390,625 pairs).
    "noclone_scan": {q: ["noclone", "scan"] for q in (2, 3)},
    "nodelete_scan": {q: ["nodelete", "scan"] for q in (2, 3, 5)},
    "noclone_scan_dim3": {q: ["noclone", "scan", "--dim", "3"] for q in (2, 3)},
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


def job_argv(job: str, q: int) -> list:
    """The job's arguments with ``--p q`` (unless it takes no field) and ``--deterministic``."""
    field = [] if job in NO_FIELD else ["--p", str(q)]
    return JOBS[job][q] + field + ["--deterministic"]


def digests(q: int) -> dict:
    """Golden file name -> SHA-256 hex digest, as recorded in ``q<q>.sha256``."""
    out = {}
    for line in (GOLDEN / f"q{q}.sha256").read_text().splitlines():
        digest, name = line.split()
        out[name] = digest
    return out


def matches(job: str, q: int, output: bytes) -> bool:
    """Whether output is the job's golden file (q=2) or has its recorded digest."""
    name = golden_name(job, q)
    if q == 2:
        return output == (GOLDEN / name).read_bytes()
    return hashlib.sha256(output).hexdigest() == digests(q)[name]


def main(command: list) -> int:
    """Run every job through ``command`` and compare what it prints; 1 on any mismatch."""
    if not command:
        sys.stderr.write("usage: python tests/golden_jobs.py COMMAND...\n")
        return 2
    jobs = [(job, q) for job in sorted(JOBS) for q in sorted(JOBS[job])]
    failed = 0
    for job, q in jobs:
        proc = subprocess.run(command + job_argv(job, q), capture_output=True)
        if proc.returncode != 0 or not matches(job, q, proc.stdout):
            failed += 1
            stderr = proc.stderr.decode(errors="replace").strip().splitlines()
            print(f"MISMATCH {golden_name(job, q)} (exit {proc.returncode})"
                  + (f": {stderr[-1]}" if stderr else ""))
    print(f"{len(jobs) - failed} of {len(jobs)} golden jobs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
