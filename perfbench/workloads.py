"""The benchmark's workloads: seeded rotations of gqt CLI jobs.

A rotation is a generator of ``Job``s.  The runner sends each finished
``JobResult`` back into the generator, so a later job can be built from an
earlier job's output (``geocode decode`` takes the hex of the preceding
``geocode encode``).  Every job carries an oracle check from ``oracle``;
jobs get only their argv, never the seed itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator, Optional

import oracle
from oracle import RefField


@dataclass
class JobResult:
    wall_s: float
    rss_kb: int
    exit_code: int
    stdout: str
    stderr: str


@dataclass
class Job:
    kind: str                     # stats key, e.g. "enumerate" -> enumerate_s.p50
    argv: list
    check: Callable[[JobResult], None]
    ok_exits: tuple = (0,)
    rate: Optional[tuple] = None  # (metric name, work items per job) for throughput

    @property
    def key(self) -> str:
        return " ".join(self.argv)


Rotation = Generator[Job, JobResult, None]


@dataclass
class Workload:
    name: str
    rotation: Callable[[random.Random], Rotation]
    setup: str                    # Python run by a fresh interpreter to time set-up


def _stdout_check(fn, *args) -> Callable[[JobResult], None]:
    return lambda res: fn(res.stdout, *args)


def _shuffled(rng: random.Random, jobs: list) -> list:
    jobs = list(jobs)
    rng.shuffle(jobs)
    return jobs


# --- geometry-q3 ---------------------------------------------------------------

def geometry_q3(rng: random.Random) -> Rotation:
    F = RefField(3, 2)
    seed = str(rng.randrange(10 ** 6))
    jobs = [
        Job("enumerate", ["kernel", "enumerate", "--p", "3", "--deterministic"],
            _stdout_check(oracle.check_enumerate, F)),
        Job("enumerate_csv", ["kernel", "enumerate", "--p", "3", "--csv", "--deterministic"],
            _stdout_check(oracle.check_enumerate_csv, F)),
        Job("verify", ["verify", "--p", "3", "--samples", "20", "--seed", seed, "--deterministic"],
            _stdout_check(oracle.check_verify, F, 20)),
    ]
    for job in _shuffled(rng, jobs):
        yield job


# --- transport-q2 ----------------------------------------------------------------

TRIALS = 1000


def transport_q2(rng: random.Random) -> Rotation:
    F = RefField(2, 2)
    seed = str(rng.randrange(10 ** 6))
    yield Job("roundtrip",
              ["geocode", "roundtrip", "--p", "2", "--trials", str(TRIALS), "--seed", seed,
               "--deterministic"],
              _stdout_check(oracle.check_roundtrip, F, TRIALS),
              rate=("roundtrip_states_per_s", TRIALS))


# --- nogo-scan -----------------------------------------------------------------------

def nogo_scan(rng: random.Random) -> Rotation:
    scans = [("noclone", "clone", 3, 2), ("nodelete", "delete", 3, 2), ("noclone", "clone", 2, 3)]
    jobs = []
    for cmd, kind, p, dim in scans:
        F = RefField(p, 2)
        pairs = (p ** (2 * dim)) ** 2
        jobs.append(Job(f"{cmd}_p{p}_dim{dim}",
                        [cmd, "scan", "--p", str(p)] + (["--dim", str(dim)] if dim != 2 else [])
                        + ["--deterministic"],
                        _stdout_check(oracle.check_nogo_scan, F, kind, dim),
                        rate=("scan_pairs_per_s", pairs)))
    for job in _shuffled(rng, jobs):
        yield job


# --- cli-mix ---------------------------------------------------------------------------

def _poly_text(coeffs: tuple) -> str:
    """'2*t+1' style text of a GF(p^2) element."""
    c0, c1 = coeffs
    terms = ([] if not c1 else ["t" if c1 == 1 else f"{c1}*t"]) + ([str(c0)] if c0 or not c1 else [])
    return "+".join(terms)


def _element_text(rng: random.Random, coeffs: tuple) -> str:
    """Either the coefficient form '1,2' or the polynomial form '2*t+1'."""
    return ",".join(str(c) for c in coeffs) if rng.random() < 0.5 else _poly_text(coeffs)


def _nonzero_pair(rng: random.Random, F: RefField) -> tuple:
    while True:
        a, b = rng.choice(F.elements), rng.choice(F.elements)
        if a != F.zero or b != F.zero:
            return a, b


def cli_mix(rng: random.Random) -> Rotation:
    fields = {p: RefField(p, 2) for p in (2, 3, 5)}
    F2 = fields[2]
    for p in (3, 5):
        F = fields[p]
        x = rng.choice(F.elements)
        yield Job("field", ["field", "--p", str(p), "--element", _element_text(rng, x),
                            "--deterministic"],
                  _stdout_check(oracle.check_field, F, x))
    yield Job("theory", ["theory", "--i", "1", "--m", "4", "--pp", "3", "--deterministic"],
              _stdout_check(oracle.check_theory, 1, 4, 3))
    for p, char2 in ((3, False), (5, False), (2, True)):
        F = fields[p]
        a, b = _nonzero_pair(rng, F)
        argv = ["teleport", "--p", str(p), "--alpha", _poly_text(a), "--beta", _poly_text(b),
                "--seed", str(rng.randrange(10 ** 6)), "--deterministic"]
        yield Job("teleport", argv + (["--char2"] if char2 else []),
                  _stdout_check(oracle.check_teleport, F, a, b))
    for p in (3, 5):
        msg = rng.choice(["00", "01", "10", "11"])
        yield Job("sdc", ["sdc", "--p", str(p), "--message", msg, "--deterministic"],
                  _stdout_check(oracle.check_sdc, fields[p], msg))
    for cmd, kind in (("noclone", "clone"), ("nodelete", "delete")):
        yield Job("scan", [cmd, "scan", "--p", "2", "--deterministic"],
                  _stdout_check(oracle.check_nogo_scan, F2, kind, 2))
    yield Job("enumerate", ["kernel", "enumerate", "--p", "2", "--deterministic"],
              _stdout_check(oracle.check_enumerate, F2))
    yield Job("verify", ["verify", "--p", "2", "--samples", "5", "--seed", str(rng.randrange(10 ** 6)),
                         "--deterministic"],
              _stdout_check(oracle.check_verify, F2, 5))

    while True:
        state = tuple(rng.choice(F2.elements) for _ in range(4))
        if F2.form(state, state) != F2.zero:
            break
    seed = str(rng.randrange(10 ** 6))
    encoded = {}

    def check_encode(res: JobResult) -> None:
        encoded["ok"] = oracle.check_geocode_encode(res.stdout, res.exit_code, F2)

    text = ";".join(_poly_text(c) for c in state)
    res = yield Job("geocode_encode", ["geocode", "encode", "--p", "2", "--seed", seed, "--state", text,
                                       "--deterministic"],
                    check_encode, ok_exits=(0, 1))
    if res.exit_code == 0 and encoded.get("ok"):
        hexstr = oracle.load_json(res.stdout)["bitstream_hex"]
        yield Job("geocode_decode", ["geocode", "decode", "--p", "2", "--seed", seed, "--bitstream", hexstr,
                                     "--deterministic"],
                  _stdout_check(oracle.check_geocode_decode, F2, state))


_IMPORT = "import gqt.cli\nfrom gqt import build_field, standard_form\n"

WORKLOADS = {
    w.name: w for w in [
        Workload("geometry-q3", geometry_q3, _IMPORT + "standard_form(build_field(3, 2), 4)\n"),
        Workload("transport-q2", transport_q2, _IMPORT + "standard_form(build_field(2, 2), 4)\n"),
        Workload("cli-mix", cli_mix,
                 _IMPORT + "for p in (3, 5): build_field(p, 2)\nstandard_form(build_field(2, 2), 4)\n"),
        Workload("nogo-scan", nogo_scan, _IMPORT + "build_field(3, 2)\nbuild_field(2, 2)\n"),
    ]
}
