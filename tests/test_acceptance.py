"""End-to-end acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
All checks are exact; there are no tolerances.
"""

import itertools
import json
import random
import time

import pytest

from gqt.cli import run
from gqt.elements import FieldElement
from gqt.errors import ZeroStateError
from gqt.field import build_field
from gqt.forms import standard_form
from gqt.geocode import agree_parameters, roundtrip_sweep
from gqt.kernel import enumerate_kernel, verify_one_or_all
from gqt.linalg import (
    FieldMatrix,
    FieldVector,
    identity_matrix,
    is_hermitian_matrix,
    random_unitary,
    tensor,
)
from gqt.nogo import CloneVerdict, clone_obstruction, f2_orthogonal_special_case
from gqt.points import ProjectivePoint, enumerate_projective_points
from gqt.protocols import (
    anti_diagonal,
    bell_basis,
    bell_state,
    gate,
    sdc_decode,
    sdc_encode,
    teleport,
    teleport_char2,
)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def surface_count(spec, dim):
    q = spec.q
    n = 0
    for v in enumerate_projective_points(spec, dim):
        acc = spec.zero
        for e in v.entries:
            acc = acc + e ** (q + 1)
        if acc.is_zero():
            n += 1
    return n


def check_structure(geom, q, exp_points, exp_lines):
    degrees = {len(geom.incidence[i]) for i in range(len(geom.points))}
    sizes = {len(line) for line in geom.lines}
    ok = (
        len(geom.points) == exp_points
        and len(geom.lines) == exp_lines
        and degrees == {q + 1}
        and sizes == {q ** 2 + 1}
        and len(geom.points) * (q + 1) == len(geom.lines) * (q ** 2 + 1)
        and surface_count(geom.spec, 4) == exp_points
    )
    return ok, degrees, sizes


def test_criterion_01_kernel_q2(kernel_q2):
    start = time.monotonic()
    geom = enumerate_kernel(standard_form(build_field(2, 2), 4))
    elapsed = time.monotonic() - start
    ok, degrees, sizes = check_structure(geom, 2, 45, 27)
    ok = ok and elapsed < 1.0
    report(1, ok,
           f"q=2 kernel: {len(geom.points)} points / {len(geom.lines)} lines, "
           f"degrees {sorted(degrees)}, line sizes {sorted(sizes)}, "
           f"oracle agrees, {elapsed:.3f}s < 1s")


def test_criterion_02_kernel_q3():
    start = time.monotonic()
    geom = enumerate_kernel(standard_form(build_field(3, 2), 4))
    ok, degrees, sizes = check_structure(geom, 3, 280, 112)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    report(2, ok,
           f"q=3 kernel: {len(geom.points)} points / {len(geom.lines)} lines, "
           f"degrees {sorted(degrees)}, line sizes {sorted(sizes)}, "
           f"oracle agrees, {elapsed:.1f}s < 30s")


def test_criterion_03_one_or_all(kernel_q2, kernel_q3):
    details = []
    ok = True
    for geom in (kernel_q2, kernel_q3):
        r = verify_one_or_all(geom)
        ok = ok and r["passed"] and set(r["count_distribution"]) == {"1"}
        details.append(f"q={geom.spec.q}: {r['pairs_checked']} pairs, "
                       f"{len(r['violations'])} one-or-all violations, "
                       f"{len(r['gq_unique_line_failures'])} unique-line failures")
    report(3, ok, "; ".join(details))


def test_criterion_04_unitary_action(kernel_q2, kernel_q3):
    escapes = 0
    checked = 0
    for geom in (kernel_q2, kernel_q3):
        points = set(geom.points)
        lines = set(geom.lines)
        for seed in range(20):
            checked += 1
            u = random_unitary(geom.form, seed)
            mapped = {ProjectivePoint(u @ p.coords) for p in geom.points}
            if mapped != points:
                escapes += 1
                continue
            mapped_lines = {
                frozenset(geom.index_of(ProjectivePoint(u @ geom.points[i].coords))
                          for i in line)
                for line in geom.lines
            }
            if mapped_lines != lines:
                escapes += 1
    report(4, escapes == 0,
           f"{checked} seeded unitaries across q=2 and q=3 permute both "
           f"point and line sets; {escapes} escapes")


def test_criterion_05_teleportation(gf4, gf9):
    cases = 0
    failures = 0
    for alpha in gf9.elements():
        for beta in gf9.elements():
            if alpha.is_zero() and beta.is_zero():
                continue
            for branch in range(4):
                try:
                    tr = teleport(alpha, beta, gf9, seed=1, branch=branch)
                except ZeroStateError:
                    continue
                cases += 1
                if tr.final_state != FieldVector(gf9, [alpha, beta]):
                    failures += 1
    char2_cases = 0
    for alpha in gf4.elements():
        for beta in gf4.elements():
            if alpha.is_zero() and beta.is_zero():
                continue
            for branch in range(2):
                try:
                    tr = teleport_char2(alpha, beta, gf4, seed=1, branch=branch)
                except ZeroStateError:
                    continue
                char2_cases += 1
                if tr.final_state != FieldVector(gf4, [alpha, beta]):
                    failures += 1
    # joint-state identity, coefficient-wise, all (alpha, beta) in GF(4)^2
    basis = {lbl: v for lbl, v in bell_basis(gf4)}
    rev = anti_diagonal(gf4, 8)
    b, b_tilde = bell_state(gf4), FieldVector(gf4, [0, 1, 1, 0])
    identity_ok = True
    for alpha in gf4.elements():
        for beta in gf4.elements():
            phi = FieldVector(gf4, [alpha, beta])
            joint = tensor(phi, b) + (rev @ tensor(phi, b_tilde))
            expected = tensor(basis["phi+"], FieldVector(gf4, [alpha, beta])) + \
                tensor(basis["psi+"], FieldVector(gf4, [beta, alpha]))
            if joint != expected:
                identity_ok = False
    ok = failures == 0 and identity_ok and cases > 0 and char2_cases > 0
    report(5, ok,
           f"teleport exact on {cases} odd-char and {char2_cases} char-2 "
           f"(state, branch) cases, {failures} failures; char-2 joint-state "
           f"identity holds for all 16 inputs: {identity_ok}")


def test_criterion_06_superdense(gf4, gf9):
    ok = all(sdc_decode(sdc_encode(bits, gf9)) == bits
             for bits in ("00", "10", "01", "11"))
    ok = ok and all(sdc_decode(sdc_encode(bits, gf4)) == bits
                    for bits in ("00", "01"))
    z_fixes = tensor(gate(gf4, "Z"), identity_matrix(gf4, 2)) @ bell_state(gf4) \
        == bell_state(gf4)
    ok = ok and z_fixes
    report(6, ok,
           "all four messages round-trip over GF(9); 00/01 round-trip over "
           f"GF(4); Z(x)id fixes the Bell state in char 2: {z_fixes}")


def test_criterion_07_no_cloning():
    ok = True
    totals = {}
    for p in (2, 3):
        spec = build_field(p, 2)
        pairs = 0
        for phi_c in itertools.product(list(spec.elements()), repeat=2):
            for psi_c in itertools.product(list(spec.elements()), repeat=2):
                c = clone_obstruction(FieldVector(spec, phi_c),
                                      FieldVector(spec, psi_c))
                pairs += 1
                expected_zero = c.verdict in (CloneVerdict.ZERO_STATE,
                                              CloneVerdict.SAME_RAY_CHAR2)
                if c.obstruction_vanishes != expected_zero or not c.entrywise_agrees:
                    ok = False
        totals[p] = pairs
    f2 = f2_orthogonal_special_case()
    ok = ok and f2["holds_only_in_f2"]
    report(7, ok,
           f"obstruction characterization exact on {totals[2]} GF(4) and "
           f"{totals[3]} GF(9) pairs with entrywise agreement; "
           f"idempotence holds only in F_2: {f2['holds_only_in_f2']}")


def test_criterion_08_tensor_hermitian_closure():
    failures = 0
    for p in (2, 3):
        spec = build_field(p, 2)
        rng = random.Random(2024 + p)
        sub = [x for x in spec.elements() if x.conj() == x]
        for _ in range(200):
            mats = []
            for _ in range(2):
                rows = [[spec.zero] * 2 for _ in range(2)]
                rows[0][0] = rng.choice(sub)
                rows[1][1] = rng.choice(sub)
                e = FieldElement(spec, rng.randrange(spec.order))
                rows[0][1], rows[1][0] = e, e.conj()
                mats.append(FieldMatrix(spec, rows))
            if not is_hermitian_matrix(tensor(mats[0], mats[1])):
                failures += 1
    report(8, failures == 0,
           f"400 random Hermitian tensor pairs (200 per field) stay "
           f"Hermitian; {failures} failures")


def test_criterion_09_geocode(kernel_q2, kernel_q3):
    ok = True
    details = []
    for geom, trials in ((kernel_q2, 100), (kernel_q3, 50)):
        params = agree_parameters(geom, seed=2024)
        r = roundtrip_sweep(params, trials=trials, seed=1)
        mismatches = [w for w in r["witnesses"] if w["failure"] != "DegenerateSpan"]
        ok = ok and not mismatches
        ok = ok and r["successes"] + r["degenerate_count"] == trials
        ok = ok and len(r["witnesses"]) == r["degenerate_count"]
        details.append(f"q={geom.spec.q}: {r['successes']} exact round trips + "
                       f"{r['degenerate_count']} logged degeneracies = {trials} trials")
    report(9, ok, "; ".join(details))


def test_criterion_10_cli_determinism(capsys, tmp_path):
    commands = [
        ["kernel", "enumerate", "--p", "2", "--deterministic"],
        ["verify", "--p", "2", "--seed", "4", "--samples", "3", "--deterministic"],
        ["teleport", "--p", "3", "--alpha", "t", "--beta", "1",
         "--seed", "9", "--deterministic"],
        ["teleport", "--p", "2", "--alpha", "t", "--beta", "t+1",
         "--char2", "--seed", "9", "--deterministic"],
        ["sdc", "--p", "3", "--message", "10", "--seed", "2", "--deterministic"],
        ["noclone", "scan", "--p", "2", "--deterministic"],
        ["geocode", "roundtrip", "--p", "2", "--seed", "5", "--trials", "20",
         "--deterministic"],
    ]
    mismatched = 0
    for argv in commands:
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        if first != second:
            mismatched += 1
        json.loads(first)  # must be well-formed JSON
    report(10, mismatched == 0,
           f"{len(commands)} seeded CLI commands repeated twice are "
           f"byte-identical; {mismatched} mismatches")
