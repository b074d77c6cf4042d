"""Independent oracles for gqt CLI output.

Nothing here imports gqt.  GF(p^k) arithmetic is re-implemented from
scratch (coefficient tuples, schoolbook multiplication), and geometry is
checked against closed-form generalized-quadrangle counts: the Hermitian
surface H(3, q^2) is a GQ(q^2, q) with (q^2+1)(q^3+1) points and
(q+1)(q^3+1) lines, every point on q+1 lines and every line holding
q^2+1 points (Payne & Thas, Finite Generalized Quadrangles, 1.1 and 3.2).

Every ``check_*`` function raises ``OracleError`` with a short reason when
the output is wrong and returns None otherwise.
"""

from __future__ import annotations

import csv
import io
import itertools
import json


class OracleError(Exception):
    """A job's output disagrees with the oracle."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise OracleError(reason)


# --- reference field ----------------------------------------------------------

class RefField:
    """GF(p^k) for k <= 3, elements as little-endian coefficient tuples."""

    def __init__(self, p: int, k: int):
        if k > 3:
            raise ValueError("reference field supports k <= 3 (root test for irreducibility)")
        self.p, self.k = p, k
        self.modulus = canonical_modulus(p, k)
        self.q = p ** (k // 2) if k % 2 == 0 else None
        # index order c0 + c1 p + ..., as gqt numbers elements
        self.elements = [tuple(reversed(e)) for e in itertools.product(range(p), repeat=k)]
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self._products = {}

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        key = (a, b)
        if key not in self._products:
            self._products[key] = self._schoolbook(a, b)
        return self._products[key]

    def _schoolbook(self, a, b):
        p, k, m = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for d in range(len(prod) - 1, k - 1, -1):
            lead = prod[d]
            if lead:
                for i, mi in enumerate(m):
                    prod[d - k + i] = (prod[d - k + i] - lead * mi) % p
        return tuple(prod[:k])

    def pow(self, a, e: int):
        out = self.one
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def inv(self, a):
        require(a != self.zero, "inverse of zero")
        return next(b for b in self.elements if self.mul(a, b) == self.one)

    def conj(self, a):
        return self.pow(a, self.q)

    def norm(self, a):
        return self.mul(a, self.conj(a))

    def form(self, x, y):
        """Standard Hermitian form sum conj(x_i) y_i."""
        acc = self.zero
        for a, b in zip(x, y):
            acc = self.add(acc, self.mul(self.conj(a), b))
        return acc

    def normalize(self, v):
        lead = next((e for e in v if e != self.zero), None)
        require(lead is not None, "zero vector has no ray")
        s = self.inv(lead)
        return tuple(self.mul(e, s) for e in v)


def canonical_modulus(p: int, k: int) -> tuple:
    """Lexicographically smallest monic irreducible, low-degree coefficients first."""
    if k == 1:
        return (0, 1)
    for low in itertools.product(range(p), repeat=k):
        cand = tuple(low) + (1,)
        # degree <= 3: irreducible iff no root in F_p
        if all(sum(c * x ** i for i, c in enumerate(cand)) % p for x in range(p)):
            return cand
    raise ValueError("no irreducible polynomial")  # pragma: no cover


def gq_counts(q: int) -> tuple:
    """(points, lines) of H(3, q^2)."""
    return (q * q + 1) * (q ** 3 + 1), (q + 1) * (q ** 3 + 1)


def nogo_counts(order: int, dim: int) -> dict:
    """Verdict counts over all ordered pairs of vectors in GF(order)^dim."""
    n = order ** dim
    zero = 2 * n - 1
    same_ray = (n - 1) * (order - 1)
    return {"zero": zero, "same_ray": same_ray, "independent": n * n - zero - same_ray}


# --- parsing helpers ------------------------------------------------------------

def load_json(stdout: str) -> dict:
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        raise OracleError(f"stdout is not JSON: {exc}") from None
    require(isinstance(doc, dict), "stdout is not a JSON object")
    return doc


def _coeffs(entry) -> tuple:
    return tuple(entry["coeffs"]) if isinstance(entry, dict) else tuple(entry)


def _vec(rows) -> tuple:
    return tuple(tuple(c) for c in rows)


def check_field_header(doc: dict, F: RefField) -> None:
    f = doc.get("field")
    require(isinstance(f, dict), "report has no field object")
    require((f.get("p"), f.get("k")) == (F.p, F.k), f"field is {f}, expected GF({F.p}^{F.k})")
    require(tuple(f.get("modulus", ())) == F.modulus,
            f"modulus {f.get('modulus')} is not the canonical {list(F.modulus)}")


# --- geometry ---------------------------------------------------------------------

def check_geometry(F: RefField, points: list, lines: list) -> None:
    """Points and lines of H(3, q^2) against closed-form counts and the form."""
    q = F.q
    n_pts, n_lines = gq_counts(q)
    require(len(points) == n_pts, f"{len(points)} points, expected {n_pts}")
    require(len(lines) == n_lines, f"{len(lines)} lines, expected {n_lines}")
    require(len(set(points)) == n_pts, "duplicate points")
    for v in points:
        require(len(v) == 4, "point is not in dimension 4")
        require(F.normalize(v) == v, f"point {v} is not a normalized ray")
        require(F.form(v, v) == F.zero, f"point {v} is not on the Hermitian surface")
    degree = [0] * n_pts
    seen = set()
    for line in lines:
        key = tuple(sorted(line))
        require(key not in seen, "duplicate line")
        seen.add(key)
        require(len(key) == q * q + 1, f"line of size {len(key)}, expected {q * q + 1}")
        require(all(0 <= i < n_pts for i in key), "line index out of range")
        for i in key:
            degree[i] += 1
        for i, j in itertools.combinations(key, 2):
            require(F.form(points[i], points[j]) == F.zero, f"points {i}, {j} of a line are not orthogonal")
    require(set(degree) == {q + 1}, f"point degrees {sorted(set(degree))}, expected [{q + 1}]")


def check_enumerate(stdout: str, F: RefField) -> None:
    doc = load_json(stdout)
    check_field_header(doc, F)
    require(doc.get("dim") == 4, "dim is not 4")
    points = [_vec(p) for p in doc["points"]]
    require(doc.get("num_points") == len(points) and doc.get("num_lines") == len(doc["lines"]),
            "num_points/num_lines disagree with the lists")
    check_geometry(F, points, doc["lines"])


def check_enumerate_csv(stdout: str, F: RefField) -> None:
    rows = list(csv.reader(io.StringIO(stdout)))
    while rows and not rows[-1]:  # the CLI ends the CSV with one more newline
        rows.pop()
    n_pts, n_lines = gq_counts(F.q)
    require(len(rows) == n_pts + n_lines + 2, f"{len(rows)} CSV rows, expected {n_pts + n_lines + 2}")
    head = rows[0]
    require(head[:6] == ["# p", str(F.p), "k", str(F.k), "dim", "4"], f"bad CSV header {head}")
    require(head[7].split() == [str(c) for c in F.modulus], "CSV modulus is not canonical")
    require(rows[1] == ["kind", "index", "data"], "bad CSV column row")
    points, lines = [], []
    for row in rows[2:]:
        require(len(row) == 3, f"bad CSV row {row}")
        kind, index, data = row
        target = points if kind == "point" else lines if kind == "line" else None
        require(target is not None and int(index) == len(target), f"bad CSV row {row}")
        if kind == "point":
            points.append(tuple(tuple(int(c) for c in e.split(",")) for e in data.split()))
        else:
            lines.append([int(i) for i in data.split()])
    check_geometry(F, points, lines)


def check_verify(stdout: str, F: RefField, samples: int) -> None:
    doc = load_json(stdout)
    check_field_header(doc, F)
    q = F.q
    n_pts, n_lines = gq_counts(q)
    require(doc.get("num_points") == n_pts, f"num_points {doc.get('num_points')}, expected {n_pts}")
    require(doc.get("num_lines") == n_lines, f"num_lines {doc.get('num_lines')}, expected {n_lines}")
    require(doc.get("point_degrees") == [q + 1], f"point_degrees {doc.get('point_degrees')}")
    require(doc.get("line_sizes") == [q * q + 1], f"line_sizes {doc.get('line_sizes')}")
    require(doc.get("double_counting_ok") is True, "double counting failed")
    ooa = doc.get("one_or_all", {})
    pairs = n_lines * (n_pts - q * q - 1)
    require(ooa.get("passed") is True, "one_or_all did not pass")
    require(ooa.get("pairs_checked") == pairs, f"pairs_checked {ooa.get('pairs_checked')}, expected {pairs}")
    # GQ axiom: a point off a line is collinear with exactly one of its points
    require(ooa.get("count_distribution") == {"1": pairs}, "count distribution is not all ones")
    require(doc.get("unitary_samples") == samples, "wrong number of unitary samples")
    require(doc.get("unitary_escapes") == 0, f"{doc.get('unitary_escapes')} unitary escapes")


# --- geocode ------------------------------------------------------------------------

def check_roundtrip(stdout: str, F: RefField, trials: int) -> None:
    doc = load_json(stdout)
    check_field_header(doc, F)
    require(doc.get("trials") == trials, f"trials {doc.get('trials')}, expected {trials}")
    ok, degenerate = doc.get("successes"), doc.get("degenerate_count")
    require(ok + degenerate == trials, f"successes {ok} + degenerate {degenerate} != trials {trials}")
    witnesses = doc.get("witnesses", [])
    require(not any(w.get("failure") == "Mismatch" for w in witnesses), "a state decoded to the wrong ray")
    require(len(witnesses) == degenerate, "witness count differs from degenerate_count")
    for w in witnesses:
        v = _vec(w["state"])
        require(F.form(v, v) != F.zero, "a self-orthogonal state was counted as a trial")


def check_geocode_encode(stdout: str, exit_code: int, F: RefField) -> bool:
    """True when encoding succeeded; a DegenerateSpan error is a valid outcome."""
    doc = load_json(stdout)
    if exit_code == 1:
        require(doc.get("error", {}).get("type") == "DegenerateSpan", f"unexpected error {doc.get('error')}")
        return False
    require(exit_code == 0, f"exit code {exit_code}")
    check_field_header(doc, F)
    require(doc.get("transmitted_ok") is True, "transmission changed the ciphertext")
    ct = doc["ciphertext"]
    pts = [_vec(p) for p in ct["points"]]
    require(len(pts) == 3 and len(set(pts)) == 3, "ciphertext does not hold three distinct points")
    for v in pts:
        require(F.form(v, v) == F.zero, f"ciphertext point {v} is not a kernel point")
    bits = ct["bitstream"]
    width = max(1, (F.p - 1).bit_length())
    require(len(bits) == 3 * 4 * F.k * width, "bitstream has the wrong length")
    require(int(doc["bitstream_hex"], 16) == int(bits, 2), "bitstream_hex disagrees with the bitstream")
    return True


def check_geocode_decode(stdout: str, F: RefField, state: tuple) -> None:
    doc = load_json(stdout)
    check_field_header(doc, F)
    got = _vec(doc["recovered_point"])
    require(got == F.normalize(state), f"decoded {got}, expected the ray of {state}")


# --- small commands ---------------------------------------------------------------------

def check_field(stdout: str, F: RefField, element: tuple) -> None:
    doc = load_json(stdout)
    check_field_header(doc, F)
    require(doc.get("order") == F.p ** F.k and doc.get("q") == F.q, "order or q is wrong")
    kappa = next(e for e in F.elements if F.conj(e) != e)
    require(_coeffs(doc["kappa"]) == kappa, "kappa is not the first element outside the subfield")
    a = doc["analysis"]
    require(_coeffs(a["element"]) == element, f"element {a['element']} is not {element}")
    require(_coeffs(a["conjugate"]) == F.conj(element), "wrong conjugate")
    require(_coeffs(a["norm"]) == F.norm(element), "wrong norm")
    sa, sb = _coeffs(a["split"]["a"]), _coeffs(a["split"]["b"])
    require(F.conj(sa) == sa and F.conj(sb) == sb, "split components are not in the subfield")
    require(F.add(sa, F.mul(kappa, sb)) == element, "split does not recombine to the element")
    require(_coeffs(a["component_square_sum"]) == F.add(F.mul(sa, sa), F.mul(sb, sb)),
            "wrong component square sum")


def check_theory(stdout: str, i: int, m: int, p: int) -> None:
    doc = load_json(stdout)
    check_field_header(doc, RefField(p, 2 * i))
    require((doc.get("i"), doc.get("m"), doc.get("p")) == (i, m, p), "wrong lattice point")
    require(doc.get("subfield_order") == p ** i and doc.get("dimension") == m, "wrong subfield or dimension")
    require(doc.get("involution") == f"x -> x^{p ** i}", "wrong involution")


def check_teleport(stdout: str, F: RefField, alpha: tuple, beta: tuple) -> None:
    doc = load_json(stdout)
    check_field_header(doc, F)
    require(_coeffs(doc["inputs"]["alpha"]) == alpha and _coeffs(doc["inputs"]["beta"]) == beta,
            "inputs were parsed wrongly")
    require(_vec(doc.get("final_state") or ()) == (alpha, beta), "Bob's final state is not the input")


def check_sdc(stdout: str, F: RefField, message: str) -> None:
    doc = load_json(stdout)
    check_field_header(doc, F)
    require(doc.get("classical_message") == message,
            f"decoded {doc.get('classical_message')!r}, sent {message!r}")


def check_nogo_scan(stdout: str, F: RefField, kind: str, dim: int) -> None:
    doc = load_json(stdout)
    check_field_header(doc, F)
    order = F.p ** F.k
    want = nogo_counts(order, dim)
    same_ray = "SameRayChar2" if F.p == 2 else "SameRayCharOdd"
    require(doc.get("kind") == kind and doc.get("dim") == dim, "wrong kind or dim")
    require(doc.get("pairs") == (order ** dim) ** 2, f"pairs {doc.get('pairs')}")
    expected = {"ZeroState": want["zero"], same_ray: want["same_ray"], "Independent": want["independent"]}
    require(doc.get("counts") == expected, f"counts {doc.get('counts')}, expected {expected}")
    require(set(doc.get("sample_witnesses", {})) == set(expected), "witness keys differ from verdicts")
    if kind == "clone":
        require(doc.get("f2_special_case", {}).get("holds_only_in_f2") is True,
                "idempotence does not single out F_2")
