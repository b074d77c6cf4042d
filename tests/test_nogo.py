import itertools
import json
import random

import pytest

import gqt.nogo
from gqt.elements import FieldElement
from gqt.errors import DimensionMismatchError, NotUnitaryError, TooLargeError
from gqt.field import _ray, build_field
from gqt.forms import standard_form
from gqt.linalg import FieldMatrix, FieldVector, random_unitary, tensor
from gqt.nogo import (
    CloneVerdict,
    _classify_indices,
    clone_obstruction,
    delete_obstruction,
    f2_orthogonal_special_case,
    permutation_clone_check,
    scan,
)


def all_vectors(spec, dim):
    for combo in itertools.product(list(spec.elements()), repeat=dim):
        yield FieldVector(spec, combo)


def test_independent_pair(gf4):
    phi = FieldVector(gf4, [1, 0])
    psi = FieldVector(gf4, [0, 1])
    c = clone_obstruction(phi, psi)
    assert c.verdict is CloneVerdict.INDEPENDENT
    assert c.tensor_obstruction == FieldVector(gf4, [0, 1, 1, 0])
    assert not c.obstruction_vanishes
    assert c.entrywise_agrees and c.commutators_vanish


def test_same_ray_char2(gf4):
    t = gf4.gen
    phi = FieldVector(gf4, [gf4.one, t])
    c = clone_obstruction(phi, phi.scale(t))
    assert c.verdict is CloneVerdict.SAME_RAY_CHAR2
    assert c.obstruction_vanishes
    assert c.witness == t


def test_same_ray_char_odd(gf9):
    phi = FieldVector(gf9, [1, 2])
    c = clone_obstruction(phi, phi)
    assert c.verdict is CloneVerdict.SAME_RAY_CHAR_ODD
    # T = 2 (phi tensor phi) != 0 in odd characteristic
    assert c.tensor_obstruction == tensor(phi, phi).scale(gf9.from_int(2))
    assert not c.obstruction_vanishes
    assert c.witness == gf9.one


def test_classification_json(gf4, gf9):
    t = gf4.gen
    phi = FieldVector(gf4, [gf4.one, t])
    assert delete_obstruction(phi, phi.scale(t)).to_json() == {
        "kind": "delete",
        "verdict": "SameRayChar2",
        "tensor_obstruction": [[0, 0]] * 4,
        "obstruction_vanishes": True,
        "witness": {"coeffs": [0, 1]},
        "entrywise_agrees": True,
        "commutators_vanish": True,
    }
    independent = clone_obstruction(FieldVector(gf9, [1, 0]), FieldVector(gf9, [0, 1])).to_json()
    assert independent["kind"] == "clone" and independent["verdict"] == "Independent"
    assert independent["tensor_obstruction"] == [[0, 0], [1, 0], [1, 0], [0, 0]]
    assert independent["witness"] is None and not independent["obstruction_vanishes"]


def test_zero_state(gf4):
    c = clone_obstruction(FieldVector(gf4, [0, 0]), FieldVector(gf4, [1, 0]))
    assert c.verdict is CloneVerdict.ZERO_STATE
    assert c.obstruction_vanishes
    assert c.witness is None


@pytest.mark.parametrize("p", [2, 3])
def test_obstruction_vanishing_characterization(p):
    """T = 0 iff a state is zero, or char 2 and the states share a ray."""
    spec = build_field(p, 2)
    counts = {v: 0 for v in CloneVerdict}
    for phi in all_vectors(spec, 2):
        for psi in all_vectors(spec, 2):
            c = clone_obstruction(phi, psi)
            counts[c.verdict] += 1
            expected_zero = c.verdict in (
                CloneVerdict.ZERO_STATE,
                CloneVerdict.SAME_RAY_CHAR2,
            )
            assert c.obstruction_vanishes == expected_zero
            assert c.entrywise_agrees
            assert c.commutators_vanish
    total = spec.order ** 4
    assert sum(counts.values()) == total
    if p == 2:
        assert counts[CloneVerdict.ZERO_STATE] == 31
        assert counts[CloneVerdict.SAME_RAY_CHAR2] == 45
        assert counts[CloneVerdict.SAME_RAY_CHAR_ODD] == 0
        assert counts[CloneVerdict.INDEPENDENT] == 180
    else:
        assert counts[CloneVerdict.SAME_RAY_CHAR2] == 0
        assert counts[CloneVerdict.SAME_RAY_CHAR_ODD] > 0


def test_delete_obstruction_matches_clone(gf9):
    rng = random.Random(3)
    for _ in range(100):
        phi = FieldVector(gf9, [FieldElement(gf9, rng.randrange(9)) for _ in range(2)])
        psi = FieldVector(gf9, [FieldElement(gf9, rng.randrange(9)) for _ in range(2)])
        c = clone_obstruction(phi, psi)
        d = delete_obstruction(phi, psi)
        assert d.kind == "delete" and c.kind == "clone"
        assert d.verdict is c.verdict
        assert d.tensor_obstruction == c.tensor_obstruction


def test_f2_special_case():
    report = f2_orthogonal_special_case()
    assert report["holds_only_in_f2"]
    orders = [r["order"] for r in report["fields"]]
    assert orders == sorted(orders) and 2 in orders and max(orders) == 9
    for r in report["fields"]:
        if r["order"] == 2:
            assert r["idempotent_everywhere"] and r["counterexample"] is None
        else:
            assert not r["idempotent_everywhere"]
            assert r["counterexample"] is not None
        # the tables' counterexample is the first that element arithmetic finds
        spec = build_field(r["p"], r["k"])
        first = next((x for x in spec.elements() if x * x != x), None)
        assert r["counterexample"] == (first.to_json() if first is not None else None)


def test_permutation_clone_cnot_on_f2_basis():
    f2 = build_field(2, 1)
    # CNOT on F_2^2 (x) F_2^2: |x>|y> -> |x>|y + x>
    rows = [[0] * 4 for _ in range(4)]
    for x in range(2):
        for y in range(2):
            rows[2 * x + ((y + x) % 2)][2 * x + y] = 1
    cnot = FieldMatrix(f2, rows)
    basis = [FieldVector(f2, [1, 0]), FieldVector(f2, [0, 1])]
    blank = FieldVector(f2, [1, 0])
    out = permutation_clone_check(cnot, basis, blank)
    assert out["is_permutation_clone"]
    assert out["is_identity_permutation"]
    assert out["associated_permutation"] == {0: 0, 1: 1}
    assert out["failure_witness"] is None


def test_permutation_clone_singleton(gf4):
    # any single nonzero state is cloned by some permutation-free check:
    # the identity works when blank == state
    ident = FieldMatrix(gf4, [[1 if i == j else 0 for j in range(4)] for i in range(4)])
    phi = FieldVector(gf4, [1, 0])
    out = permutation_clone_check(ident, [phi], phi)
    assert out["is_permutation_clone"] and out["is_identity_permutation"]


def test_permutation_clone_generic_failure(gf9, form9_dim4):
    u = random_unitary(form9_dim4, 21)
    states = [FieldVector(gf9, [1, 0]), FieldVector(gf9, [0, 1]),
              FieldVector(gf9, [1, 1])]
    blank = FieldVector(gf9, [1, 0])
    out = permutation_clone_check(u, states, blank, form=form9_dim4)
    assert not out["is_permutation_clone"]
    assert out["failure_witness"] is not None
    assert out["associated_permutation"] is None


def test_permutation_clone_rejects_non_unitary(gf9, form9_dim4):
    m = FieldMatrix(gf9, [[1 if j == 0 else 0 for j in range(4)] for _ in range(4)])
    with pytest.raises(NotUnitaryError):
        permutation_clone_check(m, [FieldVector(gf9, [1, 0])],
                                FieldVector(gf9, [1, 0]), form=form9_dim4)


def test_permutation_clone_dimension_checks(gf4):
    ident2 = FieldMatrix(gf4, [[1, 0], [0, 1]])
    with pytest.raises(DimensionMismatchError):
        permutation_clone_check(ident2, [FieldVector(gf4, [1, 0])],
                                FieldVector(gf4, [1, 0]))
    with pytest.raises(DimensionMismatchError):
        permutation_clone_check(ident2, [], FieldVector(gf4, [1, 0]))


def _object_classification(phi, psi):
    """The classification through ``tensor()`` and FieldElement arithmetic,
    independent of the index core."""
    n = len(phi)
    obstruction = tensor(phi, psi) + tensor(psi, phi)
    entrywise_zero = all(
        (phi[i] * psi[j] + psi[i] * phi[j]).is_zero() for i in range(n) for j in range(n))
    obstruction_zero = obstruction.is_zero()
    commutators = all(
        (phi[i] * phi[j] - phi[j] * phi[i]).is_zero() for i in range(n) for j in range(n))
    witness = None
    if phi.is_zero() or psi.is_zero():
        verdict = CloneVerdict.ZERO_STATE
    else:
        lead = next(i for i in range(n) if not phi[i].is_zero())
        rho = psi[lead] / phi[lead]
        if not rho.is_zero() and phi.scale(rho) == psi:
            witness = rho.index
            verdict = (CloneVerdict.SAME_RAY_CHAR2 if phi.spec.p == 2
                       else CloneVerdict.SAME_RAY_CHAR_ODD)
        else:
            verdict = CloneVerdict.INDEPENDENT
    return (verdict, obstruction.indices(), witness,
            entrywise_zero == obstruction_zero, commutators)


@pytest.mark.parametrize("p,dim,second_modulus", [
    pytest.param(2, 2, False, id="2"),
    pytest.param(3, 2, False, id="3"),
    pytest.param(2, 3, False, id="2-dim3"),
    pytest.param(3, 2, True, id="3-mod-t2+t+2"),
])
def test_index_core_matches_object_arithmetic(modulus_change, p, dim, second_modulus):
    """Verdict, obstruction, witness, entrywise agreement and commutators, every pair."""
    spec = modulus_change[1] if second_modulus else build_field(p, 2)
    for phi in all_vectors(spec, dim):
        for psi in all_vectors(spec, dim):
            expected = _object_classification(phi, psi)
            assert _classify_indices(spec, phi.indices(), psi.indices()) == expected[:3]
            c = clone_obstruction(phi, psi)
            witness = c.witness.index if c.witness is not None else None
            assert (c.verdict, c.tensor_obstruction.indices(), witness,
                    c.entrywise_agrees, c.commutators_vanish) == expected


def _no_vectors(order, dim):
    raise AssertionError("the scan allocated states before checking its bound")


@pytest.mark.parametrize("p,dim", [(5, 4), (3, 4), (2, 11), (2, 10 ** 9)])
def test_scan_bound_comes_before_any_state(monkeypatch, p, dim):
    monkeypatch.delenv("GQT_GUARD_OVERRIDE", raising=False)
    monkeypatch.setattr(gqt.nogo, "_index_vectors", _no_vectors)
    with pytest.raises(TooLargeError):
        scan(build_field(p, 2), dim, "clone")


@pytest.mark.parametrize("dim", [0, -1])
def test_scan_rejects_empty_states(monkeypatch, gf4, dim):
    monkeypatch.setattr(gqt.nogo, "_index_vectors", _no_vectors)
    with pytest.raises(DimensionMismatchError):
        scan(gf4, dim, "clone")


def test_scan_bound_keeps_desk_scale_and_override_lifts_it(monkeypatch, gf4):
    monkeypatch.delenv("GQT_GUARD_OVERRIDE", raising=False)
    gqt.nogo._scan_guard(25, 2)  # p=5: 390,625 pairs
    gqt.nogo._scan_guard(9, 3)  # p=3, dim 3: 531,441 pairs
    monkeypatch.setattr(gqt.nogo, "_MAX_SCAN_PAIRS", 255)
    with pytest.raises(TooLargeError) as exc:
        scan(gf4, 2, "clone")
    assert str(exc.value) == ("scan guard: GF(4)^2 has more than 255 state pairs; "
                              "set GQT_GUARD_OVERRIDE=1")
    monkeypatch.setenv("GQT_GUARD_OVERRIDE", "1")
    assert scan(gf4, 2, "clone")["pairs"] == 256


def _reference_scan(spec, dim, kind):
    """The scan as one ``_classify_indices`` call per pair, the oracle for ``scan``."""
    counts, samples = {}, {}
    states = list(itertools.product(range(spec.order), repeat=dim))
    for a in states:
        for b in states:
            verdict, obstruction, _ = _classify_indices(spec, a, b)
            counts[verdict.value] = counts.get(verdict.value, 0) + 1
            if verdict.value not in samples:
                samples[verdict.value] = {"phi": FieldVector.from_indices(spec, a).to_json(),
                                          "psi": FieldVector.from_indices(spec, b).to_json(),
                                          "obstruction_vanishes": not any(obstruction)}
    report = {"kind": kind, "field": spec.to_json(), "dim": dim, "pairs": len(states) ** 2,
              "counts": counts, "sample_witnesses": samples}
    if kind == "clone":
        report["f2_special_case"] = f2_orthogonal_special_case()
    return report


@pytest.mark.parametrize("kind", ["clone", "delete"])
@pytest.mark.parametrize("p,dim", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
def test_scan_matches_the_per_pair_reference(p, dim, kind):
    spec = build_field(p, 2)
    # key order is part of the report's bytes
    assert json.dumps(scan(spec, dim, kind)) == json.dumps(_reference_scan(spec, dim, kind))


@pytest.mark.parametrize("kind", ["clone", "delete"])
def test_scan_matches_the_reference_after_a_change_of_modulus(modulus_change, kind):
    _, second, _ = modulus_change  # GF(9) modulo t^2 + t + 2
    assert json.dumps(scan(second, 2, kind)) == json.dumps(_reference_scan(second, 2, kind))


@pytest.mark.parametrize("p", [2, 3])
def test_ray_is_one_value_per_projective_point(p):
    spec = build_field(p, 2)
    rays = set()
    for a in itertools.product(range(spec.order), repeat=2):
        ray = _ray(a, spec)
        assert (ray is None) == (not any(a))
        if ray is None:
            continue
        assert next(x for x in ray if x) == 1
        for c in range(1, spec.order):
            assert _ray(tuple(spec.mul[c][x] for x in a), spec) == ray
        rays.add(ray)
    assert len(rays) == spec.order + 1  # the points of the projective line


@pytest.mark.parametrize("kind", ["clone", "delete"])
def test_scan_classifies_only_the_first_pair_of_each_verdict(monkeypatch, kind):
    calls = []
    core = gqt.nogo._classify_indices

    def counted(spec, a, b):
        calls.append((a, b))
        return core(spec, a, b)

    monkeypatch.setattr(gqt.nogo, "_classify_indices", counted)
    report = scan(build_field(3, 2), 2, kind)
    assert len(calls) == len(report["counts"]) == 3
