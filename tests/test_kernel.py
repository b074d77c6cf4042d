import random

import pytest

import gqt.kernel
from gqt.elements import FieldElement
from gqt.errors import (
    DependentBasisError,
    InvariantError,
    NotKernelPointError,
    NotUniqueError,
    SelfOrthogonalInputError,
    TooLargeError,
    ZeroVectorError,
)
from gqt.field import build_field
from gqt.forms import HermitianForm, _pair, standard_form
from gqt.kernel import (
    KernelGeometry,
    enumerate_kernel,
    standard_kernel,
    unitary_escapes,
    verify_one_or_all,
    verify_report,
)
from gqt.linalg import FieldMatrix, FieldVector, is_unitary, random_unitary
from gqt.nogo import scan
from gqt.points import (
    ProjectivePoint,
    collinear,
    enumerate_projective_points,
    hermitian_curve,
    is_self_orthogonal,
    normalize_ray,
    polar_hyperplane,
    polar_of_subspace,
    polar_point,
    unique_meet,
)


def surface_oracle_count(spec, dim):
    """Independent route: evaluate X0^(q+1) + ... + X_{dim-1}^(q+1) = 0."""
    q = spec.q
    count = 0
    solutions = set()
    for v in enumerate_projective_points(spec, dim):
        acc = spec.zero
        for e in v.entries:
            acc = acc + e ** (q + 1)
        if acc.is_zero():
            count += 1
            solutions.add(ProjectivePoint(v))
    return count, solutions


def test_projective_point_count(gf4):
    # (4^4 - 1) / 3 = 85 rays in PG(3,4)
    assert sum(1 for _ in enumerate_projective_points(gf4, 4)) == 85


def test_normalization(gf4):
    t = gf4.gen
    v = FieldVector(gf4, [gf4.zero, t, t + 1, gf4.one])
    n = normalize_ray(v)
    assert n.entries[1] == gf4.one
    with pytest.raises(ZeroVectorError):
        normalize_ray(FieldVector(gf4, [0, 0]))


def test_is_self_orthogonal_examples(gf4, form4_dim2, form4_dim4):
    assert not is_self_orthogonal(FieldVector(gf4, [1, 0]), form4_dim2)
    assert is_self_orthogonal(FieldVector(gf4, [gf4.one, gf4.gen]), form4_dim2)
    assert is_self_orthogonal(FieldVector(gf4, [1, 1, 0, 0]), form4_dim4)


def test_kernel_counts_q2_against_oracle(gf4, kernel_q2):
    count, solutions = surface_oracle_count(gf4, 4)
    assert count == 45
    assert len(kernel_q2.points) == 45
    assert set(kernel_q2.points) == solutions
    assert len(kernel_q2.lines) == 27


def test_kernel_counts_q3_against_oracle(gf9, kernel_q3):
    count, solutions = surface_oracle_count(gf9, 4)
    assert count == 280
    assert len(kernel_q3.points) == 280
    assert set(kernel_q3.points) == solutions
    assert len(kernel_q3.lines) == 112


@pytest.mark.parametrize("fix", ["q2", "q3"])
def test_degrees_and_double_counting(fix, kernel_q2, kernel_q3):
    geom = kernel_q2 if fix == "q2" else kernel_q3
    q = geom.spec.q
    degrees = {len(geom.incidence[i]) for i in range(len(geom.points))}
    sizes = {len(line) for line in geom.lines}
    assert degrees == {q + 1}
    assert sizes == {q ** 2 + 1}
    assert len(geom.points) * (q + 1) == len(geom.lines) * (q ** 2 + 1)


def brute_force_geometry(f):
    """Object-level oracle: filter every ray, test every pair, span every collinear pair.

    Returns the points, the lines sorted as ``enumerate_kernel`` orders
    them, and each point's set of collinear points.
    """
    spec = f.spec
    points = [ProjectivePoint(v) for v in enumerate_projective_points(spec, f.dim)
              if f.evaluate(v, v).is_zero()]
    index = {p: i for i, p in enumerate(points)}
    adjacency = [set() for _ in points]
    lines = set()
    for i, x in enumerate(points):
        for j in range(i + 1, len(points)):
            y = points[j]
            if f.evaluate(x.coords, y.coords).is_zero():
                adjacency[i].add(j)
                adjacency[j].add(i)
                span = {i} | {index[ProjectivePoint(x.coords.scale(lam) + y.coords)]
                              for lam in spec.elements()}
                lines.add(frozenset(span))
    return points, sorted(lines, key=sorted), adjacency


def assert_matches_brute_force(f):
    geom = enumerate_kernel(f)
    points, lines, adjacency = brute_force_geometry(f)
    assert geom.rays == tuple(p.ray for p in points)
    assert geom.lines == tuple(lines)
    assert list(geom.adjacency) == adjacency


@pytest.mark.parametrize("kernel", ["kernel_q2", "kernel_q3"])
def test_adjacency_is_derived_from_the_lines(kernel, request):
    # two kernel points are collinear exactly when they are orthogonal
    geom = request.getfixturevalue(kernel)
    spec = geom.spec
    orthogonal = tuple(frozenset(j for j, ray in enumerate(geom.rays)
                                 if j != i and not _pair(row, ray, spec))
                       for i, row in enumerate(geom.rows))
    built = KernelGeometry(geom.form, geom.rays, geom.lines)
    assert built.adjacency == geom.adjacency == orthogonal


def test_enumeration_matches_brute_force_q2(gf4):
    for dim in (2, 3, 4):
        assert_matches_brute_force(standard_form(gf4, dim))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_enumeration_matches_brute_force_q3(gf9, dim):
    assert_matches_brute_force(standard_form(gf9, dim))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_enumeration_matches_brute_force_after_change_of_basis(p, seed):
    # G' = A* A: no coordinate vector need be isotropic or orthogonal to another
    spec = build_field(p, 2)
    a = invertible_matrix(spec, 4, random.Random(seed))
    assert_matches_brute_force(HermitianForm(a.conj_transpose() @ a))


def test_enumeration_matches_brute_force_under_both_moduli(modulus_change):
    first, second, _ = modulus_change
    for spec in (first, second):
        assert_matches_brute_force(standard_form(spec, 4))


@pytest.mark.parametrize("p, scanned", [(2, 9), (3, 28)])
def test_polar_plane_scan_runs_only_for_points_with_lines_left(monkeypatch, p, scanned):
    # of 45 and 280 points: the others lie on q + 1 found lines when reached
    calls = []
    core = gqt.kernel._polar_complement

    def counted(u, f):
        calls.append(u)
        return core(u, f)

    monkeypatch.setattr(gqt.kernel, "_polar_complement", counted)
    geom = enumerate_kernel(standard_form(build_field(p, 2), 4))
    assert len(calls) == scanned
    assert calls[0] == geom.rays[0]


def test_unequal_line_counts_raise(monkeypatch, form4_dim4):
    # the second scanned point gets an empty complement, so its scan finds no line
    calls = []
    core = gqt.kernel._polar_complement

    def starved(u, f):
        calls.append(u)
        return core(u, f) if len(calls) == 1 else []

    monkeypatch.setattr(gqt.kernel, "_polar_complement", starved)
    with pytest.raises(InvariantError):
        enumerate_kernel(form4_dim4)
    assert len(calls) == 2


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_double_counting_holds_without_lines(p, dim):
    # n d = L s reads 0 = 0: no points (dim 1), or points of degree 0 (dims 2, 3)
    report = verify_report(build_field(p, 2), dim, seed=0, samples=1)
    assert report["num_lines"] == 0 and report["line_sizes"] == []
    assert report["point_degrees"] == ([] if dim == 1 else [0])
    assert report["double_counting_ok"]


def test_closed_form_counts_q4():
    # H(3, 16) is the generalized quadrangle GQ(q^2, q) with q = 4
    q = 4
    geom = enumerate_kernel(standard_form(build_field(2, 4), 4))
    assert len(geom.points) == (q ** 2 + 1) * (q ** 3 + 1) == 1105
    assert len(geom.lines) == (q + 1) * (q ** 3 + 1) == 325
    assert all(len(geom.incidence[i]) == q + 1 for i in range(len(geom.points)))
    assert all(len(line) == q ** 2 + 1 for line in geom.lines)


def hermitian_variety_points(n, q):
    """|H(n, q^2)| = (q^(n+1) + (-1)^n)(q^n - (-1)^n) / (q^2 - 1) (Bose & Chakravarti 1966)."""
    return (q ** (n + 1) + (-1) ** n) * (q ** n - (-1) ** n) // (q * q - 1)


@pytest.mark.parametrize("p", [2, 3])
def test_closed_form_counts_dim3(p):
    # H(2, q^2) is the Hermitian curve: q^3 + 1 points, no totally isotropic line
    q = p
    geom = enumerate_kernel(standard_form(build_field(p, 2), 3))
    assert len(geom.points) == hermitian_variety_points(2, q) == q ** 3 + 1 == {2: 9, 3: 28}[q]
    assert geom.lines == ()


def test_closed_form_counts_dim5_q2(monkeypatch):
    # H(4, 4): (q^5 + 1)(q^2 + 1) points and (q^5 + 1)(q^3 + 1) lines of q^2 + 1 points
    q = 2
    monkeypatch.setenv("GQT_GUARD_OVERRIDE", "1")
    geom = enumerate_kernel(standard_form(build_field(2, 2), 5))
    assert len(geom.points) == hermitian_variety_points(4, q) == 165
    assert len(geom.lines) == (q ** 5 + 1) * (q ** 3 + 1) == 297
    assert all(len(line) == q ** 2 + 1 for line in geom.lines)
    assert hermitian_variety_points(3, q) == (q ** 2 + 1) * (q ** 3 + 1)  # the dim-4 count


@pytest.mark.parametrize("fix", ["q2", "q3"])
def test_unitary_escapes_zero(fix, kernel_q2, kernel_q3):
    geom = kernel_q2 if fix == "q2" else kernel_q3
    assert unitary_escapes(geom, seed=0, samples=10) == 0


def test_unitary_escapes_counts_a_broken_geometry(kernel_q2):
    # swap a real line for three pairwise non-collinear points; mapped lines
    # then no longer match the line set
    picked = []
    for i in range(len(kernel_q2.points)):
        if all(i not in kernel_q2.adjacency[j] for j in picked):
            picked.append(i)
        if len(picked) == 3:
            break
    tampered = KernelGeometry(kernel_q2.form, kernel_q2.rays,
                              kernel_q2.lines[1:] + (frozenset(picked),))
    assert unitary_escapes(tampered, seed=0, samples=5) > 0


def test_empty_kernel_dim1(gf4):
    geom = enumerate_kernel(standard_form(gf4, 1))
    assert geom.points == ()
    assert geom.lines == ()


def test_curve_over_an_empty_kernel_is_empty(gf4):
    # the column pairing runs over zero rays
    geom = enumerate_kernel(standard_form(gf4, 1))
    assert hermitian_curve(ProjectivePoint(FieldVector(gf4, [1])), geom) == []


def test_enumeration_guard():
    gf49 = build_field(7, 2)
    with pytest.raises(TooLargeError):
        enumerate_kernel(standard_form(gf49, 4))


def test_collinearity(gf4, kernel_q2):
    t = gf4.gen
    x = ProjectivePoint(FieldVector(gf4, [1, 1, 0, 0]))
    assert collinear(x, x, kernel_q2)
    y = ProjectivePoint(FieldVector(gf4, [gf4.one, t, gf4.zero, gf4.zero]))
    assert not collinear(x, y, kernel_q2)
    # symmetry, exhaustive
    n = len(kernel_q2.points)
    for i in range(n):
        adj = kernel_q2.adjacency[i]
        for j in adj:
            assert i in kernel_q2.adjacency[j]


def test_polar_hyperplane(gf9, form9_dim4):
    e1 = FieldVector(gf9, [1, 0, 0, 0])
    c = polar_hyperplane(e1, form9_dim4)
    assert c == e1  # functional x1 = 0
    with pytest.raises(ZeroVectorError):
        polar_hyperplane(FieldVector(gf9, [0, 0, 0, 0]), form9_dim4)


def test_polarity_is_involutive_on_points(gf9, form9_dim4):
    rng = random.Random(42)
    pts = list(enumerate_projective_points(gf9, 4))
    for v in rng.sample(pts, 100):
        pi_v = polar_of_subspace([v], form9_dim4)
        assert len(pi_v) == 3  # hyperplane
        assert polar_point(pi_v, form9_dim4) == ProjectivePoint(v)


def test_kernel_point_in_own_polar(kernel_q2):
    f = kernel_q2.form
    for p in kernel_q2.points:
        functional = polar_hyperplane(p.coords, f)
        acc = f.spec.zero
        for c, w in zip(functional.entries, p.coords.entries):
            acc = acc + c * w
        assert acc.is_zero()


def test_polar_of_kernel_line_is_itself(gf4, kernel_q2):
    f = kernel_q2.form
    for line in kernel_q2.lines:
        members = sorted(line)
        basis = [kernel_q2.points[members[0]].coords, kernel_q2.points[members[1]].coords]
        polar = polar_of_subspace(basis, f)
        assert len(polar) == 2
        # same 2-space: every polar basis vector lies on the line's point set
        for v in polar:
            assert kernel_q2.contains(ProjectivePoint(v))
            assert kernel_q2.index_of(ProjectivePoint(v)) in line


def test_double_polarity_rank_on_2_subspaces(gf9, form9_dim4):
    rng = random.Random(7)
    for _ in range(50):
        a = FieldVector(gf9, [FieldElement(gf9, rng.randrange(81) % 9) for _ in range(4)])
        b = FieldVector(gf9, [FieldElement(gf9, rng.randrange(81) % 9) for _ in range(4)])
        m = FieldMatrix(gf9, [list(a.entries), list(b.entries)])
        if m.rank() != 2:
            continue
        polar = polar_of_subspace([a, b], form9_dim4)
        assert len(polar) == 2
        back = polar_of_subspace(polar, form9_dim4)
        combined = FieldMatrix(gf9, [list(a.entries), list(b.entries)] +
                               [list(v.entries) for v in back])
        assert combined.rank() == 2  # pi(pi(W)) = W


def test_polar_rejects_dependent_basis(gf9, form9_dim4):
    v = FieldVector(gf9, [1, 2, 0, 1])
    with pytest.raises(DependentBasisError):
        polar_of_subspace([v, v.scale(gf9.from_int(2))], form9_dim4)


def test_polar_inequality_on_lines(kernel_q2):
    # for every kernel line B and point A on B: pi(B) subset pi(A)
    f = kernel_q2.form
    spec = kernel_q2.spec
    for line in list(kernel_q2.lines)[:10]:
        members = sorted(line)
        basis = [kernel_q2.points[members[0]].coords, kernel_q2.points[members[1]].coords]
        polar_b = polar_of_subspace(basis, f)
        for pid in members:
            a = kernel_q2.points[pid].coords
            functional = polar_hyperplane(a, f)
            for w in polar_b:
                acc = spec.zero
                for c, wi in zip(functional.entries, w.entries):
                    acc = acc + c * wi
                assert acc.is_zero()


@pytest.mark.parametrize("fix", ["q2", "q3"])
def test_one_or_all_passes(fix, kernel_q2, kernel_q3):
    geom = kernel_q2 if fix == "q2" else kernel_q3
    report = verify_one_or_all(geom)
    assert report["passed"]
    assert not report["violations"]
    assert set(report["count_distribution"]) == {"1"}  # GQ: the "all" branch never fires
    # every (point, line) pair but the incident ones
    assert report["pairs_checked"] == \
        len(geom.points) * len(geom.lines) - sum(map(len, geom.lines))


def with_fake_line(geom):
    """The geometry plus a non-isotropic "line" of three pairwise non-collinear points."""
    picked = []
    for i in range(len(geom.rays)):
        if all(i not in geom.adjacency[j] for j in picked):
            picked.append(i)
        if len(picked) == 3:
            break
    return KernelGeometry(geom.form, geom.rays, geom.lines + (frozenset(picked),))


def with_doubled_line(geom):
    """The geometry plus a second copy of line 0."""
    return KernelGeometry(geom.form, geom.rays, geom.lines + (geom.lines[0],))


def with_bent_line(geom):
    """The geometry with line 0 moved to its end and bent: its largest point
    swapped for the smallest point off it collinear with its smallest, so
    that it and a real line are two distinct lines that share two points."""
    line = geom.lines[0]
    first, last = min(line), max(line)
    z = min(geom.adjacency[first] - line)
    return KernelGeometry(geom.form, geom.rays, geom.lines[1:] + (line - {last} | {z},))


def test_one_or_all_negative_control(kernel_q2):
    tampered = with_fake_line(kernel_q2)
    report = verify_one_or_all(tampered)
    assert not report["passed"]
    assert any(li == len(kernel_q2.lines) for _, li, _ in report["violations"])


def test_gq_unique_line_negative_control(kernel_q2):
    # a second copy of line 0 leaves every count as it was, but two points
    # of that line now share two lines
    doubled = kernel_q2.lines[0]
    tampered = with_doubled_line(kernel_q2)
    report = verify_one_or_all(tampered)
    assert report["violations"] == [] and not report["passed"]
    # x on the doubled line sees exactly the meet y of a line L that misses x
    # but meets the doubled line, and the lines through x and y are its two copies
    expected = [[x, li] for li, line in enumerate(tampered.lines) if line & doubled
                for x in sorted(doubled - line)]
    assert len(expected) == 40  # 5 points, 2 more lines through each, 4 points off each
    assert report["gq_unique_line_failures"] == expected


def reference_one_or_all(geom):
    """The One-or-All sweep over each point's collinear points as a frozenset:
    ``KernelGeometry.adjacency``, not the union of line bitmasks."""
    distribution, violations, gq_failures = {}, [], []
    for li, line in enumerate(geom.lines):
        for xi, adjacent in enumerate(geom.adjacency):
            if xi in line:
                continue
            seen = adjacent & line
            distribution[len(seen)] = distribution.get(len(seen), 0) + 1
            if len(seen) not in (1, len(line)):
                violations.append([xi, li, len(seen)])
            elif len(seen) == 1 and len(geom.incidence[xi] & geom.incidence[min(seen)]) != 1:
                gq_failures.append([xi, li])
    return {"pairs_checked": sum(distribution.values()),
            "count_distribution": {str(k): v for k, v in sorted(distribution.items())},
            "violations": violations, "gq_unique_line_failures": gq_failures,
            "passed": not violations and not gq_failures}


def _one_or_all_geometries(name, kernel_q2, kernel_q3, modulus_change):
    if name in ("q2", "q3"):
        return kernel_q2 if name == "q2" else kernel_q3
    if name.startswith("modulus-"):
        return standard_kernel(modulus_change[int(name[-1])], 4)
    if name.startswith("basis-"):
        spec = build_field(int(name[-1]), 2)
        a = invertible_matrix(spec, 4, random.Random(7))
        return enumerate_kernel(HermitianForm(a.conj_transpose() @ a))
    tamper, fix = name.split("-")
    tampered = {"fake": with_fake_line, "doubled": with_doubled_line, "bent": with_bent_line}
    return tampered[tamper](kernel_q2 if fix == "q2" else kernel_q3)


# 12 (q=2) and 177 (q=3) points see no point of the fake line, the last; in
# the other 18 and 24 violations a point sees two points of a real line, one
# of them through the fake line.  The bent line, also the last, shares its
# smallest point x and the point z it gained with the real line xz: points see
# 0 or 2 points of it or of other lines, and x and z, which now share two
# lines, fail the refinement on the lines where one of them sees only the other.
@pytest.mark.parametrize("name, on_last_line, violations, gq_failures", [
    ("q2", 0, 0, 0), ("q3", 0, 0, 0), ("modulus-0", 0, 0, 0), ("modulus-1", 0, 0, 0),
    ("basis-2", 0, 0, 0), ("basis-3", 0, 0, 0),
    ("fake-q2", 12, 30, 0), ("fake-q3", 177, 201, 0), ("doubled-q2", 0, 0, 40),
    ("bent-q2", 16, 47, 3), ("bent-q3", 57, 167, 5),
])
def test_one_or_all_matches_the_adjacency_reference(name, on_last_line, violations, gq_failures,
                                                    kernel_q2, kernel_q3, modulus_change):
    geom = _one_or_all_geometries(name, kernel_q2, kernel_q3, modulus_change)
    report = verify_one_or_all(geom)
    last = len(geom.lines) - 1
    assert (sum(li == last for _, li, _ in report["violations"]), len(report["violations"]),
            len(report["gq_unique_line_failures"])) == (on_last_line, violations, gq_failures)
    assert report == reference_one_or_all(geom)


def test_unitary_action_permutes_kernel(kernel_q2):
    f = kernel_q2.form
    point_set = set(kernel_q2.points)
    for seed in range(5):
        u = random_unitary(f, seed)
        assert {ProjectivePoint(u @ p.coords) for p in kernel_q2.points} == point_set


def test_hermitian_curve_sizes(gf4, gf9, kernel_q2, kernel_q3):
    x2 = ProjectivePoint(FieldVector(gf4, [1, 0, 0, 0]))
    c2 = hermitian_curve(x2, kernel_q2)
    assert len(c2) == 9
    assert all(kernel_q2.contains(p) for p in c2)
    x3 = ProjectivePoint(FieldVector(gf9, [1, 0, 0, 0]))
    assert len(hermitian_curve(x3, kernel_q3)) == 28


def test_hermitian_curve_rejects_kernel_point(gf4, kernel_q2):
    x = ProjectivePoint(FieldVector(gf4, [1, 1, 0, 0]))
    with pytest.raises(SelfOrthogonalInputError):
        hermitian_curve(x, kernel_q2)


def test_unique_meet_exhaustive_q2(gf4, kernel_q2):
    x = ProjectivePoint(FieldVector(gf4, [1, 0, 0, 0]))
    curve = hermitian_curve(x, kernel_q2)
    for line in kernel_q2.lines:
        p = unique_meet(line, curve, kernel_q2)
        assert kernel_q2.index_of(p) in line


def test_unique_meet_random_q3(gf9, kernel_q3):
    rng = random.Random(11)
    non_kernel = [
        v for v in enumerate_projective_points(gf9, 4)
        if not kernel_q3.form.evaluate(v, v).is_zero()
    ]
    for _ in range(50):
        x = ProjectivePoint(rng.choice(non_kernel))
        curve = hermitian_curve(x, kernel_q3)
        line = kernel_q3.lines[rng.randrange(len(kernel_q3.lines))]
        unique_meet(line, curve, kernel_q3)  # raises NotUnique on failure


def test_unique_meet_empty_curve(kernel_q2):
    with pytest.raises(NotUniqueError):
        unique_meet(kernel_q2.lines[0], [], kernel_q2)


def test_index_of_rejects_non_kernel_point(gf4, kernel_q2):
    with pytest.raises(NotKernelPointError):
        kernel_q2.index_of(ProjectivePoint(FieldVector(gf4, [1, 0, 0, 0])))


def test_catalog_export(kernel_q2):
    data = kernel_q2.to_json()
    assert data["num_points"] == 45 and data["num_lines"] == 27
    assert data["field"] == {"p": 2, "k": 2, "modulus": [1, 1, 1]}
    csv_text = kernel_q2.to_csv()
    assert csv_text.splitlines()[0].startswith("# p,2,k,2,dim,4")
    assert sum(1 for line in csv_text.splitlines() if line.startswith("point")) == 45


@pytest.mark.parametrize("fix", ["q2", "q3"])
def test_hermitian_curve_matches_form_filter(fix, kernel_q2, kernel_q3):
    # the index-level curve against a brute-force form.evaluate filter
    geom = kernel_q2 if fix == "q2" else kernel_q3
    f = geom.form
    bases = [v for v in enumerate_projective_points(geom.spec, 4)
             if not f.evaluate(v, v).is_zero()]
    if fix == "q3":
        bases = random.Random(5).sample(bases, 60)
    for v in bases:
        expected = [p for p in geom.points if f.evaluate(v, p.coords).is_zero()]
        assert hermitian_curve(ProjectivePoint(v), geom) == expected


def test_geometry_rays_index_the_points(kernel_q2, kernel_q3):
    for geom in (kernel_q2, kernel_q3):
        assert geom.rays == tuple(p.coords.indices() for p in geom.points)
        assert all(geom.index_of(p) == i for i, p in enumerate(geom.points))


def test_geometry_rows_are_the_polar_rows_of_the_points(kernel_q2, kernel_q3):
    for geom in (kernel_q2, kernel_q3):
        assert geom.rows == tuple(polar_hyperplane(p.coords, geom.form).indices()
                                  for p in geom.points)


def invertible_matrix(spec, dim, rng):
    """A uniformly drawn invertible dim x dim matrix over spec."""
    a = None
    while a is None or a.rank() < dim:
        a = FieldMatrix.from_indices(spec, [[rng.randrange(spec.order) for _ in range(dim)]
                                            for _ in range(dim)])
    return a


@pytest.mark.parametrize("fix", ["q2", "q3"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_change_of_basis_carries_kernel_points_and_lines(fix, seed, kernel_q2, kernel_q3):
    """Metamorphic oracle: with G' = A* G A, <x, y>' = <A x, A y>, so the
    kernel of G' is A^-1 K(G), A^-1 carries lines onto lines and the
    One-or-All report is the same.

    Fails when ``HermitianForm._row`` reads the Gram matrix by columns
    (``zip(*gram)`` for ``gram``), which the symmetric identity Gram hides.
    """
    geom = kernel_q2 if fix == "q2" else kernel_q3
    spec, dim = geom.spec, geom.form.dim
    a = invertible_matrix(spec, dim, random.Random(seed))
    form = HermitianForm(a.conj_transpose() @ geom.form.gram @ a)
    assert not form.is_standard()
    moved = enumerate_kernel(form)
    a_inverse = a.inverse()
    image = [moved.index_of(ProjectivePoint(a_inverse @ p.coords)) for p in geom.points]
    assert sorted(image) == list(range(len(moved.points)))
    assert len(moved.lines) == len(geom.lines)
    assert {frozenset(image[i] for i in line) for line in geom.lines} == set(moved.lines)
    # the polar rows the geometry derives are conj(v) G', here as matrix products
    assert moved.rows == tuple((FieldMatrix(spec, [p.coords.conj().entries]) @ form.gram)
                               .indices()[0] for p in moved.points)
    assert verify_one_or_all(moved) == verify_one_or_all(geom)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_change_of_basis_conjugates_unitaries(p, seed):
    """Metamorphic oracle: U unitary for G gives A^-1 U A unitary for
    G' = A* G A, here with U = ``random_unitary`` of the standard form G = I.

    Fails when ``is_unitary`` tests u G u* == G in place of u* G u == G;
    the two agree for the identity Gram, so standard-form tests miss it.
    """
    spec = build_field(p, 2)
    standard = standard_form(spec, 4)
    rng = random.Random(seed)
    a = invertible_matrix(spec, 4, rng)
    form = HermitianForm(a.conj_transpose() @ a)
    a_inverse = a.inverse()
    for _ in range(3):
        u = random_unitary(standard, rng.getrandbits(32))
        assert is_unitary(a_inverse @ u @ a, form)


def test_change_of_modulus_carries_conjugates_norms_kernel_and_scans(modulus_change):
    """Metamorphic oracle: GF(9) modulo t^2 + 1 and modulo t^2 + t + 2 are
    isomorphic by t -> r, r a root of t^2 + 1 in the second field (the
    ``modulus_change`` fixture).  The map carries conjugates, norms, kernel
    points and lines, and leaves the noclone/nodelete scan counts unchanged.

    Fails when a degree-2 conjugation table sends c0 + c1 t to
    c0 + c1 t^-1, which is right only when N(t) = 1: every default
    quadratic modulus (GF(4), GF(9), GF(25), GF(49)) has constant term 1,
    so no test of a default field sees it.
    """
    first, second, image = modulus_change
    assert sorted(image) == list(range(second.order))
    for x in first.elements():
        y = FieldElement(second, image[x.index])
        assert FieldElement(second, image[x.conj().index]) == y.conj()
        assert FieldElement(second, image[x.norm().index]) == y.norm()
    geom, moved = standard_kernel(first, 4), standard_kernel(second, 4)
    points = [moved.index_of(ProjectivePoint(FieldVector.from_indices(
        second, [image[c] for c in ray]))) for ray in geom.rays]
    assert sorted(points) == list(range(len(moved.points)))
    assert {frozenset(points[i] for i in line) for line in geom.lines} == set(moved.lines)
    for kind in ("clone", "delete"):
        assert scan(first, 2, kind)["counts"] == scan(second, 2, kind)["counts"]
