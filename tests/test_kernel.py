import random
from dataclasses import replace

import pytest

from gqt.errors import (
    DependentBasisError,
    NotKernelPointError,
    NotUniqueError,
    SelfOrthogonalInputError,
    TooLargeError,
    ZeroVectorError,
)
from gqt.field import build_field
from gqt.kernel import (
    KernelGeometry,
    ProjectivePoint,
    collinear,
    enumerate_kernel,
    enumerate_projective_points,
    hermitian_curve,
    is_self_orthogonal,
    normalize_ray,
    polar_hyperplane,
    polar_of_subspace,
    polar_point,
    unique_meet,
    unitary_escapes,
    verify_one_or_all,
)
from gqt.linalg import FieldMatrix, FieldVector, random_unitary, standard_form


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
    """Object-level oracle: filter every ray, span every collinear pair."""
    spec = f.spec
    points = [ProjectivePoint(v) for v in enumerate_projective_points(spec, f.dim)
              if f.evaluate(v, v).is_zero()]
    index = {p: i for i, p in enumerate(points)}
    lines = set()
    for i, x in enumerate(points):
        for j in range(i + 1, len(points)):
            y = points[j]
            if f.evaluate(x.coords, y.coords).is_zero():
                span = {i} | {index[ProjectivePoint(x.coords.scale(lam) + y.coords)]
                              for lam in spec.elements()}
                lines.add(frozenset(span))
    return points, lines


def test_enumeration_matches_brute_force_q2(form4_dim4, kernel_q2):
    points, lines = brute_force_geometry(form4_dim4)
    assert list(kernel_q2.points) == points
    assert set(kernel_q2.lines) == lines
    assert len(kernel_q2.lines) == len(lines)
    for i in range(len(points)):
        expected = {j for j in range(len(points)) if j != i and
                    form4_dim4.evaluate(points[i].coords, points[j].coords).is_zero()}
        assert kernel_q2.collinear_indices(i) == expected


def test_closed_form_counts_q4():
    # H(3, 16) is the generalized quadrangle GQ(q^2, q) with q = 4
    q = 4
    geom = enumerate_kernel(standard_form(build_field(2, 4), 4))
    assert len(geom.points) == (q ** 2 + 1) * (q ** 3 + 1) == 1105
    assert len(geom.lines) == (q + 1) * (q ** 3 + 1) == 325
    assert all(len(geom.incidence[i]) == q + 1 for i in range(len(geom.points)))
    assert all(len(line) == q ** 2 + 1 for line in geom.lines)


@pytest.mark.parametrize("fix", ["q2", "q3"])
def test_unitary_escapes_zero(fix, kernel_q2, kernel_q3):
    geom = kernel_q2 if fix == "q2" else kernel_q3
    assert unitary_escapes(geom, seed=0, samples=10) == 0


def test_unitary_escapes_counts_a_broken_geometry(kernel_q2):
    # swap a real line for three pairwise non-collinear points; mapped lines
    # then no longer match the line set
    picked = []
    for i in range(len(kernel_q2.points)):
        if all(i not in kernel_q2.collinear_indices(j) for j in picked):
            picked.append(i)
        if len(picked) == 3:
            break
    tampered = replace(kernel_q2, lines=kernel_q2.lines[1:] + (frozenset(picked),))
    assert unitary_escapes(tampered, seed=0, samples=5) > 0


def test_empty_kernel_dim1(gf4):
    geom = enumerate_kernel(standard_form(gf4, 1))
    assert geom.points == ()
    assert geom.lines == ()


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
        adj = kernel_q2.collinear_indices(i)
        for j in adj:
            assert i in kernel_q2.collinear_indices(j)


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
        a = FieldVector(gf9, [gf9.from_index(rng.randrange(81)) for _ in range(4)])
        b = FieldVector(gf9, [gf9.from_index(rng.randrange(81)) for _ in range(4)])
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
    assert report.passed
    assert not report.violations
    assert set(report.count_distribution) == {1}  # GQ: the "all" branch never fires


def test_one_or_all_negative_control(kernel_q2):
    # fabricate a non-isotropic "line" from three pairwise non-collinear points
    picked = []
    for i in range(len(kernel_q2.points)):
        if all(i not in kernel_q2.collinear_indices(j) for j in picked):
            picked.append(i)
        if len(picked) == 3:
            break
    fake = frozenset(picked)
    tampered = replace(kernel_q2, lines=kernel_q2.lines + (fake,))
    report = verify_one_or_all(tampered)
    assert not report.passed
    assert any(li == len(kernel_q2.lines) for _, li, _ in report.violations)


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
