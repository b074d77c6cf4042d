import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqt.elements import FieldElement
from gqt.errors import (
    DegenerateFormError,
    DimensionMismatchError,
    FieldMismatchError,
    NoInvolutionError,
    NotHermitianError,
    NotSquareError,
    NotUnitaryError,
    SingularMatrixError,
)
from gqt.field import build_field
from gqt.forms import HermitianForm, _unitary_tables, standard_form
from gqt.geocode import agree_parameters, geo_encode
from gqt.linalg import (
    FieldMatrix,
    _rref,
    FieldVector,
    basis_vector,
    identity_matrix,
    is_hermitian_matrix,
    is_unitary,
    nullspace,
    random_unitary,
    tensor,
)
from gqt.points import (
    ProjectivePoint,
    hermitian_curve,
    is_self_orthogonal,
    polar_hyperplane,
    polar_point,
)
from gqt.protocols import bell_basis, bell_state, decompose_in_basis, possible_branches


def all_vectors(spec, dim):
    for combo in itertools.product(list(spec.elements()), repeat=dim):
        yield FieldVector(spec, combo)


def random_vector(spec, dim, rng):
    return FieldVector(spec, [FieldElement(spec, rng.randrange(spec.order)) for _ in range(dim)])


def random_hermitian(spec, dim, rng):
    sub = [x for x in spec.elements() if x.conj() == x]
    rows = [[spec.zero] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = rng.choice(sub)
        for j in range(i + 1, dim):
            e = FieldElement(spec, rng.randrange(spec.order))
            rows[i][j] = e
            rows[j][i] = e.conj()
    return FieldMatrix(spec, rows)


def test_standard_form_gram(gf4, gf9):
    assert standard_form(gf4, 2).gram == identity_matrix(gf4, 2)
    assert standard_form(gf9, 4).gram == identity_matrix(gf9, 4)


def test_standard_form_needs_involution():
    gf8 = build_field(2, 3)
    with pytest.raises(NoInvolutionError):
        standard_form(gf8, 2)


def test_form_requires_hermitian_invertible_gram(gf4):
    t = gf4.gen
    with pytest.raises(NotHermitianError):
        HermitianForm(FieldMatrix(gf4, [[0, t], [t, 0]]))
    with pytest.raises(DegenerateFormError):
        HermitianForm(FieldMatrix(gf4, [[1, 1], [1, 1]]))


def test_evaluate_form_examples(gf4, form4_dim2):
    e1 = basis_vector(gf4, 2, 0)
    assert form4_dim2.evaluate(e1, e1) == gf4.one
    v = FieldVector(gf4, [gf4.one, gf4.gen])
    assert form4_dim2.evaluate(v, v).is_zero()
    with pytest.raises(DimensionMismatchError):
        form4_dim2.evaluate(e1, FieldVector(gf4, [1, 0, 0]))


def test_reflexivity_exhaustive_gf4_dim2(gf4, form4_dim2):
    for x in all_vectors(gf4, 2):
        for y in all_vectors(gf4, 2):
            assert form4_dim2.evaluate(x, y).conj() == form4_dim2.evaluate(y, x)


@pytest.mark.parametrize("p", [2, 3])
def test_sesquilinearity_random(p, form4_dim2, form9_dim4):
    form = form4_dim2 if p == 2 else form9_dim4
    spec = form.spec
    rng = random.Random(1234 + p)
    for _ in range(1000):
        a = random_vector(spec, form.dim, rng)
        b = random_vector(spec, form.dim, rng)
        c = random_vector(spec, form.dim, rng)
        alpha = FieldElement(spec, rng.randrange(spec.order))
        beta = FieldElement(spec, rng.randrange(spec.order))
        # additivity in both slots
        assert form.evaluate(a + b, c) == form.evaluate(a, c) + form.evaluate(b, c)
        assert form.evaluate(a, b + c) == form.evaluate(a, b) + form.evaluate(a, c)
        # scaling: <a alpha, b beta> = conj(alpha) <a,b> beta
        assert form.evaluate(a.scale(alpha), b.scale(beta)) == \
            alpha.conj() * form.evaluate(a, b) * beta


def test_is_hermitian_matrix_examples(gf4):
    t = gf4.gen
    assert is_hermitian_matrix(identity_matrix(gf4, 2))
    assert is_hermitian_matrix(FieldMatrix(gf4, [[0, t], [t + 1, 0]]))
    assert not is_hermitian_matrix(FieldMatrix(gf4, [[0, t], [t, 0]]))
    with pytest.raises(NotSquareError):
        is_hermitian_matrix(FieldMatrix(gf4, [[0, t]]))


def test_form_takes_its_field_from_the_gram_matrix(gf9):
    assert HermitianForm(FieldMatrix(gf9, [[2, 0], [0, 1]])).spec is gf9
    # the shape is checked before the field, also over an odd-degree field
    gf8 = build_field(2, 3)
    with pytest.raises(NotSquareError):
        HermitianForm(FieldMatrix(gf8, [[1, 0]]))
    with pytest.raises(NoInvolutionError):
        HermitianForm(identity_matrix(gf8, 2))


def test_products_over_different_fields_are_refused(gf4, gf9):
    m4, m9 = identity_matrix(gf4, 2), FieldMatrix(gf9, [[1, "t"], [0, 1]])
    with pytest.raises(FieldMismatchError):  # an IndexError from the GF(4) tables
        m4 @ FieldVector(gf9, [1, "2*t"])
    with pytest.raises(FieldMismatchError):  # read GF(4) indices as GF(9) elements
        m9 @ FieldMatrix(gf4, [["t", 1], [1, 0]])
    with pytest.raises(FieldMismatchError):  # compared unequal and answered False
        is_unitary(identity_matrix(gf9, 2), standard_form(gf4, 2))


# Each object-API entry given operands over GF(4) and GF(9), which would
# otherwise read one field's indices in the other's tables.
MIXED_FIELD_CALLS = {
    "evaluate-x": lambda k2, k3: k3.form.evaluate(FieldVector(k2.spec, [1, "t", 0, 0]),
                                                  FieldVector(k3.spec, [1, 0, 0, 0])),
    "evaluate-y": lambda k2, k3: k3.form.evaluate(FieldVector(k3.spec, [1, 0, 0, 0]),
                                                  FieldVector(k2.spec, [1, "t", 0, 0])),
    "is_self_orthogonal": lambda k2, k3: is_self_orthogonal(FieldVector(k2.spec, [1, 1, 0, 0]),
                                                            k3.form),
    "polar_hyperplane": lambda k2, k3: polar_hyperplane(FieldVector(k2.spec, [1, "t", 0, 0]),
                                                        k3.form),
    "polar_point": lambda k2, k3: polar_point([FieldVector(k2.spec, row) for row in
                                               ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])],
                                              k3.form),
    "hermitian_curve": lambda k2, k3: hermitian_curve(
        ProjectivePoint(FieldVector(k2.spec, [1, 0, 0, 0])), k3),
    "decompose-state": lambda k2, k3: decompose_in_basis(
        bell_state(k3.spec), [v for _, v in bell_basis(k2.spec)]),
    "decompose-basis": lambda k2, k3: decompose_in_basis(
        bell_state(k2.spec), [v for _, v in bell_basis(k3.spec)]),
    "possible_branches": lambda k2, k3: possible_branches(
        bell_state(k3.spec), [FieldVector(k2.spec, [1, 0]), FieldVector(k2.spec, [0, 1])]),
    "geo_encode": lambda k2, k3: geo_encode(FieldVector(k3.spec, [1, "t", 0, 0]),
                                            agree_parameters(k2, 0)),
}


@pytest.mark.parametrize("entry", list(MIXED_FIELD_CALLS))
def test_object_entries_refuse_operands_over_another_field(kernel_q2, kernel_q3, entry):
    with pytest.raises(FieldMismatchError):
        MIXED_FIELD_CALLS[entry](kernel_q2, kernel_q3)


def test_is_unitary_examples(gf4, form4_dim2):
    assert is_unitary(identity_matrix(gf4, 2), form4_dim2)
    assert is_unitary(FieldMatrix(gf4, [[0, 1], [1, 0]]), form4_dim2)
    assert not is_unitary(FieldMatrix(gf4, [[1, 1], [0, 1]]), form4_dim2)


def test_vector_subtraction(gf4, gf9):
    u = FieldVector(gf9, ["t", 1, 0])
    v = FieldVector(gf9, [1, "2*t", "t+1"])
    assert u - v == FieldVector(gf9, [a - b for a, b in zip(u, v)])
    assert (u - v) + v == u and u - u == FieldVector(gf9, [0, 0, 0])
    with pytest.raises(DimensionMismatchError):
        u - FieldVector(gf9, [1, 1])
    with pytest.raises(FieldMismatchError):
        u - FieldVector(gf4, [1, 1, 1])


def test_tensor_examples(gf4):
    assert tensor(identity_matrix(gf4, 2), identity_matrix(gf4, 2)) == identity_matrix(gf4, 4)
    v = tensor(FieldVector(gf4, [1, 0]), FieldVector(gf4, [0, 1]))
    assert v == FieldVector(gf4, [0, 1, 0, 0])
    gf9 = build_field(3, 2)
    with pytest.raises(FieldMismatchError):
        tensor(FieldVector(gf4, [1, 0]), FieldVector(gf9, [1, 0]))


@pytest.mark.parametrize("p", [2, 3])
def test_tensor_of_hermitian_is_hermitian(p):
    spec = build_field(p, 2)
    rng = random.Random(99 + p)
    for _ in range(200):
        a = random_hermitian(spec, 2, rng)
        b = random_hermitian(spec, 2, rng)
        assert is_hermitian_matrix(tensor(a, b))


def test_tensor_form_factorization(gf9):
    # <x (x) u, y (x) v> = <x,y> * <u,v> for the standard forms
    f2 = standard_form(gf9, 2)
    f4 = standard_form(gf9, 4)
    rng = random.Random(5)
    for _ in range(100):
        x, y = (random_vector(gf9, 2, rng) for _ in range(2))
        u, v = (random_vector(gf9, 2, rng) for _ in range(2))
        lhs = f4.evaluate(tensor(x, u), tensor(y, v))
        assert lhs == f2.evaluate(x, y) * f2.evaluate(u, v)


def test_tensor_associativity(gf4):
    rng = random.Random(6)
    for _ in range(50):
        a = random_vector(gf4, 2, rng)
        b = random_vector(gf4, 2, rng)
        c = random_vector(gf4, 2, rng)
        assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))


def test_random_unitary_membership_and_determinism(form9_dim4):
    for seed in range(10):
        u = random_unitary(form9_dim4, seed)
        assert is_unitary(u, form9_dim4)
    assert random_unitary(form9_dim4, 77) == random_unitary(form9_dim4, 77)
    assert random_unitary(form9_dim4, 77) != random_unitary(form9_dim4, 78)


def test_unitary_tables_are_built_once_per_field_in_draw_order():
    spec = build_field(5, 2)
    tables = _unitary_tables(spec)
    assert _unitary_tables(spec) is tables
    elements = list(spec.elements())
    one = spec.one
    # The tables hold element indices.
    assert tables.norm_one == tuple(x.index for x in elements
                                    if not x.is_zero() and x.norm() == one)
    assert tables.units == tuple((a.index, c.index) for a in elements for c in elements
                                 if a.norm() + c.norm() == one)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_unit_blocks_are_unitary_as_drawn(p):
    # The sampler's block [[a, conj c], [c, -conj a]] needs no rescale:
    # its second column has norm N(c) + N(a) = 1.
    spec = build_field(p, 2)
    f = standard_form(spec, 2)
    for a, c in _unitary_tables(spec).units:
        a, c = FieldElement(spec, a), FieldElement(spec, c)
        assert is_unitary(FieldMatrix(spec, [[a, c.conj()], [c, -a.conj()]]), f)


# SHA-256 of the JSON list of random_unitary(standard_form(GF(p^2), dim), s)
# for s in 0..19, recorded before the sampler's tables were cached per field.
UNITARY_DRAWS = {
    (5, 4): "e28c1fc168b7aeb0eb7b2b92dfd04a7152b3ab9988c0b607a66aa38e03872cf1",
    (3, 2): "57ab8592522d272dac0a4c395b962327b4871f920e8828a660712256c7c88508",
    (2, 3): "c4e368ab93cfbc0a893c383f3dc4fe44b4c25995959bd6817721bbc18f00bedc",
}


@pytest.mark.parametrize("p,dim", sorted(UNITARY_DRAWS))
def test_random_unitary_draws_are_pinned(p, dim):
    f = standard_form(build_field(p, 2), dim)
    blob = json.dumps([random_unitary(f, s).to_json() for s in range(20)])
    assert hashlib.sha256(blob.encode()).hexdigest() == UNITARY_DRAWS[(p, dim)]


def test_random_unitary_rejects_nonstandard_gram(gf9):
    gram = FieldMatrix(gf9, [[2, 0], [0, 1]])
    f = HermitianForm(gram)
    with pytest.raises(NotUnitaryError):
        random_unitary(f, 1)


def test_unitary_invariance_exhaustive_gf4(gf4, form4_dim2):
    u = random_unitary(form4_dim2, 3)
    for x in all_vectors(gf4, 2):
        for y in all_vectors(gf4, 2):
            assert form4_dim2.evaluate(u @ x, u @ y) == form4_dim2.evaluate(x, y)


def test_inverse_and_nullspace(gf9):
    rng = random.Random(8)
    f = standard_form(gf9, 4)
    m = random_unitary(f, 123)
    assert m @ m.inverse() == identity_matrix(gf9, 4)
    # nullspace of a rank-1 row is 3-dimensional
    row = FieldMatrix(gf9, [[1, 2, 0, 1]])
    basis = nullspace(row)
    assert len(basis) == 3
    for v in basis:
        assert (row @ v).is_zero()


def test_rref_of_no_rows_has_rank_zero(gf9):
    assert _rref([], gf9) == ([], [])
    rows = ((2, 1), (1, 2))  # the first row is twice the second
    reduced, pivots = _rref(rows, gf9)
    assert reduced[0] == [1, 2] and not any(reduced[1]) and pivots == [0]
    assert rows == ((2, 1), (1, 2))  # the input is not changed


@st.composite
def field_matrices(draw, square=False, max_size=4):
    """A matrix over GF(4) or GF(9), entries drawn by element index."""
    spec = build_field(draw(st.sampled_from([2, 3])), 2)
    nrows = draw(st.integers(1, max_size))
    ncols = nrows if square else draw(st.integers(1, max_size))
    entries = st.integers(0, spec.order - 1)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return FieldMatrix.from_indices(spec, rows)


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_rref_rank_nullity_and_nullspace(m):
    basis = nullspace(m)
    assert m.rank() + len(basis) == m.ncols
    zero = FieldVector.from_indices(m.spec, [0] * m.nrows)
    for v in basis:
        assert m @ v == zero


@settings(max_examples=150, deadline=None)
@given(field_matrices(square=True))
def test_rref_inverse(m):
    ident = identity_matrix(m.spec, m.nrows)
    if m.rank() < m.nrows:
        with pytest.raises(SingularMatrixError):
            m.inverse()
    else:
        assert m @ m.inverse() == ident
        assert m.inverse() @ m == ident
