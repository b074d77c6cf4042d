import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from gqt.linalg import (
    FieldMatrix,
    FieldVector,
    HermitianForm,
    basis_vector,
    evaluate_form,
    identity_matrix,
    is_hermitian_matrix,
    is_unitary,
    nullspace,
    random_unitary,
    standard_form,
    tensor,
)


def all_vectors(spec, dim):
    for combo in itertools.product(list(spec.elements()), repeat=dim):
        yield FieldVector(spec, combo)


def random_vector(spec, dim, rng):
    return FieldVector(spec, [spec.from_index(rng.randrange(spec.order)) for _ in range(dim)])


def random_hermitian(spec, dim, rng):
    sub = list(spec.subfield_elements())
    rows = [[spec.zero] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = rng.choice(sub)
        for j in range(i + 1, dim):
            e = spec.from_index(rng.randrange(spec.order))
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
        HermitianForm(gf4, FieldMatrix(gf4, [[0, t], [t, 0]]))
    with pytest.raises(DegenerateFormError):
        HermitianForm(gf4, FieldMatrix(gf4, [[1, 1], [1, 1]]))


def test_evaluate_form_examples(gf4, form4_dim2):
    e1 = basis_vector(gf4, 2, 0)
    assert evaluate_form(form4_dim2, e1, e1) == gf4.one
    v = FieldVector(gf4, [gf4.one, gf4.gen])
    assert evaluate_form(form4_dim2, v, v).is_zero()
    with pytest.raises(DimensionMismatchError):
        evaluate_form(form4_dim2, e1, FieldVector(gf4, [1, 0, 0]))


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
        alpha = spec.from_index(rng.randrange(spec.order))
        beta = spec.from_index(rng.randrange(spec.order))
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


def test_is_unitary_examples(gf4, form4_dim2):
    assert is_unitary(identity_matrix(gf4, 2), form4_dim2)
    assert is_unitary(FieldMatrix(gf4, [[0, 1], [1, 0]]), form4_dim2)
    assert not is_unitary(FieldMatrix(gf4, [[1, 1], [0, 1]]), form4_dim2)


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


def test_random_unitary_rejects_nonstandard_gram(gf9):
    gram = FieldMatrix(gf9, [[2, 0], [0, 1]])
    f = HermitianForm(gf9, gram)
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
