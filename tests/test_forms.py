"""The index core ``gqt.forms``: form checks, the unitary sampler and its post-check.

``gqt.linalg`` wraps these checks for ``FieldMatrix`` objects, and the
kernel draws its unitaries as index rows; both must agree with the object
API they replaced.
"""

import pytest

import gqt.forms
import gqt.kernel
from gqt.errors import (
    DegenerateFormError,
    NoInvolutionError,
    NotHermitianError,
    NotSquareError,
    NotUnitaryError,
)
from gqt.field import build_field
from gqt.forms import HermitianForm, _UnitaryTables, _unitary_rows, standard_form
from gqt.kernel import standard_kernel, unitary_escapes
from gqt.linalg import FieldMatrix, is_hermitian_matrix, random_unitary

# Each Gram matrix fails its own check and every later one, so the check
# that raises is the first that applies: shape, field, symmetry, rank.
GRAM_CHECKS = [
    ("not-square", (2, 3), [[0, 0]], NotSquareError),
    ("no-involution", (2, 3), [[0, 1], [0, 0]], NoInvolutionError),
    ("not-hermitian", (2, 2), [[0, 1], [0, 0]], NotHermitianError),
    ("degenerate", (2, 2), [[1, 1], [1, 1]], DegenerateFormError),
]


@pytest.mark.parametrize("field,rows,error", [c[1:] for c in GRAM_CHECKS],
                         ids=[c[0] for c in GRAM_CHECKS])
def test_form_checks_raise_in_order(field, rows, error):
    spec = build_field(*field)
    with pytest.raises(error):
        HermitianForm(FieldMatrix.from_indices(spec, rows))
    with pytest.raises(error):
        HermitianForm.from_indices(spec, rows)


@pytest.mark.parametrize("field,rows,error", [c[1:] for c in GRAM_CHECKS],
                         ids=[c[0] for c in GRAM_CHECKS])
def test_is_hermitian_matrix_raises_in_the_forms_order(field, rows, error):
    m = FieldMatrix.from_indices(build_field(*field), rows)
    if error in (NotHermitianError, DegenerateFormError):
        # the matrix check answers the symmetry question and ignores the rank
        assert is_hermitian_matrix(m) is (error is DegenerateFormError)
    else:
        with pytest.raises(error):
            is_hermitian_matrix(m)


def test_form_keeps_index_rows_and_builds_gram_on_read(gf9):
    gram = FieldMatrix(gf9, [[2, 0], [0, 1]])
    f = HermitianForm(gram)
    assert f.gram_rows == gram.indices()
    assert f.gram == gram and f.gram is f.gram
    assert f == HermitianForm.from_indices(gf9, gram.indices())
    assert f != standard_form(gf9, 2)
    assert f.to_json() == {"dim": 2, "gram": gram.to_json()}


@pytest.mark.parametrize("p", [2, 3])
def test_unitary_escapes_draws_the_rows_of_random_unitary(p, monkeypatch):
    spec = build_field(p, 2)
    geom = standard_kernel(spec, 4)
    drawn = []

    def recording(f, seed):
        drawn.append(_unitary_rows(f, seed))
        return drawn[-1]

    monkeypatch.setattr(gqt.kernel, "_unitary_rows", recording)
    assert unitary_escapes(geom, seed=0, samples=20) == 0
    assert drawn == [random_unitary(geom.form, s).indices() for s in range(20)]


@pytest.mark.parametrize("seed", range(5))
def test_sampler_post_check_catches_a_non_unitary_draw(seed, gf9, form9_dim4, kernel_q3,
                                                      monkeypatch):
    # The zero scalar has norm 0, not 1: a diagonal drawn from it is singular.
    tables = gqt.forms._unitary_tables(gf9)
    monkeypatch.setattr(gqt.forms, "_unitary_tables",
                        lambda spec: _UnitaryTables(norm_one=(0,), units=tables.units))
    with pytest.raises(NotUnitaryError, match="non-unitary"):
        random_unitary(form9_dim4, seed)
    with pytest.raises(NotUnitaryError, match="non-unitary"):
        unitary_escapes(kernel_q3, seed, 1)
