"""The index core: Hermitian forms, row reduction and unitaries on element indices.

Vectors are tuples of element indices and matrices are tuples of rows,
read through the field's lookup tables.  The form convention conjugates
the FIRST argument, <x,y> = sum conj(x_i) * gram_ij * y_j, and is
reflexive: conj(<x,y>) = <y,x>.

This module builds no ``FieldVector`` or ``FieldMatrix``: ``gqt.linalg``
holds those classes and wraps the checks here, and ``HermitianForm.gram``
imports it only when a caller reads the Gram matrix as an object.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, List, NamedTuple, Sequence, Tuple

from .errors import (
    DegenerateFormError,
    DimensionMismatchError,
    FieldMismatchError,
    NoInvolutionError,
    NotHermitianError,
    NotSquareError,
    NotUnitaryError,
)
from .field import FieldSpec

if TYPE_CHECKING:
    from .elements import FieldElement
    from .linalg import FieldMatrix, FieldVector

Rows = Tuple[Tuple[int, ...], ...]


def _pair(a: Sequence[int], b: Sequence[int], spec: FieldSpec) -> int:
    """The index of sum_i a_i b_i, for element indices a and b."""
    add, mul = spec.add, spec.mul
    acc = 0
    for x, y in zip(a, b):
        acc = add[acc][mul[x][y]]
    return acc


def _matvec(rows: Sequence[Sequence[int]], v: Sequence[int], spec: FieldSpec) -> Tuple[int, ...]:
    """The index tuple of the matrix-vector product, for element indices rows and v."""
    return tuple([_pair(row, v, spec) for row in rows])


def _rref(rows: Sequence[Sequence[int]], spec: FieldSpec) -> Tuple[List[Sequence[int]], List[int]]:
    """Reduced row echelon form of a matrix of element indices.

    Returns the reduced rows (a new list; the input is not changed) and
    the pivot columns.  A matrix with no rows has rank 0.  Callers holding
    ``FieldMatrix`` or ``FieldVector`` objects convert at their edges.
    """
    add, neg, mul, inv = spec.add, spec.neg, spec.mul, spec.inv
    rows = list(rows)
    nrows = len(rows)
    pivots: List[int] = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r] = list(map(mul[inv[rows[r][c]]].__getitem__, rows[r]))
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                m = mul[neg[f]]
                rows[i] = [add[a][m[b]] for a, b in zip(rows[i], top)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _null_basis(rows: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int,
                spec: FieldSpec) -> List[List[int]]:
    """Canonical null-space basis of a reduced matrix, as index lists.

    One vector per free column: 1 there, minus the column's entries at the
    pivot coordinates, 0 elsewhere.
    """
    neg = spec.neg
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = neg[rows[r][fc]]
        basis.append(v)
    return basis


def _identity(n: int) -> List[List[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _kron(a: Sequence[int], b: Sequence[int], spec: FieldSpec) -> Tuple[int, ...]:
    """The index tuple of a (x) b = (a_0 b_0, a_0 b_1, ...), for element indices a and b."""
    return tuple([row[y] for row in map(spec.mul.__getitem__, a) for y in b])


def _rows_json(rows: Iterable[Sequence[int]], spec: FieldSpec) -> list:
    """Rows of element indices as lists of coefficient lists, the JSON form of a matrix."""
    coeffs = spec.coeffs
    return [[list(coeffs[i]) for i in row] for row in rows]


def _is_hermitian_rows(rows: Sequence[Sequence[int]], spec: FieldSpec) -> bool:
    """True iff the matrix of element indices equals its conjugate transpose."""
    if any(len(row) != len(rows) for row in rows):
        raise NotSquareError("hermitian test requires a square matrix")
    if spec.q is None:
        raise NoInvolutionError("Hermitian forms need an even extension degree")
    frob = spec.frob
    return all(x == frob[rows[j][i]] for i, row in enumerate(rows) for j, x in enumerate(row))


class HermitianForm:
    """Nondegenerate Hermitian form given by its Gram matrix, over the matrix's field.

    The Gram matrix is kept as rows of element indices (``gram_rows``);
    ``gram`` builds the ``FieldMatrix`` on first read.
    """

    def __init__(self, gram: FieldMatrix):
        self._set(gram.spec, gram.indices())

    @classmethod
    def from_indices(cls, spec: FieldSpec, rows: Iterable[Iterable[int]]) -> "HermitianForm":
        """The form whose Gram matrix has the given rows of element indices."""
        f = cls.__new__(cls)
        f._set(spec, tuple(map(tuple, rows)))
        return f

    def _set(self, spec: FieldSpec, rows: Rows) -> None:
        if not _is_hermitian_rows(rows, spec):
            raise NotHermitianError("Gram matrix is not Hermitian")
        if len(_rref(rows, spec)[1]) < len(rows):
            raise DegenerateFormError("Gram matrix is singular")
        self.spec = spec
        self.gram_rows = rows
        self.dim = len(rows)

    @cached_property
    def gram(self) -> FieldMatrix:
        from .linalg import FieldMatrix

        return FieldMatrix.from_indices(self.spec, self.gram_rows)

    def evaluate(self, x: FieldVector, y: FieldVector) -> FieldElement:
        from .elements import FieldElement

        if x.spec != self.spec or y.spec != self.spec:
            raise FieldMismatchError("vectors and form over different fields")
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatchError(
                f"form has dim {self.dim}, got vectors of length {len(x)}, {len(y)}"
            )
        return FieldElement(self.spec, _pair(self._row(x.indices()), y.indices(), self.spec))

    def _row(self, x: Sequence[int]) -> Tuple[int, ...]:
        """conj(x) gram for element indices x: <x, y> is ``_pair`` of it with y."""
        if len(x) != self.dim:
            raise DimensionMismatchError(f"form has dim {self.dim}, got a vector of length {len(x)}")
        add, mul, frob = self.spec.add, self.spec.mul, self.spec.frob
        row = [0] * self.dim
        for xi, grow in zip(x, self.gram_rows):
            if xi:
                m = mul[frob[xi]]
                for j, g in enumerate(grow):
                    if g:
                        row[j] = add[row[j]][m[g]]
        return tuple(row)

    def is_standard(self) -> bool:
        return self.gram_rows == tuple(map(tuple, _identity(self.dim)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, HermitianForm) and self.spec == other.spec
                and self.gram_rows == other.gram_rows)

    def __repr__(self) -> str:
        return f"HermitianForm(dim={self.dim})"

    def to_json(self) -> dict:
        return {"dim": self.dim, "gram": _rows_json(self.gram_rows, self.spec)}


def standard_form(spec: FieldSpec, dim: int) -> HermitianForm:
    """The identity-Gram form sum conj(x_i) y_i."""
    if dim < 1:
        raise DimensionMismatchError("dimension must be >= 1")
    return HermitianForm.from_indices(spec, _identity(dim))


def _is_unitary_rows(u: Sequence[Sequence[int]], f: HermitianForm) -> bool:
    """True iff the dim x dim matrix of element indices u preserves f: u* G u == G.

    Entry (i, j) of u* G u is <u_i, u_j> for the columns u_i, u_j of u.
    """
    cols = list(zip(*u))
    return all(_pair(f._row(ci), cj, f.spec) == g
               for ci, grow in zip(cols, f.gram_rows) for cj, g in zip(cols, grow))


# --- seeded unitary sampler ---------------------------------------------------

_PRODUCT_LENGTH = 16


class _UnitaryTables(NamedTuple):
    """Field-only tables of the unitary sampler, in draw order, as element indices."""

    norm_one: Tuple[int, ...]  # nonzero x with norm(x) = 1
    units: Tuple[Tuple[int, int], ...]  # norm(a) + norm(c) = 1


@lru_cache(maxsize=None)
def _unitary_tables(spec: FieldSpec) -> _UnitaryTables:
    """The sampler's tables of ``spec``, built on first use and shared."""
    add, mul, frob = spec.add, spec.mul, spec.frob
    norms = [mul[x][frob[x]] for x in range(spec.order)]
    return _UnitaryTables(
        norm_one=tuple(x for x in range(1, spec.order) if norms[x] == 1),
        units=tuple((a, c) for a, na in enumerate(norms) for c, nc in enumerate(norms)
                    if add[na][nc] == 1),
    )


def _unitary_rows(f: HermitianForm, seed: int) -> Rows:
    """Seeded product of generators, as rows of element indices; always post-verified.

    Generators: coordinate permutations, diagonals of norm-1 scalars, and
    two-coordinate block unitaries [[a, b], [c, d]].  Only the standard
    (identity-Gram) form is supported; the sampler makes no uniformity
    claim.  Each generator acts on the rows of the product so far.
    """
    if not f.is_standard():
        raise NotUnitaryError("random_unitary supports only the standard form")
    spec, n = f.spec, f.dim
    add, neg, mul, frob = spec.add, spec.neg, spec.mul, spec.frob
    rng = random.Random(seed)
    norm_one, units = _unitary_tables(spec)
    rows = _identity(n)
    kinds = ["perm", "diag"] + (["block"] if n >= 2 else [])
    for _ in range(_PRODUCT_LENGTH):
        kind = rng.choice(kinds)
        if kind == "perm":
            # row i of the permutation matrix has its 1 in column perm[i]
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [rows[j] for j in perm]
        elif kind == "diag":
            scales = [mul[rng.choice(norm_one)] for _ in range(n)]
            rows = [[m[x] for x in row] for m, row in zip(scales, rows)]
        else:
            i, j = sorted(rng.sample(range(n), 2))
            a, c = rng.choice(units)
            # (conj(c), -conj(a)) is orthogonal to (a, c), and its norm is N(c) + N(a) = 1
            # because -1 lies in the subfield and squares to 1: no rescale is needed.
            b, d = frob[c], neg[frob[a]]
            ri, rj = rows[i], rows[j]
            rows[i] = [add[mul[a][x]][mul[b][y]] for x, y in zip(ri, rj)]
            rows[j] = [add[mul[c][x]][mul[d][y]] for x, y in zip(ri, rj)]
    rows = tuple(map(tuple, rows))
    if not _is_unitary_rows(rows, f):
        raise NotUnitaryError("sampler produced a non-unitary matrix")
    return rows
