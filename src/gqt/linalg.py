"""Exact vectors and matrices over a FieldSpec: the object API of the index core.

``FieldVector`` and ``FieldMatrix`` hold element indices and compute
through ``gqt.forms``, the index core, which also defines ``HermitianForm``
and ``standard_form``.  The checks and the sampler below are thin
wrappers over the core's row-level versions, so each rule is defined
once.  Vectors are column-style: operators act on the left.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple, Union

from .elements import FieldElement
from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotSquareError,
    SingularMatrixError,
)
from .field import FieldSpec
from .forms import (
    _identity,
    _is_hermitian_rows,
    _is_unitary_rows,
    _kron,
    _matvec,
    _null_basis,
    _pair,
    _rows_json,
    _rref,
    _unitary_rows,
)

if TYPE_CHECKING:
    from .forms import HermitianForm


class FieldVector:
    """Fixed-length vector of field elements, stored as element indices."""

    __slots__ = ("spec", "_indices")

    def __init__(self, spec: FieldSpec, entries: Sequence[FieldElement]):
        self._set(spec, tuple(spec.parse(e).index for e in entries))

    @classmethod
    def from_indices(cls, spec: FieldSpec, indices: Iterable[int]) -> "FieldVector":
        """The vector whose entries have the given element indices."""
        v = cls.__new__(cls)
        v._set(spec, tuple(indices))
        return v

    def _set(self, spec: FieldSpec, indices: Tuple[int, ...]) -> None:
        if not indices:
            raise DimensionMismatchError("vectors must have length >= 1")
        self.spec = spec
        self._indices = indices

    def indices(self) -> Tuple[int, ...]:
        """The element indices of the entries."""
        return self._indices

    @property
    def entries(self) -> Tuple[FieldElement, ...]:
        return tuple(FieldElement(self.spec, i) for i in self._indices)

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, i: int) -> FieldElement:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldVector)
            and self.spec == other.spec
            and self._indices == other._indices
        )

    def __hash__(self) -> int:
        return hash((self.spec.p, self.spec.k, self._indices))

    def __add__(self, other: "FieldVector") -> "FieldVector":
        if not isinstance(other, FieldVector):
            return NotImplemented
        self._check(other)
        add = self.spec.add
        return FieldVector.from_indices(self.spec, [
            add[a][b] for a, b in zip(self._indices, other._indices)])

    def __sub__(self, other: "FieldVector") -> "FieldVector":
        if not isinstance(other, FieldVector):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "FieldVector":
        return FieldVector.from_indices(self.spec, map(self.spec.neg.__getitem__,
                                                       self._indices))

    def scale(self, c: Union[FieldElement, int, str]) -> "FieldVector":
        row = self.spec.mul[self.spec.parse(c).index]
        return FieldVector.from_indices(self.spec, map(row.__getitem__, self._indices))

    def is_zero(self) -> bool:
        return not any(self._indices)

    def conj(self) -> "FieldVector":
        return FieldVector.from_indices(self.spec, map(self.spec.frob_i, self._indices))

    def _check(self, other: "FieldVector") -> None:
        if self.spec != other.spec:
            raise FieldMismatchError("vectors over different fields")
        if len(self) != len(other):
            raise DimensionMismatchError(f"lengths {len(self)} and {len(other)} differ")

    def __repr__(self) -> str:
        return "vec(" + ", ".join(str(e) for e in self.entries) + ")"

    def to_json(self) -> list:
        return [list(self.spec.coeffs[i]) for i in self._indices]


class FieldMatrix:
    """Rectangular matrix of field elements, stored row-major as element indices."""

    __slots__ = ("spec", "_rows")

    def __init__(self, spec: FieldSpec, rows: Sequence[Sequence[FieldElement]]):
        self._set(spec, tuple(tuple(spec.parse(e).index for e in row) for row in rows))

    @classmethod
    def from_indices(cls, spec: FieldSpec, rows: Iterable[Iterable[int]]) -> "FieldMatrix":
        """The matrix whose entries have the given element indices."""
        m = cls.__new__(cls)
        m._set(spec, tuple(map(tuple, rows)))
        return m

    def _set(self, spec: FieldSpec, rows: Tuple[Tuple[int, ...], ...]) -> None:
        if not rows or not rows[0]:
            raise DimensionMismatchError("matrices must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatchError("ragged rows")
        self.spec = spec
        self._rows = rows

    def indices(self) -> Tuple[Tuple[int, ...], ...]:
        """The element indices of the entries, row by row."""
        return self._rows

    @property
    def rows(self) -> Tuple[Tuple[FieldElement, ...], ...]:
        return tuple(tuple(FieldElement(self.spec, i) for i in row) for row in self._rows)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.spec == other.spec
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.spec.p, self.spec.k, self._rows))

    def __matmul__(self, other: Union["FieldMatrix", FieldVector]):
        if not isinstance(other, (FieldMatrix, FieldVector)):
            return NotImplemented
        spec = self.spec
        if other.spec != spec:
            raise FieldMismatchError("operands over different fields")
        if isinstance(other, FieldVector):
            if self.ncols != len(other):
                raise DimensionMismatchError(f"{self.ncols} cols vs vector length {len(other)}")
            return FieldVector.from_indices(spec, _matvec(self._rows, other.indices(), spec))
        if self.ncols != other.nrows:
            raise DimensionMismatchError(f"{self.ncols} cols vs {other.nrows} rows")
        cols = list(zip(*other._rows))
        return FieldMatrix.from_indices(spec, [
            [_pair(row, col, spec) for col in cols] for row in self._rows
        ])

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix.from_indices(self.spec, zip(*self._rows))

    def conj(self) -> "FieldMatrix":
        return FieldMatrix.from_indices(self.spec, [map(self.spec.frob_i, row)
                                                    for row in self._rows])

    def conj_transpose(self) -> "FieldMatrix":
        return self.conj().transpose()

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def rank(self) -> int:
        return len(_rref(self._rows, self.spec)[1])

    def inverse(self) -> "FieldMatrix":
        if not self.is_square():
            raise NotSquareError("only square matrices are invertible")
        n = self.nrows
        aug = [row + tuple(e) for row, e in zip(self._rows, _identity(n))]
        reduced, pivots = _rref(aug, self.spec)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise SingularMatrixError("matrix is singular")
        return FieldMatrix.from_indices(self.spec, [row[n:] for row in reduced])

    def __repr__(self) -> str:
        return "mat[" + "; ".join(", ".join(str(e) for e in r) for r in self.rows) + "]"

    def to_json(self) -> list:
        return _rows_json(self._rows, self.spec)


def nullspace(m: FieldMatrix) -> List[FieldVector]:
    """Canonical basis of {x : m @ x = 0}."""
    rows, pivots = _rref(m.indices(), m.spec)
    return [FieldVector.from_indices(m.spec, v) for v in _null_basis(rows, pivots, m.ncols, m.spec)]


def identity_matrix(spec: FieldSpec, n: int) -> FieldMatrix:
    return FieldMatrix.from_indices(spec, _identity(n))


def basis_vector(spec: FieldSpec, n: int, i: int) -> FieldVector:
    return FieldVector(spec, [spec.one if j == i else spec.zero for j in range(n)])


def tensor(a, b):
    """Kronecker product, row-major blocks; works on vectors and matrices."""
    if isinstance(a, FieldVector) and isinstance(b, FieldVector):
        if a.spec != b.spec:
            raise FieldMismatchError("tensor factors over different fields")
        return FieldVector.from_indices(a.spec, _kron(a.indices(), b.indices(), a.spec))
    if isinstance(a, FieldMatrix) and isinstance(b, FieldMatrix):
        if a.spec != b.spec:
            raise FieldMismatchError("tensor factors over different fields")
        return FieldMatrix.from_indices(a.spec, [
            _kron(ra, rb, a.spec) for ra in a.indices() for rb in b.indices()
        ])
    raise TypeError("tensor expects two vectors or two matrices")


def is_hermitian_matrix(a: FieldMatrix) -> bool:
    """True iff the conjugate transpose equals a."""
    return _is_hermitian_rows(a.indices(), a.spec)


def is_unitary(u: FieldMatrix, f: HermitianForm) -> bool:
    """True iff u preserves f: conj_transpose(u) @ gram @ u == gram."""
    if not u.is_square() or u.nrows != f.dim:
        raise DimensionMismatchError("operator dimension does not match the form")
    if u.spec != f.spec:
        raise FieldMismatchError("operands over different fields")
    return _is_unitary_rows(u.indices(), f)


def random_unitary(f: HermitianForm, seed: int) -> FieldMatrix:
    """Seeded product of generators, always post-verified against the standard form f.

    The sampler is ``gqt.forms._unitary_rows``; this wraps its rows.
    """
    return FieldMatrix.from_indices(f.spec, _unitary_rows(f, seed))
