"""Exact vectors, matrices and Hermitian forms over a FieldSpec.

Vectors are column-style: operators act on the left.  The form convention
conjugates the FIRST argument, <x,y> = sum conj(x_i) * gram_ij * y_j, and
is reflexive: conj(<x,y>) = <y,x>.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, List, NamedTuple, Sequence, Tuple, Union

from .errors import (
    DegenerateFormError,
    DimensionMismatchError,
    FieldMismatchError,
    NoInvolutionError,
    NotHermitianError,
    NotSquareError,
    NotUnitaryError,
    SingularMatrixError,
)
from .field import FieldElement, FieldSpec


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
        self._check(other)
        add = self.spec.add
        return FieldVector.from_indices(self.spec, [
            add[a][b] for a, b in zip(self._indices, other._indices)])

    def __sub__(self, other: "FieldVector") -> "FieldVector":
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

    def __getitem__(self, ij: Tuple[int, int]) -> FieldElement:
        return FieldElement(self.spec, self._rows[ij[0]][ij[1]])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.spec == other.spec
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.spec.p, self.spec.k, self._rows))

    def __matmul__(self, other: Union["FieldMatrix", FieldVector]):
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

    def scale(self, c: Union[FieldElement, int, str]) -> "FieldMatrix":
        m = self.spec.mul[self.spec.parse(c).index]
        return FieldMatrix.from_indices(self.spec, [map(m.__getitem__, row) for row in self._rows])

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
        coeffs = self.spec.coeffs
        return [[list(coeffs[i]) for i in row] for row in self._rows]


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


def nullspace(m: FieldMatrix) -> List[FieldVector]:
    """Canonical basis of {x : m @ x = 0}."""
    rows, pivots = _rref(m.indices(), m.spec)
    return [FieldVector.from_indices(m.spec, v) for v in _null_basis(rows, pivots, m.ncols, m.spec)]


def _identity(n: int) -> List[List[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def identity_matrix(spec: FieldSpec, n: int) -> FieldMatrix:
    return FieldMatrix.from_indices(spec, _identity(n))


def basis_vector(spec: FieldSpec, n: int, i: int) -> FieldVector:
    return FieldVector(spec, [spec.one if j == i else spec.zero for j in range(n)])


def _kron(a: Sequence[int], b: Sequence[int], spec: FieldSpec) -> Tuple[int, ...]:
    """The index tuple of a (x) b = (a_0 b_0, a_0 b_1, ...), for element indices a and b."""
    return tuple([row[y] for row in map(spec.mul.__getitem__, a) for y in b])


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
    if not a.is_square():
        raise NotSquareError("hermitian test requires a square matrix")
    if a.spec.q is None:
        raise NoInvolutionError("Hermitian forms need an even extension degree")
    return a.conj_transpose() == a


class HermitianForm:
    """Nondegenerate Hermitian form given by its Gram matrix, over the matrix's field."""

    def __init__(self, gram: FieldMatrix):
        if not is_hermitian_matrix(gram):
            raise NotHermitianError("Gram matrix is not Hermitian")
        if gram.rank() < gram.nrows:
            raise DegenerateFormError("Gram matrix is singular")
        self.spec = gram.spec
        self.gram = gram
        self.dim = gram.nrows

    def evaluate(self, x: FieldVector, y: FieldVector) -> FieldElement:
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
        for xi, grow in zip(x, self.gram.indices()):
            if xi:
                m = mul[frob[xi]]
                for j, g in enumerate(grow):
                    if g:
                        row[j] = add[row[j]][m[g]]
        return tuple(row)

    def is_standard(self) -> bool:
        return self.gram == identity_matrix(self.spec, self.dim)

    def __eq__(self, other) -> bool:
        return isinstance(other, HermitianForm) and self.gram == other.gram

    def __repr__(self) -> str:
        return f"HermitianForm(dim={self.dim})"

    def to_json(self) -> dict:
        return {"dim": self.dim, "gram": self.gram.to_json()}


def standard_form(spec: FieldSpec, dim: int) -> HermitianForm:
    """The identity-Gram form sum conj(x_i) y_i."""
    if dim < 1:
        raise DimensionMismatchError("dimension must be >= 1")
    return HermitianForm(identity_matrix(spec, dim))


def evaluate_form(f: HermitianForm, x: FieldVector, y: FieldVector) -> FieldElement:
    return f.evaluate(x, y)


def is_unitary(u: FieldMatrix, f: HermitianForm) -> bool:
    """True iff u preserves f: conj_transpose(u) @ gram @ u == gram."""
    if not u.is_square() or u.nrows != f.dim:
        raise DimensionMismatchError("operator dimension does not match the form")
    return u.conj_transpose() @ f.gram @ u == f.gram


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


def random_unitary(f: HermitianForm, seed: int) -> FieldMatrix:
    """Seeded product of generators; always post-verified against the form.

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
    acc = FieldMatrix.from_indices(spec, rows)
    if not is_unitary(acc, f):
        raise NotUnitaryError("sampler produced a non-unitary matrix")  # pragma: no cover
    return acc
