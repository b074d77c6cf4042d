"""Exact vectors, matrices and Hermitian forms over a FieldSpec.

Vectors are column-style: operators act on the left.  The form convention
conjugates the FIRST argument, <x,y> = sum conj(x_i) * gram_ij * y_j, and
is reflexive: conj(<x,y>) = <y,x>.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence, Tuple, Union

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
    """Fixed-length vector of field elements."""

    __slots__ = ("spec", "entries")

    def __init__(self, spec: FieldSpec, entries: Sequence[FieldElement]):
        entries = tuple(spec.parse(e) for e in entries)
        if not entries:
            raise DimensionMismatchError("vectors must have length >= 1")
        self.spec = spec
        self.entries = entries

    @classmethod
    def from_indices(cls, spec: FieldSpec, indices: Iterable[int]) -> "FieldVector":
        """The vector whose entries have the given element indices."""
        return cls(spec, [FieldElement(spec, i) for i in indices])

    def indices(self) -> Tuple[int, ...]:
        """The element indices of the entries."""
        return tuple(e.index for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> FieldElement:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldVector)
            and self.spec == other.spec
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.spec.p, self.spec.k, tuple(e.index for e in self.entries)))

    def __add__(self, other: "FieldVector") -> "FieldVector":
        self._check(other)
        return FieldVector(self.spec, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "FieldVector") -> "FieldVector":
        self._check(other)
        return FieldVector(self.spec, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "FieldVector":
        return FieldVector(self.spec, [-a for a in self.entries])

    def scale(self, c: Union[FieldElement, int, str]) -> "FieldVector":
        c = self.spec.parse(c)
        return FieldVector(self.spec, [a * c for a in self.entries])

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def conj(self) -> "FieldVector":
        return FieldVector(self.spec, [e.conj() for e in self.entries])

    def _check(self, other: "FieldVector") -> None:
        if self.spec != other.spec:
            raise FieldMismatchError("vectors over different fields")
        if len(self) != len(other):
            raise DimensionMismatchError(f"lengths {len(self)} and {len(other)} differ")

    def __repr__(self) -> str:
        return "vec(" + ", ".join(str(e) for e in self.entries) + ")"

    def to_json(self) -> list:
        return [list(e.coeffs) for e in self.entries]


class FieldMatrix:
    """Rectangular matrix of field elements, stored row-major."""

    __slots__ = ("spec", "rows")

    def __init__(self, spec: FieldSpec, rows: Sequence[Sequence[FieldElement]]):
        rows = tuple(tuple(spec.parse(e) for e in row) for row in rows)
        if not rows or not rows[0]:
            raise DimensionMismatchError("matrices must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatchError("ragged rows")
        self.spec = spec
        self.rows = rows

    @classmethod
    def from_indices(cls, spec: FieldSpec, rows: Iterable[Iterable[int]]) -> "FieldMatrix":
        """The matrix whose entries have the given element indices."""
        return cls(spec, [[FieldElement(spec, i) for i in row] for row in rows])

    def indices(self) -> List[List[int]]:
        """The element indices of the entries, as fresh row lists."""
        return [[e.index for e in row] for row in self.rows]

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, ij: Tuple[int, int]) -> FieldElement:
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.spec == other.spec
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.spec.p, self.spec.k,
                     tuple(tuple(e.index for e in r) for r in self.rows)))

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatchError("shape mismatch")
        return FieldMatrix(self.spec, [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        ])

    def __matmul__(self, other: Union["FieldMatrix", FieldVector]):
        spec = self.spec
        if isinstance(other, FieldVector):
            if self.ncols != len(other):
                raise DimensionMismatchError(f"{self.ncols} cols vs vector length {len(other)}")
            v = other.indices()
            return FieldVector.from_indices(spec, [_pair(row, v, spec) for row in self.indices()])
        if self.ncols != other.nrows:
            raise DimensionMismatchError(f"{self.ncols} cols vs {other.nrows} rows")
        cols = list(zip(*other.indices()))
        return FieldMatrix.from_indices(spec, [
            [_pair(row, col, spec) for col in cols] for row in self.indices()
        ])

    def scale(self, c: Union[FieldElement, int, str]) -> "FieldMatrix":
        c = self.spec.parse(c)
        return FieldMatrix(self.spec, [[e * c for e in row] for row in self.rows])

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.spec, list(zip(*self.rows)))

    def conj(self) -> "FieldMatrix":
        return FieldMatrix(self.spec, [[e.conj() for e in row] for row in self.rows])

    def conj_transpose(self) -> "FieldMatrix":
        return self.conj().transpose()

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def rank(self) -> int:
        return len(_rref(self.indices(), self.spec)[1])

    def inverse(self) -> "FieldMatrix":
        if not self.is_square():
            raise NotSquareError("only square matrices are invertible")
        n = self.nrows
        aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(self.indices())]
        reduced, pivots = _rref(aug, self.spec)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise SingularMatrixError("matrix is singular")
        return FieldMatrix.from_indices(self.spec, [row[n:] for row in reduced])

    def __repr__(self) -> str:
        return "mat[" + "; ".join(", ".join(str(e) for e in r) for r in self.rows) + "]"

    def to_json(self) -> list:
        return [[list(e.coeffs) for e in row] for row in self.rows]


def _pair(a: Sequence[int], b: Sequence[int], spec: FieldSpec) -> int:
    """The index of sum_i a_i b_i, for element indices a and b."""
    add_i, mul_i = spec.add_i, spec.mul_i
    acc = 0
    for x, y in zip(a, b):
        acc = add_i(acc, mul_i(x, y))
    return acc


def _rref(rows: List[List[int]], spec: FieldSpec) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form of a matrix of element indices, in place.

    Returns the reduced rows and the pivot columns.  Arithmetic goes
    through ``spec.sub_i``/``mul_i``/``inv_i``, so every field order works,
    with or without lookup tables.  Callers holding ``FieldMatrix`` or
    ``FieldVector`` objects convert at their edges.
    """
    sub_i, mul_i = spec.sub_i, spec.mul_i
    nrows = len(rows)
    ncols = len(rows[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = spec.inv_i(rows[r][c])
        top = rows[r] = [mul_i(e, inv) for e in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [sub_i(a, mul_i(f, b)) for a, b in zip(rows[i], top)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _null_basis(rows: List[List[int]], pivots: Sequence[int], ncols: int,
                spec: FieldSpec) -> List[List[int]]:
    """Canonical null-space basis of a reduced matrix, as index lists.

    One vector per free column: 1 there, minus the column's entries at the
    pivot coordinates, 0 elsewhere.
    """
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = spec.neg_i(rows[r][fc])
        basis.append(v)
    return basis


def rref(m: FieldMatrix) -> Tuple[FieldMatrix, Tuple[int, ...]]:
    rows, pivots = _rref(m.indices(), m.spec)
    return FieldMatrix.from_indices(m.spec, rows), tuple(pivots)


def nullspace(m: FieldMatrix) -> List[FieldVector]:
    """Canonical basis of {x : m @ x = 0}."""
    rows, pivots = _rref(m.indices(), m.spec)
    return [FieldVector.from_indices(m.spec, v) for v in _null_basis(rows, pivots, m.ncols, m.spec)]


def solve(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Solve a @ x = b exactly; requires a consistent system with full column rank."""
    if a.nrows != b.nrows:
        raise DimensionMismatchError("row counts differ")
    aug = [ra + rb for ra, rb in zip(a.indices(), b.indices())]
    rows, pivots = _rref(aug, a.spec)
    n = a.ncols
    if any(p >= n for p in pivots):
        raise SingularMatrixError("inconsistent system")
    if len(pivots) < n:
        raise SingularMatrixError("underdetermined system")
    # Full column rank: pivot r sits in column r.
    return FieldMatrix.from_indices(a.spec, [row[n:] for row in rows[:n]])


def identity_matrix(spec: FieldSpec, n: int) -> FieldMatrix:
    one, zero = spec.one, spec.zero
    return FieldMatrix(spec, [[one if i == j else zero for j in range(n)] for i in range(n)])


def zero_vector(spec: FieldSpec, n: int) -> FieldVector:
    return FieldVector(spec, [spec.zero] * n)


def basis_vector(spec: FieldSpec, n: int, i: int) -> FieldVector:
    return FieldVector(spec, [spec.one if j == i else spec.zero for j in range(n)])


def tensor(a, b):
    """Kronecker product, row-major blocks; works on vectors and matrices."""
    if isinstance(a, FieldVector) and isinstance(b, FieldVector):
        if a.spec != b.spec:
            raise FieldMismatchError("tensor factors over different fields")
        return FieldVector(a.spec, [x * y for x in a.entries for y in b.entries])
    if isinstance(a, FieldMatrix) and isinstance(b, FieldMatrix):
        if a.spec != b.spec:
            raise FieldMismatchError("tensor factors over different fields")
        rows = []
        for ra in a.rows:
            for rb in b.rows:
                rows.append([x * y for x in ra for y in rb])
        return FieldMatrix(a.spec, rows)
    raise TypeError("tensor expects two vectors or two matrices")


def is_hermitian_matrix(a: FieldMatrix) -> bool:
    """True iff the conjugate transpose equals a."""
    if not a.is_square():
        raise NotSquareError("hermitian test requires a square matrix")
    if a.spec.q is None:
        raise NoInvolutionError("hermitian test requires a field with conjugation")
    return a.conj_transpose() == a


class HermitianForm:
    """Nondegenerate Hermitian form given by its Gram matrix."""

    def __init__(self, spec: FieldSpec, gram: FieldMatrix):
        if spec.q is None:
            raise NoInvolutionError("Hermitian forms need an even extension degree")
        if not gram.is_square():
            raise NotSquareError("Gram matrix must be square")
        if not is_hermitian_matrix(gram):
            raise NotHermitianError("Gram matrix is not Hermitian")
        if gram.rank() < gram.nrows:
            raise DegenerateFormError("Gram matrix is singular")
        self.spec = spec
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
        spec = self.spec
        row = [0] * self.dim
        for xi, grow in zip(x, self.gram.rows):
            if xi:
                c = spec.frob_i(xi)
                for j, g in enumerate(grow):
                    if g.index:
                        row[j] = spec.add_i(row[j], spec.mul_i(c, g.index))
        return tuple(row)

    def is_standard(self) -> bool:
        return self.gram == identity_matrix(self.spec, self.dim)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HermitianForm)
            and self.spec == other.spec
            and self.gram == other.gram
        )

    def __repr__(self) -> str:
        return f"HermitianForm(dim={self.dim})"

    def to_json(self) -> dict:
        return {"dim": self.dim, "gram": self.gram.to_json()}


def standard_form(spec: FieldSpec, dim: int) -> HermitianForm:
    """The identity-Gram form sum conj(x_i) y_i."""
    if dim < 1:
        raise DimensionMismatchError("dimension must be >= 1")
    return HermitianForm(spec, identity_matrix(spec, dim))


def evaluate_form(f: HermitianForm, x: FieldVector, y: FieldVector) -> FieldElement:
    return f.evaluate(x, y)


def is_unitary(u: FieldMatrix, f: HermitianForm) -> bool:
    """True iff u preserves f: conj_transpose(u) @ gram @ u == gram."""
    if not u.is_square() or u.nrows != f.dim:
        raise DimensionMismatchError("operator dimension does not match the form")
    return u.conj_transpose() @ f.gram @ u == f.gram


# --- seeded unitary sampler ---------------------------------------------------

_PRODUCT_LENGTH = 16


def _norm_one_elements(spec: FieldSpec) -> List[FieldElement]:
    out = [x for x in spec.elements() if not x.is_zero() and x.norm() == spec.one]
    return out


def _unit_vectors_2(spec: FieldSpec) -> List[Tuple[FieldElement, FieldElement]]:
    """All (a, c) with norm(a) + norm(c) = 1; first columns of 2x2 unitaries."""
    one = spec.one
    return [
        (a, c)
        for a in spec.elements()
        for c in spec.elements()
        if a.norm() + c.norm() == one
    ]


def _random_block_unitary(spec: FieldSpec, rng: random.Random,
                          units: Sequence[Tuple[FieldElement, FieldElement]],
                          norm_inverse: dict) -> Tuple[FieldElement, ...]:
    """Random 2x2 unitary (standard form) as (a, b, c, d), columns (a,c),(b,d)."""
    a, c = rng.choice(units)
    # (conj(c), -conj(a)) is orthogonal to (a, c); rescale it to unit length.
    b0, d0 = c.conj(), -(a.conj())
    s = b0.norm() + d0.norm()
    mu = norm_inverse[s.index]
    return (a, b0 * mu, c, d0 * mu)


def random_unitary(f: HermitianForm, seed: int) -> FieldMatrix:
    """Seeded product of generators; always post-verified against the form.

    Generators: coordinate permutations, diagonals of norm-1 scalars, and
    two-coordinate block unitaries.  Only the standard (identity-Gram) form
    is supported; the sampler makes no uniformity claim.
    """
    if not f.is_standard():
        raise NotUnitaryError("random_unitary supports only the standard form")
    spec, n = f.spec, f.dim
    rng = random.Random(seed)
    norm_one = _norm_one_elements(spec)
    units = _unit_vectors_2(spec) if n >= 2 else []
    # For each subfield value s != 0, one mu with norm(mu) = 1/s.
    norm_inverse = {}
    for x in spec.elements():
        if x.is_zero():
            continue
        s = x.norm()
        inv_s = s.inverse()
        for mu in spec.elements():
            if mu.norm() == inv_s:
                norm_inverse.setdefault(s.index, mu)
                break
    acc = identity_matrix(spec, n)
    kinds = ["perm", "diag"] + (["block"] if n >= 2 else [])
    for _ in range(_PRODUCT_LENGTH):
        kind = rng.choice(kinds)
        if kind == "perm":
            perm = list(range(n))
            rng.shuffle(perm)
            g = FieldMatrix(spec, [
                [spec.one if j == perm[i] else spec.zero for j in range(n)]
                for i in range(n)
            ])
        elif kind == "diag":
            g = FieldMatrix(spec, [
                [rng.choice(norm_one) if i == j else spec.zero for j in range(n)]
                for i in range(n)
            ])
        else:
            i, j = sorted(rng.sample(range(n), 2))
            a, b, c, d = _random_block_unitary(spec, rng, units, norm_inverse)
            g = identity_matrix(spec, n)
            rows = [list(r) for r in g.rows]
            rows[i][i], rows[i][j] = a, b
            rows[j][i], rows[j][j] = c, d
            g = FieldMatrix(spec, rows)
        acc = g @ acc
    if not is_unitary(acc, f):
        raise NotUnitaryError("sampler produced a non-unitary matrix")  # pragma: no cover
    return acc
