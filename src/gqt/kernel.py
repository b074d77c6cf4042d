"""Self-orthogonal geometry of a Hermitian form: points, lines, polarity.

For the standard form in dimension 4 over GF(q^2) the point set is the
Hermitian surface X0^(q+1) + X1^(q+1) + X2^(q+1) + X3^(q+1) = 0, a
generalized quadrangle of order (q^2, q).

Enumeration works on rays as tuples of element indices and reads the
field's lookup tables directly; ``ProjectivePoint`` objects are built only
for the final points.  It scans every normalized ray once, tests all point
pairs for orthogonality, and finds each totally isotropic line once: the
first uncovered collinear pair spans it, and every pair on it then counts
as covered.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from .errors import (
    DependentBasisError,
    DimensionMismatchError,
    InvariantError,
    NotKernelPointError,
    NotUniqueError,
    SelfOrthogonalInputError,
    TooLargeError,
    ZeroVectorError,
)
from .field import FieldSpec
from .linalg import (
    FieldMatrix,
    FieldVector,
    HermitianForm,
    _null_basis,
    _pair,
    _rref,
    random_unitary,
)

# Default desk-scale guard for enumeration; override with the flag or
# GQT_GUARD_OVERRIDE=1.
_MAX_DIM = 4
_MAX_Q = 5


class ProjectivePoint:
    """Normalized ray: leftmost nonzero coordinate equals 1.

    ``ray`` holds the element indices of ``coords``; equality and hashing
    read it.
    """

    __slots__ = ("coords", "ray")

    def __init__(self, coords: FieldVector):
        self.coords = normalize_ray(coords)
        self.ray = self.coords.indices()

    @property
    def spec(self) -> FieldSpec:
        return self.coords.spec

    def __eq__(self, other) -> bool:
        return (isinstance(other, ProjectivePoint) and self.ray == other.ray
                and self.spec == other.spec)

    def __hash__(self) -> int:
        return hash((self.spec.p, self.spec.k, self.ray))

    def __repr__(self) -> str:
        return "pt(" + ", ".join(str(e) for e in self.coords) + ")"

    def to_json(self) -> list:
        return self.coords.to_json()


def normalize_ray(v: FieldVector) -> FieldVector:
    """Scale so the leftmost nonzero coordinate is 1."""
    lead = next((e for e in v.entries if not e.is_zero()), None)
    if lead is None:
        raise ZeroVectorError("the zero vector spans no ray")
    if lead == v.spec.one:
        return v
    return v.scale(lead.inverse())


def enumerate_projective_points(spec: FieldSpec, dim: int) -> Iterator[FieldVector]:
    """All normalized rays of PG(dim-1, order), deterministic order."""
    elements = list(spec.elements())
    one, zero = spec.one, spec.zero
    for lead in range(dim):
        prefix = [zero] * lead + [one]
        free = dim - lead - 1
        for tail in itertools.product(elements, repeat=free):
            yield FieldVector(spec, prefix + list(tail))


Ray = Tuple[int, ...]


def is_self_orthogonal(v: FieldVector, f: HermitianForm) -> bool:
    return f.evaluate(v, v).is_zero()


@dataclass
class KernelGeometry:
    """Enumerated self-orthogonal points and totally isotropic lines.

    ``rays`` holds each point's element indices, in point order.
    """

    form: HermitianForm
    points: Tuple[ProjectivePoint, ...]
    lines: Tuple[FrozenSet[int], ...]
    incidence: Dict[int, FrozenSet[int]]
    rays: Tuple[Ray, ...]
    _point_index: Dict[Ray, int] = field(default_factory=dict)
    _adjacency: Tuple[FrozenSet[int], ...] = ()

    @property
    def spec(self) -> FieldSpec:
        return self.form.spec

    def index_of(self, point: ProjectivePoint) -> int:
        idx = self._point_index.get(point.ray) if point.spec == self.spec else None
        if idx is None:
            raise NotKernelPointError(f"{point!r} is not a kernel point")
        return idx

    def contains(self, point: ProjectivePoint) -> bool:
        return point.spec == self.spec and point.ray in self._point_index

    def collinear_indices(self, i: int) -> FrozenSet[int]:
        return self._adjacency[i]

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_json(),
            "dim": self.form.dim,
            "gram": self.form.gram.to_json(),
            "num_points": len(self.points),
            "num_lines": len(self.lines),
            "points": [p.to_json() for p in self.points],
            "lines": [sorted(line) for line in self.lines],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        spec = self.spec
        w.writerow(["# p", spec.p, "k", spec.k, "dim", self.form.dim,
                    "modulus", " ".join(str(c) for c in spec.modulus)])
        w.writerow(["kind", "index", "data"])
        for i, p in enumerate(self.points):
            w.writerow(["point", i, " ".join(
                ",".join(str(c) for c in e.coeffs) for e in p.coords)])
        for i, line in enumerate(self.lines):
            w.writerow(["line", i, " ".join(str(j) for j in sorted(line))])
        return buf.getvalue()


def _guard(spec: FieldSpec, dim: int, override: bool) -> None:
    if override or os.environ.get("GQT_GUARD_OVERRIDE") == "1":
        return
    if dim > _MAX_DIM or (spec.q or spec.order) > _MAX_Q:
        raise TooLargeError(
            f"enumeration guard: dim <= {_MAX_DIM} and q <= {_MAX_Q}; "
            "pass override=True or set GQT_GUARD_OVERRIDE=1"
        )


def _index_rays(order: int, dim: int) -> Iterator[Ray]:
    """Normalized rays as index tuples, in ``enumerate_projective_points`` order."""
    for lead in range(dim):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(order), repeat=dim - lead - 1):
            yield prefix + tail


def _normalize_ray(w: Ray, mul: List[List[int]], inv: List[int]) -> Ray:
    """Index-tuple version of ``normalize_ray``: the leading entry becomes 1."""
    for x in w:
        if x:
            if x == 1:
                return w
            row = mul[inv[x]]
            return tuple(row[y] for y in w)
    raise ZeroVectorError("the zero vector spans no ray")


def _matvec(rows: Sequence[Sequence[List[int]]], v: Ray, add: List[List[int]]) -> Ray:
    """Matrix-vector product; ``rows[r][c]`` is the mul-table row of entry (r, c)."""
    out = []
    for row in rows:
        acc = 0
        for m, x in zip(row, v):
            acc = add[acc][m[x]]
        out.append(acc)
    return tuple(out)


def _mul_rows(m: FieldMatrix) -> List[List[List[int]]]:
    mul = m.spec.tables().mul
    return [[mul[e.index] for e in row] for row in m.rows]


def enumerate_kernel(f: HermitianForm, override: bool = False) -> KernelGeometry:
    """All self-orthogonal rays and all totally isotropic projective lines."""
    spec = f.spec
    dim = f.dim
    _guard(spec, dim, override)
    add, _, _, mul, inv, frob = spec.tables()
    gram = _mul_rows(f.gram)

    # Self-orthogonal rays, with G v kept for the pair test.
    rays: List[Ray] = []
    gvs: List[Ray] = []
    for v in _index_rays(spec.order, dim):
        gv = _matvec(gram, v, add)
        acc = 0
        for x, y in zip(v, gv):
            acc = add[acc][mul[frob[x]][y]]
        if acc == 0:
            rays.append(v)
            gvs.append(gv)
    n = len(rays)
    ray_index = {r: i for i, r in enumerate(rays)}

    # <p_i, p_j> = sum_k conj(p_i)_k (G p_j)_k, for all j > i at once.
    cols = [[gv[k] for gv in gvs] for k in range(dim)]
    adjacency: List[List[int]] = [[] for _ in range(n)]  # ascending
    for i, u in enumerate(rays):
        values = None
        for k, x in enumerate(u):
            if not x:
                continue
            m = mul[frob[x]]
            col = cols[k][i + 1:]
            values = ([m[y] for y in col] if values is None
                      else [add[a][m[y]] for a, y in zip(values, col)])
        later = [j for j, value in enumerate(values, i + 1) if not value]
        adjacency[i] += later
        for j in later:
            adjacency[j].append(i)

    # Two collinear kernel points span a totally isotropic line, and two
    # distinct points lie on one line only: span each line from its first
    # uncovered pair; a pair (i, j) is covered once a line through i holds j.
    through: List[List[FrozenSet[int]]] = [[] for _ in range(n)]
    found: List[FrozenSet[int]] = []
    for i, u in enumerate(rays):
        for j in adjacency[i]:
            if j < i or any(j in line for line in through[i]):
                continue
            v = rays[j]
            members = {i, j}
            for lam in range(1, spec.order):
                row = mul[lam]
                w = tuple(add[row[a]][b] for a, b in zip(u, v))
                members.add(ray_index[_normalize_ray(w, mul, inv)])
            line = frozenset(members)
            for a in line:
                through[a].append(line)
            found.append(line)
    sorted_lines = tuple(sorted(found, key=sorted))

    incidence: Dict[int, Set[int]] = {i: set() for i in range(n)}
    for li, line in enumerate(sorted_lines):
        for pi in line:
            incidence[pi].add(li)

    return KernelGeometry(
        form=f,
        points=tuple(ProjectivePoint(FieldVector.from_indices(spec, r)) for r in rays),
        lines=sorted_lines,
        incidence={i: frozenset(s) for i, s in incidence.items()},
        rays=tuple(rays),
        _point_index=ray_index,
        _adjacency=tuple(frozenset(s) for s in adjacency),
    )


def unitary_escapes(geom: KernelGeometry, seed: int, samples: int) -> int:
    """How many of ``samples`` seeded unitaries fail to permute points and lines.

    Unitary ``s`` is ``random_unitary(geom.form, seed + s)``.  Each point is
    mapped by an index-level matrix-vector product, normalized, and looked
    up among the kernel rays; a unitary escapes when some image is not a
    kernel point, two images coincide, or the mapped lines differ from the
    lines.
    """
    add, _, _, mul, inv, _ = geom.spec.tables()
    line_set = set(geom.lines)
    escapes = 0
    for s in range(samples):
        u = _mul_rows(random_unitary(geom.form, seed + s))
        image = [geom._point_index.get(_normalize_ray(_matvec(u, r, add), mul, inv))
                 for r in geom.rays]
        if None in image or len(set(image)) != len(geom.rays):
            escapes += 1
            continue
        if {frozenset(image[i] for i in line) for line in geom.lines} != line_set:
            escapes += 1
    return escapes


def collinear(x: ProjectivePoint, y: ProjectivePoint, geom: KernelGeometry) -> bool:
    """True iff <x,y> = 0; cross-checked against shared lines."""
    i, j = geom.index_of(x), geom.index_of(y)
    by_form = geom.form.evaluate(x.coords, y.coords).is_zero()
    if i == j:
        return True
    by_lines = bool(geom.incidence[i] & geom.incidence[j])
    if by_form != by_lines:
        raise InvariantError(
            f"form and incidence disagree on collinearity of points {i} and {j}"
        )
    return by_form


# --- polarity -----------------------------------------------------------------

def _functional(v: FieldVector, f: HermitianForm) -> Ray:
    """``polar_hyperplane`` as element indices."""
    if v.is_zero():
        raise ZeroVectorError("the polar of the zero vector is undefined")
    if len(v) != f.dim:
        raise DimensionMismatchError("vector length does not match the form")
    return f._row(v.indices())


def polar_hyperplane(v: FieldVector, f: HermitianForm) -> FieldVector:
    """Coefficients c with pi(v) = {w : sum c_i w_i = 0}; c = conj(v) gram."""
    return FieldVector.from_indices(f.spec, _functional(v, f))


def polar_of_subspace(basis: Sequence[FieldVector], f: HermitianForm) -> List[FieldVector]:
    """Basis of the intersection of the polar hyperplanes of a subspace.

    One row reduction of the polar hyperplanes' coefficient rows gives both
    their rank (the basis must be independent) and their common null space.
    """
    basis = list(basis)
    if not basis:
        raise DependentBasisError("empty basis")
    rows = [list(_functional(v, f)) for v in basis]
    rows, pivots = _rref(rows, f.spec)
    if len(pivots) < len(basis):
        raise DependentBasisError("basis vectors are linearly dependent")
    return [FieldVector.from_indices(f.spec, v) for v in _null_basis(rows, pivots, f.dim, f.spec)]


def polar_point(basis: Sequence[FieldVector], f: HermitianForm) -> ProjectivePoint:
    """Polar of a hyperplane-spanning basis, as a single projective point."""
    polar = polar_of_subspace(basis, f)
    if len(polar) != 1:
        raise NotUniqueError(f"polar has dimension {len(polar)}, expected a point")
    return ProjectivePoint(polar[0])


# --- axioms and derived objects -------------------------------------------------

@dataclass
class OneOrAllReport:
    """Outcome of the One-or-All sweep over non-incident (point, line) pairs."""

    pairs_checked: int
    count_distribution: Dict[int, int]
    violations: List[Tuple[int, int, int]]  # (point index, line index, count)
    gq_unique_line_failures: List[Tuple[int, int]]

    @property
    def passed(self) -> bool:
        return not self.violations and not self.gq_unique_line_failures

    def to_json(self) -> dict:
        return {
            "pairs_checked": self.pairs_checked,
            "count_distribution": {str(k): v for k, v in sorted(self.count_distribution.items())},
            "violations": [list(v) for v in self.violations],
            "gq_unique_line_failures": [list(v) for v in self.gq_unique_line_failures],
            "passed": self.passed,
        }


def verify_one_or_all(geom: KernelGeometry) -> OneOrAllReport:
    """Check: a point off a line sees either one or all of its points.

    Also checks the rank-2 refinement: exactly one line through the point
    meets the line.  Violations are recorded, not raised.
    """
    distribution: Dict[int, int] = {}
    violations: List[Tuple[int, int, int]] = []
    gq_failures: List[Tuple[int, int]] = []
    pairs = 0
    for li, line in enumerate(geom.lines):
        members = sorted(line)
        size = len(members)
        for xi in range(len(geom.points)):
            if xi in line:
                continue
            pairs += 1
            adjacent = geom.collinear_indices(xi)
            seen = [pj for pj in members if pj in adjacent]
            count = len(seen)
            distribution[count] = distribution.get(count, 0) + 1
            if count not in (1, size):
                violations.append((xi, li, count))
                continue
            if count == 1:
                # unique connecting line through x hitting this line
                connecting = geom.incidence[xi] & geom.incidence[seen[0]]
                if len(connecting) != 1:
                    gq_failures.append((xi, li))
    return OneOrAllReport(
        pairs_checked=pairs,
        count_distribution=distribution,
        violations=violations,
        gq_unique_line_failures=gq_failures,
    )


def hermitian_curve(x: ProjectivePoint, geom: KernelGeometry) -> List[ProjectivePoint]:
    """Kernel points in the polar plane of a non-self-orthogonal point.

    One polar row conj(x) G is paired with x (the self-orthogonality test)
    and with every kernel ray.
    """
    add, _, _, mul, _, _ = geom.spec.tables()
    row = geom.form._row(x.ray)
    if _pair(row, x.ray, geom.spec) == 0:
        raise SelfOrthogonalInputError("curve basepoint must not be self-orthogonal")
    # Pair all rays at once, one coordinate column at a time.
    values = [0] * len(geom.rays)
    for k, c in enumerate(row):
        if c:
            m = mul[c]
            values = [add[a][m[r[k]]] for a, r in zip(values, geom.rays)]
    return [p for p, value in zip(geom.points, values) if not value]


def unique_meet(line: FrozenSet[int], curve: Sequence[ProjectivePoint],
                geom: KernelGeometry) -> ProjectivePoint:
    """The single common point of a kernel line and a Hermitian curve."""
    common = sorted(line.intersection(map(geom.index_of, curve)))
    if len(common) != 1:
        raise NotUniqueError(f"line meets curve in {len(common)} points, expected 1")
    return geom.points[common[0]]
