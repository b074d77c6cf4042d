"""The object API of the kernel geometry: projective points, collinearity, polarity.

``ProjectivePoint`` wraps a normalized ray as a ``FieldVector``; the
functions here take and return such objects and compute through the
index routines of ``gqt.kernel`` and ``gqt.forms``.  A kernel job
imports neither this module nor ``gqt.linalg``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Sequence

from .errors import (
    DependentBasisError,
    FieldMismatchError,
    InvariantError,
    NotUniqueError,
    SelfOrthogonalInputError,
    ZeroVectorError,
)
from .field import FieldSpec, _ray
from .forms import HermitianForm, _pair
from .kernel import KernelGeometry, _index_rays, _meet, _polar
from .linalg import FieldVector


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
    ray = _ray(v.indices(), v.spec)
    if ray is None:
        raise ZeroVectorError("the zero vector spans no ray")
    return FieldVector.from_indices(v.spec, ray)


def enumerate_projective_points(spec: FieldSpec, dim: int) -> Iterator[FieldVector]:
    """All normalized rays of PG(dim-1, order), deterministic order."""
    for ray in _index_rays(spec.order, dim):
        yield FieldVector.from_indices(spec, ray)


def is_self_orthogonal(v: FieldVector, f: HermitianForm) -> bool:
    return f.evaluate(v, v).is_zero()


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

def polar_hyperplane(v: FieldVector, f: HermitianForm) -> FieldVector:
    """Coefficients c with pi(v) = {w : sum c_i w_i = 0}; c = conj(v) gram."""
    if v.spec != f.spec:
        raise FieldMismatchError("vector and form over different fields")
    if v.is_zero():
        raise ZeroVectorError("the polar of the zero vector is undefined")
    return FieldVector.from_indices(f.spec, f._row(v.indices()))


def polar_of_subspace(basis: Sequence[FieldVector], f: HermitianForm) -> List[FieldVector]:
    """Basis of the intersection of the polar hyperplanes of a subspace."""
    basis = list(basis)
    if not basis:
        raise DependentBasisError("empty basis")
    rank, polar = _polar([polar_hyperplane(v, f).indices() for v in basis], f)
    if rank < len(basis):
        raise DependentBasisError("basis vectors are linearly dependent")
    return [FieldVector.from_indices(f.spec, v) for v in polar]


def polar_point(basis: Sequence[FieldVector], f: HermitianForm) -> ProjectivePoint:
    """Polar of a hyperplane-spanning basis, as a single projective point."""
    polar = polar_of_subspace(basis, f)
    if len(polar) != 1:
        raise NotUniqueError(f"polar has dimension {len(polar)}, expected a point")
    return ProjectivePoint(polar[0])


def hermitian_curve(x: ProjectivePoint, geom: KernelGeometry) -> List[ProjectivePoint]:
    """Kernel points in the polar plane of a non-self-orthogonal point.

    One polar row conj(x) G is paired with x (the self-orthogonality test)
    and with every kernel ray.
    """
    spec = geom.spec
    if x.spec != spec:
        raise FieldMismatchError("point and geometry over different fields")
    row = geom.form._row(x.ray)
    if _pair(row, x.ray, spec) == 0:
        raise SelfOrthogonalInputError("curve basepoint must not be self-orthogonal")
    return [geom.points[i] for i, r in enumerate(geom.rays) if _pair(row, r, spec) == 0]


def unique_meet(line: FrozenSet[int], curve: Sequence[ProjectivePoint],
                geom: KernelGeometry) -> ProjectivePoint:
    """The single common point of a kernel line and a Hermitian curve."""
    rays = {p.ray for p in curve if p.spec == geom.spec}
    return geom.points[_meet(line, (i for i in line if geom.rays[i] in rays))]
