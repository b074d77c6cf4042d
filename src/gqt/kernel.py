"""Self-orthogonal geometry of a Hermitian form: points, lines, One-or-All.

For the standard form in dimension 4 over GF(q^2) the point set is the
Hermitian surface X0^(q+1) + X1^(q+1) + X2^(q+1) + X3^(q+1) = 0, a
generalized quadrangle of order (q^2, q).

Enumeration works on rays as tuples of element indices and reads the
field's lookup tables directly.  It tests every normalized ray for
self-orthogonality at once, one pass per nonzero Gram entry, then finds
each totally isotropic line once from the polar of a point: the lines
through a point P join P to the kernel points of a complement of P in P^perp.
Every point lies on the same number of lines, so a point whose lines are
all found already is not scanned.  Polar rows are derived only when a
caller reads them.

This module imports only the index core, ``gqt.forms``.  The object API on
``ProjectivePoint`` lives in ``gqt.points``, which ``KernelGeometry.points``
imports on first use.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from .errors import (
    InvariantError,
    NotKernelPointError,
    NotUniqueError,
    _guard,
)
from .field import FieldSpec, _ray
from .forms import (
    HermitianForm,
    _matvec,
    _null_basis,
    _rows_json,
    _rref,
    _unitary_rows,
    standard_form,
)

if TYPE_CHECKING:
    from .points import ProjectivePoint

# Default desk-scale guards for enumeration and for the unitaries ``verify``
# samples; GQT_GUARD_OVERRIDE=1 lifts them.
_MAX_DIM = 4
_MAX_Q = 5
_MAX_SAMPLES = 1000


Ray = Tuple[int, ...]


class KernelGeometry:
    """Enumerated self-orthogonal points and totally isotropic lines.

    Built from each point's element indices (``rays``, in point order) and
    the lines; the points, polar rows conj(v) G (``rows``), point index, lines
    through each point and each point's collinear points (``adjacency``) are
    derived on first use.
    """

    def __init__(self, form: HermitianForm, rays: Sequence[Ray],
                 lines: Sequence[FrozenSet[int]]):
        self.form = form
        self.rays = tuple(rays)
        self.lines = tuple(lines)

    @cached_property
    def points(self) -> Tuple[ProjectivePoint, ...]:
        from .linalg import FieldVector
        from .points import ProjectivePoint

        return tuple(ProjectivePoint(FieldVector.from_indices(self.spec, r)) for r in self.rays)

    @cached_property
    def rows(self) -> Tuple[Ray, ...]:
        return tuple(self.form._row(r) for r in self.rays)

    @cached_property
    def _point_index(self) -> Dict[Ray, int]:
        return {r: i for i, r in enumerate(self.rays)}

    @cached_property
    def incidence(self) -> Tuple[FrozenSet[int], ...]:
        incidence: List[Set[int]] = [set() for _ in self.rays]
        for li, line in enumerate(self.lines):
            for pi in line:
                incidence[pi].add(li)
        return tuple(frozenset(s) for s in incidence)

    @cached_property
    def adjacency(self) -> Tuple[FrozenSet[int], ...]:
        """The points collinear with each point: the union of its lines, less itself."""
        return tuple(frozenset().union(*map(self.lines.__getitem__, through)) - {i}
                     for i, through in enumerate(self.incidence))

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

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_json(),
            "dim": self.form.dim,
            "gram": _rows_json(self.form.gram_rows, self.spec),
            "num_points": len(self.rays),
            "num_lines": len(self.lines),
            "points": _rows_json(self.rays, self.spec),
            "lines": [sorted(line) for line in self.lines],
        }

    def to_csv(self) -> str:
        """The ``kernel enumerate --csv`` catalog: a header, then one row per point and line."""
        import csv
        import io

        buf = io.StringIO()
        w = csv.writer(buf)
        spec = self.spec
        w.writerow(["# p", spec.p, "k", spec.k, "dim", self.form.dim,
                    "modulus", " ".join(str(c) for c in spec.modulus)])
        w.writerow(["kind", "index", "data"])
        for i, r in enumerate(self.rays):
            w.writerow(["point", i, " ".join(
                ",".join(str(c) for c in spec.coeffs[x]) for x in r)])
        for i, line in enumerate(self.lines):
            w.writerow(["line", i, " ".join(str(j) for j in sorted(line))])
        return buf.getvalue()


def enumeration_guard(spec: FieldSpec, dim: int) -> None:
    """Refuse a desk-scale-breaking enumeration before anything is built."""
    _guard(dim > _MAX_DIM or (spec.q or 0) > _MAX_Q,  # odd degree: no q, NoInvolution
           f"enumeration guard: dim <= {_MAX_DIM} and q <= {_MAX_Q}")


def _index_rays(order: int, dim: int) -> Iterator[Ray]:
    """Normalized rays as index tuples: leading 1, then every tail in index order."""
    for lead in range(dim):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(order), repeat=dim - lead - 1):
            yield prefix + tail


def _isotropic_rays(f: HermitianForm) -> List[Ray]:
    """The normalized rays v with <v, v> = 0, in ``_index_rays`` order.

    All rays are tested at once: each nonzero Gram entry g_ij adds
    conj(v_i) g_ij v_j to every ray's value in one pass over the index
    columns i and j.
    """
    spec = f.spec
    add, mul, frob = spec.add, spec.mul, spec.frob
    rays = list(_index_rays(spec.order, f.dim))
    cols = list(zip(*rays))
    values = [0] * len(rays)
    for col, grow in zip(cols, f.gram_rows):
        conj = [frob[x] for x in col]
        for g, other in zip(grow, cols):
            if g:
                m = mul[g]
                values = [add[a][mul[x][m[y]]] for a, x, y in zip(values, conj, other)]
    return [r for r, value in zip(rays, values) if not value]


def _polar_complement(u: Ray, f: HermitianForm) -> List[List[int]]:
    """A basis of a complement W of the point u in its polar: u^perp = u + W.

    The null basis of the polar row has one vector per free column (every
    column but the row's first nonzero one): 1 there, 0 at the other free
    columns.  Dropping the vector of a free column where u is nonzero leaves
    a W that does not hold u.
    """
    row = f._row(u)
    _, basis = _polar([row], f)
    pivot = next(c for c, x in enumerate(row) if x)
    free = [c for c in range(f.dim) if c != pivot]
    drop = next(k for k, c in enumerate(free) if u[c])
    return basis[:drop] + basis[drop + 1:]


def enumerate_kernel(f: HermitianForm) -> KernelGeometry:
    """All self-orthogonal rays and all totally isotropic projective lines."""
    spec = f.spec
    enumeration_guard(spec, f.dim)
    add, mul = spec.add, spec.mul
    rays = _isotropic_rays(f)
    ray_index = {r: i for i, r in enumerate(rays)}

    # A line through point u lies in u^perp = u + W and meets W in one ray,
    # a kernel point; each kernel point of W spans one such line with u.
    # u^perp/u carries a nondegenerate Hermitian form, and over a finite
    # field all of one dimension are isometric, so every point lies on the
    # same number of lines (q + 1 in dim 4): a point on that many found
    # lines is skipped, and each scanned point is checked against it.
    through: List[List[FrozenSet[int]]] = [[] for _ in rays]
    found: List[FrozenSet[int]] = []
    per_point = None
    for i, u in enumerate(rays):
        if len(through[i]) == per_point:
            continue
        basis = _polar_complement(u, f)
        cols = list(zip(*basis))
        for c in _index_rays(spec.order, len(basis)):
            j = ray_index.get(_ray(_matvec(cols, c, spec), spec))
            if j is None or any(j in line for line in through[i]):
                continue
            v = rays[j]
            members = {i, j}
            for lam in range(1, spec.order):
                row = mul[lam]
                w = tuple(add[row[a]][b] for a, b in zip(u, v))
                members.add(ray_index[_ray(w, spec)])
            line = frozenset(members)
            for a in line:
                through[a].append(line)
            found.append(line)
        if per_point is None:
            per_point = len(through[i])
        elif len(through[i]) != per_point:
            raise InvariantError(
                f"point {i} lies on {len(through[i])} lines, point 0 on {per_point}")
    return KernelGeometry(f, rays, sorted(found, key=sorted))


def standard_kernel(spec: FieldSpec, dim: int) -> KernelGeometry:
    """The kernel of the standard form, guarded before the form is built."""
    enumeration_guard(spec, dim)
    return enumerate_kernel(standard_form(spec, dim))


def _permutation(u: Sequence[Ray], geom: KernelGeometry) -> Optional[Tuple[int, ...]]:
    """The kernel index of the ray of u r for every kernel ray r (u as index rows).

    None unless u maps the kernel points bijectively onto themselves and
    the lines onto lines, as every unitary of the form does.
    """
    spec = geom.spec
    image = [geom._point_index.get(_ray(_matvec(u, r, spec), spec)) for r in geom.rays]
    if None in image or len(set(image)) != len(image):
        return None
    lines = {frozenset(image[i] for i in line) for line in geom.lines}
    return tuple(image) if lines == set(geom.lines) else None


def unitary_escapes(geom: KernelGeometry, seed: int, samples: int) -> int:
    """How many of ``samples`` seeded unitaries fail to permute points and lines.

    Unitary ``s`` is ``random_unitary(geom.form, seed + s)``, drawn as index
    rows; it escapes when its ``_permutation`` is None.
    """
    return sum(_permutation(_unitary_rows(geom.form, seed + s), geom) is None
               for s in range(samples))


def _polar(rows: Sequence[Ray], f: HermitianForm) -> Tuple[int, List[List[int]]]:
    """Rank and polar of a subspace, from its polar rows conj(v) G as element indices.

    G is nondegenerate, so one row reduction gives both: the rank of the
    rows is the rank of the subspace, and their null space is its polar.
    """
    reduced, pivots = _rref(rows, f.spec)
    return len(pivots), _null_basis(reduced, pivots, f.dim, f.spec)


# --- axioms and derived objects -------------------------------------------------

def verify_one_or_all(geom: KernelGeometry) -> dict:
    """Check: a point off a line sees either one or all of its points.

    Also checks the rank-2 refinement: exactly one line through the point
    meets the line.  Violations are recorded, not raised.  Returns the
    ``one_or_all`` object of the ``gqt verify`` report: the pairs checked,
    the count distribution keyed by count text, each violation as
    [point, line, count] and each refinement failure as [point, line].
    """
    distribution: Dict[int, int] = {}
    violations: List[List[int]] = []
    gq_failures: List[List[int]] = []
    # Point sets as bitmasks: bit j is point j.  A point's neighbour mask is
    # the union of its lines, so it holds the point itself, which no line
    # the point is off can meet.  Its doubled mask holds the points other
    # than itself on two of its lines, so the one point it sees on a line
    # shares more than one line with it exactly when that point is in the mask.
    line_masks = [sum(1 << j for j in line) for line in geom.lines]
    neighbours, doubled = [], []
    for xi, through in enumerate(geom.incidence):
        adjacent = twice = 0
        for li in through:
            twice |= adjacent & line_masks[li]
            adjacent |= line_masks[li]
        neighbours.append(adjacent)
        doubled.append(twice & ~(1 << xi))
    for li, line_mask in enumerate(line_masks):
        size = line_mask.bit_count()
        for xi, adjacent in enumerate(neighbours):
            if line_mask >> xi & 1:
                continue
            seen = adjacent & line_mask
            count = seen.bit_count()
            distribution[count] = distribution.get(count, 0) + 1
            if count not in (1, size):
                violations.append([xi, li, count])
            elif count == 1 and seen & doubled[xi]:
                gq_failures.append([xi, li])
    return {
        "pairs_checked": sum(distribution.values()),
        "count_distribution": {str(k): v for k, v in sorted(distribution.items())},
        "violations": violations,
        "gq_unique_line_failures": gq_failures,
        "passed": not violations and not gq_failures,
    }


def verify_report(spec: FieldSpec, dim: int, seed: int, samples: int) -> dict:
    """The ``gqt verify`` report: the standard kernel's counts and axioms, and
    how many of ``samples`` seeded unitaries escape it."""
    _guard(samples > _MAX_SAMPLES, f"verify guard: samples <= {_MAX_SAMPLES}")
    geom = standard_kernel(spec, dim)
    degrees = sorted({len(lines) for lines in geom.incidence})
    sizes = sorted({len(line) for line in geom.lines})
    # n points of one degree d and L lines of one size s count the
    # incidences twice: n d = L s.  No points or no lines count as 0.
    return {
        "field": spec.to_json(),
        "dim": dim,
        "num_points": len(geom.rays),
        "num_lines": len(geom.lines),
        "point_degrees": degrees,
        "line_sizes": sizes,
        "double_counting_ok": (len(degrees) <= 1 and len(sizes) <= 1 and
                               len(geom.rays) * sum(degrees) == len(geom.lines) * sum(sizes)),
        "one_or_all": verify_one_or_all(geom),
        "unitary_samples": samples,
        "unitary_escapes": unitary_escapes(geom, seed, samples),
    }


def _meet(line: FrozenSet[int], curve: Iterable[int]) -> int:
    """Index of the single kernel point on both a line and a curve (as indices)."""
    common = line.intersection(curve)
    if len(common) != 1:
        raise NotUniqueError(f"line meets curve in {len(common)} points, expected 1")
    return next(iter(common))
