"""Exact arithmetic in GF(p^k) with a polynomial-basis representation.

Elements are indexed by integers: the element with coefficient vector
(c0, c1, ..., c_{k-1}) (little-endian in the generator ``t``) has index
c0 + c1*p + ... + c_{k-1}*p^(k-1).  Every field is built with full
lookup tables, so every operation is a table lookup: addition and
multiplication (``order x order`` tables), negation, inverse and
conjugation (``order`` entries); a - b is a + (-b).  Multiplication comes
from the log/antilog tables of a primitive element g,
a*b = g^(log a + log b), the construction of ``galois`` (M. Hostetter,
github.com/mhostetter/galois).  Orders above ``_TABLE_LIMIT`` are refused
before anything is built.

When the extension degree k is even the field carries the conjugation
x -> x^q with q = p^(k/2); the fixed subfield has order q, and a
distinguished element ``kappa`` outside the subfield gives every element
a unique splitting a + kappa*b with a, b in the subfield.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from .errors import (
    DegreeMismatchError,
    DivisionByZeroError,
    FieldMismatchError,
    InvariantError,
    NoInvolutionError,
    NotPrimeError,
    ParseError,
    ReducibleModulusError,
    TooLargeError,
)

# Largest field order; every field gets full arithmetic tables.
_TABLE_LIMIT = 1024


def is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))


# --- polynomial helpers over F_p (little-endian coefficient tuples) ----------

def _poly_trim(a: Sequence[int]) -> tuple:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple:
    """Remainder of a modulo the monic polynomial m, clearing one top coefficient per step."""
    a, dm = list(a), len(m) - 1
    for top in range(len(a) - 1, dm - 1, -1):
        lead, shift = a[top], top - dm
        if lead:
            for i, mi in enumerate(m):
                a[i + shift] = (a[i + shift] - lead * mi) % p
    return _poly_trim(a[:dm])


def _monic_polys(p: int, deg: int) -> Iterator[tuple]:
    for low in itertools.product(range(p), repeat=deg):
        yield low + (1,)


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division of a modulus of degree >= 1 by every monic polynomial of degree 1..deg/2."""
    deg = len(modulus) - 1
    for d in range(1, deg // 2 + 1):
        for div in _monic_polys(p, d):
            if _poly_mod(modulus, div, p) == ():
                return False
    return True


def _first_irreducible(p: int, k: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree k.

    Coefficient tuples (c0, ..., c_{k-1}) are compared low-degree first.
    """
    for cand in _monic_polys(p, k):
        if _is_irreducible(cand, p):
            return cand
    raise ReducibleModulusError(f"no irreducible of degree {k} over F_{p}")  # pragma: no cover


# An integer is ASCII [+-]?[0-9]+ in both grammars below; spaces may surround
# every token.  An element is one or more terms, each after the first led by
# + or -: a term is an integer, or [integer [*]] t[^integer].
_INT_RE = re.compile(r"\s*[+-]?[0-9]+\s*")
_TERM_RE = re.compile(r"([+-]?)\s*(?:([0-9]+)\s*(?:\*\s*(?=t))?)?(t(?:\^([0-9]+))?)?")


def parse_coefficients(text: str) -> List[int]:
    """Comma-separated integers, e.g. ``'1,0,1'``, low degree first."""
    parts = text.split(",")
    if all(map(_INT_RE.fullmatch, parts)):
        try:  # int() refuses text beyond the interpreter's digit limit
            return [int(c) for c in parts]
        except ValueError:
            pass
    raise ParseError(f"expected comma-separated integers, got {text[:20]!r}")


def _check_prime(p: int) -> None:
    """Refuse p above ``_TABLE_LIMIT`` before the primality test, then a non-prime p."""
    if p > _TABLE_LIMIT:
        raise TooLargeError(f"characteristic {p} exceeds the field order limit {_TABLE_LIMIT}")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def _field_modulus(p: int, k: int, modulus: Optional[Sequence[int]]) -> tuple:
    """The reduced modulus of GF(p^k), or ``_first_irreducible(p, k)`` for None; no tables.

    The order is bounded before any search: p first (so the primality test
    stays cheap), then p^k one factor at a time.
    """
    _check_prime(p)
    if k < 1:
        raise DegreeMismatchError(f"extension degree must be >= 1, got {k}")
    order = 1
    for _ in range(k):
        order *= p
        if order > _TABLE_LIMIT:
            raise TooLargeError(f"GF({p}^{k}) has order above the limit {_TABLE_LIMIT}")
    if modulus is None:
        return _first_irreducible(p, k)
    modulus = tuple(c % p for c in modulus)
    if len(modulus) != k + 1 or modulus[-1] != 1:
        raise DegreeMismatchError(f"modulus must be monic of degree {k}, got {list(modulus)}")
    if not _is_irreducible(modulus, p):
        raise ReducibleModulusError(f"modulus {list(modulus)} is reducible over F_{p}")
    return modulus


class FieldSpec:
    """GF(p^k) with a fixed monic irreducible modulus.

    Immutable after construction; all arithmetic goes through integer
    element indices and the lookup tables built here, which library code
    that works on indices reads by name: ``add`` and ``mul`` are read
    ``table[a][b]``; ``neg``, ``inv`` and ``frob`` are read ``table[a]``;
    ``inv[0]`` is a placeholder 0 and ``frob`` is ``None`` for odd
    extension degrees.  ``coeffs[n]`` is the coefficient tuple of index n.
    """

    def __init__(self, p: int, k: int, modulus: Optional[Sequence[int]] = None):
        self.modulus = _field_modulus(p, k, modulus)
        self.p = p
        self.k = k
        self.order = order = p ** k
        self.q = p ** (k // 2) if k % 2 == 0 else None

        self.coeffs = [self._digits(n) for n in range(order)]
        self._build_tables()
        self._kappa_index = None
        if self.q is not None:
            subfield = frozenset(n for n in range(order) if self.frob_i(n) == n)
            if len(subfield) != self.q:
                raise InvariantError(f"fixed field of x -> x^{self.q} has "
                                     f"{len(subfield)} elements, expected {self.q}")
            self._kappa_index = next(n for n in range(order) if n not in subfield)

    # -- construction-time helpers --

    def _digits(self, n: int) -> tuple:
        out = []
        for _ in range(self.k):
            out.append(n % self.p)
            n //= self.p
        return tuple(out)

    def _index_of(self, coeffs: Sequence[int]) -> int:
        n = 0
        for c in reversed(coeffs):
            n = n * self.p + (c % self.p)
        return n

    def _powers(self, g: int) -> List[int]:
        """g^0, g^1, ... up to the last power before 1 recurs, by polynomial products."""
        out, x = [], 1
        while x != 1 or not out:
            out.append(x)
            x = self._index_of(_poly_mod(_poly_mul(self.coeffs[x], self.coeffs[g], self.p),
                                         self.modulus, self.p))
        return out

    def _build_tables(self) -> None:
        """Fill the arithmetic tables (see the class docstring)."""
        p, order, n = self.p, self.order, self.order - 1
        # Addition is digit-wise mod p: extend the table one top digit at a
        # time; entries come from one list of ints, so the tables share them.
        ints, add, w = list(range(order)), [[0]], 1
        for _ in range(self.k):
            tops = [ints[w * s:w * (s + 1)] for s in range(p)]
            add = [[y for bt in range(p) for y in map(tops[(at + bt) % p].__getitem__, add[a])]
                   for at in range(p) for a in range(w)]
            w *= p
        self.add, self.neg = add, [row.index(0) for row in add]
        # The first element whose powers reach every unit is primitive; its
        # powers are the antilog table, and a*b = g^(log a + log b).
        exp = next(e for e in map(self._powers, range(1, order)) if len(e) == n)
        log = [0] * order
        for i, x in enumerate(exp):
            log[x] = i
        logs, exp2 = log[1:], exp + exp
        self._exp, self._log = exp, log
        self.mul = [[0] * order] + [[0, *map(exp2[la:la + n].__getitem__, logs)] for la in logs]
        self.inv = [0] + [exp[-la % n] for la in logs]
        self.frob = None if self.q is None else [0] + [exp[la * self.q % n] for la in logs]

    # -- index-level arithmetic --

    def add_i(self, a: int, b: int) -> int:
        return self.add[a][b]

    def mul_i(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise DivisionByZeroError("inverse of zero")
        return self.inv[a]

    def frob_i(self, a: int) -> int:
        if self.frob is None:
            raise NoInvolutionError(f"GF({self.p}^{self.k}) has odd degree, no conjugation")
        return self.frob[a]

    # -- public element constructors --

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def gen(self) -> "FieldElement":
        """The class of t (index p) when k > 1, else 1."""
        return FieldElement(self, self.p if self.k > 1 else 1)

    @property
    def kappa(self) -> "FieldElement":
        """First element outside the fixed subfield, in index order."""
        if self._kappa_index is None:
            raise NoInvolutionError("kappa requires an even extension degree")
        return FieldElement(self, self._kappa_index)

    def element(self, coeffs: Sequence[int]) -> "FieldElement":
        return FieldElement(self, self._index_of(_poly_mod(coeffs, self.modulus, self.p)))

    def from_int(self, n: int) -> "FieldElement":
        """Image of the integer n under the prime-field embedding; a constant is its own index."""
        return FieldElement(self, n % self.p)

    def from_string(self, text: str) -> "FieldElement":
        """Parse a polynomial in t, e.g. 't+1', '2*t^3 + t', or at most k
        comma-separated coefficients, low degree first, e.g. '1,1'."""
        if "," in text:
            return self.parse(parse_coefficients(text))
        coeffs = [0] * self.k
        terms = [term.strip() for term in re.split(r"(?=[+-])", text)]
        if len(terms) > 1 and not terms[0]:
            del terms[0]  # the blank text in front of a leading sign
        for term in terms:
            m = _TERM_RE.fullmatch(term)
            if not m or not (m.group(2) or m.group(3)):
                raise ParseError(f"cannot parse field element term {term[:20]!r}")
            sign, coef_s, t_part, exp_s = m.groups()
            try:  # int() refuses text beyond the interpreter's digit limit
                coef = int(coef_s) if coef_s else 1
                exp = int(exp_s) if exp_s else (1 if t_part else 0)
            except ValueError:
                raise ParseError(f"number too long in field element term {term[:20]!r}") from None
            if exp >= self.k:
                raise ParseError(f"exponent exceeds degree {self.k - 1} in field element term "
                                 f"{term[:20]!r}")
            coeffs[exp] = (coeffs[exp] + (-coef if sign == "-" else coef)) % self.p
        return self.element(coeffs)

    def parse(self, value: Union[str, int, Sequence[int], "FieldElement"]) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise FieldMismatchError("element belongs to a different field")
            return value
        if isinstance(value, str):
            return self.from_string(value)
        if isinstance(value, int):
            return self.from_int(value)
        if len(value) > self.k:  # element() would reduce t^k and above
            raise ParseError(f"an element of GF({self.p}^{self.k}) has at most {self.k} "
                             f"coefficients, got {len(value)}")
        return self.element(value)

    def elements(self) -> Iterator["FieldElement"]:
        for n in range(self.order):
            yield FieldElement(self, n)

    # -- identity / serialization --

    def __eq__(self, other) -> bool:
        if self is other:  # build_field interns specs, so this is the usual case
            return True
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.modulus == other.modulus  # of length k + 1
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, k={self.k}, modulus={list(self.modulus)})"

    def to_json(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}


def _ray(v: tuple, spec: FieldSpec) -> Optional[tuple]:
    """The index tuple v scaled so its first nonzero entry is 1 (v itself when
    that entry is 1): one tuple per ray.  None for the zero vector, which spans
    no ray."""
    for x in v:
        if x:
            if x == 1:
                return v
            m = spec.mul[spec.inv[x]]
            return tuple([m[y] for y in v])
    return None


class FieldElement:
    """Single element of a FieldSpec; immutable value object."""

    __slots__ = ("spec", "index")

    def __init__(self, spec: FieldSpec, index: int):
        self.spec = spec
        self.index = index

    @property
    def coeffs(self) -> tuple:
        return self.spec.coeffs[self.index]

    def is_zero(self) -> bool:
        return self.index == 0

    def _operand(self, other) -> Optional[int]:
        """The index ``FieldSpec.parse`` reads from an element or int; None for other types."""
        if isinstance(other, (FieldElement, int)):
            return self.spec.parse(other).index
        return None

    def __add__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add_i(self.index, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add[self.index][self.spec.neg[b]])

    def __rsub__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add[b][self.spec.neg[self.index]])

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg[self.index])

    def __mul__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul_i(self.index, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul_i(self.index, self.spec.inv_i(b)))

    def __rtruediv__(self, other):
        b = self._operand(other)
        if b is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul_i(b, self.spec.inv_i(self.index)))

    def __pow__(self, e: int):
        spec = self.spec
        if self.index == 0:
            if e < 0:
                raise DivisionByZeroError("inverse of zero")
            return FieldElement(spec, 0 if e else 1)
        return FieldElement(spec, spec._exp[spec._log[self.index] * e % (spec.order - 1)])

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv_i(self.index))

    def conj(self) -> "FieldElement":
        """Conjugation x -> x^q; requires even extension degree."""
        return FieldElement(self.spec, self.spec.frob_i(self.index))

    def norm(self) -> "FieldElement":
        """Multiplicative norm x * conj(x) = x^(q+1); lands in the subfield."""
        return self * self.conj()

    def decompose(self) -> tuple:
        """Unique (a, b) with self = a + kappa*b and a, b in the subfield."""
        kappa = self.spec.kappa
        denom = kappa - kappa.conj()
        b = (self - self.conj()) / denom
        a = self - kappa * b
        return (a, b)

    def component_square_sum(self) -> "FieldElement":
        """Secondary Born quantity a^2 + b^2 from the kappa-splitting.

        Agrees with norm() only when kappa^2 = -1; both readings are exposed.
        """
        a, b = self.decompose()
        return a * a + b * b

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.spec == other.spec
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((self.spec.p, self.spec.k, self.index))

    def __str__(self) -> str:
        terms = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{e}" if c == 1 else f"{c}*t^{e}")
        return " + ".join(reversed(terms)) if terms else "0"

    def __repr__(self) -> str:
        return f"<{self} in GF({self.spec.p}^{self.spec.k})>"

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}


_fields = {}  # (p, k, modulus as given) and (p, reduced modulus) -> the one FieldSpec


def build_field(p: int, k: int, modulus: Optional[Iterable[int]] = None) -> FieldSpec:
    """GF(p^k), one object per field; the default modulus is ``_first_irreducible(p, k)``.

    A new spelling of a field already built is looked up before any table is.
    """
    key = (p, k, tuple(modulus) if modulus is not None else None)
    if key not in _fields:
        field = (p, _field_modulus(p, k, key[2]))
        if field not in _fields:
            _fields[field] = FieldSpec(p, k, field[1])
        _fields[key] = _fields[field]
    return _fields[key]


class TheoryDescriptor:
    """One point (i, m, p) of the theory lattice: GF(p^2i) in dimension m."""

    def __init__(self, i: int, m: int, field: FieldSpec):
        self.i, self.m, self.field = i, m, field

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "m": self.m,
            "p": self.field.p,
            "field": self.field.to_json(),
            "subfield_order": self.field.q,
            "dimension": self.m,
            "involution": f"x -> x^{self.field.q}",
        }


def theory_coordinates(i: int, m: int, p: int) -> TheoryDescriptor:
    """Instantiate the theory at lattice point (i, m, p): GF(p^2i), dim m."""
    _check_prime(p)
    if i < 1 or m < 1:
        raise ParseError(f"i and m must be positive, got i={i}, m={m}")
    return TheoryDescriptor(i=i, m=m, field=build_field(p, 2 * i))


def field_report(spec: FieldSpec, element: Optional[str] = None) -> dict:
    """The ``gqt field`` report: the field, and the analysis of ``element`` text if given."""
    report = {
        "field": spec.to_json(),
        "order": spec.order,
        "q": spec.q,
        "kappa": spec.kappa.to_json() if spec.q else None,
    }
    if element is not None:
        x = spec.parse(element)
        entry = {"element": x.to_json(), "text": str(x)}
        if spec.q:
            a, b = x.decompose()
            entry.update({
                "conjugate": x.conj().to_json(),
                "norm": x.norm().to_json(),
                "split": {"a": a.to_json(), "b": b.to_json()},
                "component_square_sum": x.component_square_sum().to_json(),
            })
        report["analysis"] = entry
    return report
