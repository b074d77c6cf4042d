"""Exact arithmetic in GF(p^k) with a polynomial-basis representation.

Elements are indexed by integers: the element with coefficient vector
(c0, c1, ..., c_{k-1}) (little-endian in the generator ``t``) has index
c0 + c1*p + ... + c_{k-1}*p^(k-1).  For orders up to ``_TABLE_LIMIT``
every operation is a table lookup: addition, subtraction, negation and
multiplication (``order x order`` tables), inverse and conjugation
(``order`` entries).  The hot loops of the kernel geometry read these
tables directly.  Larger orders fall back to polynomial arithmetic.

When the extension degree k is even the field carries the conjugation
x -> x^q with q = p^(k/2); the fixed subfield has order q, and a
distinguished element ``kappa`` outside the subfield gives every element
a unique splitting a + kappa*b with a, b in the subfield.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Union

from .errors import (
    DegreeMismatchError,
    DivisionByZeroError,
    FieldMismatchError,
    InvariantError,
    NoInvolutionError,
    NotPrimeError,
    ReducibleModulusError,
    TooLargeError,
)

# Orders up to this bound get full arithmetic tables.
_TABLE_LIMIT = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# --- polynomial helpers over F_p (little-endian coefficient tuples) ----------

def _poly_trim(a: Sequence[int]) -> tuple:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple:
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    while len(_poly_trim(a)) - 1 >= dm:
        a = list(_poly_trim(a))
        shift = len(a) - 1 - dm
        lead = a[-1]
        for i, mi in enumerate(m):
            a[i + shift] = (a[i + shift] - lead * mi) % p
        a = a[:-1]
    return _poly_trim(a)


def _monic_polys(p: int, deg: int) -> Iterator[tuple]:
    for low in itertools.product(range(p), repeat=deg):
        yield tuple(low) + (1,)


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(modulus) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for div in _monic_polys(p, d):
            if _poly_mod(modulus, div, p) == ():
                return False
    return True


def _first_irreducible(p: int, k: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree k.

    Coefficient tuples (c0, ..., c_{k-1}) are compared low-degree first.
    """
    if k == 1:
        return (0, 1)
    for cand in _monic_polys(p, k):
        if _is_irreducible(cand, p):
            return cand
    raise ReducibleModulusError(f"no irreducible of degree {k} over F_{p}")  # pragma: no cover


class FieldTables(NamedTuple):
    """Lookup tables of one field, indexed by element index.

    ``add``, ``sub`` and ``mul`` are read ``table[a][b]``; ``neg``, ``inv``
    and ``frob`` are read ``table[a]``.  ``inv[0]`` is a placeholder 0 and
    ``frob`` is ``None`` for odd extension degrees.
    """

    add: List[List[int]]
    sub: List[List[int]]
    neg: List[int]
    mul: List[List[int]]
    inv: List[int]
    frob: Optional[List[int]]


_TERM_RE = re.compile(r"^\s*([+-]?\d*)\s*(?:\*\s*)?(t(?:\^(\d+))?)?\s*$")


class FieldSpec:
    """GF(p^k) with a fixed monic irreducible modulus.

    Immutable after construction; all arithmetic goes through integer
    element indices internally.
    """

    def __init__(self, p: int, k: int, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if k < 1:
            raise DegreeMismatchError(f"extension degree must be >= 1, got {k}")
        if modulus is None:
            modulus = _first_irreducible(p, k)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise DegreeMismatchError(
                    f"modulus must be monic of degree {k}, got {list(modulus)}"
                )
            if k > 1 and not _is_irreducible(modulus, p):
                raise ReducibleModulusError(f"modulus {list(modulus)} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.modulus = tuple(modulus)
        self.order = p ** k
        self.q = p ** (k // 2) if k % 2 == 0 else None

        self._coeffs = [self._digits(n) for n in range(self.order)]
        self._build_tables()
        self._subfield = None
        self._kappa_index = None
        if self.q is not None:
            qq = self.q
            self._subfield = frozenset(n for n in range(self.order) if self.frob_i(n) == n)
            if len(self._subfield) != qq:
                raise InvariantError(
                    f"fixed field of x -> x^{qq} has {len(self._subfield)} elements, expected {qq}"
                )
            self._kappa_index = next(n for n in range(self.order) if n not in self._subfield)

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

    def _build_tables(self) -> None:
        """Fill the arithmetic tables (see ``FieldTables``); ``None`` above ``_TABLE_LIMIT``."""
        p, order = self.p, self.order
        self._add = self._sub = self._neg = self._mul = self._inv = self._frob = None
        if order > _TABLE_LIMIT:  # pragma: no cover - beyond desk scale
            return
        coeffs = self._coeffs
        # Addition is digit-wise mod p: extend the table one top digit at a time.
        add, w = [[0]], 1
        for _ in range(self.k):
            add = [[x + w * ((at + bt) % p) for bt in range(p) for x in add[a]]
                   for at in range(p) for a in range(w)]
            w *= p
        self._add = add
        self._neg = [row.index(0) for row in add]
        self._sub = [list(map(row.__getitem__, self._neg)) for row in add]
        mul = [[0] * order for _ in range(order)]
        for a in range(order):
            ca = _poly_trim(coeffs[a])
            for b in range(a, order):
                cb = _poly_trim(coeffs[b])
                prod = _poly_mod(_poly_mul(ca, cb, p), self.modulus, p)
                v = self._index_of(prod + (0,) * (self.k - len(prod)))
                mul[a][b] = v
                mul[b][a] = v
        self._mul = mul
        inv = [0] * order
        for a in range(1, order):
            inv[a] = mul[a].index(1)
        self._inv = inv
        if self.q is not None:
            self._frob = [self.pow_i(a, self.q) for a in range(order)]

    # -- index-level arithmetic (used by hot loops) --

    def tables(self) -> FieldTables:
        """The full lookup tables, for loops that work on element indices."""
        if self._mul is None:  # pragma: no cover - beyond desk scale
            raise TooLargeError(
                f"GF({self.p}^{self.k}) has order {self.order} > {_TABLE_LIMIT}: no lookup tables"
            )
        return FieldTables(self._add, self._sub, self._neg, self._mul, self._inv, self._frob)

    def add_i(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        ca, cb = self._coeffs[a], self._coeffs[b]
        return self._index_of([(x + y) % self.p for x, y in zip(ca, cb)])

    def neg_i(self, a: int) -> int:
        if self._neg is not None:
            return self._neg[a]
        return self._index_of([(-x) % self.p for x in self._coeffs[a]])

    def sub_i(self, a: int, b: int) -> int:
        if self._sub is not None:
            return self._sub[a][b]
        ca, cb = self._coeffs[a], self._coeffs[b]
        return self._index_of([(x - y) % self.p for x, y in zip(ca, cb)])

    def mul_i(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a][b]
        prod = _poly_mul(_poly_trim(self._coeffs[a]), _poly_trim(self._coeffs[b]), self.p)
        prod = _poly_mod(prod, self.modulus, self.p)
        return self._index_of(prod + (0,) * (self.k - len(prod)))

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise DivisionByZeroError("inverse of zero")
        if self._inv is not None:
            return self._inv[a]
        return self.pow_i(a, self.order - 2)  # pragma: no cover - beyond desk scale

    def pow_i(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv_i(a), -e
        result = 1  # the index of one
        base = a
        while e:
            if e & 1:
                result = self.mul_i(result, base)
            base = self.mul_i(base, base)
            e >>= 1
        return result

    def frob_i(self, a: int) -> int:
        if self.q is None:
            raise NoInvolutionError(f"GF({self.p}^{self.k}) has odd degree, no conjugation")
        if self._frob is not None:
            return self._frob[a]
        return self.pow_i(a, self.q)

    # -- public element constructors --

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def gen(self) -> "FieldElement":
        """The class of t, when k > 1; equals p-adic index p."""
        if self.k == 1:
            return self.one
        return FieldElement(self, self.p)

    @property
    def kappa(self) -> "FieldElement":
        """First element outside the fixed subfield, in index order."""
        if self._kappa_index is None:
            raise NoInvolutionError("kappa requires an even extension degree")
        return FieldElement(self, self._kappa_index)

    @property
    def characteristic(self) -> int:
        return self.p

    def element(self, coeffs: Sequence[int]) -> "FieldElement":
        if len(coeffs) > self.k:
            trimmed = _poly_mod(tuple(c % self.p for c in coeffs), self.modulus, self.p)
            coeffs = trimmed + (0,) * (self.k - len(trimmed))
        else:
            coeffs = tuple(coeffs) + (0,) * (self.k - len(coeffs))
        return FieldElement(self, self._index_of(coeffs))

    def from_index(self, n: int) -> "FieldElement":
        return FieldElement(self, n % self.order)

    def from_int(self, n: int) -> "FieldElement":
        """Image of the integer n under the prime-field embedding."""
        return self.element((n % self.p,))

    def from_string(self, text: str) -> "FieldElement":
        """Parse a polynomial in t, e.g. ''t+1'', '2*t^3 + t''."""
        coeffs = [0] * self.k
        s = text.replace("-", "+-").strip()
        if s.startswith("+"):
            s = s[1:]
        for term in s.split("+"):
            term = term.strip()
            if not term:
                continue
            m = _TERM_RE.match(term)
            if not m or (m.group(1) in ("", "+", "-") and not m.group(2)):
                raise ValueError(f"cannot parse field element term {term!r}")
            coef_s, t_part, exp_s = m.group(1), m.group(2), m.group(3)
            coef = int(coef_s) if coef_s not in ("", "+", "-") else (-1 if coef_s == "-" else 1)
            exp = 0
            if t_part:
                exp = int(exp_s) if exp_s else 1
            if exp >= self.k:
                raise ValueError(f"exponent {exp} exceeds degree {self.k - 1} in {text!r}")
            coeffs[exp] = (coeffs[exp] + coef) % self.p
        return self.element(coeffs)

    def parse(self, value: Union[str, int, Sequence[int], "FieldElement"]) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.spec is not self and value.spec != self:
                raise FieldMismatchError("element belongs to a different field")
            return value
        if isinstance(value, str):
            return self.from_string(value)
        if isinstance(value, int):
            return self.from_int(value)
        return self.element(value)

    def elements(self) -> Iterator["FieldElement"]:
        for n in range(self.order):
            yield FieldElement(self, n)

    def subfield_elements(self) -> Iterator["FieldElement"]:
        if self._subfield is None:
            raise NoInvolutionError("no distinguished subfield for odd degree")
        for n in sorted(self._subfield):
            yield FieldElement(self, n)

    def in_subfield_i(self, n: int) -> bool:
        return self._subfield is not None and n in self._subfield

    def coeffs_of(self, n: int) -> tuple:
        return self._coeffs[n]

    # -- identity / serialization --

    def __eq__(self, other) -> bool:
        if self is other:  # build_field interns specs, so this is the usual case
            return True
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, k={self.k}, modulus={list(self.modulus)})"

    def to_json(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}


class FieldElement:
    """Single element of a FieldSpec; immutable value object."""

    __slots__ = ("spec", "index")

    def __init__(self, spec: FieldSpec, index: int):
        self.spec = spec
        self.index = index

    @property
    def coeffs(self) -> tuple:
        return self.spec.coeffs_of(self.index)

    def is_zero(self) -> bool:
        return self.index == 0

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise FieldMismatchError("operands belong to different fields")
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add_i(self.index, other.index))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub_i(self.index, other.index))

    def __rsub__(self, other):
        other = self._coerce(other)
        return other - self

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_i(self.index))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul_i(self.index, other.index))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0 and self.index == 0:
            raise DivisionByZeroError("negative power of zero")
        return FieldElement(self.spec, self.spec.pow_i(self.index, e))

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


@lru_cache(maxsize=None)
def _cached_field(p: int, k: int, modulus: Optional[tuple]) -> FieldSpec:
    return FieldSpec(p, k, modulus)


def build_field(p: int, k: int, modulus: Optional[Iterable[int]] = None) -> FieldSpec:
    """GF(p^k); default modulus is the lexicographically smallest irreducible."""
    mod = tuple(modulus) if modulus is not None else None
    return _cached_field(p, k, mod)


@dataclass(frozen=True)
class TheoryDescriptor:
    """One point (i, m, p) of the theory lattice: GF(p^2i) in dimension m."""

    i: int
    m: int
    p: int
    field: FieldSpec
    subfield_order: int
    dimension: int

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "m": self.m,
            "p": self.p,
            "field": self.field.to_json(),
            "subfield_order": self.subfield_order,
            "dimension": self.dimension,
            "involution": f"x -> x^{self.subfield_order}",
        }


def theory_coordinates(i: int, m: int, p: int) -> TheoryDescriptor:
    """Instantiate the theory at lattice point (i, m, p): GF(p^2i), dim m."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if i < 1 or m < 1:
        raise ValueError("i and m must be positive")
    field = build_field(p, 2 * i)
    return TheoryDescriptor(i=i, m=m, p=p, field=field, subfield_order=p ** i, dimension=m)
