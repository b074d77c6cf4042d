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

This module is the index core; ``FieldElement``, the element-text grammar and
the reports are in ``gqt.elements``, which ``FieldSpec`` imports on first use.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Union

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

if TYPE_CHECKING:
    from .elements import FieldElement

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


@lru_cache(maxsize=None)
def _elements():
    """The object layer, ``gqt.elements``, imported on the first call."""
    from . import elements

    return elements


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

    # -- public element constructors: ``gqt.elements`` loads on the first call --

    @property
    def zero(self) -> "FieldElement":
        return _elements().FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return _elements().FieldElement(self, 1)

    @property
    def gen(self) -> "FieldElement":
        """The class of t (index p) when k > 1, else 1."""
        return _elements().FieldElement(self, self.p if self.k > 1 else 1)

    @property
    def kappa(self) -> "FieldElement":
        """First element outside the fixed subfield, in index order."""
        if self._kappa_index is None:
            raise NoInvolutionError("kappa requires an even extension degree")
        return _elements().FieldElement(self, self._kappa_index)

    def element(self, coeffs: Sequence[int]) -> "FieldElement":
        index = self._index_of(_poly_mod(coeffs, self.modulus, self.p))
        return _elements().FieldElement(self, index)

    def from_int(self, n: int) -> "FieldElement":
        """Image of the integer n under the prime-field embedding; a constant is its own index."""
        return _elements().FieldElement(self, n % self.p)

    def from_string(self, text: str) -> "FieldElement":
        """Parse a polynomial in t, e.g. 't+1', '2*t^3 + t', or at most k
        comma-separated coefficients, low degree first, e.g. '1,1'."""
        return _elements().parse_element(self, text)

    def parse(self, value: Union[str, int, Sequence[int], "FieldElement"]) -> "FieldElement":
        if isinstance(value, _elements().FieldElement):
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
            yield _elements().FieldElement(self, n)

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
