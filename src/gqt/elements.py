"""The object layer of a field: ``FieldElement``, the element-text grammar and
the ``field``/``theory`` reports.  ``gqt.field``, the index core, imports this
module only when a ``FieldSpec`` first builds an element, so a job that reads
only tables, such as ``kernel enumerate`` or a no-go scan, never compiles it.
"""

from __future__ import annotations

import re
from typing import List, Optional

from .errors import DivisionByZeroError, ParseError
from .field import FieldSpec, _check_prime, build_field

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


def parse_element(spec: FieldSpec, text: str) -> FieldElement:
    """``FieldSpec.from_string``: a polynomial in t, or comma-separated coefficients."""
    if "," in text:
        return spec.parse(parse_coefficients(text))
    coeffs = [0] * spec.k
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
        if exp >= spec.k:
            raise ParseError(f"exponent exceeds degree {spec.k - 1} in field element term "
                             f"{term[:20]!r}")
        coeffs[exp] = (coeffs[exp] + (-coef if sign == "-" else coef)) % spec.p
    return spec.element(coeffs)


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

    def _binary(index):
        """The operator computing ``index(spec, a, b)``, a the index of self and b the
        index ``spec.parse`` reads from the other operand, an element or an int."""
        def op(self, other):
            if not isinstance(other, (FieldElement, int)):
                return NotImplemented
            spec = self.spec
            return FieldElement(spec, index(spec, self.index, spec.parse(other).index))
        return op

    __add__ = __radd__ = _binary(lambda spec, a, b: spec.add_i(a, b))
    __sub__ = _binary(lambda spec, a, b: spec.add[a][spec.neg[b]])
    __rsub__ = _binary(lambda spec, a, b: spec.add[b][spec.neg[a]])
    __mul__ = __rmul__ = _binary(lambda spec, a, b: spec.mul_i(a, b))
    __truediv__ = _binary(lambda spec, a, b: spec.mul_i(a, spec.inv_i(b)))
    __rtruediv__ = _binary(lambda spec, a, b: spec.mul_i(b, spec.inv_i(a)))
    del _binary

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg[self.index])

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
