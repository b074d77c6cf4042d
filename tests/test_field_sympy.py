"""Differential test of the field tables against sympy's GF(p)[x] arithmetic.

sympy is an independent oracle for the table builder: the default modulus
is the first monic polynomial sympy calls irreducible, and every product
and inverse agrees with polynomial arithmetic modulo that modulus.
"""

import itertools

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_gcdex, gf_irreducible_p, gf_mul, gf_rem  # noqa: E402

from gqt.field import FieldSpec, _first_irreducible  # noqa: E402

# Every field the tests build, plus GF(2^6), GF(3^3) and GF(7^2).
FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (2, 4), (2, 5),
          (3, 4), (3, 3), (2, 6)]


def poly(coeffs):
    """sympy's dense form (high degree first) of little-endian coefficients."""
    out = list(reversed(coeffs))
    while out and out[0] == 0:
        out.pop(0)
    return out


def index_of(dense, p, k):
    """Element index of a sympy dense polynomial of degree below k."""
    coeffs = list(reversed(dense)) + [0] * (k - len(dense))
    return sum(c % p * p ** i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("p,k", FIELDS)
def test_default_modulus_is_the_first_sympy_irreducible(p, k):
    first = next(c + (1,) for c in itertools.product(range(p), repeat=k)
                 if gf_irreducible_p(poly(c + (1,)), p, ZZ))
    assert _first_irreducible(p, k) == first


@pytest.mark.parametrize("p,k,modulus", [(p, k, None) for p, k in FIELDS] + [(3, 2, (2, 1, 1))])
def test_tables_match_sympy_polynomial_arithmetic(p, k, modulus):
    spec = FieldSpec(p, k, modulus)
    m = poly(spec.modulus)
    dense = [poly(c) for c in spec.coeffs]
    for a, da in enumerate(dense):
        assert spec.mul[a] == [index_of(gf_rem(gf_mul(da, db, p, ZZ), m, p, ZZ), p, k)
                               for db in dense]
        if a:
            s, _, h = gf_gcdex(da, m, p, ZZ)
            assert h == [1]
            assert spec.inv[a] == index_of(gf_rem(s, m, p, ZZ), p, k)
