import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gqt.field
from gqt.elements import FieldElement, parse_coefficients, theory_coordinates
from gqt.errors import (
    DegreeMismatchError,
    DivisionByZeroError,
    FieldMismatchError,
    NoInvolutionError,
    NotPrimeError,
    ParseError,
    ReducibleModulusError,
    TooLargeError,
)
from gqt.field import FieldSpec, build_field, is_prime


def test_gf4_default_modulus(gf4):
    # the unique monic irreducible quadratic over F_2
    assert gf4.modulus == (1, 1, 1)
    assert gf4.q == 2


def test_gf9_default_modulus(gf9):
    # oracle: t^2 + 1 has no root in F_3 and every earlier candidate factors
    assert gf9.modulus == (1, 0, 1)
    for c0, c1 in [(0, 0), (0, 1), (0, 2)]:
        # each earlier (low-degree-first) candidate has a root in F_3
        assert any((r * r + c1 * r + c0) % 3 == 0 for r in range(3))
    assert all((r * r + 1) % 3 != 0 for r in range(3))


def test_build_field_rejects_nonprime():
    with pytest.raises(NotPrimeError):
        build_field(4, 1)


def test_build_field_rejects_reducible():
    with pytest.raises(ReducibleModulusError):
        build_field(2, 2, [1, 0, 1])  # (t+1)^2
    with pytest.raises(DegreeMismatchError):
        build_field(2, 2, [1, 1])


def test_modulus_override():
    alt = build_field(3, 2, [2, 1, 1])  # t^2 + t + 2, also irreducible
    assert alt.modulus == (2, 1, 1)
    assert alt != build_field(3, 2)


def test_build_field_returns_one_object_per_field():
    # every spelling of t^2 + 1 over F_3, default, reduced or not, tuple or list
    gf9 = build_field(3, 2)
    for modulus in ((1, 0, 1), (4, 0, 1), [1, 0, 1], (-2, 3, 7)):
        assert build_field(3, 2, modulus) is gf9
    assert build_field(3, 2, (2, 1, 1)) is not gf9
    # the public constructor still builds a fresh, equal spec
    fresh = FieldSpec(3, 2)
    assert fresh is not gf9 and fresh == gf9 and hash(fresh) == hash(gf9)


def test_new_spelling_of_a_held_field_builds_no_tables(monkeypatch):
    gf9 = build_field(3, 2)
    calls = []
    build_tables = FieldSpec._build_tables
    monkeypatch.setattr(FieldSpec, "_build_tables",
                        lambda self: calls.append(self) or build_tables(self))
    assert build_field(3, 2, (7, 3, 4)) is gf9
    assert calls == []
    # the checks still run first: p = 0 is refused before the modulus is reduced mod p
    with pytest.raises(NotPrimeError):
        build_field(0, 2, (7, 3, 4))


def test_gf4_arithmetic_examples(gf4):
    t = gf4.gen
    assert t * t == t + 1
    assert t.inverse() == t + 1
    assert (t * (t + 1)) == gf4.one
    for x in gf4.elements():
        assert x + gf4.zero == x
    with pytest.raises(DivisionByZeroError):
        gf4.zero.inverse()


@pytest.mark.parametrize("op", [
    lambda x: "a" - x, lambda x: 1.5 - x, lambda x: x - "a", lambda x: x + None,
    lambda x: [1] * x, lambda x: x / "a", lambda x: "a" / x,
], ids=["str-x", "float-x", "x-str", "x+None", "list*x", "x/str", "str/x"])
def test_operands_other_than_elements_and_ints_raise_type_error(gf9, op):
    with pytest.raises(TypeError):
        op(gf9.gen)


@pytest.mark.parametrize("p", [2, 3])
def test_each_operator_and_its_reflection_read_their_table_formula(p):
    spec = build_field(p, 2)
    add, mul, neg, inv = spec.add, spec.mul, spec.neg, spec.inv
    formulas = {  # the index of x op y, from the indices a of x and b of y
        "add": lambda a, b: add[a][b],
        "sub": lambda a, b: add[a][neg[b]],
        "mul": lambda a, b: mul[a][b],
        "truediv": lambda a, b: mul[a][inv[b]],
    }

    def check(name, call, a, b):
        if name == "truediv" and b == 0:
            with pytest.raises(DivisionByZeroError):
                call()
        else:
            result = call()
            assert result.spec is spec and result.index == formulas[name](a, b)

    for name in formulas:
        op, rop = f"__{name}__", f"__r{name}__"
        for a, b in itertools.product(range(spec.order), repeat=2):
            x, y = FieldElement(spec, a), FieldElement(spec, b)
            check(name, lambda: getattr(x, op)(y), a, b)
            check(name, lambda: getattr(y, rop)(x), a, b)
        # an int operand on either side is read as ``spec.from_int``
        for n, a in itertools.product(range(-p, 2 * p + 1), range(spec.order)):
            x, m = FieldElement(spec, a), spec.from_int(n).index
            check(name, lambda: getattr(x, op)(n), a, m)
            check(name, lambda: getattr(x, rop)(n), m, a)


def test_int_and_mixed_field_operands(gf4, gf9):
    for x in gf9.elements():
        assert 1 - x == -(x - 1) and 5 - x == gf9.from_int(5) - x
        assert 2 + x == x + 2 and 2 * x == x * 2
        if x.index:
            assert 1 / x == x.inverse() and 2 / x == gf9.from_int(2) / x
    with pytest.raises(DivisionByZeroError):
        1 / gf9.zero
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b):
        with pytest.raises(FieldMismatchError):
            op(gf9.gen, gf4.gen)


def test_frobenius_examples(gf4, gf9):
    t = gf4.gen
    assert t.conj() == t + 1
    assert gf4.one.conj() == gf4.one
    for x in gf9.elements():
        assert x.conj().conj() == x


def test_frobenius_requires_even_degree():
    gf8 = build_field(2, 3)
    with pytest.raises(NoInvolutionError):
        gf8.gen.conj()


def test_frobenius_is_automorphism():
    for spec in (build_field(2, 2), build_field(3, 2)):
        for x in spec.elements():
            for y in spec.elements():
                assert (x + y).conj() == x.conj() + y.conj()
                assert (x * y).conj() == x.conj() * y.conj()


def test_fixed_field_size():
    for spec in (build_field(2, 2), build_field(3, 2)):
        fixed = [x for x in spec.elements() if x.conj() == x]
        assert len(fixed) == spec.q


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3), (5, 2), (2, 4)])
def test_tables_match_coefficient_arithmetic(p, k):
    spec = build_field(p, k)

    def index(coeffs):
        return sum(c % p * p ** i for i, c in enumerate(coeffs))

    for a in range(spec.order):
        ca = spec.coeffs[a]
        assert spec.neg[a] == index([-x for x in ca])
        for b in range(spec.order):
            cb = spec.coeffs[b]
            assert spec.add[a][b] == index([x + y for x, y in zip(ca, cb)])
            assert spec.add[a][spec.neg[b]] == index([x - y for x, y in zip(ca, cb)])
        if a:
            assert spec.mul[a][spec.inv[a]] == 1
        if spec.q is None:
            assert spec.frob is None
        else:
            power = 1
            for _ in range(spec.q):
                power = spec.mul[power][a]
            assert spec.frob[a] == power


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 1), (5, 2), (2, 3)])
def test_field_axioms_exhaustive(p, k):
    spec = build_field(p, k)
    idx = range(spec.order)
    add, mul = spec.add_i, spec.mul_i
    for a in idx:
        for b in idx:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in idx:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    one = spec.one.index
    for a in range(1, spec.order):
        assert mul(a, spec.inv_i(a)) == one


def test_decompose_examples(gf4):
    t = gf4.gen
    assert gf4.kappa == t
    a, b = (t + 1).decompose()
    assert (a, b) == (gf4.one, gf4.one)
    z0, z1 = gf4.zero.decompose()
    assert z0.is_zero() and z1.is_zero()


def test_decompose_roundtrip_exhaustive(gf9):
    kappa = gf9.kappa
    seen = set()
    for x in gf9.elements():
        a, b = x.decompose()
        assert a.conj() == a and b.conj() == b  # components in the subfield
        assert a + kappa * b == x
        seen.add((a.index, b.index))
    assert len(seen) == gf9.order  # uniqueness


def test_norm_examples(gf4, gf9):
    assert gf4.zero.norm() == gf4.zero
    assert gf4.gen.norm() == gf4.one
    assert (gf9.gen + 1).norm() == gf9.from_int(2)


def test_norm_multiplicative_and_fibers():
    for spec in (build_field(2, 2), build_field(3, 2)):
        q = spec.q
        subfield_units = set()
        fibers = {}
        for x in spec.elements():
            n = x.norm()
            assert n.conj() == n  # lands in the subfield
            assert n.is_zero() == x.is_zero()
            for y in spec.elements():
                assert (x * y).norm() == x.norm() * y.norm()
            if not x.is_zero():
                fibers.setdefault(n.index, 0)
                fibers[n.index] += 1
                subfield_units.add(n.index)
        assert len(subfield_units) == q - 1  # onto GF(q)^x
        assert all(size == q + 1 for size in fibers.values())


def test_component_square_sum_vs_norm(gf4):
    # kappa = t with t^2 = t + 1 != -1, so the two Born readings disagree
    t = gf4.gen
    assert (t + 1).norm() == gf4.one
    assert (t + 1).component_square_sum() == gf4.zero


def test_theory_coordinates():
    d = theory_coordinates(1, 2, 2)
    assert d.field.order == 4 and d.field.q == 2 and d.m == 2
    d = theory_coordinates(1, 4, 3)
    assert d.field.order == 9 and d.field.q == 3 and d.m == 4
    d = theory_coordinates(2, 2, 2)
    assert d.field.order == 16 and d.field.q == 4
    assert d.field.modulus[-1] == 1 and len(d.field.modulus) == 5
    with pytest.raises(NotPrimeError):
        theory_coordinates(1, 2, 4)


def test_element_text_roundtrip(gf9):
    for x in gf9.elements():
        assert gf9.from_string(str(x)) == x
    assert gf9.from_string("2*t+1").coeffs == (1, 2)
    assert gf9.parse([1, 2]) == gf9.from_string("2*t + 1")


def test_parse_refuses_more_than_k_coefficients_as_a_list_or_as_text(gf9):
    # element() still reduces a long list modulo the modulus; parse() reads
    # element input, where t^k is not a coefficient
    messages = []
    for value in ([0, 0, 1], "0,0,1", (1, 0, 0, 0)):
        with pytest.raises(ParseError) as exc:
            gf9.parse(value)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert gf9.element([0, 0, 1]) == gf9.gen ** 2


def test_element_and_modulus_text_read_one_integer_grammar(gf9):
    # an integer is ASCII [+-]?[0-9]+, and a term is empty only before a leading sign
    for text in ("", " ", "+", "++", "-", "1++1", "t+", "1+-t", "2*", "*t", "\u0661", "1_0"):
        with pytest.raises(ParseError):
            gf9.from_string(text)
    for text in ("", "1_0,0,1", "\u0661,0,1", "1,,1"):
        with pytest.raises(ParseError):
            parse_coefficients(text)
    assert gf9.from_string("-t") == -gf9.gen and gf9.from_string(" + t") == gf9.gen
    assert gf9.from_string(" - 2 * t^1 + 1 ") == gf9.from_string("1, 1")
    assert parse_coefficients(" -1 ,+2") == [-1, 2]


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
@given(data=st.data())
def test_from_string_inverts_str(p, k, data):
    spec = build_field(p, k)
    x = FieldElement(spec, data.draw(st.integers(0, spec.order - 1)))
    assert spec.from_string(str(x)) == x


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3)])
def test_element_reduces_a_long_coefficient_list(p, k):
    # one reduction pass: 20,000 coefficients, the sum of t^i for i < 20,000
    spec = build_field(p, k)
    total = spec.zero
    for i in range(20000):
        total = total + spec.gen ** i
    assert spec.element([1] * 20000) == total


def test_short_coefficient_lists_and_powers_of_zero(gf9):
    assert gf9.element([]) == gf9.zero and gf9.element([2]) == gf9.from_int(2)
    assert gf9.element([0, 1]) == gf9.gen and gf9.element((1, -1)) == gf9.from_string("1 - t")
    assert gf9.zero ** 0 == gf9.one and gf9.zero ** 3 == gf9.zero
    with pytest.raises(DivisionByZeroError):
        gf9.zero ** -1


def test_json_encoding(gf4):
    assert gf4.to_json() == {"p": 2, "k": 2, "modulus": [1, 1, 1]}
    assert (gf4.gen + 1).to_json() == {"coeffs": [1, 1]}


@settings(max_examples=200)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_distributivity_random_gf9(a, b, c):
    spec = build_field(3, 2)
    x, y, z = FieldElement(spec, a), FieldElement(spec, b), FieldElement(spec, c)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


# Field construction is bounded: no test builds an order above 1024.

@pytest.mark.parametrize("make", [
    lambda: FieldSpec(2, 13),
    lambda: FieldSpec(4099, 1),
    lambda: build_field(2, 10 ** 9),
    lambda: FieldSpec(2, 13, [1] * 14),
    lambda: theory_coordinates(7, 1, 2),
    lambda: FieldSpec(2, 11),
    lambda: FieldSpec(1031, 1),
    lambda: theory_coordinates(6, 1, 2),
])
def test_order_above_the_table_limit_is_too_large(make):
    with pytest.raises(TooLargeError):
        make()


@pytest.mark.parametrize("p", [0, 1, -3])
def test_non_prime_below_the_limit_fails_before_the_degree_is_read(p):
    # the order loop runs only after the prime check, so a huge k costs nothing
    with pytest.raises(NotPrimeError):
        FieldSpec(p, 10 ** 9)


def test_order_bound_comes_before_any_search(monkeypatch):
    def not_reached(*args):
        raise AssertionError("ran before the order bound")

    monkeypatch.setattr(gqt.field, "_first_irreducible", not_reached)
    monkeypatch.setattr(gqt.field, "_is_irreducible", not_reached)
    with pytest.raises(TooLargeError):
        FieldSpec(2, 13)
    with pytest.raises(TooLargeError):
        FieldSpec(3, 8, [1] * 9)
    # a characteristic above the limit is refused before the primality test
    monkeypatch.setattr(gqt.field, "is_prime", not_reached)
    for p in (4099, 10 ** 30 + 57):
        with pytest.raises(TooLargeError):
            FieldSpec(p, 1)
        with pytest.raises(TooLargeError):
            theory_coordinates(1, 1, p)


def test_largest_tested_field_has_full_tables():
    spec = FieldSpec(2, 10)
    assert len(spec.mul) == len(spec.inv) == len(spec.add) == 1024
    assert all(spec.mul[a][spec.inv[a]] == 1 and spec.inv[spec.inv[a]] == a for a in range(1, 1024))
