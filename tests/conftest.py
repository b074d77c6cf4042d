import pytest

from gqt.field import build_field
from gqt.forms import standard_form
from gqt.kernel import enumerate_kernel


@pytest.fixture(scope="session")
def gf4():
    return build_field(2, 2)


@pytest.fixture(scope="session")
def gf9():
    return build_field(3, 2)


@pytest.fixture(scope="session")
def modulus_change():
    """GF(9) modulo t^2 + 1 and modulo t^2 + t + 2, and the index map of the
    isomorphism t -> r between them, r a root of t^2 + 1 in the second field."""
    first, second = build_field(3, 2, (1, 0, 1)), build_field(3, 2, (2, 1, 1))
    r = next(x for x in second.elements() if x * x + 1 == second.zero)
    image = [(second.from_int(c0) + second.from_int(c1) * r).index for c0, c1 in first.coeffs]
    return first, second, image


@pytest.fixture(scope="session")
def form4_dim2(gf4):
    return standard_form(gf4, 2)


@pytest.fixture(scope="session")
def form4_dim4(gf4):
    return standard_form(gf4, 4)


@pytest.fixture(scope="session")
def form9_dim4(gf9):
    return standard_form(gf9, 4)


@pytest.fixture(scope="session")
def kernel_q2(form4_dim4):
    return enumerate_kernel(form4_dim4)


@pytest.fixture(scope="session")
def kernel_q3(form9_dim4):
    return enumerate_kernel(form9_dim4)
