import pytest
from hypothesis import given, strategies as st

from kleinmackey.laurent import LaurentPoly, geom


def test_geom_examples():
    assert geom(0, 3) == LaurentPoly.from_dict({0: 1, 1: 1, 2: 1, 3: 1})
    assert geom(0, -1) == LaurentPoly.zero()
    assert geom(-3, -2).pretty() == "x^-3 + x^-2"


def test_ring_examples():
    one_plus_x = geom(0, 1)
    assert (one_plus_x * one_plus_x).as_dict() == {0: 1, 1: 2, 2: 1}
    assert one_plus_x.shift(-3).pretty() == "x^-3 + x^-2"
    combo = one_plus_x * one_plus_x + geom(0, 2).shift(1)
    assert combo.as_dict() == {0: 1, 1: 3, 2: 2, 3: 1}


def test_negative_coefficients_rejected():
    with pytest.raises(ValueError):
        LaurentPoly(((0, -1),))
    assert LaurentPoly.from_dict({0: 0}) == LaurentPoly.zero()


def test_pretty_and_json():
    p = LaurentPoly.from_dict({-3: 1, -2: 2})
    assert p.pretty() == "x^-3 + 2x^-2"
    assert p.to_json_dict() == {"-3": 1, "-2": 2}
    assert LaurentPoly.zero().pretty() == "0"
    assert LaurentPoly.from_dict({0: 1, 1: 3, 2: 2, 3: 1}).pretty() == \
        "1 + 3x + 2x^2 + x^3"


polys = st.dictionaries(st.integers(-6, 6), st.integers(1, 5), max_size=6) \
    .map(LaurentPoly.from_dict)


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys, st.integers(-5, 5))
def test_shift_is_monomial_multiplication(p, k):
    assert p.shift(k) == p * LaurentPoly.monomial(k)
