import hashlib
import itertools

from hypothesis import given, settings, strategies as st

from kleinmackey import bredon
from kleinmackey.hk import _one_pos_two_neg, poincare, poincare_C2, poincare_K
from kleinmackey.laurent import LaurentPoly, geom
from kleinmackey.reps import RepC2, RepK


def K(a, b, c, d):
    return poincare_K(RepK(a, b, c, d))["K"]


def test_klein_examples():
    assert K(0, 3, 0, 0) == geom(0, 3)
    assert K(0, 1, 1, 1).pretty() == "1 + 3x + 2x^2 + x^3"
    assert K(0, -2, -2, -2).pretty() == "x^-6 + 2x^-5 + 3x^-4 + x^-3"
    assert K(0, 3, -2, -2).pretty() == "2x^-2 + 3x^-1 + 2 + x"
    assert K(0, 2, 1, -1).pretty() == "x + x^2"
    assert K(0, -1, -1, -1).pretty() == "x^-3"  # the 1 - rho twist
    assert K(0, 0, 0, 0) == LaurentPoly.one()
    assert K(0, -1, 0, 0) == LaurentPoly.zero()


def test_c2_examples():
    assert poincare_C2(RepC2(0, 3))["C2"] == geom(0, 3)
    assert poincare_C2(RepC2(0, -2))["C2"].pretty() == "x^-2"
    v = RepC2(1, -1)
    table = poincare_C2(v)
    assert table["C2"] == LaurentPoly.zero()
    assert table["e"] == LaurentPoly.monomial(0)


def test_regular_multiple_series():
    # k - k*rho has the fixed closed form in every degree
    for k in range(1, 5):
        want = (geom(0, 2 * k - 2) * geom(0, k - 2)
                + (geom(0, k - 1) * geom(0, k - 1)).shift(k - 1)).shift(-3 * k)
        assert K(0, -k, -k, -k) == want


def test_levels_dict():
    table = poincare(RepK(0, 3, -2, -2))
    assert set(table) == {"K", "L", "D", "R", "e"}
    assert table["e"] == LaurentPoly.monomial(-1)


@given(st.integers(-4, 4), st.permutations([0, 1, 2]),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_symmetric_in_characters(a, perm, b, c, d):
    chars = [b, c, d]
    permuted = [chars[i] for i in perm]
    assert K(a, b, c, d) == K(a, *permuted)


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_nonnegative_finite(a, b, c, d):
    series = K(a, b, c, d)
    assert all(coeff > 0 for _, coeff in series.coeffs)
    assert len(series.coeffs) < 200


def test_all_positive_coefficient_profile():
    # with 1 <= l <= m <= n the coefficients step up by two to x^l, by one to
    # x^m, stay flat to x^n, then step down by one to a final 1
    for l, m, n in ((1, 2, 4), (2, 2, 2), (1, 1, 5), (3, 4, 5)):
        series = K(0, l, m, n)
        top = l + m + n
        coeffs = [series.as_dict().get(e, 0) for e in range(top + 1)]
        assert coeffs[0] == 1 and coeffs[top] == 1
        for e in range(1, l + 1):
            assert coeffs[e] - coeffs[e - 1] == 2
        for e in range(l + 1, m + 1):
            assert coeffs[e] - coeffs[e - 1] == 1
        for e in range(m + 1, n + 1):
            assert coeffs[e] == coeffs[n]
        for e in range(n + 1, top + 1):
            assert coeffs[e - 1] - coeffs[e] == 1


def test_one_pos_two_neg_overlap_orientations_agree():
    # on l >= max(j, k) both orientations of the stated case apply and agree
    for l in range(1, 7):
        for j in range(1, l + 1):
            for k in range(1, l + 1):
                first = (geom(0, j - 2) * geom(0, l - k)).shift(-j) + \
                    (geom(0, l - 1) * geom(0, k - 1)).shift(-k)
                second = (geom(0, k - 2) * geom(0, l - j)).shift(-k) + \
                    (geom(0, l - 1) * geom(0, j - 1)).shift(-j)
                assert first == second == _one_pos_two_neg(l, j, k)


def two_pos_one_neg_printed(l, m, k):
    """The directly stated product formula for l alpha + m beta - k gamma,
    k >= 2, as printed.

    It fails on corner parameters: at l = m = 1, k = 3 it disagrees with the
    duality route of hk._klein_top_series and with the chain-level
    computation.
    """
    return geom(-k, -1) * geom(0, k - 2) + \
        (geom(0, l - k) * geom(0, m - k)).shift(k)


def test_printed_two_pos_formula_fails_on_corners():
    # the directly printed k >= 2 product formula overshoots at l = m = 1,
    # k = 3; the duality-derived branch matches the chain computation
    printed = two_pos_one_neg_printed(1, 1, 3)
    true = K(0, 1, 1, -3)
    oracle = bredon.homotopy_level_series(RepK(0, 1, 1, -3), "F", "K")
    assert true == oracle
    assert printed != true
    assert printed.as_dict().get(0, 0) == 1 and true.as_dict().get(0, 0) == 0
    # and agrees with the printed formula away from the corners
    assert two_pos_one_neg_printed(3, 3, 2) == K(0, 3, 3, -2)


def test_all_level_series_pinned_on_a_wide_box():
    # pins every branch of the top series, the duality-derived odd sign
    # patterns included, over |b|, |c|, |d| <= 12
    digest = hashlib.sha256()
    span = range(-12, 13)
    for b, c, d in itertools.product(span, span, span):
        digest.update(repr(sorted(poincare_K(RepK(0, b, c, d)).items())).encode())
    assert digest.hexdigest() == \
        "85602b133fe7dbb9bd973745624169818e58b647132216aa23e63f1c32b02742"


def test_level_series_match_oracle_small_box():
    for a, b, c, d in itertools.product(range(-1, 2), repeat=4):
        v = RepK(a, b, c, d)
        table = poincare_K(v)
        for level in ("K", "L", "D", "R", "e"):
            assert table[level] == bredon.homotopy_level_series(v, "F", level), \
                (v, level)


def test_nonnegative_finite_full_width():
    # every coefficient pattern of width up to six stays a genuine
    # dimension-counting series
    for b in range(-6, 7):
        for c in range(-6, 7):
            for d in range(-6, 7):
                series = K(0, b, c, d)
                assert all(coeff > 0 for _, coeff in series.coeffs), (b, c, d)
