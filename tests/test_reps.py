import pytest
from hypothesis import given, strategies as st

from kleinmackey.reps import (RHO_K, RepC2, RepK, parse_rep, restrict_rep,
                              restrict_rep_by_kernels)

ALPHA = RepK(0, 1, 0, 0)
BETA = RepK(0, 0, 1, 0)
GAMMA = RepK(0, 0, 0, 1)
RHO_C2 = RepC2(1, 1)

reps = st.builds(RepK, st.integers(-6, 6), st.integers(-6, 6),
                 st.integers(-6, 6), st.integers(-6, 6))
c2_reps = st.builds(RepC2, st.integers(-6, 6), st.integers(-6, 6))


def test_restrict_examples():
    assert restrict_rep(RHO_K, "L") == RHO_C2 + RHO_C2
    assert restrict_rep(ALPHA, "R") == RepC2(1, 0)
    assert restrict_rep(RepK(), "D") == RepC2()


def test_kernel_pairing_restriction():
    # the cell structures pair each character with its kernel subgroup
    assert restrict_rep_by_kernels(BETA, "L") == RepC2(1, 0)
    assert restrict_rep_by_kernels(GAMMA, "D") == RepC2(1, 0)
    assert restrict_rep_by_kernels(ALPHA, "R") == RepC2(1, 0)
    assert restrict_rep_by_kernels(ALPHA, "L") == RepC2(0, 1)
    # both conventions agree on anything symmetric in the three characters
    for h in ("L", "D", "R"):
        assert restrict_rep_by_kernels(RHO_K, h) == restrict_rep(RHO_K, h)


def test_parse_examples():
    assert parse_rep("1,1,1,1") == RHO_K
    assert parse_rep("0,2,0,-3") == RepK(0, 2, 0, -3)
    assert parse_rep("2+a-3b") == RepK(2, 1, -3, 0)
    assert parse_rep("-g") == RepK(0, 0, 0, -1)
    # two integers are a C2 representation, on (1, sigma)
    assert parse_rep("3,-1") == RepC2(3, -1)
    assert parse_rep(" 0, 2 ").group == "C2" and parse_rep("0,2,0,0").group == "K"
    with pytest.raises(ValueError):
        parse_rep("x")
    with pytest.raises(ValueError, match="2 or 4 comma-separated"):
        parse_rep("1,2,3")
    for text in ("1,a", "1,2,3,b"):
        with pytest.raises(ValueError, match="bad representation tuple"):
            parse_rep(text)


def test_parse_refuses_stray_signs():
    # every character belongs to a term, so no sign is dropped unread
    for text in ("a--b", "2+", "--a", "+-a", "2++a"):
        with pytest.raises(ValueError, match="stray sign"):
            parse_rep(text)
    assert parse_rep("a-b") == RepK(0, 1, -1, 0)
    assert parse_rep("-a+2b") == RepK(0, -1, 2, 0)
    assert parse_rep("+a") == RepK(0, 1, 0, 0)


# the source's restriction tables: columns (1, alpha, beta, gamma), rows
# (1, sigma)
PRINTED_RESTRICTIONS = {
    "L": ((1, 0, 0, 1), (0, 1, 1, 0)),
    "D": ((1, 0, 1, 0), (0, 1, 0, 1)),
    "R": ((1, 1, 0, 0), (0, 0, 1, 1)),
}


@pytest.mark.parametrize("h", sorted(PRINTED_RESTRICTIONS))
@given(v=reps)
def test_printed_restriction_is_kernel_restriction_beta_gamma_swapped(h, v):
    triv, sig = PRINTED_RESTRICTIONS[h]
    want = RepC2(sum(m * x for m, x in zip(triv, v.coeffs())),
                 sum(m * x for m, x in zip(sig, v.coeffs())))
    assert restrict_rep(v, h) == want
    assert restrict_rep_by_kernels(RepK(v.a, v.b, v.d, v.c), h) == want


@given(reps, reps, c2_reps, st.sampled_from(["L", "D", "R"]))
def test_additivity(v, w, u, h):
    assert restrict_rep(v + w, h) == restrict_rep(v, h) + restrict_rep(w, h)
    # the arithmetic is coefficientwise over either group and keeps the group
    for x, y in ((v, w), (u, restrict_rep(w, h))):
        assert (x + y).coeffs() == tuple(p + q for p, q in zip(x.coeffs(), y.coeffs()))
        assert (x + y) - y == x and -(-x) == x
        assert (x - y).group == (-x).group == x.group
        assert (x + y).dim == x.dim + y.dim
    assert (v.group, u.group) == ("K", "C2")


@given(reps, c2_reps, st.sampled_from(["L", "D", "R"]))
def test_restriction_preserves_dimension(v, u, h):
    assert restrict_rep(v, h).dim == v.dim
    assert restrict_rep_by_kernels(v, h).dim == v.dim
    assert restrict_rep(v, h).group == "C2"
    assert u.dim == sum(u.coeffs()) and (-u).dim == -u.dim
