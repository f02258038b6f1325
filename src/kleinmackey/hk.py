"""Closed-form Poincare series for fixed points of twisted suspensions.

Given a virtual representation V, these return the graded GF(2)-dimensions
of the homotopy of the V-twisted Eilenberg-MacLane spectrum of the constant
functor, one Laurent series per subgroup level.  The top-level Klein series
is a case split on the sign pattern of the (alpha, beta, gamma) part; the
three characters are interchangeable, so the pattern is canonicalized by
sorting.  Only the even patterns (no negative part, or two) are written
out.  Anderson duality and HF* = S^(4-rho) HF give
pi_d(S^V smash HF) = pi_(-d)(S^(4-rho-V) smash HF), so the series of
(b, c, d) is that of (-1-b, -1-c, -1-d) with each degree e sent to -e-3,
and that reflection turns each odd sign pattern into an even one.
Empty geometric sums are zero, which silently covers all the degenerate
boundary cases.
"""

from __future__ import annotations

from .groups import KLEIN
from .laurent import LaurentPoly, geom
from .reps import RepC2, RepK, restrict_rep_by_kernels


def _reverse(p):
    return LaurentPoly.from_dict({-e: coeff for e, coeff in p.as_dict().items()})


def _one_pos_two_neg(l, j, k):
    """Series for l alpha - j beta - k gamma, all parameters >= 1."""
    if l >= k or l >= j:
        # symmetric in (j, k); orient so the hypothesis l >= kk holds
        jj, kk = (j, k) if l >= k else (k, j)
        return (geom(0, jj - 2) * geom(0, l - kk)).shift(-jj) + \
            (geom(0, l - 1) * geom(0, kk - 1)).shift(-kk)
    return (geom(0, j - l - 2) * geom(0, k - l - 2)).shift(-(j + k - l)) + \
        (geom(0, l) * geom(0, l - 1)).shift(-(l + 1))


def _klein_top_series(b, c, d):
    """Series for the (b*alpha + c*beta + d*gamma)-suspension at the top level."""
    if sum(x < 0 for x in (b, c, d)) % 2:
        # duality: exponent e of the reflected twist is degree -e-3 here
        return _reverse(_klein_top_series(-1 - b, -1 - c, -1 - d)).shift(-3)
    sgn = sorted((b, c, d), reverse=True)
    pos = [x for x in sgn if x > 0]
    neg = [-x for x in sgn if x < 0]
    if not neg:
        if len(pos) <= 2:
            out = LaurentPoly.one()
            for n in pos:
                out = out * geom(0, n)
            return out
        l, m, n = pos
        return geom(0, l) * geom(0, m) + geom(0, l + m).shift(1) * geom(0, n - 1)
    j, k = neg
    if not pos:
        return geom(-j, -2) * geom(-k, -2)
    return _one_pos_two_neg(pos[0], j, k)


def poincare_K(v: RepK):
    """All level series for the V-twisted suspension over the Klein group.

    The top level is the closed form; cyclic levels come from restricting the
    representation (a character contributes trivially at exactly its kernel);
    the bottom level sees only the underlying sphere.
    """
    out = {"K": _klein_top_series(v.b, v.c, v.d).shift(v.a)}
    for h in KLEIN.cyclics:
        out[h] = poincare_C2(restrict_rep_by_kernels(v, h))["C2"]
    out["e"] = LaurentPoly.monomial(v.dim)
    return out


def poincare_C2(v: RepC2):
    """Level series over C2: fixed points and underlying, as a dict."""
    b = v.b
    top = geom(0, b) if b >= 0 else geom(b, -2)
    return {"C2": top.shift(v.a), "e": LaurentPoly.monomial(v.dim)}


def poincare(v):
    """Every level's series for a RepK or a RepC2, as a dict keyed by level."""
    return (poincare_K if v.group == "K" else poincare_C2)(v)
