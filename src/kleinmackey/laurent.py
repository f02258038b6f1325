"""Laurent polynomials with nonnegative integer coefficients.

These record graded GF(2)-dimensions, so coefficients are counts: genuine
integers, never reduced mod 2.  The zero polynomial has no stored terms.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LaurentPoly:
    coeffs: tuple  # sorted tuple of (exponent, coefficient), coefficient > 0

    def __post_init__(self):
        last = None
        for e, c in self.coeffs:
            if c <= 0:
                raise ValueError("coefficients must be positive integers")
            if last is not None and e <= last:
                raise ValueError("exponents must be strictly increasing")
            last = e

    @staticmethod
    def from_dict(d):
        return LaurentPoly(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    @staticmethod
    def zero():
        return LaurentPoly(())

    @staticmethod
    def one():
        return LaurentPoly(((0, 1),))

    @staticmethod
    def monomial(exp):
        return LaurentPoly(((exp, 1),))

    def as_dict(self):
        return dict(self.coeffs)

    def __add__(self, other):
        d = self.as_dict()
        for e, c in other.coeffs:
            d[e] = d.get(e, 0) + c
        return LaurentPoly.from_dict(d)

    def __mul__(self, other):
        d = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly.from_dict(d)

    def shift(self, k):
        return LaurentPoly(tuple((e + k, c) for e, c in self.coeffs))

    def pretty(self):
        """Render like "x^-3 + 2x^-2" with terms in increasing exponent order."""
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.coeffs:
            if e == 0:
                parts.append(str(c))
            else:
                xs = "x" if e == 1 else f"x^{e}"
                parts.append(xs if c == 1 else f"{c}{xs}")
        return " + ".join(parts)

    def to_json_dict(self):
        return {str(e): c for e, c in self.coeffs}


def geom(a, b):
    """x^a + x^(a+1) + ... + x^b, the zero polynomial when b < a."""
    if b < a:
        return LaurentPoly.zero()
    return LaurentPoly(tuple((e, 1) for e in range(a, b + 1)))
