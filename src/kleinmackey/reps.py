"""Virtual real representations of the Klein four-group and of C2.

A Klein-group representation is an integer tuple (a, b, c, d) of
coefficients on (1, alpha, beta, gamma); column order is fixed that way
everywhere to avoid transposition bugs.  A C2 representation is (a, b)
on (1, sigma).  Both share one arithmetic, and each class names its group
in the class attribute group, which code reads instead of testing the
type.  After the trivial coefficient, coeffs() lists the characters in the
order of group_by_name(v.group).char_kernels.  parse_rep reads the tuples
of either group.  The twists a + k rho, whose characters all have
coefficient k, are built by a_plus_k_rho and read back by rho_decompose.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .groups import KLEIN


class _Rep:
    """Coefficient-wise arithmetic; a subclass lists its coefficients in coeffs()."""

    @property
    def dim(self):
        return sum(self.coeffs())

    def __add__(self, other):
        pairs = zip(self.coeffs(), other.coeffs(), strict=True)
        return type(self)(*(x + y for x, y in pairs))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(*(-x for x in self.coeffs()))


@dataclass(frozen=True)
class RepK(_Rep):
    a: int = 0
    b: int = 0
    c: int = 0
    d: int = 0
    group = "K"

    def coeffs(self):
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class RepC2(_Rep):
    a: int = 0
    b: int = 0
    group = "C2"

    def coeffs(self):
        return (self.a, self.b)


RHO_K = RepK(1, 1, 1, 1)


def a_plus_k_rho(group, a, k):
    """The representation a + k rho of the named group."""
    return RepK(a + k, k, k, k) if group == "K" else RepC2(a + k, k)


def rho_decompose(v):
    """(a, k) with v = a + k rho, over either group; ValueError when the
    characters of v do not all have the same coefficient."""
    k = v.b
    if any(x != k for x in v.coeffs()[1:]):
        raise ValueError(f"not of the form a + k rho: {v}")
    return v.a - k, k


def restrict_rep(v, h):
    """Restriction RO(K) -> RO(C2) along the cyclic subgroup h, printed tables.

    The source's restriction tables treat gamma as the character trivial on
    L and beta as trivial on D: the opposite pairing from the kernel
    bookkeeping (ker beta = L, ker gamma = D) that the cell structures use.
    So the printed restriction is restrict_rep_by_kernels after swapping
    beta and gamma; the two agree on any representation symmetric in beta
    and gamma, in particular on multiples of rho.
    """
    return restrict_rep_by_kernels(RepK(v.a, v.b, v.d, v.c), h)


def restrict_rep_by_kernels(v, h):
    """Restriction with a character trivial on h exactly when h is its kernel.

    This is the pairing the sphere cell structures realize (alpha dies on R,
    beta on L, gamma on D); see restrict_rep for the printed convention.
    """
    fixed = sum(n for ker, n in zip(KLEIN.char_kernels.values(), v.coeffs()[1:])
                if ker == h)
    return RepC2(v.a + fixed, v.dim - v.a - fixed)


_TERM = re.compile(r"^([+-]?\d*)([abg]?)$")


def parse_rep(text):
    """Parse "a,b" (C2) or "a,b,c,d" (Klein) tuples, or Klein symbolic sums
    like "2+a-3b" over tokens 1,a,b,g."""
    text = text.strip()
    if "," in text:
        parts = text.split(",")
        if len(parts) not in (2, 4):
            raise ValueError(f"expected 2 or 4 comma-separated integers: {text!r}")
        try:
            return (RepC2 if len(parts) == 2 else RepK)(*(int(p) for p in parts))
        except ValueError:
            raise ValueError(f"bad representation tuple: {text!r}") from None
    coeffs = {"": 0, "a": 0, "b": 0, "g": 0}
    compact = text.replace(" ", "")
    terms = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(terms) != compact:
        raise ValueError(f"stray sign in representation {text!r}")
    if not terms:
        raise ValueError("empty representation")
    for term in terms:
        m = _TERM.match(term)
        if not m:
            raise ValueError(f"bad term {term!r} in representation {text!r}")
        num, sym = m.groups()
        if num in ("", "+"):
            n = 1
        elif num == "-":
            n = -1
        else:
            n = int(num)
        if sym == "" and num in ("", "+", "-"):
            raise ValueError(f"bad term {term!r} in representation {text!r}")
        coeffs[sym] += n
    return RepK(coeffs[""], coeffs["a"], coeffs["b"], coeffs["g"])
