"""Virtual real representations of the Klein four-group and of C2.

A Klein-group representation is an integer tuple (a, b, c, d) of
coefficients on (1, alpha, beta, gamma); column order is fixed that way
everywhere to avoid transposition bugs.  A C2 representation is (a, b)
on (1, sigma).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .groups import KLEIN


@dataclass(frozen=True)
class RepK:
    a: int = 0
    b: int = 0
    c: int = 0
    d: int = 0

    @property
    def dim(self):
        return self.a + self.b + self.c + self.d

    def coeffs(self):
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other):
        return RepK(self.a + other.a, self.b + other.b,
                    self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RepK(-self.a, -self.b, -self.c, -self.d)

    def __rmul__(self, n):
        return RepK(n * self.a, n * self.b, n * self.c, n * self.d)


@dataclass(frozen=True)
class RepC2:
    a: int = 0
    b: int = 0

    @property
    def dim(self):
        return self.a + self.b

    def coeffs(self):
        return (self.a, self.b)

    def __add__(self, other):
        return RepC2(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RepC2(-self.a, -self.b)

    def __rmul__(self, n):
        return RepC2(n * self.a, n * self.b)


RHO_K = RepK(1, 1, 1, 1)

_CHAR_COEFF = {"alpha": 1, "beta": 2, "gamma": 3}  # index into coeffs()


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
    triv = v.a
    sig = 0
    for char, idx in _CHAR_COEFF.items():
        if KLEIN.char_kernels[char] == h:
            triv += v.coeffs()[idx]
        else:
            sig += v.coeffs()[idx]
    return RepC2(triv, sig)


_TERM = re.compile(r"^([+-]?\d*)([abg]?)$")


def parse_rep(text):
    """Parse "a,b,c,d" tuples or symbolic sums like "2+a-3b" over tokens 1,a,b,g."""
    text = text.strip()
    if "," in text:
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected 4 comma-separated integers: {text!r}")
        try:
            a, b, c, d = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"bad representation tuple: {text!r}") from None
        return RepK(a, b, c, d)
    coeffs = {"": 0, "a": 0, "b": 0, "g": 0}
    terms = re.findall(r"[+-]?[^+-]+", text.replace(" ", ""))
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


def parse_rep_c2(text):
    parts = text.strip().split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 2 comma-separated integers: {text!r}")
    return RepC2(int(parts[0]), int(parts[1]))
