#!/usr/bin/env python3
"""sha256 over the Bredon oracle's complexes, matrices and homotopy functors.

Hashes repr(obj).encode() for this sequence of objects.  For each K
representation (0, b, c, d), in itertools.product order over b, c, d in
[-3, 3], and then each C2 representation (0, b), b in [-6, 6]:

- the cells of sphere_complex(v), each rendered in the recorded form
  Cell(degree=n, stab='L') although the complex stores only the
  stabilizer's name (see Cell below), and its entries one by one as
  (src, tgt, kind, trans) tuples (MackeyComplex.flat_entries), sorted by
  degree and within each degree;
- for each coefficient (K: F, F*, m, W, mg*; C2: F, F*, f, g):
  the matrix of differential(lv, n) for n from the lowest cell degree to
  the highest plus one (levels inner, in gd.levels order); then those of
  chain_res(u, lo, n) and chain_tr(lo, u, n) for each cell degree n and
  each edge in gd.edges order; then (n, m) for each homotopy functor in
  degree order.  The oracle builds each map as its columns, so the matrix
  hashed is its transpose: row i holds the coefficients of target basis
  vector i.

An optimisation of the oracle must leave every one of these objects, and so
the digest, unchanged.  Run it from the repository root:

    PYTHONPATH=src python3 scripts/oracle_digest.py

It prints the object count and the digest, and exits 1 unless both equal
the recorded values.
"""

import hashlib
import itertools
import sys
from dataclasses import dataclass

from kleinmackey import bredon
from kleinmackey.reps import RepC2, RepK

K_COEFFS = ("F", "F*", "m", "W", "mg*")
C2_COEFFS = ("F", "F*", "f", "g")
EXPECTED = (196590,
            "f636c1dc43616a2ada65281945438796800ba0dd46e3136615b69c58d02b3aa1")


@dataclass(frozen=True)
class Cell:
    """A cell as the digest hashes it: its repr is the text the recorded
    digests were computed from, when the oracle stored cells this way."""
    degree: int
    stab: str


def oracle_digest(k_box=3, c2_box=6):
    """(object count, sha256 hex) over K |b|,|c|,|d| <= k_box, C2 |b| <= c2_box."""
    h = hashlib.sha256()
    count = 0

    def put(obj):
        nonlocal count
        h.update(repr(obj).encode())
        count += 1

    span = range(-k_box, k_box + 1)
    reps = [(RepK(0, b, c, d), K_COEFFS) for b, c, d in itertools.product(span, repeat=3)]
    reps += [(RepC2(0, b), C2_COEFFS) for b in range(-c2_box, c2_box + 1)]
    for v, coeffs in reps:
        cx = bredon.sphere_complex(v)
        gd = cx.gd
        put(sorted((n, tuple(Cell(n, stab) for stab in cs)) for n, cs in cx.cells.items()))
        put(sorted(cx.flat_entries().items()))
        degs = cx.degrees()
        for coeff in coeffs:
            lvl = bredon.with_coefficients(cx, coeff)
            for n in range(degs[0], degs[-1] + 2):
                for lv in gd.levels:
                    put(lvl.differential(lv, n).transpose())
            for n in degs:
                for u, lo in gd.edges:
                    put(lvl.chain_res(u, lo, n).transpose())
                    put(lvl.chain_tr(lo, u, n).transpose())
            for n, m in sorted(bredon.homotopy(v, coeff).items()):
                put((n, m))
    return count, h.hexdigest()


def main():
    count, digest = oracle_digest()
    print(f"{count} objects")
    print(digest)
    return 0 if (count, digest) == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main())
