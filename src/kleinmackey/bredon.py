"""Brute-force homotopy of twisted Eilenberg-MacLane spectra via cell chains.

A representation sphere is modeled by its reduced equivariant cell chain
complex.  Cells are orbits (one subgroup stabilizer each); differentials are
stored coefficient-free as "up" maps (a projection of orbits composed with a
translation) or "down" maps (the formal transpose, appearing in dualized
complexes).  Evaluating at a subgroup level J with a coefficient functor m
turns each cell into one copy of m(stab & J) per double coset.  Each entry,
and with trans = 0 each level res/tr chain map, puts one block of m at the
larger-stabilizer end's coset of r*trans for each coset r of the smaller end:
the transfer up, or the restriction back.  Homology of those levelwise
complexes, with the induced restriction and transfer maps obtained by lifting
cycles, is the graded homotopy Mackey functor.

The minimal cell structure for a character power (one fixed cell plus one
orbit cell per dimension, boundary alternating fold and 1+translation) keeps
everything small enough that sweeping thousands of representations is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .f2 import BitMatrix, homology_reps
from .groups import char_twist, group_by_name
from .laurent import LaurentPoly
from .mackey import Mackey, expr_to_mackey, parse_name_expr
from .reps import RepC2, RepK


@dataclass(frozen=True)
class Cell:
    degree: int
    stab: str


class MackeyComplex:
    """Bounded complex of orbit cells with coefficient-free differentials.

    cells: {degree: [Cell, ...]}
    entries: {degree: {(src_idx, tgt_idx, kind, trans)}} mapping degree to
    degree-1; kind is "up" (stabilizer grows along x -> x*trans) or "down"
    (formal transpose of the up map with the same translation).  Either way
    it joins a smaller-stabilizer end (an up entry's source, a down entry's
    target) to a larger one, only trans modulo the larger stabilizer matters,
    and with coefficients it is the transfer between them or the restriction.
    """

    def __init__(self, group, cells, entries):
        self.group = group
        self.cells = {n: tuple(cs) for n, cs in cells.items() if cs}
        self.entries = {n: frozenset(es) for n, es in entries.items() if es}

    @property
    def gd(self):
        return group_by_name(self.group)

    def degrees(self):
        return sorted(self.cells)

    def cell_count(self):
        return sum(len(cs) for cs in self.cells.values())


def unit_complex(group="K"):
    return trivial_suspension(0, group)


def trivial_suspension(k, group="K"):
    """A single fixed cell in degree k."""
    top = group_by_name(group).levels[0]
    return MackeyComplex(group, {k: [Cell(k, top)]}, {})


def elementary_complex(char, group="K"):
    """Reduced cells of the one-character sphere: fixed point plus one orbit."""
    return character_sphere(char, 1, group)


def character_sphere(char, n, group="K"):
    """Reduced cell complex of the n-fold power of a one-character sphere.

    For n > 0: one fixed 0-cell and one orbit cell with the character's
    kernel as stabilizer in each degree 1..n; the bottom boundary is the
    fold map, the higher ones are 1 + translation.  Negative n dualizes.
    """
    if n == 0:
        return unit_complex(group)
    if n < 0:
        return dualize(character_sphere(char, -n, group))
    gd = group_by_name(group)
    top = gd.levels[0]
    ker = gd.char_kernels[char]
    t = char_twist(gd, char)
    cells = {0: [Cell(0, top)]}
    entries = {1: {(0, 0, "up", 0)}}
    for j in range(1, n + 1):
        cells[j] = [Cell(j, ker)]
        if j >= 2:
            entries[j] = {(0, 0, "up", 0), (0, 0, "up", t)}
    return MackeyComplex(group, cells, entries)


def dualize(c):
    """Negate degrees and transpose every differential entry."""
    cells = {-n: tuple(Cell(-n, cell.stab) for cell in cs)
             for n, cs in c.cells.items()}
    entries = {}
    flip = {"up": "down", "down": "up"}
    for n, es in c.entries.items():
        # entry C_n -> C_{n-1} becomes C_{-(n-1)} -> C_{-n}
        entries.setdefault(-(n - 1), set()).update(
            (tgt, src, flip[kind], trans) for src, tgt, kind, trans in es)
    return MackeyComplex(c.group, cells, entries)


def _ends(c, n, src, tgt, kind):
    """An entry's smaller- and larger-stabilizer cells as (degree, index),
    then their stabilizers."""
    small, big = ((n, src), (n - 1, tgt)) if kind == "up" else ((n - 1, tgt), (n, src))
    return small, big, c.cells[small[0]][small[1]].stab, c.cells[big[0]][big[1]].stab


def smash(c1, c2):
    """Tensor of cell complexes, expanding orbit products into orbits.

    A product cell is tagged by the twist coset separating its two factors.
    The Leibniz rule sends each factor entry, from every product cell over
    its smaller-stabilizer end, to the product cell over its other end that
    holds the image point; pairs of identical routed entries cancel mod 2.
    """
    if c1.group != c2.group:
        raise ValueError("group mismatch in smash")
    gd = c1.gd
    sub = gd.subgroups

    cells = {}
    index = {}  # (deg1, i1, deg2, i2, twist) -> (degree, new index)
    for n1 in c1.degrees():
        for i1, cell1 in enumerate(c1.cells[n1]):
            for n2 in c2.degrees():
                for i2, cell2 in enumerate(c2.cells[n2]):
                    join = gd.join(cell1.stab, cell2.stab)
                    meet = gd.meet(cell1.stab, cell2.stab)
                    deg = n1 + n2
                    for tw in gd.cosets(join):
                        lst = cells.setdefault(deg, [])
                        index[(n1, i1, n2, i2, tw)] = (deg, len(lst))
                        lst.append(Cell(deg, meet))

    def locate(stab1, stab2, p1, p2):
        """Orbit twist of the point (p1*stab1, p2*stab2) and the translation
        carrying the orbit's canonical point (e*stab1, tw*stab2) onto it."""
        tw = gd.coset_rep(p1 ^ p2, gd.join(stab1, stab2))
        for h1 in sub[stab1]:
            v = p1 ^ h1
            if (v ^ p2 ^ tw) in sub[stab2]:
                return tw, v
        raise AssertionError("orbit location failed")

    entries = {}

    def toggle(kind, small, big, v):
        """Flip the entry between the product cells keyed small and big, filed
        under its source's (the higher) degree; its translation is taken
        modulo the larger stabilizer."""
        (ds, s), (db, b) = index[small], index[big]
        v = gd.coset_rep(v, cells[db][b].stab)
        bucket = entries.setdefault(max(ds, db), set())
        bucket ^= {(s, b, kind, v) if kind == "up" else (b, s, kind, v)}

    for n1, es in c1.entries.items():
        for src1, tgt1, kind, u in es:
            small, big, stab_s, stab_b = _ends(c1, n1, src1, tgt1, kind)
            for n2 in c2.degrees():
                for i2, cell2 in enumerate(c2.cells[n2]):
                    for s in gd.cosets(gd.join(stab_s, cell2.stab)):
                        # (e * stab_s, s * stab2) maps to (u * stab_b, s * stab2)
                        tw, v = locate(stab_b, cell2.stab, u, s)
                        toggle(kind, (*small, n2, i2, s), (*big, n2, i2, tw), v)
    for n2, es in c2.entries.items():
        for src2, tgt2, kind, u in es:
            small, big, stab_s, stab_b = _ends(c2, n2, src2, tgt2, kind)
            for n1 in c1.degrees():
                for i1, cell1 in enumerate(c1.cells[n1]):
                    for s in gd.cosets(gd.join(cell1.stab, stab_s)):
                        # (e * stab1, s * stab_s) maps to (e * stab1, s * u * stab_b)
                        tw, v = locate(cell1.stab, stab_b, 0, s ^ u)
                        toggle(kind, (n1, i1, *small, s), (n1, i1, *big, tw), v)

    return MackeyComplex(c1.group, cells, entries)


def sphere_complex(v, group=None):
    """Cell complex of the virtual-representation sphere S^V."""
    if isinstance(v, RepK):
        group, powers = group or "K", (("alpha", v.b), ("beta", v.c), ("gamma", v.d))
    elif isinstance(v, RepC2):
        group, powers = "C2", (("sigma", v.b),)
    else:
        raise TypeError(f"not a representation: {v!r}")
    out = trivial_suspension(v.a, group)
    for char, n in powers:
        if n:
            out = smash(out, character_sphere(char, n, group))
    return out


# ---------------------------------------------------------------------------
# coefficients and homology


class _Slot(NamedTuple):
    """One cell's place in the basis of C_n at one level."""

    off: int        # first basis index of the cell's blocks
    reps: tuple     # coset reps of the orbit at this level, in block order
    pos: tuple      # element g -> position of its coset in reps
    bdim: int       # coefficient dimension of one block
    meet: str       # stab & level


class LevelComplexes:
    """A cell complex evaluated with a coefficient functor at every level."""

    def __init__(self, cx, coeff):
        if coeff.group != cx.group:
            raise ValueError("coefficient functor is over the wrong group")
        self.cx = cx
        self.coeff = coeff
        gd = cx.gd
        self.levels = gd.levels
        # per level, per degree: one _Slot per cell
        self.layout = {}
        self.dims = {}
        # nonzero rows (index, row) of the composite transfer m(lower) ->
        # m(upper), or of the restriction back, by (transfer, upper, lower)
        self._blocks = {}
        stabs = {cell.stab for cs in cx.cells.values() for cell in cs}
        for lv in self.levels:
            # a cell's slot depends only on (level, stabilizer) up to its offset
            shapes = {}
            for stab in stabs:
                join = gd.join(lv, stab)
                meet = gd.meet(lv, stab)
                shapes[stab] = (gd.cosets(join), gd.coset_index(join), coeff.dim(meet), meet)
            self.layout[lv] = {}
            self.dims[lv] = {}
            for n, cs in cx.cells.items():
                off = 0
                per_cell = []
                for cell in cs:
                    reps, pos, bdim, meet = shapes[cell.stab]
                    per_cell.append(_Slot(off, reps, pos, bdim, meet))
                    off += len(reps) * bdim
                self.layout[lv][n] = per_cell
                self.dims[lv][n] = off

    def dim(self, lv, n):
        return self.dims[lv].get(n, 0)

    def _assemble(self, rows, cols, placements):
        """Matrix built from (small, big, trans, transfer) slot placements.

        Each puts one block per coset r of the smaller-stabilizer slot at the
        larger slot's coset of r*trans: the transfer m(small) -> m(big), or
        the restriction back at the transposed position.  A block is kept as
        its nonzero rows, so an empty or zero block places nothing and a 1x1
        identity is one bit flip.
        """
        data = [0] * rows
        blocks = self._blocks
        for small, big, trans, transfer in placements:
            if not (small.bdim and big.bdim):
                continue
            key = (transfer, big.meet, small.meet)
            block = blocks.get(key)
            if block is None:
                block = (self.coeff.tr_map(small.meet, big.meet) if transfer
                         else self.coeff.res_map(big.meet, small.meet))
                block = blocks[key] = tuple((i, row) for i, row in enumerate(block.data)
                                            if row)
            if not block:
                continue
            s_pos, s_dim = small.off, small.bdim
            b_off, b_dim, pos = big.off, big.bdim, big.pos
            for rep in small.reps:
                b_pos = b_off + pos[rep ^ trans] * b_dim
                row_off, col_off = (b_pos, s_pos) if transfer else (s_pos, b_pos)
                for r, row in block:
                    data[row_off + r] ^= row << col_off
                s_pos += s_dim
        return BitMatrix(rows, cols, tuple(data))

    def differential(self, lv, n):
        """Matrix of d: C_n(lv) -> C_{n-1}(lv)."""
        srcs = self.layout[lv].get(n, [])
        tgts = self.layout[lv].get(n - 1, [])
        return self._assemble(self.dim(lv, n - 1), self.dim(lv, n), [
            (srcs[src], tgts[tgt], trans, True) if kind == "up"
            else (tgts[tgt], srcs[src], trans, False)
            for src, tgt, kind, trans in self.cx.entries.get(n, ())])

    def chain_res(self, upper, lower, n):
        """Restriction chain map C_n(upper) -> C_n(lower)."""
        pairs = zip(self.layout[lower].get(n, ()), self.layout[upper].get(n, ()))
        return self._assemble(self.dim(lower, n), self.dim(upper, n),
                              [(lo, u, 0, False) for lo, u in pairs])

    def chain_tr(self, lower, upper, n):
        """Transfer chain map C_n(lower) -> C_n(upper)."""
        pairs = zip(self.layout[lower].get(n, ()), self.layout[upper].get(n, ()))
        return self._assemble(self.dim(upper, n), self.dim(lower, n),
                              [(lo, u, 0, True) for lo, u in pairs])


def with_coefficients(cx, coeff):
    """Evaluate the complex with a coefficient functor (name expression or Mackey)."""
    if isinstance(coeff, str):
        coeff = expr_to_mackey(parse_name_expr(coeff, cx.group), cx.group)
    return LevelComplexes(cx, coeff)


def homology(lvl: LevelComplexes, levels=None):
    """Graded homotopy Mackey functors of the evaluated complex.

    Returns {degree: Mackey}; restriction and transfer matrices on homology
    come from the chain-level maps applied to cycle representatives and
    projected back to homology coordinates.
    """
    cx = lvl.cx
    gd = cx.gd
    wanted = levels or gd.levels
    if not cx.cells:
        return {}
    degs = cx.degrees()
    lo, hi = degs[0], degs[-1]
    reps = {}
    projs = {}
    hdims = {}
    for lv in wanted:
        d_of = {n: lvl.differential(lv, n) for n in range(lo, hi + 2)}
        for n in range(lo, hi + 1):
            r, p = homology_reps(d_of[n], d_of[n + 1])
            reps[(lv, n)] = r
            projs[(lv, n)] = p
            hdims[(lv, n)] = len(r)
    out = {}
    partial = set(wanted) != set(gd.levels)
    for n in range(lo, hi + 1):
        if all(hdims[(lv, n)] == 0 for lv in wanted):
            continue
        dims = tuple(hdims.get((lv, n), 0) for lv in gd.levels)
        if partial:
            out[n] = dims  # dimension vector only
            continue
        res = []
        tr = []
        for u, lo_lv in gd.edges:
            rmat = _induced(lvl.chain_res(u, lo_lv, n), reps[(u, n)],
                            projs[(lo_lv, n)], hdims[(lo_lv, n)])
            tmat = _induced(lvl.chain_tr(lo_lv, u, n), reps[(lo_lv, n)],
                            projs[(u, n)], hdims[(u, n)])
            res.append(rmat)
            tr.append(tmat)
        out[n] = Mackey(cx.group, dims, tuple(res), tuple(tr))
    return out


def _induced(chain_map, src_reps, tgt_proj, tgt_dim):
    cols = tuple(tgt_proj(chain_map.apply(v)) for v in src_reps)
    return BitMatrix(len(src_reps), tgt_dim, cols).transpose()


@lru_cache(maxsize=None)
def _homotopy_cached(v, name):
    return homology(with_coefficients(sphere_complex(v), name))


def homotopy(v, coeff="F"):
    """Graded homotopy Mackey functors of the coeff-twisted sphere S^V.

    coeff may be a catalog name expression or an explicit functor.
    """
    if isinstance(coeff, str):
        return dict(_homotopy_cached(v, coeff))
    return homology(with_coefficients(sphere_complex(v), coeff))


def homotopy_level_series(v, coeff="F", level=None):
    """Laurent series of graded dimensions at one level (fast path)."""
    cx = sphere_complex(v)
    lv = with_coefficients(cx, coeff)
    level = level or cx.gd.levels[0]
    idx = cx.gd.levels.index(level)
    table = homology(lv, levels=(level,))
    return LaurentPoly.from_dict({n: dims[idx] for n, dims in table.items()})
