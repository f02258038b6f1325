"""Brute-force homotopy of twisted Eilenberg-MacLane spectra via cell chains.

A representation sphere is modeled by its reduced equivariant cell chain
complex.  Cells are orbits (one subgroup stabilizer each); differentials are
stored coefficient-free as "up" maps (a projection of orbits composed with a
translation) or "down" maps (the formal transpose, appearing in dualized
complexes).  Evaluating at a subgroup level J with a coefficient functor m
turns each cell into one copy of m(stab & J) per double coset.  Each entry,
and with trans = 0 each level res/tr chain map, puts one block of m at the
larger-stabilizer end's coset of r*trans for each coset r of the smaller end:
the transfer up, or the restriction back.  One placement's nonzero columns,
relative to the two cells' offsets, form a stamp, made once per evaluated
complex for each (res/tr, levels, stabilizers, translation).  Every map is
assembled from stamps as its columns, the transpose of its matrix, which is
the form f2's column reduction reads.  Homology of those levelwise
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


class _Shape(NamedTuple):
    """The blocks of one cell at one level; they depend only on its stabilizer."""

    reps: tuple     # coset reps of the orbit at this level, in block order
    pos: tuple      # element g -> position of its coset in reps
    bdim: int       # coefficient dimension of one block
    meet: str       # stab & level


class LevelComplexes:
    """A cell complex evaluated with a coefficient functor at every level.

    Every map comes as its columns, the form f2.homology_reps reads: row j
    of the BitMatrix is the image of basis vector j of the source, so the
    matrix is the transpose of the map.  A level is laid out when first read.
    """

    def __init__(self, cx, coeff):
        if coeff.group != cx.group:
            raise ValueError("coefficient functor is over the wrong group")
        self.cx = cx
        self.coeff = coeff
        self._shapes = {}   # (level, stab) -> _Shape
        self._layouts = {}  # level -> {degree: (offset of each cell, dim)}
        self._entries = {}  # degree -> differential entries grouped by stamp
        self._columns = {}  # (transfer, upper meet, lower meet) -> block columns
        self._stamps = {}   # see _stamp

    def _shape(self, lv, stab):
        shape = self._shapes.get((lv, stab))
        if shape is None:
            gd = self.cx.gd
            join = gd.join(lv, stab)
            meet = gd.meet(lv, stab)
            shape = self._shapes[(lv, stab)] = _Shape(
                gd.cosets(join), gd.coset_index(join), self.coeff.dim(meet), meet)
        return shape

    def _layout(self, lv, n):
        """First basis index of each cell of C_n(lv), and dim C_n(lv)."""
        layout = self._layouts.get(lv)
        if layout is None:
            layout = self._layouts[lv] = {}
            width = {}  # stabilizer -> basis vectors of one cell
            for deg, cells in self.cx.cells.items():
                offs = []
                off = 0
                for cell in cells:
                    offs.append(off)
                    w = width.get(cell.stab)
                    if w is None:
                        shape = self._shape(lv, cell.stab)
                        w = width[cell.stab] = len(shape.reps) * shape.bdim
                    off += w
                layout[deg] = (offs, off)
        return layout.get(n, ((), 0))

    def dim(self, lv, n):
        return self._layout(lv, n)[1]

    def _stamp(self, transfer, src_lv, src_stab, tgt_lv, tgt_stab, trans):
        """Nonzero (column, bits) of one placement from a source cell's
        blocks to a target cell's, relative to the two cells' offsets.

        The placement puts one block per coset r of the smaller-stabilizer
        end at the larger end's coset of r*trans: the transfer from the
        source (the smaller end) or the restriction from it (the larger).
        """
        key = (transfer, src_lv, src_stab, tgt_lv, tgt_stab, trans)
        stamp = self._stamps.get(key)
        if stamp is not None:
            return stamp
        small = self._shape(src_lv, src_stab)
        big = self._shape(tgt_lv, tgt_stab)
        if not transfer:
            small, big = big, small
        bits_of = {}
        if small.bdim and big.bdim:
            cols = self._block_columns(transfer, big.meet, small.meet)
            for k, rep in enumerate(small.reps):
                s_pos, b_pos = k * small.bdim, big.pos[rep ^ trans] * big.bdim
                col_off, row_off = (s_pos, b_pos) if transfer else (b_pos, s_pos)
                for c, col in cols:
                    bits_of[col_off + c] = bits_of.get(col_off + c, 0) ^ col << row_off
        stamp = self._stamps[key] = tuple(
            (c, bits) for c, bits in sorted(bits_of.items()) if bits)
        return stamp

    def _block_columns(self, transfer, upper, lower):
        """Nonzero columns (index, column) of the composite transfer
        m(lower) -> m(upper), or of the restriction back."""
        key = (transfer, upper, lower)
        cols = self._columns.get(key)
        if cols is None:
            block = (self.coeff.tr_map(lower, upper) if transfer
                     else self.coeff.res_map(upper, lower))
            cols = self._columns[key] = tuple(
                (c, col) for c, col in enumerate(block.transpose().data) if col)
        return cols

    def _grouped_entries(self, n):
        """The entries of d: C_n -> C_{n-1} as [(stamp key, [(src, tgt)])],
        the key (transfer, source stabilizer, target stabilizer, trans)."""
        groups = self._entries.get(n)
        if groups is None:
            srcs, tgts = self.cx.cells.get(n, ()), self.cx.cells.get(n - 1, ())
            by_key = {}
            for src, tgt, kind, trans in self.cx.entries.get(n, ()):
                key = (kind == "up", srcs[src].stab, tgts[tgt].stab, trans)
                by_key.setdefault(key, []).append((src, tgt))
            groups = self._entries[n] = list(by_key.items())
        return groups

    def differential(self, lv, n):
        """d: C_n(lv) -> C_{n-1}(lv), as its columns."""
        src_offs, src_dim = self._layout(lv, n)
        tgt_offs, tgt_dim = self._layout(lv, n - 1)
        data = [0] * src_dim
        for (transfer, src_stab, tgt_stab, trans), pairs in self._grouped_entries(n):
            stamp = self._stamp(transfer, lv, src_stab, lv, tgt_stab, trans)
            if not stamp:
                continue
            for src, tgt in pairs:
                col_off, row_off = src_offs[src], tgt_offs[tgt]
                for c, bits in stamp:
                    data[col_off + c] ^= bits << row_off
        return BitMatrix(src_dim, tgt_dim, tuple(data))

    def chain_res(self, upper, lower, n):
        """Restriction chain map C_n(upper) -> C_n(lower), as its columns."""
        return self._chain_map(False, upper, lower, n)

    def chain_tr(self, lower, upper, n):
        """Transfer chain map C_n(lower) -> C_n(upper), as its columns."""
        return self._chain_map(True, lower, upper, n)

    def _chain_map(self, transfer, src_lv, tgt_lv, n):
        src_offs, src_dim = self._layout(src_lv, n)
        tgt_offs, tgt_dim = self._layout(tgt_lv, n)
        data = [0] * src_dim
        for cell, col_off, row_off in zip(self.cx.cells.get(n, ()), src_offs, tgt_offs):
            for c, bits in self._stamp(transfer, src_lv, cell.stab, tgt_lv, cell.stab, 0):
                data[col_off + c] ^= bits << row_off
        return BitMatrix(src_dim, tgt_dim, tuple(data))


def with_coefficients(cx, coeff):
    """Evaluate the complex with a coefficient functor (name expression or Mackey)."""
    if isinstance(coeff, str):
        coeff = expr_to_mackey(parse_name_expr(coeff, cx.group), cx.group)
    return LevelComplexes(cx, coeff)


def homology(lvl: LevelComplexes, levels=None):
    """Graded homotopy Mackey functors of the evaluated complex.

    Returns {degree: Mackey}; restriction and transfer matrices on homology
    come from the chain-level maps applied to cycle representatives and
    projected back to homology coordinates.  A chain map is built only where
    the source has homology and the target too; elsewhere the induced matrix
    is empty.
    """
    cx = lvl.cx
    gd = cx.gd
    wanted = levels or gd.levels
    if not cx.cells:
        return {}
    degs = cx.degrees()
    lo, hi = degs[0], degs[-1]
    hom = {}  # (level, degree) -> (cycle reps, projection)
    for lv in wanted:
        d_of = {n: lvl.differential(lv, n) for n in range(lo, hi + 2)}
        for n in range(lo, hi + 1):
            hom[(lv, n)] = homology_reps(d_of[n], d_of[n + 1])
    out = {}
    partial = set(wanted) != set(gd.levels)
    for n in range(lo, hi + 1):
        dims = tuple(len(hom[(lv, n)][0]) if (lv, n) in hom else 0 for lv in gd.levels)
        if not any(dims):
            continue
        if partial:
            out[n] = dims  # dimension vector only
            continue
        res = tuple(_induced(lvl.chain_res, u, lo_lv, n, hom) for u, lo_lv in gd.edges)
        tr = tuple(_induced(lvl.chain_tr, lo_lv, u, n, hom) for u, lo_lv in gd.edges)
        out[n] = Mackey(cx.group, dims, res, tr)
    return out


def _induced(chain_map, src, tgt, n, hom):
    """The map chain_map(src, tgt, n) induces on homology, as a matrix."""
    src_reps = hom[(src, n)][0]
    tgt_reps, project = hom[(tgt, n)]
    if not (src_reps and tgt_reps):
        return BitMatrix.zeros(len(tgt_reps), len(src_reps))
    cmap = chain_map(src, tgt, n)
    images = (BitMatrix(len(src_reps), cmap.rows, tuple(src_reps)) @ cmap).data
    return BitMatrix(len(src_reps), len(tgt_reps),
                     tuple(project(v) for v in images)).transpose()


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
