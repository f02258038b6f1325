"""Brute-force homotopy of twisted Eilenberg-MacLane spectra via cell chains.

A representation sphere is modeled by its reduced equivariant cell chain
complex.  Cells are orbits (one subgroup stabilizer each); differentials are
stored coefficient-free as "up" maps (a projection of orbits composed with a
translation) or "down" maps (the formal transpose, appearing in dualized
complexes).  A smash product routes each factor entry to the product
cells it joins through a table, local to the call, of where its orbits
land, keyed by the stabilizers and translation; a product cell is found by
its position among its pair's orbits, with no search.  Evaluating at a
subgroup level J with a coefficient functor m turns each cell into one
copy of m(stab & J) per double coset.  Each entry,
and with trans = 0 each level res/tr chain map, puts one block of m at the
larger-stabilizer end's coset of r*trans for each coset r of the smaller end:
the transfer up, or the restriction back.  One placement's nonzero columns,
relative to the two cells' offsets, form a stamp, made once per evaluated
complex for each (res/tr, levels, stabilizers, translation).  Every map is
assembled from stamps as its columns, the transpose of its matrix, which is
the form f2's column reduction reads.  Homology of those levelwise
complexes, with the induced restriction and transfer maps obtained by lifting
cycles, is the graded homotopy Mackey functor, computed one degree at a time
so that only two degrees' differentials and homology bases are held at once.
The degrees are walked from the top down, so that f2.homology_reps can clear
d_n with the pivots of the already reduced d_{n+1}: it skips columns that
reduce to zero and hold no new cycle, so no output changes (see f2).

The minimal cell structure for a character power (one fixed cell plus one
orbit cell per dimension, boundary alternating fold and 1+translation) keeps
everything small enough that sweeping thousands of representations is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .f2 import BitMatrix, homology_reps
from .groups import char_twist, group_by_name
from .laurent import LaurentPoly
from .mackey import Mackey, catalog


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


def trivial_suspension(k, group="K"):
    """A single fixed cell in degree k."""
    top = group_by_name(group).levels[0]
    return MackeyComplex(group, {k: [Cell(k, top)]}, {})


def character_sphere(char, n, group="K"):
    """Reduced cell complex of the n-fold power of a one-character sphere.

    For n > 0: one fixed 0-cell and one orbit cell with the character's
    kernel as stabilizer in each degree 1..n; the bottom boundary is the
    fold map, the higher ones are 1 + translation.  Negative n dualizes.
    """
    if n == 0:
        return trivial_suspension(0, group)
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
    """An entry's smaller- and larger-stabilizer ends' stabilizers."""
    stabs = c.cells[n][src].stab, c.cells[n - 1][tgt].stab
    return stabs if kind == "up" else stabs[::-1]


def smash(c1, c2):
    """Tensor of cell complexes, expanding orbit products into orbits.

    A product cell is tagged by the twist coset separating its two factors.
    The orbits of one pair of factor cells sit consecutively, in coset
    order, so a product cell is found at its twist's coset position in its
    pair's list of indices.  The Leibniz rule sends each factor entry, from
    every product cell over its smaller-stabilizer end, to the product cell
    over its other end that holds the image point; pairs of identical routed
    entries cancel mod 2.  Where those orbits land depends only on the
    entry's kind, stabilizers and translation and on the other factor
    cell's stabilizer.  Each such route, the orbit positions at both ends
    and the translation, is located once per call in a table local to it,
    so routing one entry costs two list lookups.
    """
    if c1.group != c2.group:
        raise ValueError("group mismatch in smash")
    gd = c1.gd
    sub = gd.subgroups

    cells = {}
    index = {}  # n1 -> n2 -> [i1][i2]: indices in cells[n1 + n2] of the pair's orbits
    degs1, degs2 = c1.degrees(), c2.degrees()
    for n1 in degs1:
        for cell1 in c1.cells[n1]:
            for n2 in degs2:
                deg = n1 + n2
                lst = cells.setdefault(deg, [])
                row = []
                for cell2 in c2.cells[n2]:
                    k = len(gd.cosets(gd.join(cell1.stab, cell2.stab)))
                    row.append(list(range(len(lst), len(lst) + k)))
                    lst.extend([Cell(deg, gd.meet(cell1.stab, cell2.stab))] * k)
                index.setdefault(n1, {}).setdefault(n2, []).append(row)

    def locate(stab1, stab2, p1, p2):
        """Orbit twist of the point (p1*stab1, p2*stab2) and the translation
        carrying the orbit's canonical point (e*stab1, tw*stab2) onto it."""
        tw = gd.coset_rep(p1 ^ p2, gd.join(stab1, stab2))
        for h1 in sub[stab1]:
            v = p1 ^ h1
            if (v ^ p2 ^ tw) in sub[stab2]:
                return tw, v
        raise AssertionError("orbit location failed")

    routes = {}

    def route_table(left, c, n, src, tgt, kind, u, others):
        """{other factor cell's stabilizer: route} for an entry of the first
        factor (left) or the second.  A route lists, per orbit over the
        entry's smaller end, its (source, target, translation): the orbit
        positions within their pairs, and the translation modulo the larger
        product stabilizer."""
        stab_s, stab_b = _ends(c, n, src, tgt, kind)
        key = (left, kind, stab_s, stab_b, u)
        table = routes.get(key)
        if table is None:
            table = routes[key] = {}
            for other in others:
                pos = gd.coset_index(gd.join(stab_b, other))
                meet = gd.meet(stab_b, other)
                found = table[other] = []
                for small, s in enumerate(gd.cosets(gd.join(stab_s, other))):
                    if left:  # (e * stab_s, s * other) maps to (u * stab_b, s * other)
                        tw, v = locate(stab_b, other, u, s)
                    else:  # (e * other, s * stab_s) maps to (e * other, s * u * stab_b)
                        tw, v = locate(other, stab_b, 0, s ^ u)
                    v = gd.coset_rep(v, meet)
                    found.append((small, pos[tw], v) if kind == "up" else (pos[tw], small, v))
        return table

    def toggle(bucket, routed):
        """Flip each routed entry in the bucket."""
        for entry in routed:
            if entry in bucket:
                bucket.remove(entry)
            else:
                bucket.add(entry)

    # an entry is filed under its source's degree, the higher one
    entries = {n: set() for n in cells}
    stabs1, stabs2 = ({cell.stab for cs in c.cells.values() for cell in cs} for c in (c1, c2))
    for n1, es in c1.entries.items():
        tables = [(src1, tgt1, kind, route_table(True, c1, n1, src1, tgt1, kind, u, stabs2))
                  for src1, tgt1, kind, u in es]
        for n2 in degs2:
            src_rows, tgt_rows = index[n1][n2], index[n1 - 1][n2]
            toggle(entries[n1 + n2], [
                (src_ids[src], tgt_ids[tgt], kind, v)
                for src1, tgt1, kind, table in tables
                for cell2, src_ids, tgt_ids in zip(c2.cells[n2], src_rows[src1], tgt_rows[tgt1])
                for src, tgt, v in table[cell2.stab]])
    for n2, es in c2.entries.items():
        tables = [(src2, tgt2, kind, route_table(False, c2, n2, src2, tgt2, kind, u, stabs1))
                  for src2, tgt2, kind, u in es]
        for n1 in degs1:
            src_rows, tgt_rows = index[n1][n2], index[n1][n2 - 1]
            toggle(entries[n1 + n2], [
                (src_row[src2][src], tgt_row[tgt2][tgt], kind, v)
                for src2, tgt2, kind, table in tables
                for cell1, src_row, tgt_row in zip(c1.cells[n1], src_rows, tgt_rows)
                for src, tgt, v in table[cell1.stab]])

    return MackeyComplex(c1.group, cells, entries)


def sphere_complex(v):
    """Cell complex of the virtual-representation sphere S^V, smashing in
    the characters in coeffs() order."""
    out = trivial_suspension(v.a, v.group)
    for char, n in zip(group_by_name(v.group).char_kernels, v.coeffs()[1:]):
        if n:
            out = smash(out, character_sphere(char, n, v.group))
    return out


# ---------------------------------------------------------------------------
# coefficients and homology


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
        self._shapes = {}   # (level, stab) -> see _shape
        self._layouts = {}  # level -> {degree: (offset of each cell, dim)}
        self._entries = {}  # degree -> differential entries grouped by stamp
        self._columns = {}  # (transfer, upper meet, lower meet) -> block columns
        self._stamps = {}   # see _stamp

    def _shape(self, lv, stab):
        """A cell's blocks at one level: (coset reps in block order, element
        -> position of its coset, dimension of one block, stab & level)."""
        shape = self._shapes.get((lv, stab))
        if shape is None:
            gd = self.cx.gd
            join = gd.join(lv, stab)
            meet = gd.meet(lv, stab)
            shape = self._shapes[(lv, stab)] = (
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
                        reps, _, bdim, _ = self._shape(lv, cell.stab)
                        w = width[cell.stab] = len(reps) * bdim
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
        ends = self._shape(src_lv, src_stab), self._shape(tgt_lv, tgt_stab)
        (s_reps, _, s_dim, s_meet), (_, b_index, b_dim, b_meet) = ends if transfer else ends[::-1]
        bits_of = {}
        if s_dim and b_dim:
            cols = self._block_columns(transfer, b_meet, s_meet)
            for k, rep in enumerate(s_reps):
                s_pos, b_pos = k * s_dim, b_index[rep ^ trans] * b_dim
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
        """The entries of d: C_n -> C_{n-1} as [(stamp key, [entry])], the
        key (transfer, source stabilizer, target stabilizer, trans).  The
        lists hold the complex's own (src, tgt, kind, trans) tuples."""
        groups = self._entries.get(n)
        if groups is None:
            srcs, tgts = self.cx.cells.get(n, ()), self.cx.cells.get(n - 1, ())
            by_key = {}
            for entry in self.cx.entries.get(n, ()):
                src, tgt, kind, trans = entry
                key = (kind == "up", srcs[src].stab, tgts[tgt].stab, trans)
                by_key.setdefault(key, []).append(entry)
            groups = self._entries[n] = list(by_key.items())
        return groups

    def differential(self, lv, n):
        """d: C_n(lv) -> C_{n-1}(lv), as its columns."""
        src_offs, src_dim = self._layout(lv, n)
        tgt_offs, tgt_dim = self._layout(lv, n - 1)
        data = [0] * src_dim
        for (transfer, src_stab, tgt_stab, trans), entries in self._grouped_entries(n):
            stamp = self._stamp(transfer, lv, src_stab, lv, tgt_stab, trans)
            if not stamp:
                continue
            for src, tgt, _, _ in entries:
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
        coeff = catalog(coeff, cx.group)
    return LevelComplexes(cx, coeff)


def homology(lvl: LevelComplexes):
    """Graded homotopy Mackey functors of the evaluated complex.

    Returns {degree: Mackey} in ascending degree order, computed one degree
    at a time from the top down; only the assembled functors are kept.
    Restriction and transfer matrices on homology come from the chain-level
    maps applied to cycle representatives and projected back to homology
    coordinates.  A chain map is built only where the source has homology
    and the target too; elsewhere the induced matrix is empty.
    """
    gd = lvl.cx.gd
    out = {}
    for n, hom in _degree_homology(lvl, gd.levels):
        dims = tuple(len(hom[lv][0]) for lv in gd.levels)
        if not any(dims):
            continue
        res = tuple(_induced(lvl.chain_res, u, lo_lv, n, hom) for u, lo_lv in gd.edges)
        tr = tuple(_induced(lvl.chain_tr, lo_lv, u, n, hom) for u, lo_lv in gd.edges)
        out[n] = Mackey(lvl.cx.group, dims, res, tr)
    return dict(sorted(out.items()))


def _degree_homology(lvl, levels):
    """Yield (degree, {level: (cycle reps, projection)}) from the complex's
    highest degree down to its lowest, building each level's differential
    once, as one degree's d_out and the next one's d_in.  Going down, each
    d_in is reduced before the d_out that homology_reps clears with it."""
    degs = lvl.cx.degrees()
    if not degs:
        return
    d_in = {lv: lvl.differential(lv, degs[-1] + 1) for lv in levels}
    for n in range(degs[-1], degs[0] - 1, -1):
        d_out = {lv: lvl.differential(lv, n) for lv in levels}
        yield n, {lv: homology_reps(d_out[lv], d_in[lv]) for lv in levels}
        d_in = d_out


def _induced(chain_map, src, tgt, n, hom):
    """The map chain_map(src, tgt, n) induces on homology, as a matrix."""
    src_reps = hom[src][0]
    tgt_reps, project = hom[tgt]
    if not (src_reps and tgt_reps):
        return BitMatrix.zeros(len(tgt_reps), len(src_reps))
    cmap = chain_map(src, tgt, n)
    images = (BitMatrix(len(src_reps), cmap.rows, tuple(src_reps)) @ cmap).data
    return BitMatrix(len(src_reps), len(tgt_reps),
                     tuple(project(v) for v in images)).transpose()


def homotopy(v, coeff="F"):
    """Graded homotopy Mackey functors of the coeff-twisted sphere S^V, as
    {degree: Mackey}.

    coeff may be a catalog name expression or an explicit functor.  Each
    call builds and evaluates the sphere's complex afresh.
    """
    return homology(with_coefficients(sphere_complex(v), coeff))


def homotopy_level_series(v, coeff="F", level=None):
    """Laurent series of the graded dimensions of homotopy(v, coeff) at one
    level, the top one by default.  Only that level is evaluated, and no
    restriction or transfer is built."""
    lvl = with_coefficients(sphere_complex(v), coeff)
    level = level or lvl.cx.gd.levels[0]
    return LaurentPoly.from_dict(
        {n: len(hom[level][0]) for n, hom in _degree_homology(lvl, (level,))})
