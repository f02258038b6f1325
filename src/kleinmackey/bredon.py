"""Brute-force homotopy of twisted Eilenberg-MacLane spectra via cell chains.

A representation sphere is modeled by its reduced equivariant cell chain
complex.  Cells are orbits, each stored as its stabilizer's name, which is
all a cell carries; differentials are stored coefficient-free as "up" maps
(a projection of orbits composed with a translation) or "down" maps (the
formal transpose, appearing in dualized complexes).  A complex files its
entries under their stamp keys, (transfer, source stabilizer, target
stabilizer, translation), as lists of (source, target) cell pairs, and
keeps no other form of them.  A smash product routes
the entries between each pair of factor cells to the product cells they
join through a table of where their orbits land, keyed by the kind,
stabilizers and set of translations and built once per process: the table
has already cancelled routes that two translations share, mod 2, and
grouped the rest under the product's stamp keys, so each routed entry is
appended to its key's list as it comes.  A product cell is found as its
pair's first cell plus its position among the pair's orbits, with no
search.  One pass of the Leibniz rule serves both factors, reading the
pairs' first cells along rows for the first and along columns for the
second.  Evaluating at a subgroup level J with a coefficient functor m turns
each cell into one copy of m(stab & J) per double coset.  Each entry, and
with trans = 0 each level res/tr chain map, puts one block of m at the
larger-stabilizer end's coset of r*trans for each coset r of the smaller
end: the transfer up, or the restriction back.  One placement's nonzero
columns, relative to the two cells' offsets, form a stamp, made once per
process for each coefficient functor and (res/tr, levels, stabilizers,
translation) from the lattice's coset tables and the functor's composite
res/tr map; the stamp table is the only table kept per functor.  A
differential reads each stamp key's group as stored, one stamp for the
whole list.  Nothing keyed by a representation or a complex is kept: each
query builds, lays out and reduces its own complex.  Every map is assembled
from stamps as its columns, the transpose of its matrix, which is the form
f2's column reduction reads.  Homology of those levelwise complexes, with
the induced restriction and transfer maps obtained by lifting cycles, is the
graded homotopy Mackey functor, computed one degree at a time so that only
two degrees' differentials and homology bases are held at once.  The
degrees are walked from the top down, so that f2.homology_reps can clear d_n
with the pivots of the already reduced d_{n+1}: it skips columns that reduce
to zero and hold no new cycle, so no output changes (see f2).  One level's
graded dimensions alone come from the differentials' ranks.

The minimal cell structure for a character power (one fixed cell plus one
orbit cell per dimension, boundary alternating fold and 1+translation) keeps
everything small enough that sweeping thousands of representations is cheap.
"""

from __future__ import annotations

from functools import lru_cache

from .f2 import BitMatrix, homology_reps
from .groups import group_by_name
from .laurent import LaurentPoly
from .mackey import Mackey, catalog


class MackeyComplex:
    """Bounded complex of orbit cells with coefficient-free differentials.

    cells: {degree: (stabilizer name, ...)}: each cell is an orbit G/H,
    stored as the name of H, and is indexed by its position in its degree.
    entries: {degree: {(transfer, src_stab, tgt_stab, trans): [(src_idx,
    tgt_idx), ...]}} mapping degree to degree-1, each entry filed under its
    stamp key (see LevelComplexes._stamp): its two cells' stabilizers and its
    translation, and transfer for an "up" entry (stabilizer grows along
    x -> x*trans) or not for a "down" one (formal transpose of the up map
    with the same translation).  Either way it joins a smaller-stabilizer end
    (an up entry's source, a down entry's target) to a larger one, only trans
    modulo the larger stabilizer matters, and with coefficients it is the
    transfer between them or the restriction.  flat_entries lists the
    entries one by one.
    """

    def __init__(self, group, cells, entries):
        self.group = group
        self.cells = {n: tuple(cs) for n, cs in cells.items() if cs}
        self.entries = {n: groups for n, groups in entries.items() if groups}

    @property
    def gd(self):
        return group_by_name(self.group)

    def degrees(self):
        return sorted(self.cells)

    def cell_count(self):
        return sum(len(cs) for cs in self.cells.values())

    def flat_entries(self):
        """{degree: sorted [(src_idx, tgt_idx, kind, trans)]}: the entries
        one by one, kind "up" for a transfer and "down" for a restriction."""
        return {n: sorted((src, tgt, "up" if transfer else "down", trans)
                          for (transfer, _, _, trans), pairs in groups.items()
                          for src, tgt in pairs)
                for n, groups in self.entries.items()}


def trivial_suspension(k, group="K"):
    """A single fixed cell in degree k."""
    top = group_by_name(group).levels[0]
    return MackeyComplex(group, {k: [top]}, {})


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
    t = min(g for g in gd.elements if g not in gd.subgroups[ker])
    cells = {0: [top]}
    entries = {1: {(True, ker, top, 0): [(0, 0)]}}
    for j in range(1, n + 1):
        cells[j] = [ker]
        if j >= 2:
            entries[j] = {(True, ker, ker, 0): [(0, 0)], (True, ker, ker, t): [(0, 0)]}
    return MackeyComplex(group, cells, entries)


def dualize(c):
    """Negate degrees and transpose every differential entry: a transfer
    becomes a restriction, and the other way round, with the two ends and
    their stabilizers swapped.  Each degree's tuple of cells is reused."""
    cells = {-n: cs for n, cs in c.cells.items()}
    # entry C_n -> C_{n-1} becomes C_{-(n-1)} -> C_{-n}
    entries = {1 - n: {(not transfer, tgt_stab, src_stab, trans):
                       [(tgt, src) for src, tgt in pairs]
                       for (transfer, src_stab, tgt_stab, trans), pairs in groups.items()}
               for n, groups in c.entries.items()}
    return MackeyComplex(c.group, cells, entries)


def _locate(gd, stab1, stab2, p1, p2):
    """Orbit twist of the point (p1*stab1, p2*stab2) and the translation
    carrying the orbit's canonical point (e*stab1, tw*stab2) onto it."""
    sub = gd.subgroups
    tw = gd.coset_rep(p1 ^ p2, gd.join(stab1, stab2))
    for h1 in sub[stab1]:
        v = p1 ^ h1
        if (v ^ p2 ^ tw) in sub[stab2]:
            return tw, v
    raise AssertionError("orbit location failed")


@lru_cache(maxsize=None)
def _route_table(group, left, transfer, stab_src, stab_tgt, translations):
    """{other factor cell's stabilizer: ((stamp key, routes), ...)}, for
    every level of the group, for the entries between one pair of cells of
    the first factor (left) or the second: up entries (transfer) or down
    ones, with the given source and target stabilizers and frozenset of
    translations.  Each translation routes every orbit over the entry's
    smaller end to one product entry, a route (source, target) of orbit
    positions within their pairs, with its translation modulo the larger
    product stabilizer.  Routes that an even number of translations reach
    cancel mod 2 (never on spheres: the merge buys speed, see smash); the
    others are grouped under the product entries' stamp key (transfer,
    source stabilizer, target stabilizer, translation).  The table depends
    on the group lattice alone, so it is built once per process and shared:
    callers only read it."""
    gd = group_by_name(group)
    stab_s, stab_b = (stab_src, stab_tgt) if transfer else (stab_tgt, stab_src)
    table = {}
    for other in gd.levels:
        big_cosets = gd.cosets(gd.join(stab_b, other))
        meet = gd.meet(stab_b, other)
        odd = set()
        for u in translations:
            for small, s in enumerate(gd.cosets(gd.join(stab_s, other))):
                if left:  # (e * stab_s, s * other) maps to (u * stab_b, s * other)
                    tw, v = _locate(gd, stab_b, other, u, s)
                else:  # (e * other, s * stab_s) maps to (e * other, s * u * stab_b)
                    tw, v = _locate(gd, other, stab_b, 0, s ^ u)
                big = big_cosets.index(tw)
                odd ^= {(gd.coset_rep(v, meet), (small, big) if transfer else (big, small))}
        ends = gd.meet(stab_src, other), gd.meet(stab_tgt, other)
        groups = {}
        for v, route in sorted(odd):
            groups.setdefault((transfer, *ends, v), []).append(route)
        table[other] = tuple((key, tuple(routes)) for key, routes in groups.items())
    return table


def smash(c1, c2):
    """Tensor of cell complexes, expanding orbit products into orbits.

    A product cell is tagged by the twist coset separating its two factors.
    The orbits of one pair of factor cells sit consecutively, in coset
    order, so a product cell's index is its pair's first index plus its
    twist's coset position: index[(n1, n2)][i1][i2].  The Leibniz rule
    sends each factor entry, from every product cell over its
    smaller-stabilizer end, to the product cell over its other end that
    holds the image point.  Where those orbits land, and which of them
    cancel mod 2, depends only on the kind, stabilizers and translations of
    the entries between one pair of factor cells and on the other factor
    cell's stabilizer: _route_table merges them once per process, grouped
    under the product entries' stamp keys.  On sphere complexes the merge
    cancels nothing; what it buys is speed: all of a factor pair's
    translations are routed in one pass over the other factor's cells.  (A
    table per translation, mod 2 left to differential's XOR, ran the
    series-wide benchmark 3.3% slower on a 2-core host.)  Entries from
    distinct pairs of factor cells, or of distinct kinds, never cancel: they
    join distinct pairs of product cells, or differ in kind.  So each routed
    entry is filed under its key as it comes, at the cost of two additions.
    One pass serves both factors: an entry of c1 reads a row of the index,
    an entry of c2 a column, from the same table transposed.
    """
    if c1.group != c2.group:
        raise ValueError("group mismatch in smash")
    gd = c1.gd
    cells = {}
    index = {}  # (n1, n2) -> [i1][i2]: index in cells[n1 + n2] of the pair's first orbit
    orbits = {}  # (stab1, stab2) -> the pair's orbit cells, shared
    for n1 in c1.degrees():
        for n2 in c2.degrees():
            lst = cells.setdefault(n1 + n2, [])
            rows = index[(n1, n2)] = []
            for stab1 in c1.cells[n1]:
                row = []
                for stab2 in c2.cells[n2]:
                    pair = orbits.get((stab1, stab2))
                    if pair is None:
                        k = len(gd.cosets(gd.join(stab1, stab2)))
                        pair = orbits[(stab1, stab2)] = [gd.meet(stab1, stab2)] * k
                    row.append(len(lst))
                    lst.extend(pair)
                rows.append(row)
    by_column = {(n2, n1): list(zip(*rows)) for (n1, n2), rows in index.items()}

    # an entry is filed under its source's degree, the higher one
    entries = {n: {} for n in cells}
    for left, c, other, table_of in ((True, c1, c2, index), (False, c2, c1, by_column)):
        for n, groups in c.entries.items():
            translations = {}  # (transfer, src stab, tgt stab) -> {(i, j): translations}
            for (transfer, src_stab, tgt_stab, u), pairs in groups.items():
                of_pair = translations.setdefault((transfer, src_stab, tgt_stab), {})
                for pair in pairs:
                    of_pair.setdefault(pair, []).append(u)
            tables = [(i, j, _route_table(gd.name, left, *kind, frozenset(us)))
                      for kind, of_pair in translations.items() for (i, j), us in of_pair.items()]
            for m, other_cells in other.cells.items():
                src_rows, tgt_rows = table_of[(n, m)], table_of[(n - 1, m)]
                out = entries[n + m]
                for i, j, table in tables:
                    for stab, src_0, tgt_0 in zip(other_cells, src_rows[i], tgt_rows[j]):
                        for key, routes in table[stab]:
                            out.setdefault(key, []).extend(
                                [(src_0 + src, tgt_0 + tgt) for src, tgt in routes])

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


@lru_cache(maxsize=None)
def _stamp_table(coeff):
    """LevelComplexes' stamps (see _stamp), which depend only on the group
    lattice and the coefficient functor's value: filled as they are read and
    shared by every complex evaluated with an equal functor in the process."""
    return {}


class LevelComplexes:
    """A cell complex evaluated with a coefficient functor at every level.

    Every map comes as its columns, the form f2.homology_reps reads: row j
    of the BitMatrix is the image of basis vector j of the source, so the
    matrix is the transpose of the map.  A level is laid out when first read.
    Stamps come from _stamp_table; the layouts belong to this complex.
    """

    def __init__(self, cx, coeff):
        if coeff.group != cx.group:
            raise ValueError("coefficient functor is over the wrong group")
        self.cx = cx
        self.coeff = coeff
        self._stamps = _stamp_table(coeff)
        self._layouts = {}  # level -> {degree: (offset of each cell, dim)}

    def _layout(self, lv, n):
        """First basis index of each cell of C_n(lv), and dim C_n(lv)."""
        layout = self._layouts.get(lv)
        if layout is None:
            gd = self.cx.gd
            layout = self._layouts[lv] = {}
            width = {}  # stabilizer -> basis vectors of one cell
            for deg, cells in self.cx.cells.items():
                offs = []
                off = 0
                for stab in cells:
                    offs.append(off)
                    w = width.get(stab)
                    if w is None:
                        w = width[stab] = (len(gd.cosets(gd.join(lv, stab)))
                                           * self.coeff.dim(gd.meet(lv, stab)))
                    off += w
                layout[deg] = (offs, off)
        return layout.get(n, ((), 0))

    def dim(self, lv, n):
        return self._layout(lv, n)[1]

    def _stamp(self, transfer, src_lv, src_stab, tgt_lv, tgt_stab, trans):
        """Nonzero (column, bits) of one placement from a source cell's
        blocks to a target cell's, relative to the two cells' offsets.

        A cell at level lv has one block m(stab & lv) per coset of stab | lv.
        The placement puts one block per coset r of the smaller-stabilizer
        end at the larger end's coset of r*trans: the transfer from the
        source (the smaller end) or the restriction from it (the larger).
        """
        key = (transfer, src_lv, src_stab, tgt_lv, tgt_stab, trans)
        stamp = self._stamps.get(key)
        if stamp is not None:
            return stamp
        gd = self.cx.gd
        ends = (src_lv, src_stab), (tgt_lv, tgt_stab)
        small, big = ends if transfer else ends[::-1]
        s_meet, b_meet = gd.meet(*small), gd.meet(*big)
        s_dim, b_dim = self.coeff.dim(s_meet), self.coeff.dim(b_meet)
        bits_of = {}
        if s_dim and b_dim:
            block = (self.coeff.tr_map(s_meet, b_meet) if transfer
                     else self.coeff.res_map(b_meet, s_meet))
            cols = [(c, col) for c, col in enumerate(block.transpose().data) if col]
            b_join = gd.join(*big)
            b_cosets = gd.cosets(b_join)
            for k, rep in enumerate(gd.cosets(gd.join(*small))):
                s_pos = k * s_dim
                b_pos = b_cosets.index(gd.coset_rep(rep ^ trans, b_join)) * b_dim
                col_off, row_off = (s_pos, b_pos) if transfer else (b_pos, s_pos)
                for c, col in cols:
                    bits_of[col_off + c] = bits_of.get(col_off + c, 0) ^ col << row_off
        stamp = self._stamps[key] = tuple(
            (c, bits) for c, bits in sorted(bits_of.items()) if bits)
        return stamp

    def differential(self, lv, n):
        """d: C_n(lv) -> C_{n-1}(lv), as its columns."""
        src_offs, src_dim = self._layout(lv, n)
        tgt_offs, tgt_dim = self._layout(lv, n - 1)
        data = [0] * src_dim
        for (transfer, src_stab, tgt_stab, trans), pairs in self.cx.entries.get(n, {}).items():
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
        for stab, col_off, row_off in zip(self.cx.cells.get(n, ()), src_offs, tgt_offs):
            for c, bits in self._stamp(transfer, src_lv, stab, tgt_lv, stab, 0):
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
    at a time from the top down, so each level's differential is built and
    reduced once, as one degree's d_out, and then clears the next degree's
    d_out as its d_in; two degrees' bases and the assembled functors are kept.
    Restriction and transfer matrices on homology come from the chain-level
    maps applied to cycle representatives and projected back to homology
    coordinates.  A chain map is built only where the source has homology
    and the target too; elsewhere the induced matrix is empty.
    """
    gd = lvl.cx.gd
    degs = lvl.cx.degrees()
    out = {}
    if not degs:
        return out
    d_in = {lv: lvl.differential(lv, degs[-1] + 1) for lv in gd.levels}
    for n in range(degs[-1], degs[0] - 1, -1):
        d_out = {lv: lvl.differential(lv, n) for lv in gd.levels}
        hom = {lv: homology_reps(d_out[lv], d_in[lv]) for lv in gd.levels}
        d_in = d_out
        dims = tuple(len(hom[lv][0]) for lv in gd.levels)
        if not any(dims):
            continue
        res = tuple(_induced(lvl.chain_res, u, lo_lv, n, hom) for u, lo_lv in gd.edges)
        tr = tuple(_induced(lvl.chain_tr, lo_lv, u, n, hom) for u, lo_lv in gd.edges)
        out[n] = Mackey(lvl.cx.group, dims, res, tr)
    return dict(sorted(out.items()))


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
    level, the top one by default, by rank-nullity: dim pi_n = dim C_n -
    rank d_n - rank d_{n+1}.  Only that level is evaluated, each of its
    differentials is built and ranked once, and no cycle, projection or
    restriction and transfer is built."""
    lvl = with_coefficients(sphere_complex(v), coeff)
    level = level or lvl.cx.gd.levels[0]
    degs = lvl.cx.degrees()  # a sphere's complex has a cell
    rank = {n: lvl.differential(level, n).rank() for n in range(degs[0] + 1, degs[-1] + 1)}
    return LaurentPoly.from_dict({n: lvl.dim(level, n) - rank.get(n, 0) - rank.get(n + 1, 0)
                                  for n in range(degs[0], degs[-1] + 1)})
