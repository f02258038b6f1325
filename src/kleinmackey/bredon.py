"""Brute-force homotopy of twisted Eilenberg-MacLane spectra via cell chains.

A representation sphere is modeled by its reduced equivariant cell chain
complex.  Cells are orbits (one subgroup stabilizer each); differentials are
stored coefficient-free as "up" maps (a projection of orbits composed with a
translation) or "down" maps (the formal transpose, appearing in dualized
complexes).  Evaluating at a subgroup level J with a coefficient functor m
turns each cell into one copy of m(stab & J) per double coset and each up/down
entry into a transfer/restriction block of m; homology of those levelwise
complexes, with the induced restriction and transfer maps obtained by lifting
cycles, is the graded homotopy Mackey functor.

The minimal cell structure for a character power (one fixed cell plus one
orbit cell per dimension, boundary alternating fold and 1+translation) keeps
everything small enough that sweeping thousands of representations is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .f2 import BitMatrix, homology_reps
from .groups import char_twist, group_by_name
from .laurent import LaurentPoly
from .mackey import Mackey, catalog, catalog_c2, parse_name_expr, expr_to_mackey
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
    (formal transpose of the up map with the same translation).
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


def _normalize_trans(gd, kind, src_stab, tgt_stab, trans):
    mod = tgt_stab if kind == "up" else src_stab
    return gd.coset_rep(trans, mod)


def smash(c1, c2):
    """Tensor of cell complexes, expanding orbit products into orbits.

    A product cell is tagged by the twist coset separating its two factors;
    the Leibniz rule routes each factor entry through that twist, and pairs
    of identical routed entries cancel mod 2.
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

    entry_parity = {}

    def toggle(deg, src, tgt, kind, trans):
        key = (src, tgt, kind, _normalize_trans(
            gd, kind, cells[deg][src].stab, cells[deg - 1][tgt].stab, trans))
        bucket = entry_parity.setdefault(deg, {})
        bucket[key] = bucket.get(key, 0) ^ 1

    for (n1, i1, n2, i2, tw), (deg, idx) in index.items():
        stab1 = c1.cells[n1][i1].stab
        stab2 = c2.cells[n2][i2].stab
        # canonical point of this product cell: (e * stab1, tw * stab2)
        for src1, tgt1, kind, u in c1.entries.get(n1, ()):
            if src1 != i1:
                continue
            tstab = c1.cells[n1 - 1][tgt1].stab
            if kind == "up":
                # image point (u * tstab, tw * stab2)
                tw2, v = locate(tstab, stab2, u, tw)
                _, jdx = index[(n1 - 1, tgt1, n2, i2, tw2)]
                toggle(deg, idx, jdx, "up", v)
            else:
                # transpose the up maps of every (tgt1, i2, s)-cell into us
                for s in gd.cosets(gd.join(tstab, stab2)):
                    tw2, v = locate(stab1, stab2, u, s)
                    if tw2 == tw:
                        _, jdx = index[(n1 - 1, tgt1, n2, i2, s)]
                        toggle(deg, idx, jdx, "down", v)
        for src2, tgt2, kind, u in c2.entries.get(n2, ()):
            if src2 != i2:
                continue
            tstab = c2.cells[n2 - 1][tgt2].stab
            if kind == "up":
                # image point (e * stab1, (tw ^ u) * tstab)
                tw2, v = locate(stab1, tstab, 0, tw ^ u)
                _, jdx = index[(n1, i1, n2 - 1, tgt2, tw2)]
                toggle(deg, idx, jdx, "up", v)
            else:
                for s in gd.cosets(gd.join(stab1, tstab)):
                    tw2, v = locate(stab1, stab2, 0, s ^ u)
                    if tw2 == tw:
                        _, jdx = index[(n1, i1, n2 - 1, tgt2, s)]
                        toggle(deg, idx, jdx, "down", v)

    entries = {deg: {k for k, parity in bucket.items() if parity}
               for deg, bucket in entry_parity.items()}
    return MackeyComplex(c1.group, cells, entries)


def sphere_complex(v, group=None):
    """Cell complex of the virtual-representation sphere S^V."""
    if isinstance(v, RepK):
        group = group or "K"
        out = trivial_suspension(v.a, group)
        for char, n in (("alpha", v.b), ("beta", v.c), ("gamma", v.d)):
            if n:
                out = smash(out, character_sphere(char, n, group))
        return out
    if isinstance(v, RepC2):
        out = trivial_suspension(v.a, "C2")
        if v.b:
            out = smash(out, character_sphere("sigma", v.b, "C2"))
        return out
    raise TypeError(f"not a representation: {v!r}")


# ---------------------------------------------------------------------------
# coefficients and homology


class LevelComplexes:
    """A cell complex evaluated with a coefficient functor at every level."""

    def __init__(self, cx, coeff):
        if coeff.group != cx.group:
            raise ValueError("coefficient functor is over the wrong group")
        self.cx = cx
        self.coeff = coeff
        gd = cx.gd
        self.levels = gd.levels
        # basis offsets: per level, per degree, per cell: (offset, cosets, block dim)
        self.layout = {}
        self.dims = {}
        for lv in self.levels:
            self.layout[lv] = {}
            self.dims[lv] = {}
            for n, cs in cx.cells.items():
                off = 0
                per_cell = []
                for cell in cs:
                    reps = gd.cosets(gd.join(lv, cell.stab))
                    bdim = coeff.dim(gd.meet(lv, cell.stab))
                    per_cell.append((off, reps, bdim))
                    off += len(reps) * bdim
                self.layout[lv][n] = per_cell
                self.dims[lv][n] = off

    def dim(self, lv, n):
        return self.dims[lv].get(n, 0)

    def differential(self, lv, n):
        """Matrix of d: C_n(lv) -> C_{n-1}(lv)."""
        gd = self.cx.gd
        src_layout = self.layout[lv].get(n, [])
        tgt_layout = self.layout[lv].get(n - 1, [])
        rows = self.dim(lv, n - 1)
        cols = self.dim(lv, n)
        data = [0] * rows
        for src, tgt, kind, trans in self.cx.entries.get(n, ()):
            s_off, s_reps, s_bdim = src_layout[src]
            t_off, t_reps, t_bdim = tgt_layout[tgt]
            s_stab = self.cx.cells[n][src].stab
            t_stab = self.cx.cells[n - 1][tgt].stab
            s_meet = gd.meet(lv, s_stab)
            t_meet = gd.meet(lv, t_stab)
            if kind == "up":
                block = self.coeff.tr_map(s_meet, t_meet)
                t_join = gd.join(lv, t_stab)
                for ci, crep in enumerate(s_reps):
                    target_rep = gd.coset_rep(crep ^ trans, t_join)
                    ti = t_reps.index(target_rep)
                    _xor_block(data, block,
                               t_off + ti * t_bdim, s_off + ci * s_bdim)
            else:
                block = self.coeff.res_map(s_meet, t_meet)
                s_join = gd.join(lv, s_stab)
                for ti, trep in enumerate(t_reps):
                    source_rep = gd.coset_rep(trep ^ trans, s_join)
                    ci = s_reps.index(source_rep)
                    _xor_block(data, block,
                               t_off + ti * t_bdim, s_off + ci * s_bdim)
        return BitMatrix(rows, cols, tuple(data))

    def chain_res(self, upper, lower, n):
        """Restriction chain map C_n(upper) -> C_n(lower)."""
        return self._chain_map(upper, lower, n, transfer=False)

    def chain_tr(self, lower, upper, n):
        """Transfer chain map C_n(lower) -> C_n(upper)."""
        return self._chain_map(upper, lower, n, transfer=True)

    def _chain_map(self, upper, lower, n, transfer):
        """Restriction C_n(upper) -> C_n(lower), or the transfer back.

        Both put one coefficient block per lower-level coset of each cell's
        orbit, at the upper-level coset containing it; the transfer's blocks
        sit at the transposed positions.
        """
        gd = self.cx.gd
        up_layout = self.layout[upper].get(n, [])
        lo_layout = self.layout[lower].get(n, [])
        rows, cols = self.dim(lower, n), self.dim(upper, n)
        if transfer:
            rows, cols = cols, rows
        data = [0] * rows
        for cell_idx, cell in enumerate(self.cx.cells.get(n, ())):
            u_off, u_reps, u_bdim = up_layout[cell_idx]
            l_off, l_reps, l_bdim = lo_layout[cell_idx]
            u_join = gd.join(upper, cell.stab)
            u_meet = gd.meet(upper, cell.stab)
            l_meet = gd.meet(lower, cell.stab)
            if transfer:
                block = self.coeff.tr_map(l_meet, u_meet)
            else:
                block = self.coeff.res_map(u_meet, l_meet)
            for li, lrep in enumerate(l_reps):
                ui = u_reps.index(gd.coset_rep(lrep, u_join))
                l_pos, u_pos = l_off + li * l_bdim, u_off + ui * u_bdim
                if transfer:
                    _xor_block(data, block, u_pos, l_pos)
                else:
                    _xor_block(data, block, l_pos, u_pos)
        return BitMatrix(rows, cols, tuple(data))


def _xor_block(data, block, row_off, col_off):
    for i in range(block.rows):
        data[row_off + i] ^= block.data[i] << col_off


def with_coefficients(cx, coeff):
    """Evaluate the complex with a coefficient functor (name or Mackey)."""
    if isinstance(coeff, str):
        coeff = catalog(coeff) if cx.group == "K" else catalog_c2(coeff)
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
    cols = []
    for v in src_reps:
        cols.append(tgt_proj(chain_map.apply(v)))
    rows = [0] * tgt_dim
    for j, col in enumerate(cols):
        for i in range(tgt_dim):
            if (col >> i) & 1:
                rows[i] |= 1 << j
    return BitMatrix(tgt_dim, len(src_reps), tuple(rows))


def _coeff_of(name, group):
    if isinstance(name, Mackey):
        return name
    if group == "K":
        return expr_to_mackey(parse_name_expr(name))
    return expr_to_mackey(parse_name_expr(name, "C2"), "C2")


@lru_cache(maxsize=None)
def _homotopy_cached(v, name, group):
    cx = sphere_complex(v)
    lv = with_coefficients(cx, _coeff_of(name, group))
    return homology(lv)


def homotopy(v, coeff="F"):
    """Graded homotopy Mackey functors of the coeff-twisted sphere S^V.

    coeff may be a catalog name expression or an explicit functor.
    """
    group = "K" if isinstance(v, RepK) else "C2"
    if isinstance(coeff, str):
        return dict(_homotopy_cached(v, coeff, group))
    return homology(with_coefficients(sphere_complex(v), coeff))


def homotopy_level_series(v, coeff="F", level=None):
    """Laurent series of graded dimensions at one level (fast path)."""
    group = "K" if isinstance(v, RepK) else "C2"
    level = level or ("K" if group == "K" else "C2")
    cx = sphere_complex(v)
    lv = with_coefficients(cx, _coeff_of(coeff, group))
    idx = cx.gd.levels.index(level)
    table = homology(lv, levels=(level,))
    return LaurentPoly.from_dict({n: dims[idx] for n, dims in table.items()})
