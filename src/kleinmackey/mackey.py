"""Mackey functors for C2 and the Klein four-group as levelwise GF(2) data.

A functor is stored as one dimension per subgroup level plus a restriction
and a transfer matrix per lattice edge.  All group actions are trivial, so
the double coset rule collapses to concrete matrix identities that
check_axioms verifies.  One catalog holds the named functors of both
groups, one table per group keyed by its name, and catalog(name, group)
reads it; identify() writes an arbitrary functor as a sum of catalog names
by an exact solve in additive rank invariants, whose values on the atoms
are independent, so that the sum, when there is one, is unique.  hom_space
gives a basis of the maps between two functors, rank_tuples_of_hom the
exact set of their levelwise ranks, and is_isomorphic an exact isomorphism
test.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

from .f2 import BitMatrix, EchelonSpan
from .groups import group_by_name


@dataclass(frozen=True)
class Mackey:
    group: str
    dims: tuple   # per level, in group_by_name(group).levels order
    res: tuple    # per edge (upper, lower): matrix M(upper) -> M(lower)
    tr: tuple     # per edge (upper, lower): matrix M(lower) -> M(upper)

    @property
    def gd(self):
        return group_by_name(self.group)

    def dim(self, level):
        return self.dims[self.gd.level_index[level]]

    def _edge_index(self, upper, lower):
        return self.gd.edge_index[(upper, lower)]

    def res_edge(self, upper, lower):
        return self.res[self._edge_index(upper, lower)]

    def tr_edge(self, upper, lower):
        return self.tr[self._edge_index(upper, lower)]

    def res_map(self, upper, lower):
        """Composite restriction M(upper) -> M(lower) down a lattice chain."""
        chain = self.gd.subgroup_chain(upper, lower)
        m = BitMatrix.identity(self.dim(upper))
        for i in range(len(chain) - 1):
            m = self.res_edge(chain[i], chain[i + 1]) @ m
        return m

    def tr_map(self, lower, upper):
        """Composite transfer M(lower) -> M(upper) up a lattice chain."""
        chain = self.gd.subgroup_chain(upper, lower)
        m = BitMatrix.identity(self.dim(lower))
        for i in range(len(chain) - 1, 0, -1):
            m = self.tr_edge(chain[i - 1], chain[i]) @ m
        return m

    def is_zero(self):
        return all(d == 0 for d in self.dims)

    def to_json_dict(self):
        levels = self.gd.levels
        return {
            "group": self.group,
            "dims": {lv: d for lv, d in zip(levels, self.dims)},
            "res": {f"{u}>{lo}": self.res_edge(u, lo).to_lists()
                    for u, lo in self.gd.edges},
            "tr": {f"{lo}>{u}": self.tr_edge(u, lo).to_lists()
                   for u, lo in self.gd.edges},
        }

    def pretty(self):
        """Lewis diagram as aligned text plus the nonzero maps."""
        levels = self.gd.levels
        dims = {lv: d for lv, d in zip(levels, self.dims)}
        lines = []
        if self.group == "K":
            lines.append(f"{dims['K']:>9}")
            lines.append(f"{dims['L']:>5}{dims['D']:>4}{dims['R']:>4}")
            lines.append(f"{dims['e']:>9}")
        else:
            lines.append(f"{dims['C2']:>5}")
            lines.append(f"{dims['e']:>5}")
        shown = []
        for u, lo in self.gd.edges:
            r = self.res_edge(u, lo)
            if not r.is_zero():
                shown.append(f"res {u}>{lo} = {r.to_lists()}")
        for u, lo in self.gd.edges:
            t = self.tr_edge(u, lo)
            if not t.is_zero():
                shown.append(f"tr {lo}>{u} = {t.to_lists()}")
        if not shown:
            shown.append("(all maps zero)")
        return "\n".join(lines + shown)


def mackey_from_json(d):
    """The functor of a to_json_dict document.

    ValueError, naming the key, when the document or one of its dims, res
    and tr is not an object, a key is missing, a dimension is not a
    nonnegative integer, or a matrix is not a list of 0/1 rows of the shape
    dims gives it.
    """
    _json_object(d, "the document")
    try:
        gd = group_by_name(d["group"])
        dims_doc, res_doc, tr_doc = (_json_object(d[key], key)
                                     for key in ("dims", "res", "tr"))
        dim = {lv: dims_doc[lv] for lv in gd.levels}
        for lv, n in dim.items():
            if type(n) is not int or n < 0:
                raise ValueError(f"functor JSON: dims {lv!r} is not a nonnegative integer")
        res = tuple(_json_matrix(res_doc[f"{u}>{lo}"], f"res '{u}>{lo}'", dim[lo], dim[u])
                    for u, lo in gd.edges)
        tr = tuple(_json_matrix(tr_doc[f"{lo}>{u}"], f"tr '{lo}>{u}'", dim[u], dim[lo])
                   for u, lo in gd.edges)
    except KeyError as exc:
        raise ValueError(f"functor JSON has no key {exc}") from None
    return Mackey(gd.name, tuple(dim.values()), res, tr)


def _json_object(value, key):
    if not isinstance(value, dict):
        raise ValueError(f"functor JSON: {key} is not an object")
    return value


def _json_matrix(rows, key, n_rows, n_cols):
    if (not isinstance(rows, list) or len(rows) != n_rows
            or any(not isinstance(row, list) or len(row) != n_cols for row in rows)):
        raise ValueError(f"functor JSON: {key} is not a {n_rows}x{n_cols} matrix")
    if any(type(x) is not int or x not in (0, 1) for row in rows for x in row):
        raise ValueError(f"functor JSON: {key} has an entry other than 0 or 1")
    return BitMatrix.from_rows(rows, n_cols)


def zero_mackey(group="K"):
    return build_mackey(group, (0,) * len(group_by_name(group).levels))


def build_mackey(group, dims, res=None, tr=None):
    """Construct with sparse maps: res/tr given as {(upper, lower): rows}."""
    gd = group_by_name(group)
    dim = {lv: d for lv, d in zip(gd.levels, dims)}
    res = res or {}
    tr = tr or {}
    rmats = []
    tmats = []
    for u, lo in gd.edges:
        r = res.get((u, lo))
        t = tr.get((u, lo))
        rmats.append(BitMatrix.from_rows(r, dim[u]) if r is not None
                     else BitMatrix.zeros(dim[lo], dim[u]))
        tmats.append(BitMatrix.from_rows(t, dim[lo]) if t is not None
                     else BitMatrix.zeros(dim[u], dim[lo]))
    return Mackey(group, tuple(dims), tuple(rmats), tuple(tmats))


def dual(m):
    """Transpose every matrix and swap restrictions with transfers."""
    return Mackey(m.group, m.dims,
                  tuple(t.transpose() for t in m.tr),
                  tuple(r.transpose() for r in m.res))


def direct_sum(ms, group=None):
    ms = list(ms)
    if not ms:
        return zero_mackey(group or "K")
    if len(ms) == 1:
        return ms[0]
    group = ms[0].group
    if any(x.group != group for x in ms):
        raise ValueError("cannot sum functors over different groups")
    gd = group_by_name(group)
    dims = tuple(sum(x.dims[i] for x in ms) for i in range(len(gd.levels)))
    res = tuple(BitMatrix.block_diag([x.res[i] for x in ms])
                for i in range(len(gd.edges)))
    tr = tuple(BitMatrix.block_diag([x.tr[i] for x in ms])
               for i in range(len(gd.edges)))
    return Mackey(group, dims, res, tr)


def inflate(h, m):
    """Pull back along K -> K/h for a cyclic h: the C2 functor m placed on
    the levels containing h."""
    if h not in ("L", "D", "R"):
        raise ValueError(f"not a cyclic subgroup: {h!r}")
    if m.group != "C2":
        raise ValueError("inflation along a cyclic quotient needs a C2 functor")
    dims = {"K": m.dim("C2"), h: m.dim("e")}
    return build_mackey("K", tuple(dims.get(lv, 0) for lv in group_by_name("K").levels),
                        res={("K", h): m.res_edge("C2", "e").to_lists()},
                        tr={("K", h): m.tr_edge("C2", "e").to_lists()})


def restrict_to(m, h):
    """The underlying C2 functor at a cyclic subgroup h of the Klein group."""
    return Mackey("C2", (m.dim(h), m.dim("e")),
                  (m.res_edge(h, "e"),), (m.tr_edge(h, "e"),))


# ---------------------------------------------------------------------------
# catalog


def _c2_table():
    F = build_mackey("C2", (1, 1), res={("C2", "e"): [[1]]})
    f = build_mackey("C2", (0, 1))
    g = build_mackey("C2", (1, 0))
    return {"F": F, "F*": dual(F), "f": f, "g": g, "0": zero_mackey("C2")}


_C2 = _c2_table()


def _k_table():
    one = [[1]]
    F = build_mackey("K", (1, 1, 1, 1, 1),
                     res={("K", "L"): one, ("K", "D"): one, ("K", "R"): one,
                          ("L", "e"): one, ("D", "e"): one, ("R", "e"): one})
    m = build_mackey("K", (1, 1, 1, 1, 0),
                     res={("K", "L"): one, ("K", "D"): one, ("K", "R"): one})
    w = build_mackey("K", (0, 1, 1, 1, 1),
                     res={("L", "e"): one, ("D", "e"): one, ("R", "e"): one})
    mg = build_mackey("K", (2, 1, 1, 1, 0),
                      res={("K", "L"): [[1, 0]], ("K", "D"): [[1, 1]],
                           ("K", "R"): [[0, 1]]})
    W = build_mackey("K", (3, 1, 1, 1, 1),
                     res={("L", "e"): one, ("D", "e"): one, ("R", "e"): one},
                     tr={("K", "L"): [[1], [0], [0]], ("K", "D"): [[0], [1], [0]],
                         ("K", "R"): [[0], [0], [1]]})
    table = {
        "F": F, "F*": dual(F),
        "g": build_mackey("K", (1, 0, 0, 0, 0)),
        "f": build_mackey("K", (0, 0, 0, 0, 1)),
        "m": m, "m*": dual(m),
        "w": w, "w*": dual(w),
        "mg": mg, "mg*": dual(mg),
        "W": W, "W*": dual(W),
        "0": zero_mackey("K"),
    }
    for h in ("L", "D", "R"):
        for c2name in ("F", "F*", "f"):
            table[f"phi{h}({c2name})"] = inflate(h, _C2[c2name])
    return table


_K = _k_table()
_TABLES = {"K": _K, "C2": _C2}

CATALOG_ATOMS = tuple(n for n in _K if n != "0")


def _dual_names():
    """The dual of every catalog atom of either group, by exact matrix equality."""
    names = {}
    for table in _TABLES.values():
        atoms = {m: name for name, m in table.items() if name != "0"}
        names.update((name, atoms[dual(m)]) for m, name in atoms.items())
    return names


DUAL_NAMES = _dual_names()


def catalog(name, group="K"):
    """A named functor over the group, including sums like "phiLDR(F*) + g^2"."""
    if name in _TABLES[group]:
        return _TABLES[group][name]
    return expr_to_mackey(parse_name_expr(name, group), group)


# ---------------------------------------------------------------------------
# name expressions: formal sums of catalog atoms with multiplicities

_ATOM_RE = re.compile(r"^(?P<base>[^^]+?)(?:\^(?P<pow>\d+))?$")


def parse_name_expr(text, group="K"):
    """Parse "phiLDR(F*) + g^2" into a sorted ((atom, mult), ...) tuple."""
    text = text.strip()
    if text in ("0", ""):
        return ()
    counts = {}
    for chunk in text.replace("⊕", "+").split("+"):
        chunk = chunk.strip()
        m = _ATOM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad name term {chunk!r}")
        base, power = m.group("base").strip(), int(m.group("pow") or 1)
        expanded = _expand_atom(base, group)
        for atom in expanded:
            counts[atom] = counts.get(atom, 0) + power
    return tuple(sorted(counts.items()))


def _expand_atom(base, group):
    m = re.match(r"^phi(L|D|R|LD|LDR)\((F\*|F|f|g)\)$", base)
    if m and group == "K":
        parts, inner = m.groups()
        if inner == "g":
            # inflating the C2 geometric functor just gives g again
            return ["g"] * len(parts)
        return [f"phi{h}({inner})" for h in parts]
    if base in _TABLES[group] and base != "0":
        return [base]
    raise ValueError(f"unknown {group} catalog name {base!r}")


def expr_to_mackey(expr, group="K"):
    parts = []
    for atom, mult in expr:
        parts.extend([_TABLES[group][atom]] * mult)
    return direct_sum(parts, group=group)


_DISPLAY_ORDER = (
    "F", "F*", "W", "W*", "mg", "mg*", "m", "m*", "w", "w*",
    "phiLDR(F)", "phiLDR(F*)", "phiLDR(f)",
    "phiL(F)", "phiD(F)", "phiR(F)", "phiL(F*)", "phiD(F*)", "phiR(F*)",
    "phiL(f)", "phiD(f)", "phiR(f)", "f", "g",
)


def display_terms(expr, glyphs=None):
    """Display terms of a name expression, in display order.

    Full L,D,R inflation triples are regrouped as phiLDR(X); each term is
    the atom's glyph (the name itself when glyphs has no entry) with its
    multiplicity as a power.
    """
    counts = dict(expr)
    for inner in ("F", "F*", "f"):
        names = [f"phi{h}({inner})" for h in ("L", "D", "R")]
        triple = min(counts.get(nm, 0) for nm in names)
        if triple:
            for nm in names:
                counts[nm] -= triple
            counts[f"phiLDR({inner})"] = triple
    glyphs = glyphs or {}
    terms = []
    unordered = tuple(sorted(set(counts) - set(_DISPLAY_ORDER)))
    for name in _DISPLAY_ORDER + unordered:
        mult = counts.get(name, 0)
        if mult:
            glyph = glyphs.get(name, name)
            terms.append(glyph if mult == 1 else f"{glyph}^{mult}")
    return terms


def format_name_expr(expr):
    """Canonical display form like "phiLDR(F*) + g^2"; "0" when empty."""
    return " + ".join(display_terms(expr)) or "0"


def expr_dims(expr, group="K"):
    """Levelwise dimensions of a name expression without building matrices."""
    dims = [0] * len(group_by_name(group).levels)
    for atom, mult in expr:
        for i, d in enumerate(_TABLES[group][atom].dims):
            dims[i] += mult * d
    return tuple(dims)


# ---------------------------------------------------------------------------
# axioms

def check_axioms(m):
    """The Mackey identities on every edge of the subgroup lattice; returns failures.

    Every action is trivial and every edge has index 2, so on each edge
    (u, lo) both res . tr and tr . res vanish; two edges out of u satisfy
    the double coset rule through the meet of their lower ends; and
    composites down two chains between the same levels agree.
    """
    gd = m.gd
    failures = []

    def expect(ok, label):
        if not ok:
            failures.append(label)

    for u, lo in gd.edges:
        r, t = m.res_edge(u, lo), m.tr_edge(u, lo)
        expect((r @ t).is_zero(), f"res {u}>{lo} . tr {lo}>{u} != 0")
        expect((t @ r).is_zero(), f"tr {lo}>{u} . res {u}>{lo} != 0")
        for up, below in gd.edges:
            if up == u and below != lo:
                meet = gd.meet(lo, below)
                via_meet = m.tr_edge(lo, meet) @ m.res_edge(below, meet)
                expect(r @ m.tr_edge(u, below) == via_meet,
                       f"res {u}>{lo} . tr {below}>{u} != tr {meet}>{lo} . res {below}>{meet}")
            elif up == lo:
                first = gd.subgroup_chain(u, below)[1]
                if first != lo:
                    expect(m.res_edge(lo, below) @ r == m.res_map(u, below),
                           f"res {u}>{below} via {first} and via {lo} differ")
                    expect(t @ m.tr_edge(lo, below) == m.tr_map(below, u),
                           f"tr {below}>{u} via {first} and via {lo} differ")
    return failures


# ---------------------------------------------------------------------------
# fingerprints and identification

def _stack(mats, how):
    acc = mats[0]
    for m2 in mats[1:]:
        acc = acc.vstack(m2) if how == "v" else acc.hstack(m2)
    return acc


def fingerprint(m):
    """Isomorphism-invariant rank data, additive under direct sums.

    Shaped as (dims, res-part, tr-part, mixed composites) so that dualizing
    a functor swaps the middle two parts.  The levels are read from the
    lattice: the top, the bottom and the middle levels between them.  The
    mixed part holds res . tr between distinct edges out of the top; the
    composites on one edge are zero by check_axioms, so they are left out.
    """
    gd = m.gd
    top, *middle, bottom = gd.levels
    res_down = [m.res_edge(u, lo) for u, lo in gd.edges if u == top]
    res_low = [m.res_edge(u, lo) for u, lo in gd.edges if lo == bottom]
    tr_up = [m.tr_edge(u, lo) for u, lo in gd.edges if u == top]
    tr_low = [m.tr_edge(u, lo) for u, lo in gd.edges if lo == bottom]
    res_part = (
        tuple(x.rank() for x in m.res),
        _stack(res_down, "v").rank(),
        tuple(_stack([a, b], "v").rank() for a, b in itertools.combinations(res_down, 2)),
        _stack(res_low, "h").rank(),
        m.res_map(top, bottom).rank(),
        # the images of res top>h and tr bottom>h together span this much of m(h)
        tuple(_stack([m.res_edge(top, h), m.tr_edge(h, bottom)], "h").rank()
              for h in middle),
    )
    tr_part = (
        tuple(x.rank() for x in m.tr),
        _stack(tr_up, "h").rank(),
        tuple(_stack([a, b], "h").rank() for a, b in itertools.combinations(tr_up, 2)),
        _stack(tr_low, "v").rank(),
        m.tr_map(bottom, top).rank(),
        tuple(_stack([m.tr_edge(top, h), m.res_edge(h, bottom)], "v").rank()
              for h in middle),
    )
    mixed = tuple((r @ t).rank() for i, r in enumerate(res_down)
                  for j, t in enumerate(tr_up) if i != j)
    return (m.dims, res_part, tr_part, mixed)


def _flatten(x):
    if isinstance(x, tuple):
        out = []
        for y in x:
            out.extend(_flatten(y))
        return out
    return [x]


@lru_cache(maxsize=None)
def _atom_fingerprints(group):
    # the group's atoms in display order; its phiLDR(X), a sum of three
    # atoms, is in no table
    table = _TABLES[group]
    return tuple((name, tuple(_flatten(fingerprint(table[name]))))
                 for name in _DISPLAY_ORDER if name in table)


@lru_cache(maxsize=None)
def _solver(group):
    """The integer inverse of the atoms' fingerprint matrix on coordinates
    where it is invertible, as rows (coordinate j, ((atom i, coefficient),
    ...)): atom i's count in a fingerprint f sums coefficient * f[j].

    Gauss-Jordan elimination over the coordinates in order keeps one whose
    reduced equation sum_i count_i * atom_i[j] = f[j] has a coefficient of
    +-1, and pivots only on those, so every number stays an integer.  That
    reaches full rank: 21 of 41 coordinates for K, 4 of 10 for C2.
    """
    vecs = [vec for _, vec in _atom_fingerprints(group)]
    n, width = len(vecs), len(vecs[0])
    kept = []  # (atom index, equation: atom coefficients, then coordinate ones)
    for j in range(width):
        eq = [v[j] for v in vecs] + [int(k == j) for k in range(width)]
        for i, piv in kept:
            if eq[i]:
                eq = [a - eq[i] * b for a, b in zip(eq, piv)]
        lead = next((i for i in range(n) if eq[i] in (1, -1)), None)
        if lead is None:
            continue
        eq = [eq[lead] * a for a in eq]
        kept = [(i, [a - piv[lead] * b for a, b in zip(piv, eq)] if piv[lead] else piv)
                for i, piv in kept]
        kept.append((lead, eq))
    return tuple((j, tuple((i, eq[n + j]) for i, eq in kept if eq[n + j]))
                 for j in range(width) if any(eq[n + j] for _, eq in kept))


def identify(m):
    """Write m as a sum of catalog names by matching fingerprints.

    Fingerprints are additive, so this solves an exact nonnegative integer
    combination.  The atoms' fingerprints are linearly independent (rank 21
    for K, 4 for C2), so a combination, when one exists, is unique: _solver's
    inverse gives the counts, kept when none is negative and the atoms with
    those counts sum to m's whole fingerprint.  A sum of catalog atoms thus
    gets exactly its own name.
    Fingerprints are not a complete isomorphism invariant in general, so a
    functor that is no such sum may still match one; what backs the names
    is test_identify_names_an_isomorphic_functor, which checks with
    is_isomorphic that every identified oracle output over a box of
    representations is isomorphic to the sum named.  Returns the
    name-expression tuple, or None when no catalog combination matches.
    """
    if m.is_zero():
        return ()
    atoms = _atom_fingerprints(m.group)
    remaining = _flatten(fingerprint(m))
    counts = [0] * len(atoms)
    for j, row in _solver(m.group):
        f = remaining[j]
        if f:
            for i, coeff in row:
                counts[i] += coeff * f
    if min(counts) < 0:
        return None
    for count, (_, vec) in zip(counts, atoms):
        if count:
            remaining = [r - count * v for r, v in zip(remaining, vec)]
    if any(remaining):
        return None
    return tuple(sorted((name, count) for count, (name, _) in zip(counts, atoms) if count))


def hom_space(m1, m2):
    """Basis of Mackey-functor maps m1 -> m2, each as {level: BitMatrix}.

    The unknowns are the entries of the components f_lv: M1(lv) -> M2(lv),
    row by row: entry (i, j) of f_lv is bit offset[lv] + i * dim1[lv] + j.
    """
    if m1.group != m2.group:
        raise ValueError("group mismatch")
    gd = m1.gd
    dim1 = dict(zip(gd.levels, m1.dims))
    offset = {}
    total = 0
    for lv, d2 in zip(gd.levels, m2.dims):
        offset[lv] = total
        total += dim1[lv] * d2

    rows = []
    # constraint: for each edge (u, lo), one row per entry of
    #   res2 @ f_u == f_lo @ res1      (maps M1(u) -> M2(lo))
    #   tr2 @ f_lo == f_u @ tr1        (maps M1(lo) -> M2(u))
    # both of the form a @ f_x == f_y @ b.  Entry (i, j) of a @ f_x sums
    # column j of f_x over the rows that row i of a picks (spread, one bit
    # per row of f_x); entry (i, j) of f_y @ b sums row i of f_y over the
    # columns that column j of b picks.
    for u, lo in gd.edges:
        for a, x, y, b in ((m2.res_edge(u, lo), u, lo, m1.res_edge(u, lo)),
                           (m2.tr_edge(u, lo), lo, u, m1.tr_edge(u, lo))):
            b_cols = b.transpose().data
            for i, a_row in enumerate(a.data):
                spread = sum(1 << k * dim1[x] for k in range(a.cols) if a_row >> k & 1)
                for j, b_col in enumerate(b_cols):
                    row = spread << offset[x] + j ^ b_col << offset[y] + i * dim1[y]
                    if row:
                        rows.append(row)

    system = BitMatrix(len(rows), total, tuple(rows))
    # each component of a kernel vector read back one row at a time
    return [{lv: BitMatrix(d2, dim1[lv],
                           tuple(vec >> offset[lv] + i * dim1[lv] & (1 << dim1[lv]) - 1
                                 for i in range(d2)))
             for lv, d2 in zip(gd.levels, m2.dims)}
            for vec in system.kernel_basis()]


# rank_tuples_of_hom visits all 2^k parts of the maps below the top level;
# it refuses k above this.
MAX_LOWER_DIM = 16


def is_isomorphic(m1, m2):
    """Exact isomorphism test: some map m1 -> m2 has full rank at every level."""
    if m1.group != m2.group or m1.dims != m2.dims:
        return False
    if fingerprint(m1) != fingerprint(m2):
        return False
    return m1.dims in rank_tuples_of_hom(m1, m2)


def rank_tuples_of_hom(m1, m2):
    """The set of levelwise rank tuples of all maps m1 -> m2, exactly.

    A map is its part below the top level plus its top component.  The maps
    that vanish below the top are exactly S Y Q for any Y, where S spans the
    kernel of the restrictions out of the top of m2 and Q is the top of m1
    modulo every transfer into it.  Over a lower part with top component A,
    rank(A + S Y Q) takes every value from r[A S] + r[A; Q] - r[[A S]; [Q 0]]
    up to min(r[A S], r[A; Q]) (Marsaglia-Styan 1974; Cohen, Johnson, Rodman
    and Woerdeman 1989), with no gaps because a rank-one change of Y moves
    the rank by at most one.  ValueError when the maps restricted below the
    top span more than MAX_LOWER_DIM dimensions.
    """
    gd = m1.gd
    top = gd.levels[0]
    children = [lo for u, lo in gd.edges if u == top]
    res_out = [m2.res_edge(top, lo) for lo in children]
    tr_in = [m1.tr_edge(top, lo).transpose() for lo in children]
    kernel = _stack(res_out, "v").kernel_basis()
    S = BitMatrix(len(kernel), m2.dim(top), kernel).transpose()
    cokernel = _stack(tr_in, "v").kernel_basis()
    Q = BitMatrix(len(cokernel), m1.dim(top), cokernel)
    corner = Q.hstack(BitMatrix.zeros(Q.rows, S.cols))
    # one lifted map per dimension of the maps' projection below the top
    span = EchelonSpan()
    lifts = [f for f in hom_space(m1, m2) if span.add(_lower_bits(f, gd.levels[1:]))]
    if len(lifts) > MAX_LOWER_DIM:
        raise ValueError(f"maps below the top level span {len(lifts)} "
                         f"dimensions, more than {MAX_LOWER_DIM}")
    parts = [[BitMatrix.zeros(m2.dim(lv), m1.dim(lv)) for lv in gd.levels]]
    for f in lifts:
        parts += [[a + f[lv] for a, lv in zip(p, gd.levels)] for p in parts]
    tuples = set()
    for A, *below in parts:
        lower = tuple(x.rank() for x in below)
        a_s, a_q = A.hstack(S), A.vstack(Q)
        r_as, r_aq = a_s.rank(), a_q.rank()
        least = r_as + r_aq - a_s.vstack(corner).rank()
        tuples.update((r,) + lower for r in range(least, min(r_as, r_aq) + 1))
    return tuples


def _lower_bits(f, levels):
    """The components of a map at the given levels, as one bit vector."""
    bits = shift = 0
    for lv in levels:
        for row in f[lv].data:
            bits |= row << shift
            shift += f[lv].cols
    return bits
