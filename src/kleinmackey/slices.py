"""Slice data for integer suspensions of the constant-functor spectrum.

Everything here is closed-form: the slice cells of the n-fold suspension
over C2 and over the Klein group, their graded homotopy, the printed towers
through n = 10 (with the exotic cofiber node), and the cyclic-subgroup
restriction consistency check.

The homotopy of S^{a + k rho} ∧ HM is tabulated per atom M for k >= 0
only (one rho untwists F*, m* and mg* to shifted F or f, mg and m); exact
rules give the rest, so every catalog atom of either group has a table:

* k < 0 is the dual of the mirrored table: pi_n(S^V ∧ HM) is the dual of
  pi_{-n}(S^{-V} ∧ HM*), so degrees are negated and names dualized;
* an inflated Klein atom phi*_h X has the C2 table of X, with F, F* and f
  renamed phi_h(.);
* shared shapes: k = 0 and the geometric atom g give one term, in degree
  a + k, and f shares the formula of F, shifted by one step;
* for k >= 1 the short exact sequences w -> F -> g, g -> F* -> w*,
  g^3 -> W -> w and w* -> W* -> g^3 give the w and W family, since the
  homotopy of S^{a + k rho} ∧ Hg^j is g^j in degree a + k alone: w is F
  minus g in degree a + k, w* is F* plus g in degree a + k + 1, W* is w*
  plus g^3 in degree a + k, and W is w minus g^3 in degree a + k + 1, except
  at k = 1, where that degree of w is phi*_LDR F, onto g^3 with kernel
  phi*_LDR f.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import KLEIN
from .mackey import (DUAL_NAMES, display_terms, dual, expr_to_mackey, identify,
                     parse_name_expr, restrict_to, restriction_kernel)
from .reps import a_plus_k_rho, restrict_rep, rho_decompose


@dataclass(frozen=True)
class SliceCell:
    """One slice: dimension i, suspension as printed, coefficient names."""
    group: str
    i: int
    susp: object = None          # RepK or RepC2; None when trivial
    coeff: tuple = ()            # name expression ((atom, mult), ...)
    trivial: bool = False

    def pretty(self):
        return "*" if self.trivial else pretty_cell(self.susp, self.coeff)


_GLYPHS = {f"phi{h}({x})": f"φ*_{h} {x}" if len(h) == 1 else f"φ*_{{{h}}}{x}"
           for h in ("L", "D", "R", "LDR") for x in ("F", "F*", "f")}


def pretty_cell(susp, coeff):
    """Σ^V HM for a name expression M, like "Σ^{3ρ} H(φ*_{LDR}F* ⊕ g^2)",
    with a single atom bare; the cofiber coefficient "C" prints as Σ^V C."""
    if coeff == "C":
        return f"{pretty_susp(susp)} C"
    parts = display_terms(coeff, _GLYPHS) or [" 0"]
    name = parts[0] if len(parts) == 1 else f"({' ⊕ '.join(parts)})"
    return f"{pretty_susp(susp)} H{name}"


def pretty_susp(v):
    a, k = rho_decompose(v)
    rho = "" if k == 0 else ("ρ" if k == 1 else f"{k}ρ")
    if rho and a:
        return f"Σ^{{{rho}+{a}}}" if a > 0 else f"Σ^{{{rho}{a}}}"
    if rho:
        return f"Σ^{{{rho}}}" if len(rho) > 1 else f"Σ^{rho}"
    return f"Σ^{a}" if a else "Σ^0"


def _k_cell(i, k, a, names):
    return SliceCell("K", i, a_plus_k_rho("K", a, k), parse_name_expr(names))


def _c2_cell(i, k, a, names):
    return SliceCell("C2", i, a_plus_k_rho("C2", a, k), parse_name_expr(names, "C2"))


def slice_bounds_K(n):
    """Slice range of the n-fold suspension over the Klein group."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (n, max(n, 4 * n - 12))


def slice_K(n, i):
    """The i-slice of the n-fold Klein suspension, in theorem-normal form."""
    lo, hi = slice_bounds_K(n)
    if i < lo or i > hi:
        return SliceCell("K", i, trivial=True)
    if n <= 3:
        return _k_cell(n, 0, n, "F") if i == n else SliceCell("K", i, trivial=True)
    if i == n:
        k4, r4 = divmod(n, 4)
        return {
            0: _k_cell(n, k4, 0, "F*"),
            1: _k_cell(n, k4, 1, "f"),
            2: _k_cell(n, k4, 2, "f"),
            3: _k_cell(n, k4, 3, "F"),
        }[r4]
    if i % 4 == 0:
        k = i // 4
        if i == n + 1:
            return _k_cell(i, k, 0, "mg*")
        if n + 2 <= i <= 2 * n - 4:
            extra = i - n - 2
            names = "phiLDR(F*)" + (f" + g^{extra}" if extra else "")
            return _k_cell(i, k, 0, names)
        if 2 * n - 3 <= i <= 4 * n - 12:
            return _k_cell(i, 0, k, f"g^{2 * (n - k) - 5}")
        return SliceCell("K", i, trivial=True)
    if i % 4 == 2 and n < i <= 2 * n - 4:
        return _k_cell(i, (i - 2) // 4, 1, "phiLDR(f)")
    return SliceCell("K", i, trivial=True)


def slice_C2(n, i):
    """The i-slice of the n-fold suspension over C2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 3:
        if i != n:
            return SliceCell("C2", i, trivial=True)
        return {0: _c2_cell(0, 0, 0, "F"), 1: _c2_cell(1, 0, 1, "F"),
                2: _c2_cell(2, 1, 0, "f"), 3: _c2_cell(3, 1, 1, "f")}[n]
    if i == n:
        if n % 2 == 0:
            return _c2_cell(n, n // 2, 0, "F*")
        return _c2_cell(n, (n - 1) // 2, 1, "f")
    if i % 2 == 0:
        j = i // 2
        first = n // 2 + 1 if n % 2 == 0 else (n + 1) // 2
        if first <= j <= n - 2:
            return _c2_cell(i, 0, j, "g")
    return SliceCell("C2", i, trivial=True)


def slice_cells(n, group="K"):
    """The nontrivial slice cells of the n-fold suspension over group, by i."""
    if group == "K":
        lo, hi = slice_bounds_K(n)
        cells = [slice_K(n, i) for i in range(lo, hi + 1)]
    else:
        cells = [slice_C2(n, i) for i in range(n, max(2 * n - 3, n + 1))]
    return [cell for cell in cells if not cell.trivial]


def slice_C2_f(n, i):
    """The i-slice of the n-fold C2 suspension of the free functor."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 2:
        if i == n:
            return _c2_cell(n, 0, n, "f")
        return SliceCell("C2", i, trivial=True)
    if i == 2 * n - 2:
        return _c2_cell(i, 0, n - 1, "g")
    if n <= i <= max(n, 2 * n - 4):
        return slice_C2(n, i)
    return SliceCell("C2", i, trivial=True)


# ---------------------------------------------------------------------------
# graded homotopy of cells


def _merge(table, degree, names):
    if not names:
        return
    cur = dict(table.get(degree, ()))
    for atom, mult in names:
        cur[atom] = cur.get(atom, 0) + mult
    table[degree] = tuple(sorted((atom, m) for atom, m in cur.items() if m))
    if not table[degree]:
        del table[degree]


def _g(mult):
    return (("g", mult),) if mult else ()


_PHI_LDR_F = parse_name_expr("phiLDR(F)")
# phi*_LDR F -> g^3 is onto with kernel phi*_LDR f
_PHI_LDR_F_TO_f = tuple((x, -1) for x, _ in _PHI_LDR_F) + parse_name_expr("phiLDR(f)")

# a short exact sequence: atom -> (neighbour, j, step), the atom's table being
# the neighbour's with g^j added in degree a + k + step
_SES = {"w": ("F", -1, 0), "w*": ("F*", 1, 1), "W*": ("w*", 3, 0), "W": ("w", -3, 1)}

# one rho untwists an atom: (group, atom) -> (suspension shift, atom)
_UNTWIST = {("K", "F*"): (4, "F"), ("K", "m*"): (2, "mg"), ("K", "mg*"): (2, "m"),
            ("C2", "F*"): (2, "f")}


def _relabel(table, rename, sign=1):
    return {sign * d: tuple(sorted((rename(atom), mult) for atom, mult in expr))
            for d, expr in table.items()}


def _atom_homotopy(group, a, k, atom):
    """Closed-form homotopy of the (a + k rho)-suspension of one atom."""
    if k < 0:
        # pi_n(S^V ∧ HM) is the dual of pi_{-n}(S^{-V} ∧ HM*)
        table = _atom_homotopy(group, -a, -k, DUAL_NAMES[atom])
        return _relabel(table, DUAL_NAMES.__getitem__, -1)
    if k == 0 or atom == "g":
        return {a + k: ((atom, 1),)}
    if atom in _SES:
        base, j, step = _SES[atom]
        out = _atom_homotopy(group, a, k, base)
        _merge(out, a + k + step, _PHI_LDR_F_TO_f if (atom, k) == ("W", 1) else _g(j))
        return out
    if (group, atom) in _UNTWIST:
        shift, base = _UNTWIST[group, atom]
        return _atom_homotopy(group, a + shift, k - 1, base)
    if atom.startswith("phi"):
        # an inflated atom has the C2 homotopy of its C2 functor, inflated
        h, inner = atom[3], atom[5:-1]
        return _relabel(_atom_homotopy("C2", a, k, inner),
                        lambda x: x if x == "g" else f"phi{h}({x})")
    out = {}
    if atom in ("F", "f"):
        s = int(atom == "f")       # f starts each range one step higher
        if group == "C2":
            _merge(out, 2 * k + a, (("F", 1),))
            for i in range(k + s, 2 * k):
                _merge(out, i + a, _g(1))
            return out
        _merge(out, 4 * k + a, (("F", 1),))
        _merge(out, 4 * k - 1 + a, (("mg", 1),))
        for i in range(2 * k + s, 4 * k - 1):
            _merge(out, i + a, _PHI_LDR_F + _g(4 * k - 2 - i))
        for i in range(k + s, 2 * k + s):
            _merge(out, i + a, _g(2 * (i - k) + 1 - 3 * s))
        return out
    # m and mg
    _merge(out, 2 * k + a, _PHI_LDR_F)
    for i in range(k + 1, 2 * k):
        _merge(out, i + a, _g(3))
    _merge(out, k + a, _g(1 if atom == "m" else 2))
    return out


def graded_homotopy(a, k, coeff, group="K"):
    """Homotopy names of the (a + k rho)-suspension of H(coeff) over a group.

    Homotopy is additive over coefficient sums, so each atom is dispatched
    to its closed form; every catalog atom has one, and the chain oracle is
    never run.
    """
    out = {}
    for atom, mult in coeff:
        for deg, names in _atom_homotopy(group, a, k, atom).items():
            _merge(out, deg, tuple((name, mult * m) for name, m in names))
    return out


def homotopy_of_slice(cell: SliceCell):
    """Graded homotopy names of a slice cell; {} for trivial cells."""
    if cell.trivial:
        return {}
    a, k = rho_decompose(cell.susp)
    return graded_homotopy(a, k, cell.coeff, cell.group)


# the cofiber C of the constant functor mapping into its three-fold
# inflation is not a twisted Eilenberg-MacLane spectrum; it is recorded by
# its two homotopy Mackey functors
COFIBER_C_HOMOTOPY = ((0, (("g", 2),)), (1, (("f", 1),)))


def cofiber_node_homotopy(m):
    """Homotopy of the (rho + m)-suspension of the cofiber spectrum C.

    The two recorded homotopy functors of C live in a two-stage tower whose
    rho-twisted layers have disjoint degrees, so the suspension's homotopy
    is just the union of the twisted layers.
    """
    out = {}
    for deg, names in COFIBER_C_HOMOTOPY:
        for d, expr in graded_homotopy(m + deg, 1, names).items():
            _merge(out, d, expr)
    return out


# ---------------------------------------------------------------------------
# towers


@dataclass(frozen=True)
class TowerNode:
    kind: str                 # "slice" | "summand" | "section" | "total" | "aux"
    label: str
    i: object = None          # slice dimension for slice nodes, and for a
                              # summand node the slice it is a summand of
    susp: object = None
    coeff: object = None      # name expression, or the string "C"
    homotopy: tuple = ()      # sorted ((degree, expr), ...)
    note: str = ""

    def pretty(self):
        return pretty_cell(self.susp, self.coeff)


def _node(kind, label, i, k, a, names):
    susp = a_plus_k_rho("K", a, k)
    if names == "C":
        if k != 1:
            raise ValueError("cofiber nodes only appear with a single rho twist")
        hom = tuple(sorted(cofiber_node_homotopy(a).items()))
        return TowerNode(kind, label, i, susp, "C", hom)
    coeff = parse_name_expr(names)
    hom = tuple(sorted(graded_homotopy(a, k, coeff).items()))
    return TowerNode(kind, label, i, susp, coeff, hom)


# the printed towers, top node first, as _node's arguments
# (kind, label, i, k, a, names) for the node Σ^{a + k rho} H(names)
_TOWERS = {
    0: (("slice", "P^0_0", 0, 0, 0, "F"),),
    1: (("slice", "P^1_1", 1, 0, 1, "F"),),
    2: (("slice", "P^2_2", 2, 0, 2, "F"),),
    3: (("slice", "P^3_3", 3, 0, 3, "F"),),
    4: (("slice", "P^4_4", 4, 1, 0, "F*"),),
    5: (("slice", "P^8_8", 8, 0, 2, "g"),
        ("total", "X", None, 1, 1, "F*"),
        ("slice", "P^6_6", 6, 1, 1, "phiLDR(f)"),
        ("section", "P^6", None, 1, 1, "w*"),
        ("slice", "P^5_5", 5, 1, 1, "f")),
    6: (("slice", "P^12_12", 12, 0, 3, "g"),
        ("total", "X", None, 1, 2, "F*"),
        ("slice", "P^8_8", 8, 1, 2, "phiLDR(f)"),
        ("section", "P^8", None, 1, 2, "w*"),
        ("slice", "P^6_6", 6, 1, 2, "f")),
    7: (("slice", "P^16_16", 16, 0, 4, "g"),
        ("total", "X", None, 1, 3, "F*"),
        ("slice", "P^12_12", 12, 0, 3, "g^3"),
        ("section", "P^12", None, 1, 3, "w*"),
        ("slice", "P^10_10", 10, 1, 3, "phiLDR(F)"),
        ("section", "P^10", None, 1, 3, "W*"),
        ("slice", "P^8_8", 8, 1, 2, "m"),
        ("section", "P^8_7", None, 1, 3, "f"),
        ("slice", "P^7_7", 7, 1, 3, "F")),
    8: (("slice", "P^20_20", 20, 0, 5, "g"),
        ("total", "X", None, 1, 4, "F*"),
        ("slice", "P^16_16", 16, 0, 4, "g^3"),
        ("section", "P^16", None, 1, 4, "w*"),
        ("slice", "P^12_12", 12, 3, 0, "phiLDR(F*) + g^2"),
        ("section", "P^12", None, 1, 4, "W*"),
        ("slice", "P^10_10", 10, 1, 3, "phiLDR(F)"),
        ("section", "P^10", None, 1, 3, "C"),
        ("slice", "P^8_8", 8, 1, 4, "F")),
    9: (("slice", "P^24_24", 24, 0, 6, "g"),
        ("total", "X", None, 1, 5, "F*"),
        ("slice", "P^20_20", 20, 0, 5, "g^3"),
        ("section", "P^20", None, 1, 5, "w*"),
        ("summand", "A", 16, 0, 4, "g^3"),
        ("aux", "aux", None, 1, 5, "phiLDR(F)"),
        ("section", "P^16", None, 1, 5, "W*"),
        ("slice", "P^14_14", 14, 3, 1, "phiLDR(f)"),
        ("summand", "B", 16, 1, 3, "g^2"),
        ("section", "P^13", None, 1, 5, "f"),
        ("summand", "C", 12, 1, 4, "phiLDR(F)"),
        ("section", "P^11", None, 1, 4, "C"),
        ("summand", "D", 12, 1, 2, "g"),
        ("section", "P^10", None, 1, 5, "F"),
        ("slice", "P^10_10", 10, 2, 1, "phiLDR(f)"),
        ("section", "P^9", None, 2, 1, "w*"),
        ("slice", "P^9_9", 9, 2, 1, "f")),
    10: (("slice", "P^28_28", 28, 0, 7, "g"),
         ("total", "X", None, 1, 6, "F*"),
         ("slice", "P^24_24", 24, 0, 6, "g^3"),
         ("section", "P^24", None, 1, 6, "w*"),
         ("summand", "A", 20, 0, 5, "g^3"),
         ("aux", "aux", None, 1, 6, "phiLDR(F)"),
         ("section", "P^20", None, 1, 6, "W*"),
         ("summand", "C", 16, 3, 2, "phiLDR(f)"),
         ("summand", "B", 20, 1, 4, "g^2"),
         ("section", "P^17", None, 1, 6, "f"),
         ("summand", "D", 16, 3, 1, "g^3"),
         ("aux", "aux2", None, 1, 5, "phiLDR(F)"),
         ("section", "P^15", None, 1, 5, "C"),
         ("slice", "P^14_14", 14, 3, 1, "phiLDR(f)"),
         ("summand", "E", 16, 1, 3, "g"),
         ("section", "P^12", None, 1, 6, "F"),
         ("slice", "P^12_12", 12, 2, 2, "phiLDR(f)"),
         ("section", "P^11", None, 2, 2, "w*"),
         ("slice", "P^10_10", 10, 2, 2, "f")),
}


def tower_K(n):
    """The printed tower node list for n <= 10; bare slice list above that."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in _TOWERS:
        return tuple(_node(*args) for args in _TOWERS[n])
    nodes = []
    for cell in slice_cells(n):
        hom = tuple(sorted(homotopy_of_slice(cell).items()))
        nodes.append(TowerNode("slice", f"P^{cell.i}_{cell.i}", cell.i, cell.susp,
                               cell.coeff, hom, note="section structure not asserted"))
    return tuple(reversed(nodes))


def tower_slice_parts(n):
    """{i: [name-exprs]} of the tower's slice content (slices plus summands)."""
    parts = {}
    for node in tower_K(n):
        if node.kind in ("slice", "summand"):
            parts.setdefault(node.i, []).append((node.susp, node.coeff))
    return parts


# ---------------------------------------------------------------------------
# restriction to cyclic subgroups


def _restrict_coeff(expr, h):
    """Name expression of a Klein coefficient restricted to a cyclic subgroup."""
    got = identify(restrict_to(expr_to_mackey(expr), h))
    if got is None:
        raise ValueError(f"restriction of {expr} to {h} is not a C2 catalog sum")
    return got


def restriction_consistency(n):
    """Check that every Klein slice restricts to the matching C2 slice.

    For each slice dimension and each cyclic subgroup, the restricted cell's
    graded homotopy must agree with the C2 slice formulas; returns the list
    of mismatch descriptions (empty means consistent).
    """
    failures = []
    lo, hi = slice_bounds_K(n)
    for i in range(lo, hi + 3):
        kcell = slice_K(n, i)
        ccell = slice_C2(n, i)
        expect = homotopy_of_slice(ccell)
        for h in KLEIN.cyclics:
            if kcell.trivial:
                got = {}
            else:
                rsusp = restrict_rep(kcell.susp, h)
                rcoeff = _restrict_coeff(kcell.coeff, h)
                a, k = rho_decompose(rsusp)
                got = graded_homotopy(a, k, rcoeff, "C2")
            if got != expect:
                failures.append(
                    f"n={n} i={i} at {h}: restricted {got} != C2 slice {expect}")
    return failures


def slice_predicates(m):
    """Eilenberg-MacLane slice tests: 0-slice, 1-slice, (-1)-slice.

    HM is a 1-slice when the restrictions out of each level are jointly
    injective, and a (-1)-slice when its dual is a 1-slice: the transfers
    into each level are jointly surjective.
    """
    def one_slice(x):
        return not any(restriction_kernel(x, u) for u in {u for u, _ in x.gd.edges})

    return {"is_zero_slice_EM": True, "is_one_slice_EM": one_slice(m),
            "is_minus_one_slice_EM": one_slice(dual(m))}
