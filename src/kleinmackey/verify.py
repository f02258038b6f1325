"""Named verification suites behind the CLI and the acceptance tests.

Each suite returns a Report with a pass flag, how many instances were
checked, and a list of failure descriptions (empty on success).  Reports
are deterministic: instances are swept in sorted order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import bredon, hk, sschart
from . import slices as slc
from .mackey import (_TABLES, CATALOG_ATOMS, catalog, check_axioms, dual, direct_sum,
                     expr_dims, expr_to_mackey, fingerprint, format_name_expr,
                     identify, is_isomorphic, mackey_from_json)
from .reps import RepC2, RepK, RHO_K, a_plus_k_rho


@dataclass
class Report:
    suite: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def fail(self, msg):
        self.failures.append(msg)

    def summary(self):
        status = "pass" if self.passed else "FAIL"
        lines = [f"suite {self.suite}: {status} ({self.checked} checked)"]
        lines.extend(f"  {f}" for f in self.failures[:25])
        if len(self.failures) > 25:
            lines.append(f"  ... and {len(self.failures) - 25} more")
        return "\n".join(lines)


def suite_axioms(mackey_json=None):
    """Catalog axioms, duality pairing, and axioms of 10000 random sums."""
    rep = Report("axioms")
    if mackey_json is not None:
        m = mackey_from_json(mackey_json)
        rep.checked += 1
        for f in check_axioms(m):
            rep.fail(f"supplied functor: {f}")
        return rep
    pairing = {"F": "F*", "m": "m*", "w": "w*", "mg": "mg*", "W": "W*"}
    for name in CATALOG_ATOMS:
        rep.checked += 1
        for f in check_axioms(catalog(name)):
            rep.fail(f"{name}: {f}")
    for a, b in pairing.items():
        rep.checked += 1
        if dual(catalog(a)) != catalog(b) or dual(catalog(b)) != catalog(a):
            rep.fail(f"duality pairing broken: {a} <-> {b}")
    for name in CATALOG_ATOMS:
        rep.checked += 1
        if dual(dual(catalog(name))) != catalog(name):
            rep.fail(f"dual not involutive on {name}")
    rng = random.Random(20260810)
    atoms = list(CATALOG_ATOMS)
    for _ in range(10000):
        picks = [atoms[rng.randrange(len(atoms))] for _ in range(rng.randrange(1, 5))]
        m = direct_sum([catalog(p) for p in picks])
        rep.checked += 1
        for f in check_axioms(m):
            rep.fail(f"{'+'.join(picks)}: {f}")
    return rep


def _box(box):
    """Representations with |a| <= 4 and |b|, |c|, |d| <= box."""
    if box < 0:
        raise ValueError(f"box half-width must be nonnegative, got {box}")
    rng = range(-box, box + 1)
    return itertools.product(range(-4, 5), rng, rng, rng)


def suite_hk_oracle(box=3):
    """Closed-form top-level series equals oracle graded dimensions, |a| <= 4."""
    rep = Report("hk-oracle")
    for a, b, c, d in _box(box):
        v = RepK(a, b, c, d)
        rep.checked += 1
        closed = hk.poincare_K(v)["K"]
        oracle = bredon.homotopy_level_series(v, "F", "K")
        if closed != oracle:
            rep.fail(f"{v.coeffs()}: closed {closed.pretty()} "
                     f"!= oracle {oracle.pretty()}")
    return rep


def suite_duality(box=2):
    """Dual coefficients against the reflected computation, full structure, |a| <= 4."""
    rep = Report("duality")
    for a, b, c, d in _box(box):
        v = RepK(a, b, c, d)
        rep.checked += 1
        lhs = {n: fingerprint(m) for n, m in bredon.homotopy(v, "F*").items()}
        rhs = {-n: fingerprint(dual(m)) for n, m in bredon.homotopy(-v, "F").items()}
        if lhs != rhs:
            rep.fail(f"{v.coeffs()}: dual mismatch")
    return rep


def _figure1_expected(n, k):
    if n == -k and -3 <= k <= 0:
        return "F"
    if k <= -1 and 0 <= n <= -k - 1:
        return "g"
    if (n, k) == (-1, 1):
        return "f"
    if n == -k and k >= 2:
        return "F*"
    if k >= 3 and -k + 1 <= n <= -2:
        return "g"
    return "0"


def suite_figure1():
    """Oracle reproduces the full printed grid of C2 homotopy functors."""
    rep = Report("figure1")
    for n in range(-5, 4):
        for k in range(-3, 6):
            rep.checked += 1
            table = bredon.homotopy(RepC2(-n, -k), "F")
            m = table.get(0)
            got = "0" if m is None else format_name_expr(identify(m))
            want = _figure1_expected(n, k)
            if got != want:
                rep.fail(f"(n={n}, k={k}): got {got}, expected {want}")
    return rep


def suite_twistings():
    """Each Klein rule of slices._UNTWIST, S^rho HM = S^shift HN, checked on
    the oracle: the same degrees, and an isomorphism at each."""
    rep = Report("twistings")
    for (group, atom), (shift, base) in slc._UNTWIST.items():
        if group != "K":
            continue
        rep.checked += 1
        lhs = bredon.homotopy(RHO_K, atom)
        rhs = bredon.homotopy(RepK(shift, 0, 0, 0), base)
        if lhs.keys() != rhs.keys() or \
                not all(is_isomorphic(m, rhs[n]) for n, m in lhs.items()):
            rep.fail(f"S^rho H{atom} != S^{shift} H{base}")
    return rep


def suite_slices_restriction():
    """Klein slices restrict to the C2 slices on every cyclic subgroup, n <= 20."""
    rep = Report("slices-restriction")
    for n in range(0, 21):
        rep.checked += 1
        for f in slc.restriction_consistency(n):
            rep.fail(f)
    return rep


def oracle_homotopy(v, coeff):
    """The oracle's side of slices.graded_homotopy: homotopy names of the
    v-suspension of H(coeff), v a Klein or a C2 representation.

    Degrees with zero homotopy are left out, and a functor that is not a
    catalog sum raises ValueError; cli.cmd_homotopy and suite_figure1, which
    also name oracle output, print such a functor as "unidentified" instead.
    """
    out = {}
    for deg, m in bredon.homotopy(v, expr_to_mackey(coeff, v.group)).items():
        expr = identify(m)
        if expr is None:
            raise ValueError(f"oracle value not a catalog sum at degree {deg}")
        if expr:
            out[deg] = expr
    return out


# every catalog atom of both groups at a + k rho: |k| <= 3 over K, 6 for the
# atoms slices._SES derives from a neighbour, and 4 over C2
_CLOSED_GRID = [(group, atom, k) for group, table in _TABLES.items() for atom in table
                for r in [4 if group == "C2" else 6 if atom in slc._SES else 3]
                for k in range(-r, r + 1)]


def suite_slice_homotopy():
    """Closed homotopy tables versus the oracle at a + k rho, over _CLOSED_GRID, |a| <= 1."""
    rep = Report("slice-homotopy")
    for group, atom, k in _CLOSED_GRID:
        for a in (-1, 0, 1):
            rep.checked += 1
            v = a_plus_k_rho(group, a, k)
            try:
                formula = slc.graded_homotopy(a, k, ((atom, 1),), group)
                oracle = oracle_homotopy(v, ((atom, 1),))
            except ValueError as exc:
                rep.fail(f"{atom} at {v.coeffs()}: {exc}")
                continue
            if formula != oracle:
                rep.fail(f"{atom} at {v.coeffs()}: table {formula} != oracle {oracle}")
    return rep


def suite_euler():
    """Euler characteristics of the E1 charts, n <= 20; level-e charts have one cell."""
    rep = Report("euler")
    for n in range(0, 21):
        rep.checked += 1
        result = sschart.euler_check(n)
        if not result["pass"]:
            rep.fail(f"n={n}: totals {result['totals']}")
        e_cells = [pos for pos, expr in sschart.build_E1(n).entries
                   if expr_dims(expr, "K")[4]]
        if e_cells != [(n, n)]:
            rep.fail(f"n={n}: level-e cells {e_cells} != [({n}, {n})]")
    return rep


# how many differential patterns the solver finds: one below n = 9
_PATTERN_COUNTS = {9: 2, 10: 6, 11: 80, 12: 386}


def suite_convergence():
    """For n <= 12 the solver finds the expected number of patterns; for
    n <= 10 the published differentials converge and are among them."""
    rep = Report("convergence")
    for n in range(0, 13):
        rep.checked += 1
        chart = sschart.build_E1(n)
        patterns = sschart.solve_differentials(chart)
        want = _PATTERN_COUNTS.get(n, 1)
        if len(patterns) != want:
            rep.fail(f"n={n}: expected {want} pattern(s), found {len(patterns)}")
        if n > 10:
            continue
        canned = sschart.canned_differentials(n)
        result = sschart.check_convergence(chart, canned)
        if not result["pass"]:
            rep.fail(f"n={n}: {result['failures'] or result['survivors']}")
        if tuple(sorted(canned)) not in patterns:
            rep.fail(f"n={n}: the published pattern is not among the solver's")
    return rep


SUITES = {
    "axioms": suite_axioms,
    "duality": suite_duality,
    "hk-oracle": suite_hk_oracle,
    "figure1": suite_figure1,
    "slices-restriction": suite_slices_restriction,
    "slice-homotopy": suite_slice_homotopy,
    "euler": suite_euler,
    "convergence": suite_convergence,
    "twistings": suite_twistings,
}


def run_suite(name, **kwargs):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return SUITES[name](**kwargs)
