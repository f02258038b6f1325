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
from .mackey import (CATALOG_ATOMS, catalog, check_axioms, dual, direct_sum,
                     expr_dims, fingerprint, format_name_expr, identify,
                     mackey_from_json, parse_name_expr)
from .reps import RepC2, RepK, RHO_K


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


def suite_axioms(mackey_json=None, random_count=1000):
    """Catalog axioms, duality pairing, and randomized sum axioms."""
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
    for _ in range(random_count):
        picks = [atoms[rng.randrange(len(atoms))] for _ in range(rng.randrange(1, 5))]
        m = direct_sum([catalog(p) for p in picks])
        rep.checked += 1
        for f in check_axioms(m):
            rep.fail(f"{'+'.join(picks)}: {f}")
    return rep


def _box(box, a_box):
    """Representations with |a| <= a_box and |b|, |c|, |d| <= box."""
    if min(box, a_box) < 0:
        raise ValueError(f"box half-width must be nonnegative, got {min(box, a_box)}")
    rng = range(-box, box + 1)
    return itertools.product(range(-a_box, a_box + 1), rng, rng, rng)


def suite_hk_oracle(box=3, a_box=4):
    """Closed-form top-level series equals oracle graded dimensions."""
    rep = Report("hk-oracle")
    for a, b, c, d in _box(box, a_box):
        v = RepK(a, b, c, d)
        rep.checked += 1
        closed = hk.poincare_K(v)["K"]
        oracle = bredon.homotopy_level_series(v, "F", "K")
        if closed != oracle:
            rep.fail(f"{v.coeffs()}: closed {closed.pretty()} "
                     f"!= oracle {oracle.pretty()}")
    return rep


def suite_duality(box=2, a_box=None):
    """Dual coefficients against the reflected computation, full structure.

    a_box defaults to box: the default sweep is |a|, |b|, |c|, |d| <= 2.
    """
    rep = Report("duality")
    # The box is symmetric, so each sphere serves F* at v and F at -v: its
    # complex is built at its first use and dropped at its second.
    spare = {}

    def homotopy(v, coeff):
        cx = spare.pop(v, None)
        if cx is None:
            cx = spare[v] = bredon.sphere_complex(v)
        return bredon.homology(bredon.with_coefficients(cx, coeff))

    for a, b, c, d in _box(box, box if a_box is None else a_box):
        v = RepK(a, b, c, d)
        rep.checked += 1
        lhs = {n: fingerprint(m) for n, m in homotopy(v, "F*").items()}
        rhs = {-n: fingerprint(dual(m)) for n, m in homotopy(-v, "F").items()}
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
            if m is None:
                got = "0"
            else:
                expr = identify(m)
                got = format_name_expr(expr) if expr is not None else "?"
            want = _figure1_expected(n, k)
            if got != want:
                rep.fail(f"(n={n}, k={k}): got {got}, expected {want}")
    return rep


def suite_twistings():
    """The rho-desuspension and the two m-family twisting equivalences."""
    rep = Report("twistings")
    cases = [
        ("S^-rho HF = S^-4 HF*", -RHO_K, "F", RepK(-4, 0, 0, 0), "F*"),
        ("S^-rho Hm = S^-2 Hmg*", -RHO_K, "m", RepK(-2, 0, 0, 0), "mg*"),
        ("S^rho Hm* = S^2 Hmg", RHO_K, "m*", RepK(2, 0, 0, 0), "mg"),
    ]
    for label, v1, c1, v2, c2 in cases:
        rep.checked += 1
        lhs = {n: fingerprint(m) for n, m in bredon.homotopy(v1, c1).items()}
        rhs = {n: fingerprint(m) for n, m in bredon.homotopy(v2, c2).items()}
        if lhs != rhs:
            rep.fail(f"{label}: fingerprints differ")
    return rep


def suite_slices_restriction(n_max=20):
    """Klein slices restrict to the C2 slices on every cyclic subgroup."""
    rep = Report("slices-restriction")
    for n in range(0, n_max + 1):
        rep.checked += 1
        for f in slc.restriction_consistency(n):
            rep.fail(f)
    return rep


def suite_slice_homotopy(k_max=3):
    """Graded homotopy tables of the slice building blocks versus the oracle."""
    rep = Report("slice-homotopy")
    cases = []
    for k in range(1, k_max + 1):
        cases.append((RepK(k, k, k, k), "F"))
        cases.append((RepK(-k, -k, -k, -k), "F*"))
        cases.append((RepK(k, k, k, k), "f"))
        cases.append((RepK(k, k, k, k), "m"))
        cases.append((RepK(k, k, k, k), "mg"))
        cases.append((RepK(k + 1, k, k, k), "phiLDR(f)"))
    for v, coeff in cases:
        rep.checked += 1
        expr = parse_name_expr(coeff)
        try:
            formula = slc.graded_homotopy(v.a - v.b, v.b, expr)
            oracle = slc.oracle_homotopy(v, expr)
        except ValueError as exc:
            rep.fail(f"{coeff} at {v.coeffs()}: {exc}")
            continue
        if formula != oracle:
            rep.fail(f"{coeff} at {v.coeffs()}: table {formula} != oracle {oracle}")
    return rep


def suite_euler(n_max=20):
    """Euler characteristics of the E1 charts; level-e charts have one cell."""
    rep = Report("euler")
    for n in range(0, n_max + 1):
        rep.checked += 1
        result = sschart.euler_check(n)
        if not result["pass"]:
            rep.fail(f"n={n}: totals {result['totals']}")
        e_cells = [pos for pos, expr in sschart.build_E1(n).entries
                   if expr_dims(expr, "K")[4]]
        if e_cells != [(n, n)]:
            rep.fail(f"n={n}: level-e cells {e_cells} != [({n}, {n})]")
    return rep


def suite_convergence(n_max=10):
    """Canned differentials converge; the solver finds them uniquely."""
    rep = Report("convergence")
    for n in range(0, n_max + 1):
        rep.checked += 1
        chart = sschart.build_E1(n)
        result = sschart.check_convergence(chart, sschart.canned_differentials(n))
        if not result["pass"]:
            rep.fail(f"n={n}: {result['failures'] or result['survivors']}")
    for n in (5, 7, 8):
        rep.checked += 1
        patterns = sschart.solve_differentials(sschart.build_E1(n))
        if len(patterns) != 1:
            rep.fail(f"n={n}: expected a unique pattern, found {len(patterns)}")
        elif tuple(sorted(patterns[0])) != tuple(sorted(sschart.canned_differentials(n))):
            rep.fail(f"n={n}: unique pattern differs from the published one")
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
