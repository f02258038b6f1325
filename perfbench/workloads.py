"""The benchmark's four workloads: seeded inputs, the timed query, the check.

Every workload is a closed loop with one client.  Inputs come in rounds; a
run executes whole rounds, so each run sees the same mix of input sizes and
only the seed-chosen representatives differ.  The oracle workloads draw
their inputs without repeats within a run, so the oracle's result memo
(`bredon._homotopy_cached`) never hits.

The oracle inputs are stratified by the size of the sphere's cell complex
(see `stratified_rounds`).  Translating by the trivial summand `a` and
permuting the three characters leave the work unchanged (the counts of a
traced query differ by under 3%), so the sizes of a run are fixed and the
seed picks which of the equal-cost representations it computes: rounds cost
the same from seed to seed while their inputs differ.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

from kleinmackey import bredon, hk, mackey, sschart
from kleinmackey.groups import KLEIN
from kleinmackey.reps import RepK

LEVELS = KLEIN.levels


def cells(v):
    """Cells of the reduced K-complex of S^v, counted without building it.

    Each character sphere S^(n chi) has one fixed cell and |n| cells with
    the character's kernel as stabilizer.  A product of cells splits into
    [K : join of the stabilizers] orbits: one orbit, except for the |bcd|
    products of three non-fixed cells, which split into two.
    """
    b, c, d = abs(v.b), abs(v.c), abs(v.d)
    return (1 + b) * (1 + c) * (1 + d) + b * c * d


# ---------------------------------------------------------------------------
# seeded inputs


def stratified_rounds(rng, classes, per_round, a_range, make):
    """Rounds of `per_round` inputs, one from each stratum of size classes.

    A class is (coefficient, sorted (b, c, d)); its members are the
    representations RepK(a, b, c, d) for a in `a_range` and every order of
    (b, c, d), which cost the same.  The classes are sorted by
    (coefficient, cells) and cut into `per_round` contiguous strata; each
    stratum is put in a fixed order that does not depend on the seed.  Round
    r takes class r (cyclically) of every stratum, and the seed picks an
    unused member of it, so every seed runs the same sizes in the same
    rounds on different inputs.  A class whose members are used up leaves
    its stratum; the rounds end when a stratum is empty.
    """
    ordered = sorted(classes, key=lambda c: (c[0] or "", cells(RepK(0, *c[1])), c[1]))
    size = len(ordered) / per_round
    strata = [ordered[round(i * size):round((i + 1) * size)]
              for i in range(per_round)]
    fixed = random.Random(0)
    for stratum in strata:
        fixed.shuffle(stratum)
    unused = {}   # class -> its unused members, in seeded order
    for r in itertools.count():
        batch = []
        for stratum in strata:
            while stratum:
                cls = stratum[r % len(stratum)]
                if cls not in unused:
                    coeff, bcd = cls
                    unused[cls] = [RepK(a, *t) for a in a_range
                                   for t in sorted(set(itertools.permutations(bcd)))]
                    rng.shuffle(unused[cls])
                if unused[cls]:
                    batch.append(make(unused[cls].pop(), cls[0]))
                    break
                stratum.remove(cls)
            else:
                return
        rng.shuffle(batch)
        yield batch


def size_classes(bcd, coeffs):
    return [(coeff, t) for t in sorted({tuple(sorted(t)) for t in bcd})
            for coeff in coeffs]


def _oracle_input(v, coeff):
    return (v, coeff)


def oracle_box_rounds(rng):
    bcd = itertools.product(range(-3, 4), repeat=3)
    return stratified_rounds(rng, size_classes(bcd, ("F", "F*")), 84,
                             range(-4, 5), _oracle_input)


LARGE_COEFFS = ("F", "F*", "m", "mg", "mg*", "W")
LARGE_MAX_CELLS = 341   # the cells of 5(alpha+beta+gamma)


def oracle_large_rounds(rng):
    bcd = [t for t in itertools.product(range(-8, 9), repeat=3)
           if 5 <= max(map(abs, t)) <= 8
           and cells(RepK(0, *t)) <= LARGE_MAX_CELLS]
    return stratified_rounds(rng, size_classes(bcd, LARGE_COEFFS), 48,
                             range(-1, 2), _oracle_input)


def series_wide_rounds(rng):
    bcd = itertools.product(range(-6, 7), repeat=3)
    return stratified_rounds(rng, size_classes(bcd, (None,)), 100,
                             range(-4, 5), lambda v, coeff: v)


CHART_CAP = 50
CHART_COUNTS = {9: 2, 10: 6, 11: 80, 12: 386}   # uncapped pattern counts
CHART_CAPPED = (13, 14, 16)
# per round: n -> queries; p50 falls among the n = 11 queries and p90
# among the capped n = 16 ones, away from the edges of either block
CHART_MIX = {9: 3, 10: 3, 11: 4, 12: 1, 13: 1, 14: 1, 16: 7}


def charts_solve_rounds(rng):
    batch = [(n, CHART_CAP if n in CHART_CAPPED else None)
             for n, k in CHART_MIX.items() for _ in range(k)]
    while True:
        rng.shuffle(batch)
        yield list(batch)


# ---------------------------------------------------------------------------
# queries (timed)


def oracle_query(inp):
    v, coeff = inp
    table = bredon.homotopy(v, coeff)
    return table, {n: mackey.identify(m) for n, m in table.items()}


def series_query(v):
    return bredon.homotopy_level_series(v, "F", "K")


@dataclass
class Solved:
    chart: object
    patterns: list
    truncated: bool
    renders: dict


def charts_query(inp):
    n, cap = inp
    chart = sschart.build_E1(n)
    try:
        patterns, truncated = sschart.solve_differentials(chart, cap), False
    except sschart.PatternCapExceeded as exc:
        patterns, truncated = exc.patterns, True
    renders = {fmt: sschart.render(chart, fmt, patterns[0] if patterns else ())
               for fmt in ("text", "json", "svg")}
    return Solved(chart, patterns, truncated, renders)


# ---------------------------------------------------------------------------
# reference checks (untimed): each returns a list of failures and tallies
# outcomes that are not failures (unidentified degrees, truncated searches)


def closed_form_dims(v, coeff):
    """{level: {degree: dim}} from the closed forms.

    F* comes from F by duality: pi_n(S^v HF*) is dual to pi_-n(S^-v HF).
    """
    if coeff == "F":
        return {lv: p.as_dict() for lv, p in hk.poincare_K(v).items()}
    return {lv: {-n: k for n, k in p.as_dict().items()}
            for lv, p in hk.poincare_K(-v).items()}


def _oracle_dims(table):
    return {lv: {n: m.dims[i] for n, m in table.items() if m.dims[i]}
            for i, lv in enumerate(LEVELS)}


def _subgroup(name):
    return KLEIN.subgroups[name]


def _join(h, t):
    return frozenset(x ^ y for x in h for y in t)


# the character summand of v = (a, b, c, d) trivial on each cyclic subgroup:
# alpha on R, beta on L, gamma on D
_TRIVIAL_ON = {"R": 1, "L": 2, "D": 3}


def euler_reference(v, coeff):
    """Levelwise Euler characteristic of the Bredon chains of S^v.

    Computed from the marks of S^v alone: the H-fixed points form the
    sphere of V^H, so the mark is (-1)^dim V^H; Moebius inversion gives the
    orbit counts x_T, and level H of the orbit K/T contributes [K : HT]
    copies of M(H & T).
    """
    co = v.coeffs()
    fixed = {"K": co[0], "e": sum(co)}
    for h, idx in _TRIVIAL_ON.items():
        fixed[h] = co[0] + co[idx]
    mark = {h: (-1) ** (dim % 2) for h, dim in fixed.items()}
    x = {"K": mark["K"]}
    for h in _TRIVIAL_ON:
        x[h] = (mark[h] - x["K"]) // 2
    x["e"] = (mark["e"] - x["K"] - 2 * sum(x[h] for h in _TRIVIAL_ON)) // 4
    m = mackey.catalog(coeff)
    by_set = {_subgroup(lv): lv for lv in LEVELS}
    out = {}
    for h in LEVELS:
        total = 0
        for t, xt in x.items():
            hs, ts = _subgroup(h), _subgroup(t)
            total += xt * (4 // len(_join(hs, ts))) * m.dim(by_set[hs & ts])
        out[h] = total
    return out


def euler_of_homology(table):
    return {lv: sum((-1) ** (n % 2) * m.dims[i] for n, m in table.items())
            for i, lv in enumerate(LEVELS)}


def check_oracle(inp, result, outcome):
    v, coeff = inp
    table, names = result
    failures = []
    if coeff in ("F", "F*"):
        if _oracle_dims(table) != closed_form_dims(v, coeff):
            failures.append(f"{coeff} at {v.coeffs()}: dims differ from the closed form")
    else:
        for n, m in table.items():
            if mackey.check_axioms(m):
                failures.append(f"{coeff} at {v.coeffs()} degree {n}: axioms fail")
        if euler_of_homology(table) != euler_reference(v, coeff):
            failures.append(f"{coeff} at {v.coeffs()}: Euler characteristic differs")
    for n, expr in names.items():
        if expr is None:
            outcome["unidentified"] += 1
            continue
        outcome["identified"] += 1
        if mackey.expr_dims(expr) != table[n].dims:
            failures.append(f"{coeff} at {v.coeffs()} degree {n}: "
                            f"identified as {expr} with other dims")
    return failures


def check_series(v, series, outcome):
    if series != hk.poincare_K(v)["K"]:
        return [f"{v.coeffs()}: top series differs from the closed form"]
    return []


def check_charts(inp, solved, outcome):
    n, cap = inp
    failures = []
    for diffs in solved.patterns:
        if not sschart.check_convergence(solved.chart, diffs)["pass"]:
            failures.append(f"n={n}: a pattern does not converge")
            break
    if cap is None:
        if solved.truncated or len(solved.patterns) != CHART_COUNTS[n]:
            failures.append(f"n={n}: {len(solved.patterns)} patterns, "
                            f"expected {CHART_COUNTS[n]}")
        if n <= 10:
            canned = tuple(sorted(sschart.canned_differentials(n)))
            if canned not in solved.patterns:
                failures.append(f"n={n}: the published pattern is missing")
    else:
        outcome["truncated"] += solved.truncated
        if not solved.truncated or len(solved.patterns) != cap:
            failures.append(f"n={n}: {len(solved.patterns)} patterns, "
                            f"expected the cap {cap}")
    if json.loads(solved.renders["json"])["n"] != n or \
            not solved.renders["text"].startswith(f"chart n={n} ") or \
            not solved.renders["svg"].rstrip().endswith("</svg>"):
        failures.append(f"n={n}: rendering is malformed")
    outcome["patterns"] += len(solved.patterns)
    return failures


# ---------------------------------------------------------------------------


def _cells_stats(reps):
    sizes = [cells(v) for v in reps]
    return (f"cells per query min/median/max {min(sizes)}/"
            f"{statistics.median(sizes):g}/{max(sizes)}")


def _mix(values):
    return " ".join(f"{k}={n}" for k, n in sorted(Counter(values).items()))


def _describe_oracle(inputs):
    return f"{_cells_stats(v for v, _ in inputs)}; coeff mix {_mix(c for _, c in inputs)}"


def _describe_series(inputs):
    return f"{_cells_stats(inputs)}; coeff F at level K"


def _describe_charts(inputs):
    return f"n mix {_mix(n for n, _ in inputs)}; cap {CHART_CAP} on n in {CHART_CAPPED}"


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[random.Random], Iterator[list]]
    min_rounds: int       # rounds every run completes; >= 100 queries
    query: Callable
    check: Callable       # (input, result, outcome Counter) -> failures
    describe: Callable    # inputs -> one line of input statistics


WORKLOADS = {w.name: w for w in (
    Workload("oracle-box", oracle_box_rounds, 2, oracle_query, check_oracle,
             _describe_oracle),
    Workload("oracle-large", oracle_large_rounds, 3, oracle_query, check_oracle,
             _describe_oracle),
    Workload("series-wide", series_wide_rounds, 2, series_query, check_series,
             _describe_series),
    Workload("charts-solve", charts_solve_rounds, 6, charts_query, check_charts,
             _describe_charts),
)}


def rounds(workload, seed):
    """The seeded input rounds of a workload."""
    return workload.rounds(random.Random(f"{workload.name}/{seed}"))
