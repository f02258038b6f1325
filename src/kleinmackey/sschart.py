"""Slice spectral sequence charts, differentials, and convergence.

Chart coordinates are (t, i) = (homotopy degree, slice dimension); a page-r
differential goes (t, i) -> (t - 1, i + r).  Convergence bookkeeping is
levelwise: a differential of rank tuple rho kills rho dimensions at its
source and rho at its target, and the spectral sequence converges when
everything except the constant functor at (n, n) dies.

The solver enumerates exact cancellation patterns.  Rank tuples of a
candidate differential are constrained to those realized by actual maps
between the named source and target functors, which
mackey.rank_tuples_of_hom computes exactly from the hom space.  The search
walks the pairs in a fixed order over numbered cells.  A cell's budget (what
it still has to lose, per level) is one int with a guard bit above each
level's field, so one subtraction and one mask compare a rank tuple with it
at every level.  At each pair the search looks up its moves in a table keyed
by the two cells' budgets, and it chooses differentials by their number in
sorted order.  Tables and numbers live for one call only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .groups import group_by_name
from .mackey import (display_terms, expr_dims, expr_to_mackey,
                     format_name_expr, rank_tuples_of_hom)
from .slices import homotopy_of_slice, slice_cells


@dataclass(frozen=True, order=True)
class Differential:
    r: int
    src: tuple       # (t, i)
    tgt: tuple       # (t - 1, i + r)
    ranks: tuple     # per level

    def as_dict(self, levels):
        return {"r": self.r, "from": list(self.src), "to": list(self.tgt),
                "ranks": {lv: rk for lv, rk in zip(levels, self.ranks)}}


@dataclass(frozen=True)
class Chart:
    group: str
    n: int
    entries: tuple   # sorted ((t, i), name-expr)

    @property
    def gd(self):
        return group_by_name(self.group)

    def entry_map(self):
        return dict(self.entries)

    def dims(self):
        return {pos: expr_dims(expr, self.group) for pos, expr in self.entries}


def build_E1(n, group="K"):
    """First-page chart: homotopy of every nontrivial slice."""
    entries = {}
    for cell in slice_cells(n, group):
        for t, names in homotopy_of_slice(cell).items():
            entries[(t, cell.i)] = names
    return Chart(group, n, tuple(sorted(entries.items())))


# ---------------------------------------------------------------------------
# realizable rank tuples between named entries


@lru_cache(maxsize=None)
def achievable_tuples(src_expr, tgt_expr, group):
    """Levelwise rank tuples of actual functor maps src -> tgt."""
    return frozenset(rank_tuples_of_hom(expr_to_mackey(src_expr, group),
                                        expr_to_mackey(tgt_expr, group)))


# ---------------------------------------------------------------------------
# canned differentials (the published patterns for n = 5..10)


_CANNED = {
    5: [(1, (4, 5), (3, 6), (2, 1, 1, 1, 0)),
        (2, (3, 6), (2, 8), (1, 0, 0, 0, 0))],
    6: [(2, (5, 6), (4, 8), (2, 1, 1, 1, 0)),
        (4, (4, 8), (3, 12), (1, 0, 0, 0, 0))],
    7: [(1, (4, 7), (3, 8), (1, 0, 0, 0, 0)),
        (1, (5, 7), (4, 8), (3, 1, 1, 1, 0)),
        (2, (4, 10), (3, 12), (3, 0, 0, 0, 0)),
        (3, (6, 7), (5, 10), (2, 1, 1, 1, 0)),
        (6, (5, 10), (4, 16), (1, 0, 0, 0, 0))],
    8: [(2, (4, 10), (3, 12), (2, 0, 0, 0, 0)),
        (2, (5, 8), (4, 10), (1, 0, 0, 0, 0)),
        (2, (6, 8), (5, 10), (3, 1, 1, 1, 0)),
        (4, (5, 12), (4, 16), (3, 0, 0, 0, 0)),
        (4, (7, 8), (6, 12), (2, 1, 1, 1, 0)),
        (8, (6, 12), (5, 20), (1, 0, 0, 0, 0))],
    9: [(1, (6, 9), (5, 10), (3, 1, 1, 1, 0)),
        (1, (5, 9), (4, 10), (2, 0, 0, 0, 0)),
        (2, (5, 14), (4, 16), (3, 0, 0, 0, 0)),
        (2, (4, 10), (3, 12), (1, 0, 0, 0, 0)),
        (3, (7, 9), (6, 12), (3, 1, 1, 1, 0)),
        (3, (6, 9), (5, 12), (1, 0, 0, 0, 0)),
        (4, (5, 12), (4, 16), (2, 0, 0, 0, 0)),
        (5, (8, 9), (7, 14), (2, 1, 1, 1, 0)),
        (6, (6, 14), (5, 20), (3, 0, 0, 0, 0)),
        (10, (7, 14), (6, 24), (1, 0, 0, 0, 0))],
    10: [(2, (7, 10), (6, 12), (3, 1, 1, 1, 0)),
         (2, (6, 10), (5, 12), (2, 0, 0, 0, 0)),
         (2, (5, 14), (4, 16), (3, 0, 0, 0, 0)),
         (4, (8, 10), (7, 14), (3, 1, 1, 1, 0)),
         (4, (7, 10), (6, 14), (1, 0, 0, 0, 0)),
         (4, (6, 16), (5, 20), (3, 0, 0, 0, 0)),
         (4, (5, 12), (4, 16), (1, 0, 0, 0, 0)),
         (6, (9, 10), (8, 16), (2, 1, 1, 1, 0)),
         (6, (6, 14), (5, 20), (2, 0, 0, 0, 0)),
         (8, (7, 16), (6, 24), (3, 0, 0, 0, 0)),
         (12, (8, 16), (7, 28), (1, 0, 0, 0, 0))],
}


def canned_differentials(n):
    """The published differential pattern for n <= 10.

    For n = 7 and 8 the text asserts a unique possible pattern rather than
    listing it; the stored pattern is the solver's only one, and
    verify.suite_convergence checks that it is still the only one.
    """
    if not 0 <= n <= 10:
        raise ValueError("canned differentials exist only for 0 <= n <= 10")
    return tuple(Differential(r, s, t, rk) for r, s, t, rk in _CANNED.get(n, ()))


# ---------------------------------------------------------------------------
# convergence and the solver


def expected_survivors(chart):
    """E-infinity target: the constant functor at (n, n), nothing else."""
    one = (("F", 1),)
    return {(chart.n, chart.n): expr_dims(one, chart.group)}


def check_convergence(chart, diffs):
    """Run levelwise page bookkeeping; report survivors and pass/fail."""
    gd = chart.gd
    nlev = len(gd.levels)
    dims = chart.dims()
    for d in diffs:
        if d.tgt != (d.src[0] - 1, d.src[1] + d.r):
            raise ValueError(f"malformed differential {d}")
        if d.src not in dims or d.tgt not in dims:
            raise ValueError(f"differential touches an empty cell: {d}")
    alive = {pos: list(v) for pos, v in dims.items()}
    failures = []
    for r in sorted({d.r for d in diffs}):
        flow = {}
        for d in diffs:
            if d.r != r:
                continue
            for pos in (d.src, d.tgt):
                f = flow.setdefault(pos, [0] * nlev)
                for j, rk in enumerate(d.ranks):
                    f[j] += rk
        for pos, used in flow.items():
            for j in range(nlev):
                if used[j] > alive[pos][j]:
                    failures.append(
                        f"page {r}: cell {pos} level {gd.levels[j]} over-killed")
                alive[pos][j] -= used[j]
    survivors = {pos: tuple(v) for pos, v in alive.items() if any(x > 0 for x in v)}
    expected = expected_survivors(chart)
    ok = not failures and survivors == {
        pos: tuple(v) for pos, v in expected.items()}
    return {"pass": ok, "survivors": survivors, "failures": failures}


class PatternCapExceeded(RuntimeError):
    """Search stopped early; .patterns holds those found before the cap."""

    def __init__(self, patterns):
        super().__init__(f"more than {len(patterns)} differential patterns")
        self.patterns = patterns


# The most chart pairs the solver takes: K n = 32 has 895 and n = 33 has 1017.
MAX_SOLVE_PAIRS = 1000


def solve_differentials(chart, cap=20000):
    """All exact cancellation patterns compatible with functor-map ranks.

    Within a pattern every non-surviving dimension is killed exactly once,
    so patterns form an antichain and each one is minimal.  Exact budgets
    make every pattern page-feasible: a cell's use on its first pages is at
    most its total use, which is at most its dimension.  Raises
    PatternCapExceeded, carrying the first cap patterns found, when there
    are more than cap; cap=None lists them all.  ValueError, naming the
    count, for a chart of more than MAX_SOLVE_PAIRS pairs.

    Cells are numbered and their budgets kept in a list.  A budget is one
    int with a field per level, level 0 lowest, and a guard bit above each
    field; the fields are as wide as the largest room, which bounds every
    budget and rank, so no field borrows from the next.  With G the guard
    bits, ((b | G) - x) & G == G holds iff x <= b at every level; rooms are
    kept as room | G to test b - x <= room the same way.  Each pair fills,
    on first visit with a given (source budget, target budget), a table of
    its admissible moves: the candidates chosen (one number, or none for
    the zero map) and the two budgets after, in the pair's sorted tuple
    order.  The numbers follow the sorted order of the chart's candidate
    differentials, so sorting int tuples sorts the patterns; they become
    Differentials once, on the way out.  The path is a list, not the call
    stack.  The tables and the numbering are dropped when the call returns.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    nlev = len(chart.gd.levels)
    dims = chart.dims()
    entries = sorted(dims)
    want = expected_survivors(chart)
    budget = [tuple(d - w for d, w in zip(dims[pos], want.get(pos, (0,) * nlev)))
              for pos in entries]
    if any(b < 0 for left in budget for b in left):
        return []

    pairs = [(src, tgt) for src in entries for tgt in entries
             if tgt[0] == src[0] - 1 and tgt[1] > src[1]]
    if len(pairs) > MAX_SOLVE_PAIRS:
        raise ValueError(f"chart n={chart.n} has {len(pairs)} differential pairs; "
                         f"the solver takes at most {MAX_SOLVE_PAIRS}")
    pairs.sort(key=lambda p: (-p[0][0], p[0][1], p[1][1]))
    emap = chart.entry_map()
    cell = {pos: k for k, pos in enumerate(entries)}

    # room[k]: per level, the most the pairs not yet passed can still remove
    # from cell k, filled from the last pair back.  A branch whose budget
    # exceeds the room of a cell its pair touches has no pattern below it;
    # at a cell's last pair the room is zero, so every leaf reached has
    # spent every budget exactly.
    room = [(0,) * nlev for _ in entries]
    steps = []
    for src, tgt in reversed(pairs):
        s, t = cell[src], cell[tgt]
        tuples = sorted(achievable_tuples(emap[src], emap[tgt], chart.group))
        steps.append((src, tgt, tuples, room[s], room[t]))
        top = [max(col) for col in zip(*tuples)]
        for k in (s, t):
            room[k] = tuple(a + b for a, b in zip(room[k], top))
    steps.reverse()
    # room is now what all pairs together can remove: a cell they cannot
    # empty, such as one no pair touches, leaves no pattern at all
    if any(b > r for left, most in zip(budget, room) for b, r in zip(left, most)):
        return []

    # every nonzero differential the pairs allow, numbered in sorted order,
    # so the search chooses and sorts ints; a move carries its number as a
    # 1-tuple, the zero map's as ()
    cands = sorted((tgt[1] - src[1], src, tgt, ranks)
                   for src, tgt, tuples, _, _ in steps for ranks in tuples
                   if any(ranks))
    number = {c[1:]: (k,) for k, c in enumerate(cands)}
    cands = [Differential(*c) for c in cands]

    # the largest room bounds every budget (checked above) and every rank
    width = max((x for most in room for x in most), default=0).bit_length() + 1

    def pack(values):
        packed = 0
        for x in reversed(values):
            packed = packed << width | x
        return packed

    guard = pack([1 << (width - 1)] * nlev)
    budget = [pack(left) for left in budget]
    steps = [(cell[src], cell[tgt],
              [(number.get((src, tgt, ranks), ()), pack(ranks)) for ranks in tuples],
              pack(room_s) | guard, pack(room_t) | guard, {})
             for src, tgt, tuples, room_s, room_t in steps]

    # path: one entry per step entered, with its untried moves, its two
    # cells, their budgets before it, and how many candidates precede it
    patterns, chosen, path = [], [], []
    while True:
        if len(path) < len(steps):
            s, t, options, room_s, room_t, table = steps[len(path)]
            bs, bt = budget[s], budget[t]
            moves = table.get((bs, bt))
            if moves is None:
                # ranks fit both budgets and leave each no more than its
                # room; the last two checks are exact once the first two hold
                gs, gt, ls, lt = bs | guard, bt | guard, room_s - bs, room_t - bt
                moves = table[bs, bt] = [
                    (picks, bs - x, bt - x) for picks, x in options
                    if (gs - x) & guard == guard and (gt - x) & guard == guard
                    and (ls + x) & guard == guard and (lt + x) & guard == guard]
            path.append((iter(moves), s, t, bs, bt, len(chosen)))
        elif len(patterns) == cap:
            raise PatternCapExceeded([tuple(cands[k] for k in p)
                                      for p in sorted(patterns)])
        else:
            patterns.append(tuple(sorted(chosen)))
        # back up to the deepest step with an untried move, and take it
        while path and (move := next(path[-1][0], None)) is None:
            _, s, t, bs, bt, _ = path.pop()
            budget[s], budget[t] = bs, bt
        if not path:
            break
        _, s, t, _, _, mark = path[-1]
        picks, budget[s], budget[t] = move
        chosen[mark:] = picks
    return [tuple(cands[k] for k in p) for p in sorted(patterns)]


def first_solution(chart, cap):
    """The first solver pattern, or (), and a note on how many there are."""
    try:
        patterns = solve_differentials(chart, cap=cap)
        note = f"{len(patterns)} consistent pattern(s)"
    except PatternCapExceeded as exc:
        patterns = exc.patterns
        note = f"more than {len(patterns)} patterns (truncated)"
    return (patterns[0] if patterns else ()), note


def euler_check(n):
    """Alternating sum of chart dimensions must be (-1)^n at every level."""
    chart = build_E1(n)
    gd = chart.gd
    nlev = len(gd.levels)
    totals = [0] * nlev
    for (t, _), expr in chart.entries:
        sign = -1 if t % 2 else 1
        for j, d in enumerate(expr_dims(expr)):
            totals[j] += sign * d
    want = -1 if n % 2 else 1
    failures = [gd.levels[j] for j in range(nlev) if totals[j] != want]
    return {"pass": not failures, "totals": dict(zip(gd.levels, totals)),
            "failures": failures}


# ---------------------------------------------------------------------------
# rendering


_CHART_GLYPHS = {f"phiLDR({x})": f"p{x}" for x in ("F", "F*", "f")}


def _glyph(expr):
    return "+".join(display_terms(expr, _CHART_GLYPHS))


def _render_text(chart, diffs, note):
    tail = f"solver: {note}\n" if note else ""
    emap = chart.entry_map()
    if not emap:
        return f"chart n={chart.n} over {chart.group}: empty\n" + tail
    ts = sorted({t for t, _ in emap})
    islices = sorted({i for _, i in emap}, reverse=True)
    cells = {pos: _glyph(expr) for pos, expr in emap.items()}
    width = max(max(len(v) for v in cells.values()) + 1, 6)
    lines = [f"chart n={chart.n} over {chart.group}  (columns t = "
             f"{ts[0]}..{ts[-1]}, rows i)"]
    header = "  i\\t|" + "".join(f"{t:>{width}}" for t in ts)
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for i in islices:
        row = f"{i:>5}|"
        for t in ts:
            row += f"{cells.get((t, i), ''):>{width}}"
        lines.append(row.rstrip())
    if diffs:
        lines.append("differentials:")
        levels = chart.gd.levels
        for d in diffs:
            ranks = ",".join(f"{lv}={rk}" for lv, rk in zip(levels, d.ranks) if rk)
            lines.append(f"  d{d.r}: {d.src} -> {d.tgt}  [{ranks}]")
    return "\n".join(lines) + "\n" + tail


def _render_json(chart, diffs, note):
    doc = {
        "group": chart.group,
        "n": chart.n,
        "entries": [{"t": t, "i": i, "mackey": format_name_expr(expr)}
                    for (t, i), expr in chart.entries],
        "differentials": [d.as_dict(chart.gd.levels) for d in diffs],
    }
    if note:
        doc["solver"] = note
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_SVG_CELL = 40


def _render_svg(chart, diffs, note):
    emap = chart.entry_map()
    ts = sorted({t for t, _ in emap}) or [0]
    islices = sorted({i for _, i in emap}) or [0]
    c = _SVG_CELL
    left, top = 60, 30
    width = left + c * (len(ts) + 1)
    legend_h = 24
    height = top + c * (len(islices) + 1) + legend_h + 20
    note_h = 16 if note else 0

    def x_of(t):
        return left + c // 2 + c * ts.index(t)

    def y_of(i):
        return top + c // 2 + c * (len(islices) - 1 - islices.index(i))

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
               f'height="{height + note_h}" font-family="monospace" font-size="11">')
    out.append('<defs><marker id="arr" viewBox="0 0 8 8" refX="7" refY="4" '
               'markerWidth="6" markerHeight="6" orient="auto">'
               '<path d="M0,0 L8,4 L0,8 z"/></marker></defs>')
    out.append(f'<text x="{left}" y="16">slice spectral sequence, n={chart.n}, '
               f'group {chart.group} (t across, i up)</text>')
    for t in ts:
        out.append(f'<text x="{x_of(t) - 4}" y="{top + c * len(islices) + 16}">'
                   f'{t}</text>')
    for i in islices:
        out.append(f'<text x="10" y="{y_of(i) + 4}">{i}</text>')
    for t in ts:
        for i in islices:
            if (t, i) in emap:
                out.append(f'<rect x="{x_of(t) - c // 2 + 2}" '
                           f'y="{y_of(i) - c // 2 + 2}" width="{c - 4}" '
                           f'height="{c - 4}" fill="#eef" stroke="#99c"/>')
                out.append(f'<text x="{x_of(t) - c // 2 + 5}" y="{y_of(i) + 4}">'
                           f'{_glyph(emap[(t, i)])}</text>')
    for d in diffs:
        x1, y1 = x_of(d.src[0]), y_of(d.src[1])
        x2, y2 = x_of(d.tgt[0]), y_of(d.tgt[1])
        out.append(f'<line x1="{x1 - 8}" y1="{y1 - 8}" x2="{x2 + 8}" '
                   f'y2="{y2 + 8}" stroke="#c33" marker-end="url(#arr)"/>')
        out.append(f'<text x="{(x1 + x2) // 2}" y="{(y1 + y2) // 2 - 2}" '
                   f'fill="#c33">d{d.r}</text>')
    legend = ("glyphs: F constant, F* dual, mg two-dim quotient, "
              "pX three-fold inflation of X, g geometric, f free")
    out.append(f'<text x="{left}" y="{height - 8}">{legend}</text>')
    if note:
        out.append(f'<text x="{left}" y="{height + 8}">solver: {note}</text>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


_RENDERERS = {"text": _render_text, "json": _render_json, "svg": _render_svg}


def render(chart, fmt="text", diffs=(), note=None):
    """The chart as text, JSON or SVG, with diffs drawn in (page, source)
    order, and note (a solver summary) written below."""
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown render format {fmt!r}")
    return _RENDERERS[fmt](chart, sorted(diffs, key=lambda d: (d.r, d.src)), note)
