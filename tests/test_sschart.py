import gc
import importlib.util
import json
from pathlib import Path

import pytest

from kleinmackey import sschart as ss
from kleinmackey.mackey import format_name_expr


def entry_names(chart):
    return {pos: format_name_expr(e) for pos, e in chart.entries}


def diff_set(diffs):
    return {(d.r, d.src, d.tgt, d.ranks) for d in diffs}


def test_build_E1_examples():
    c = ss.build_E1(5)
    assert entry_names(c) == {(5, 5): "F", (4, 5): "mg",
                              (3, 6): "phiLDR(F)", (2, 8): "g"}
    c0 = ss.build_E1(0)
    assert entry_names(c0) == {(0, 0): "F"}
    c9 = ss.build_E1(9)
    assert entry_names(c9)[(6, 9)] == "phiLDR(F) + g"


def test_build_E1_c2():
    c = ss.build_E1(5, "C2")
    assert entry_names(c) == {(5, 5): "F", (4, 5): "g", (3, 6): "g"}


def test_canned_examples():
    assert ss.canned_differentials(4) == ()
    d5 = ss.canned_differentials(5)
    assert diff_set(d5) == {
        (1, (4, 5), (3, 6), (2, 1, 1, 1, 0)),
        (2, (3, 6), (2, 8), (1, 0, 0, 0, 0)),
    }
    d9 = diff_set(ss.canned_differentials(9))
    assert (3, (6, 9), (5, 12), (1, 0, 0, 0, 0)) in d9
    d10 = diff_set(ss.canned_differentials(10))
    assert (2, (6, 10), (5, 12), (2, 0, 0, 0, 0)) in d10
    assert (4, (7, 10), (6, 14), (1, 0, 0, 0, 0)) in d10
    with pytest.raises(ValueError):
        ss.canned_differentials(11)


def test_canned_convention():
    for n in range(0, 11):
        for d in ss.canned_differentials(n):
            assert d.tgt == (d.src[0] - 1, d.src[1] + d.r)
            assert d.r >= 1


def test_solver_unique_patterns():
    for n in (5, 6, 7, 8):
        patterns = ss.solve_differentials(ss.build_E1(n))
        assert len(patterns) == 1, n
        assert diff_set(patterns[0]) == diff_set(ss.canned_differentials(n)), n


def test_solver_n7_n8_hand_derived():
    assert diff_set(ss.canned_differentials(7)) == {
        (1, (5, 7), (4, 8), (3, 1, 1, 1, 0)),
        (1, (4, 7), (3, 8), (1, 0, 0, 0, 0)),
        (2, (4, 10), (3, 12), (3, 0, 0, 0, 0)),
        (3, (6, 7), (5, 10), (2, 1, 1, 1, 0)),
        (6, (5, 10), (4, 16), (1, 0, 0, 0, 0)),
    }
    assert diff_set(ss.canned_differentials(8)) == {
        (2, (6, 8), (5, 10), (3, 1, 1, 1, 0)),
        (2, (5, 8), (4, 10), (1, 0, 0, 0, 0)),
        (2, (4, 10), (3, 12), (2, 0, 0, 0, 0)),
        (4, (7, 8), (6, 12), (2, 1, 1, 1, 0)),
        (4, (5, 12), (4, 16), (3, 0, 0, 0, 0)),
        (8, (6, 12), (5, 20), (1, 0, 0, 0, 0)),
    }


def test_solver_n9_ambiguity():
    patterns = ss.solve_differentials(ss.build_E1(9))
    assert len(patterns) == 2
    canned = diff_set(ss.canned_differentials(9))
    sets = [diff_set(p) for p in patterns]
    assert canned in sets
    other = next(s for s in sets if s != canned)
    # the alternative routes the geometric summand by the longer jump
    assert (5, (6, 9), (5, 14), (1, 0, 0, 0, 0)) in other
    assert (3, (6, 9), (5, 12), (1, 0, 0, 0, 0)) not in other


def test_solver_cap():
    with pytest.raises(ss.PatternCapExceeded) as exc:
        ss.solve_differentials(ss.build_E1(10), cap=2)
    assert len(exc.value.patterns) == 2


def test_solver_cap_counts_exactly():
    # a cap equal to the number of patterns is no truncation
    assert len(ss.solve_differentials(ss.build_E1(12), cap=386)) == 386
    assert len(ss.solve_differentials(ss.build_E1(11), cap=80)) == 80
    with pytest.raises(ss.PatternCapExceeded) as exc:
        ss.solve_differentials(ss.build_E1(12), cap=385)
    assert len(exc.value.patterns) == 385
    assert exc.value.patterns == sorted(exc.value.patterns)
    assert str(exc.value) == "more than 385 differential patterns"
    with pytest.raises(ValueError):
        ss.solve_differentials(ss.build_E1(9), cap=-1)


def test_solver_cap_zero():
    # n = 0 has no pairs and one empty pattern, so cap 0 truncates it too
    for n in (0, 4, 9):
        with pytest.raises(ss.PatternCapExceeded) as exc:
            ss.solve_differentials(ss.build_E1(n), cap=0)
        assert exc.value.patterns == []
    assert ss.first_solution(ss.build_E1(9), 0) == ((), "more than 0 patterns (truncated)")
    assert ss.first_solution(ss.build_E1(0), 1)[1] == "1 consistent pattern(s)"


def test_solver_frees_its_tables_on_return():
    # the search's tables must go when the call returns or raises, not wait
    # for the cyclic collector
    chart = ss.build_E1(12)
    ss.solve_differentials(chart)
    gc.collect()
    gc.disable()
    try:
        for cap in (None, 0, 5):
            try:
                ss.solve_differentials(chart, cap=cap)
            except ss.PatternCapExceeded:
                pass
            assert gc.collect() == 0, cap
    finally:
        gc.enable()


def _nested(depth, fn):
    """fn() called from depth extra stack frames."""
    return fn() if depth == 0 else _nested(depth - 1, fn)


def test_solver_refusal_depends_only_on_the_chart(monkeypatch):
    # n = 32 (895 pairs) answers under a deep caller; n = 33 (1017 pairs) is
    # refused, naming its count, from any depth and before any hom space
    chart = ss.build_E1(32)
    assert _nested(200, lambda: ss.first_solution(chart, 1))[1] == \
        "more than 1 patterns (truncated)"

    def never(*args):
        raise AssertionError("a hom space was computed past the pair bound")

    monkeypatch.setattr(ss, "achievable_tuples", never)
    chart = ss.build_E1(33)
    for depth in (0, 200):
        with pytest.raises(ValueError, match=" 1017 "):
            _nested(depth, lambda: ss.solve_differentials(chart, cap=1))


def _reference_solve(chart, cap=20000):
    """The solver as it was before pruning by remaining capacity.

    It prunes only when a source cell's last pair leaves budget behind, and
    checks budgets and page feasibility at each leaf.
    """
    nlev = len(chart.gd.levels)
    dims = chart.dims()
    entries = sorted(dims)
    survivors = ss.expected_survivors(chart)
    budget = {}
    for pos in entries:
        want = survivors.get(pos, (0,) * nlev)
        if any(w > d for w, d in zip(want, dims[pos])):
            return []
        budget[pos] = [d - w for d, w in zip(dims[pos], want)]
    pairs = [(src, tgt) for src in entries for tgt in entries
             if tgt[0] == src[0] - 1 and tgt[1] > src[1]]
    pairs.sort(key=lambda p: (-p[0][0], p[0][1], p[1][1]))
    emap = chart.entry_map()
    choices = [(src, tgt, sorted(ss.achievable_tuples(emap[src], emap[tgt],
                                                      chart.group)))
               for src, tgt in pairs]
    last_pair_of_source = {src: idx for idx, (src, _, _) in enumerate(choices)}
    patterns = []

    def page_feasible(assign):
        flows = {}
        for (src, tgt), ranks in assign.items():
            r = tgt[1] - src[1]
            flows.setdefault(src, []).append((r, ranks))
            flows.setdefault(tgt, []).append((r, ranks))
        for pos, fl in flows.items():
            for j in range(nlev):
                left = dims[pos][j]
                for r in sorted({x[0] for x in fl}):
                    used = sum(rk[j] for rr, rk in fl if rr == r)
                    if used > left:
                        return False
                    left -= used
        return True

    def dfs(idx, assign):
        if cap is not None and len(patterns) >= cap:
            raise ss.PatternCapExceeded(sorted(patterns))
        if idx == len(choices):
            if all(all(x == 0 for x in b) for b in budget.values()) and \
                    page_feasible(assign):
                patterns.append(tuple(sorted(
                    ss.Differential(tgt[1] - src[1], src, tgt, ranks)
                    for (src, tgt), ranks in assign.items() if any(ranks))))
            return
        src, tgt, tuples = choices[idx]
        bs, bt = budget[src], budget[tgt]
        for ranks in tuples:
            if any(r > bs[j] or r > bt[j] for j, r in enumerate(ranks)):
                continue
            for j, r in enumerate(ranks):
                bs[j] -= r
                bt[j] -= r
            if any(ranks):
                assign[(src, tgt)] = ranks
            if last_pair_of_source.get(src) != idx or \
                    all(x == 0 for x in budget[src]):
                dfs(idx + 1, assign)
            assign.pop((src, tgt), None)
            for j, r in enumerate(ranks):
                bs[j] += r
                bt[j] += r

    dfs(0, {})
    return sorted(patterns)


PATTERN_COUNTS = {9: 2, 10: 6, 11: 80, 12: 386}


@pytest.mark.parametrize("group,n", [("K", n) for n in range(13)] +
                         [("C2", n) for n in range(11)])
def test_solver_matches_reference(group, n):
    chart = ss.build_E1(n, group)
    patterns = ss.solve_differentials(chart)
    assert patterns == _reference_solve(chart)
    if group == "K" and n in PATTERN_COUNTS:
        assert len(patterns) == PATTERN_COUNTS[n]
    for diffs in patterns:
        assert ss.check_convergence(chart, diffs)["pass"], diffs


@pytest.mark.parametrize("n", [13, 14, 16])
def test_solver_capped_prefix_matches_reference(n):
    chart = ss.build_E1(n)
    found = []
    for solve in (ss.solve_differentials, _reference_solve):
        with pytest.raises(ss.PatternCapExceeded) as exc:
            solve(chart, cap=50)
        found.append(exc.value.patterns)
    assert found[0] == found[1] and len(found[0]) == 50
    for diffs in found[0]:
        assert ss.check_convergence(chart, diffs)["pass"], diffs


def test_convergence_pass_and_fail():
    chart = ss.build_E1(5)
    assert ss.check_convergence(chart, ss.canned_differentials(5))["pass"]
    result = ss.check_convergence(chart, ())
    assert not result["pass"]
    assert set(result["survivors"]) == {(5, 5), (4, 5), (3, 6), (2, 8)}
    assert ss.check_convergence(ss.build_E1(10),
                                ss.canned_differentials(10))["pass"]
    with pytest.raises(ValueError):
        bad = ss.Differential(1, (4, 5), (3, 7), (1, 0, 0, 0, 0))
        ss.check_convergence(chart, (bad,))


def test_euler_examples():
    rep = ss.euler_check(5)
    assert rep["pass"] and rep["totals"]["K"] == -1
    assert ss.euler_check(0)["totals"] == {"K": 1, "L": 1, "D": 1, "R": 1, "e": 1}
    assert ss.euler_check(20)["pass"]


def test_level_e_single_cell():
    from kleinmackey.mackey import expr_dims
    for n in range(0, 14):
        chart = ss.build_E1(n)
        cells = [pos for pos, expr in chart.entries if expr_dims(expr, "K")[4]]
        assert cells == [(n, n)], n


def test_render_text():
    chart = ss.build_E1(5)
    text = ss.render(chart, "text", ss.canned_differentials(5))
    populated = sum(line.count("F") + line.count("mg") + line.count("g")
                    for line in text.splitlines() if "|" in line)
    assert "d1: (4, 5) -> (3, 6)" in text
    assert "d2: (3, 6) -> (2, 8)" in text
    assert len([ln for ln in text.splitlines() if ln.startswith("  d")]) == 2
    empty = ss.Chart("K", 0, ())
    assert ss.render(empty, "text") == "chart n=0 over K: empty\n"
    with pytest.raises(ValueError):
        ss.render(chart, "png")


def test_render_json_schema():
    chart = ss.build_E1(5)
    doc = json.loads(ss.render(chart, "json", ss.canned_differentials(5)))
    assert doc["n"] == 5
    assert {"t": 5, "i": 5, "mackey": "F"} in doc["entries"]
    assert doc["differentials"][0] == {
        "r": 1, "from": [4, 5], "to": [3, 6],
        "ranks": {"K": 2, "L": 1, "D": 1, "R": 1, "e": 0}}


def test_render_svg_deterministic():
    chart = ss.build_E1(10)
    svg1 = ss.render(chart, "svg", ss.canned_differentials(10))
    svg2 = ss.render(chart, "svg", ss.canned_differentials(10))
    assert svg1 == svg2
    assert svg1.startswith("<svg") and svg1.rstrip().endswith("</svg>")
    assert svg1.count("<rect") == len(chart.entries)
    assert svg1.count("<line") == len(ss.canned_differentials(10))


def test_achievable_tuples_structure():
    phi = (("phiD(F)", 1), ("phiL(F)", 1), ("phiR(F)", 1))
    phig = tuple(sorted(phi + (("g", 1),)))
    mg = (("mg", 1),)
    gg = (("g", 3),)
    # full diagonal forces top rank three between inflation triples
    tuples = ss.achievable_tuples(phi, phi, "K")
    assert (3, 1, 1, 1, 0) in tuples and (2, 1, 1, 1, 0) not in tuples
    # the embedded quotient reaches rank two at the top on full lower ranks
    tuples = ss.achievable_tuples(mg, phi, "K")
    assert (2, 1, 1, 1, 0) in tuples and (3, 1, 1, 1, 0) not in tuples
    # geometric summands cannot enter the inflation triple
    tuples = ss.achievable_tuples(gg, phi, "K")
    assert tuples == {(0, 0, 0, 0, 0)}
    # but flow freely between geometric entries
    tuples = ss.achievable_tuples(gg, (("g", 2),), "K")
    assert tuples == {(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 0, 0, 0, 0)}
    # the extra geometric summand raises the reachable top rank by one
    tuples = ss.achievable_tuples(phig, phi, "K")
    assert (3, 1, 1, 1, 0) in tuples and (4, 1, 1, 1, 0) not in tuples
    # the identity of the constant functor has full rank everywhere
    assert (1, 1, 1, 1, 1) in ss.achievable_tuples((("F", 1),), (("F", 1),), "K")
    # over C2 a geometric summand maps onto the top of F* and onto g
    for k in (1, 2, 3):
        for tgt in ((("F*", 1),), (("F", 1), ("g", 1))):
            assert (1, 0) in ss.achievable_tuples((("g", k),), tgt, "C2")


def test_render_svg_golden_n10():
    import os
    chart = ss.build_E1(10)
    svg = ss.render(chart, "svg", ss.canned_differentials(10))
    golden = os.path.join(os.path.dirname(__file__), "golden", "chart_n10.svg")
    assert svg == open(golden, encoding="utf-8").read()


def test_c2_charts_converge():
    for n in range(0, 11):
        chart = ss.build_E1(n, "C2")
        patterns = ss.solve_differentials(chart)
        assert patterns, n
        assert ss.check_convergence(chart, patterns[0])["pass"], n


def test_make_charts_writes_the_solver_note(tmp_path, monkeypatch):
    # n = 5 renders the published differentials; n = 12 has 386 patterns,
    # so its first solver pattern comes with a truncated count
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_charts.py"
    spec = importlib.util.spec_from_file_location("make_charts", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.chdir(tmp_path)
    assert script.main(ns=(5, 12)) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"chart_n{n}.{ext}" for n in (5, 12) for ext in ("txt", "json", "svg"))
    doc = json.loads((out / "chart_n12.json").read_text(encoding="utf-8"))
    assert "truncated" in doc["solver"]
    assert "solver:" in (out / "chart_n12.svg").read_text(encoding="utf-8")
    assert "solver" not in json.loads((out / "chart_n5.json").read_text(encoding="utf-8"))
    assert "solver:" not in (out / "chart_n5.svg").read_text(encoding="utf-8")
