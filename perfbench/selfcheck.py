"""Tests of the benchmark itself: seeded inputs, reference checks, tracing.

    python3 perfbench/selfcheck.py

The file name keeps it out of the package's pytest collection; it runs with
the standard library's unittest.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from kleinmackey import bredon, groups, mackey  # noqa: E402
from kleinmackey.f2 import BitMatrix  # noqa: E402
from kleinmackey.reps import RepK  # noqa: E402


def first_rounds(name, seed, k):
    return list(itertools.islice(W.rounds(W.WORKLOADS[name], seed), k))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in W.WORKLOADS:
            with self.subTest(name):
                self.assertEqual(first_rounds(name, 7, 3), first_rounds(name, 7, 3))
                self.assertNotEqual(first_rounds(name, 7, 3), first_rounds(name, 8, 3))

    def test_oracle_inputs_never_repeat_and_stay_in_their_box(self):
        boxes = {
            "oracle-box": lambda v: -4 <= v.a <= 4 and max(map(abs, (v.b, v.c, v.d))) <= 3,
            "oracle-large": lambda v: 5 <= max(map(abs, (v.b, v.c, v.d))) <= 8,
            "series-wide": lambda v: max(map(abs, (v.b, v.c, v.d))) <= 6,
        }
        for name, inside in boxes.items():
            with self.subTest(name):
                inputs = [x for batch in W.rounds(W.WORKLOADS[name], 3) for x in batch]
                self.assertEqual(len(inputs), len(set(inputs)))
                reps = [x if isinstance(x, RepK) else x[0] for x in inputs]
                self.assertTrue(all(inside(v) for v in reps))

    def test_every_seed_gets_the_same_sizes_in_the_same_rounds(self):
        def sizes(batch):
            return sorted((str(x[1]), sorted(x[0].coeffs()[1:])) if isinstance(x, tuple)
                          else sorted(x.coeffs()[1:]) for x in batch)
        for name in ("oracle-box", "oracle-large", "series-wide"):
            with self.subTest(name):
                for a, b in zip(first_rounds(name, 1, 4), first_rounds(name, 2, 4)):
                    self.assertEqual(sizes(a), sizes(b))

    def test_every_run_completes_at_least_100_queries(self):
        for name, wl in W.WORKLOADS.items():
            with self.subTest(name):
                rounds = first_rounds(name, 1, wl.min_rounds)
                self.assertEqual(len(rounds), wl.min_rounds)
                self.assertGreaterEqual(sum(map(len, rounds)), 100)

    def test_chart_rounds_hold_the_fixed_mix(self):
        for batch in first_rounds("charts-solve", 5, 4):
            self.assertEqual(Counter(n for n, _ in batch), Counter(W.CHART_MIX))

    def test_cell_count_formula_matches_the_complex(self):
        rng = random.Random(11)
        for _ in range(30):
            v = RepK(*(rng.randint(-5, 5) for _ in range(4)))
            self.assertEqual(W.cells(v), bredon.sphere_complex(v).cell_count(), v)

    def test_euler_reference_matches_the_chains(self):
        rng = random.Random(12)
        for _ in range(15):
            v = RepK(*(rng.randint(-4, 4) for _ in range(4)))
            cx = bredon.sphere_complex(v)
            for coeff in W.LARGE_COEFFS:
                chains = bredon.with_coefficients(cx, coeff)
                chi = {lv: sum((-1) ** (n % 2) * chains.dim(lv, n) for n in cx.cells)
                       for lv in W.LEVELS}
                self.assertEqual(chi, W.euler_reference(v, coeff), (v, coeff))


def shifted(table):
    return {n + 1: m for n, m in table.items()}


def flipped_structure_maps(m):
    """Copies of m with one entry of one restriction or transfer flipped."""
    for field in ("res", "tr"):
        mats = getattr(m, field)
        for e, mat in enumerate(mats):
            for i in range(mat.rows):
                for j in range(mat.cols):
                    data = list(mat.data)
                    data[i] ^= 1 << j
                    new = BitMatrix(mat.rows, mat.cols, tuple(data))
                    yield dataclasses.replace(m, **{field: mats[:e] + (new,) + mats[e + 1:]})


class PlantedWrongAnswers(unittest.TestCase):
    """Each reference check passes the real answer and rejects a planted one."""

    def check(self, wl, inp, result):
        return W.WORKLOADS[wl].check(inp, result, Counter())

    def test_closed_form_check(self):
        for coeff in ("F", "F*"):
            inp = (RepK(1, 2, -1, 1), coeff)
            table, names = W.oracle_query(inp)
            self.assertEqual(self.check("oracle-box", inp, (table, names)), [])
            self.assertTrue(self.check("oracle-box", inp, (shifted(table), shifted(names))))

    def test_euler_and_axiom_checks(self):
        inp = (RepK(0, 5, 1, -1), "mg")
        table, names = W.oracle_query(inp)
        self.assertEqual(self.check("oracle-large", inp, (table, names)), [])
        extra = max(table) + 1
        wrong = {**table, extra: mackey.catalog("F")}
        self.assertTrue(self.check("oracle-large", inp, (wrong, {**names, extra: None})))
        # same dims, one structure-map entry flipped: only the axioms notice
        n, broken = next(
            (n, b) for n, m in table.items() for b in flipped_structure_maps(m)
            if mackey.check_axioms(b))
        self.assertTrue(self.check("oracle-large", inp, ({**table, n: broken}, names)))

    def test_identified_names_must_match_dims(self):
        inp = (RepK(0, 1, 1, 1), "F")
        table, names = W.oracle_query(inp)
        n = next(k for k, e in names.items() if e is not None and e != (("F", 1),))
        wrong = {**names, n: (("F", 1),)}
        self.assertTrue(self.check("oracle-box", inp, (table, wrong)))

    def test_series_check(self):
        v = RepK(0, 2, -3, 1)
        series = W.series_query(v)
        self.assertEqual(self.check("series-wide", v, series), [])
        self.assertTrue(self.check("series-wide", v, series.shift(1)))

    def test_chart_checks(self):
        for inp in ((9, None), (10, None), (13, W.CHART_CAP)):
            solved = W.charts_query(inp)
            self.assertEqual(self.check("charts-solve", inp, solved), [], inp)
            missing = dataclasses.replace(solved, patterns=solved.patterns[1:])
            self.assertTrue(self.check("charts-solve", inp, missing), inp)
        solved = W.charts_query((10, None))
        cut = [p[1:] for p in solved.patterns]   # drops one differential each
        self.assertTrue(self.check("charts-solve", (10, None),
                                   dataclasses.replace(solved, patterns=cut)))


class Calibration(unittest.TestCase):
    def test_a_segment_is_scaled_by_the_readings_around_it(self):
        cal = calibrate.Calibrator()
        self.assertEqual(cal.segment(), 0)      # the first query reads first
        self.assertEqual(cal.segment(), 0)      # not due again yet
        cal.readings = [1e-3, 3e-3]
        self.assertAlmostEqual(cal.factor(0), calibrate.REFERENCE_S / 2e-3)
        self.assertAlmostEqual(cal.factor(1), calibrate.REFERENCE_S / 3e-3)

    def test_a_reading_is_a_positive_time(self):
        self.assertGreater(calibrate.reading(), 0)


class Tracing(unittest.TestCase):
    def test_self_time_counts_and_uninstall(self):
        originals = (groups.GroupData.meet, bredon.sphere_complex, mackey.Mackey.res_map)
        tracing.clear_caches()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.query = 0
            table, _ = W.oracle_query((RepK(0, 1, 2, 0), "F"))
        finally:
            tracer.uninstall()
        self.assertEqual(originals, (groups.GroupData.meet, bredon.sphere_complex,
                                     mackey.Mackey.res_map))
        self.assertEqual(tracer.counts["bredon.cells"], W.cells(RepK(0, 1, 2, 0)))
        self.assertGreater(tracer.counts["groups.lookups"], 0)
        self.assertGreater(tracer.calls["mackey.res_tr_map"], 0)
        spans = {sid: (name, start, end, parent) for sid, name, start, end, parent, _
                 in tracer.spans}
        children = Counter()
        for sid, (name, start, end, parent) in spans.items():
            if parent is not None:
                children[parent] += end - start
        total_self = sum(tracer.self_s.values())
        roots = sum(end - start for name, start, end, parent in spans.values()
                    if parent is None)
        # self times partition the root spans' time
        self.assertAlmostEqual(total_self, roots, delta=1e-6)
        for sid, (name, start, end, parent) in spans.items():
            self.assertGreaterEqual(end - start - children[sid], -1e-9)


if __name__ == "__main__":
    unittest.main()
