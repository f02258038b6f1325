"""The acceptance gate: one test per criterion, one printed line each.

All comparisons are exact (finite GF(2) data); no tolerances anywhere.
Criterion 1 sweeps the full box a in [-4,4], b,c,d in [-3,3] against the
chain oracle and is expected to finish in well under two minutes.
"""

import io
import time

from kleinmackey import verify
from kleinmackey import slices as sl
from kleinmackey.cli import main


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_closed_forms_vs_oracle():
    start = time.time()
    rep = verify.suite_hk_oracle(box=3)
    elapsed = time.time() - start
    assert rep.passed, rep.failures[:5]
    assert rep.checked == 3087
    assert elapsed < 120, f"criterion 1 took {elapsed:.0f}s"
    report("1 closed forms vs oracle",
           f"{rep.checked} representations, {elapsed:.1f}s")


def test_criterion_02_c2_calibration():
    rep = verify.suite_figure1()
    assert rep.passed, rep.failures[:5]
    report("2 C2 calibration", f"{rep.checked} grid cells, zero mismatches")


def test_criterion_03_duality():
    start = time.time()
    rep = verify.suite_duality(box=3)
    assert rep.passed, rep.failures[:5]
    assert rep.checked == 3087
    report("3 duality", f"{rep.checked} representations, {time.time() - start:.1f}s")


def test_criterion_04_twisting_equivalences():
    rep = verify.suite_twistings()
    assert rep.passed, rep.failures
    assert rep.checked == 3
    report("4 twisting equivalences", "3 equivalences, all degrees")


EXPECTED_TOWERS = {
    5: [("slice", 8, "Σ^2 Hg"), ("total", None, "Σ^{ρ+1} HF*"),
        ("slice", 6, "Σ^{ρ+1} Hφ*_{LDR}f"), ("section", None, "Σ^{ρ+1} Hw*"),
        ("slice", 5, "Σ^{ρ+1} Hf")],
    6: [("slice", 12, "Σ^3 Hg"), ("total", None, "Σ^{ρ+2} HF*"),
        ("slice", 8, "Σ^{ρ+2} Hφ*_{LDR}f"), ("section", None, "Σ^{ρ+2} Hw*"),
        ("slice", 6, "Σ^{ρ+2} Hf")],
    7: [("slice", 16, "Σ^4 Hg"), ("total", None, "Σ^{ρ+3} HF*"),
        ("slice", 12, "Σ^3 Hg^3"), ("section", None, "Σ^{ρ+3} Hw*"),
        ("slice", 10, "Σ^{ρ+3} Hφ*_{LDR}F"), ("section", None, "Σ^{ρ+3} HW*"),
        ("slice", 8, "Σ^{ρ+2} Hm"), ("section", None, "Σ^{ρ+3} Hf"),
        ("slice", 7, "Σ^{ρ+3} HF")],
    8: [("slice", 20, "Σ^5 Hg"), ("total", None, "Σ^{ρ+4} HF*"),
        ("slice", 16, "Σ^4 Hg^3"), ("section", None, "Σ^{ρ+4} Hw*"),
        ("slice", 12, "Σ^{3ρ} H(φ*_{LDR}F* ⊕ g^2)"),
        ("section", None, "Σ^{ρ+4} HW*"),
        ("slice", 10, "Σ^{ρ+3} Hφ*_{LDR}F"), ("section", None, "Σ^{ρ+3} C"),
        ("slice", 8, "Σ^{ρ+4} HF")],
    9: [("slice", 24, "Σ^6 Hg"), ("total", None, "Σ^{ρ+5} HF*"),
        ("slice", 20, "Σ^5 Hg^3"), ("section", None, "Σ^{ρ+5} Hw*"),
        ("summand", 16, "Σ^4 Hg^3"), ("aux", None, "Σ^{ρ+5} Hφ*_{LDR}F"),
        ("section", None, "Σ^{ρ+5} HW*"),
        ("slice", 14, "Σ^{3ρ+1} Hφ*_{LDR}f"), ("summand", 16, "Σ^{ρ+3} Hg^2"),
        ("section", None, "Σ^{ρ+5} Hf"),
        ("summand", 12, "Σ^{ρ+4} Hφ*_{LDR}F"), ("section", None, "Σ^{ρ+4} C"),
        ("summand", 12, "Σ^{ρ+2} Hg"), ("section", None, "Σ^{ρ+5} HF"),
        ("slice", 10, "Σ^{2ρ+1} Hφ*_{LDR}f"),
        ("section", None, "Σ^{2ρ+1} Hw*"), ("slice", 9, "Σ^{2ρ+1} Hf")],
    10: [("slice", 28, "Σ^7 Hg"), ("total", None, "Σ^{ρ+6} HF*"),
         ("slice", 24, "Σ^6 Hg^3"), ("section", None, "Σ^{ρ+6} Hw*"),
         ("summand", 20, "Σ^5 Hg^3"), ("aux", None, "Σ^{ρ+6} Hφ*_{LDR}F"),
         ("section", None, "Σ^{ρ+6} HW*"),
         ("summand", 16, "Σ^{3ρ+2} Hφ*_{LDR}f"),
         ("summand", 20, "Σ^{ρ+4} Hg^2"), ("section", None, "Σ^{ρ+6} Hf"),
         ("summand", 16, "Σ^{3ρ+1} Hg^3"), ("aux", None, "Σ^{ρ+5} Hφ*_{LDR}F"),
         ("section", None, "Σ^{ρ+5} C"),
         ("slice", 14, "Σ^{3ρ+1} Hφ*_{LDR}f"), ("summand", 16, "Σ^{ρ+3} Hg"),
         ("section", None, "Σ^{ρ+6} HF"),
         ("slice", 12, "Σ^{2ρ+2} Hφ*_{LDR}f"),
         ("section", None, "Σ^{2ρ+2} Hw*"), ("slice", 10, "Σ^{2ρ+2} Hf")],
}


def test_criterion_05_slices_vs_towers():
    checked = 0
    for n in range(0, 11):
        parts = sl.tower_slice_parts(n)
        lo, hi = sl.slice_bounds_K(n)
        for i in range(lo, hi + 1):
            cell = sl.slice_K(n, i)
            if cell.trivial:
                assert i not in parts, (n, i)
                continue
            assert i in parts, f"tower for n={n} misses the {i}-slice"
            formula = sl.homotopy_of_slice(cell)
            assert verify.oracle_homotopy(cell.susp, cell.coeff) == formula
            agg = {}
            for susp, coeff in parts[i]:
                for d, names in verify.oracle_homotopy(susp, coeff).items():
                    sl._merge(agg, d, names)
            assert agg == formula, (n, i)
            checked += 1
    for n in range(5, 11):
        got = [(node.kind, node.i, node.pretty()) for node in sl.tower_K(n)]
        assert got == EXPECTED_TOWERS[n], f"tower node list for n={n}"
    assert dict(sl.COFIBER_C_HOMOTOPY) == {1: (("f", 1),), 0: (("g", 2),)}
    for n in (8, 9, 10):
        cnodes = [node for node in sl.tower_K(n) if node.coeff == "C"]
        assert len(cnodes) == 1
    report("5 slice formulas vs towers",
           f"{checked} slices oracle-verified, node lists for n=5..10")


def test_criterion_06_slice_homotopy_tables():
    rep = verify.suite_slice_homotopy()
    assert rep.passed, rep.failures[:5]
    assert rep.checked == 621
    report("6 slice homotopy tables vs oracle",
           f"{rep.checked} tables, every catalog atom of both groups")


def test_criterion_07_restriction_consistency():
    rep = verify.suite_slices_restriction()
    assert rep.passed, rep.failures[:3]
    assert rep.checked == 21
    report("7 restriction consistency", "n <= 20, all cyclic subgroups")


def test_criterion_08_spectral_sequences():
    # the canned patterns are empty below n = 5
    rep = verify.suite_convergence()
    assert rep.passed, rep.failures
    assert rep.checked == 13
    rep = verify.suite_euler()
    assert rep.passed, rep.failures
    assert rep.checked == 21
    report("8 spectral sequence convergence",
           "canned n=5..10 at 5 levels; pattern counts n<=12; euler n<=20")


def test_criterion_09_axioms_and_involutions():
    rep = verify.suite_axioms()
    assert rep.passed, rep.failures[:5]
    assert rep.checked == 10047
    report("9 axioms and involutions",
           "catalog + 10000 randomized sums, duality pairing exact")


GOLDEN_INVOCATIONS = [
    ["poincare", "--rep", "0,1,1,1"],
    ["poincare", "--rep", "0,3,-2,-2", "--level", "all"],
    ["poincare", "--rep", "2,-2,1,-3", "--format", "json"],
    ["homotopy", "--rep", "1,1,1,1", "--coeff", "F"],
    ["homotopy", "--rep=-1,-1,-1,-1", "--coeff", "F", "--format", "json"],
    ["slice", "--group", "K", "--n", "8", "--i", "12"],
    ["slice", "--group", "C2", "--n", "5", "--i", "6", "--format", "json"],
    ["tower", "--n", "9", "--format", "json"],
    ["chart", "--n", "10", "--format", "svg"],
    ["chart", "--n", "7", "--format", "json"],
    ["mackey", "--name", "mg", "--show"],
    ["verify", "--suite", "twistings"],
]


def test_criterion_10_determinism():
    for argv in GOLDEN_INVOCATIONS:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            assert main(argv, out=buf) == 0, argv
            outs.append(buf.getvalue())
        assert outs[0] == outs[1], argv
        assert outs[0], argv
    report("10 determinism", f"{len(GOLDEN_INVOCATIONS)} invocations, "
           "byte-identical on repeat")
