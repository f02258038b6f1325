import functools
import hashlib
import io

import pytest

from kleinmackey import slices as sl
from kleinmackey import verify
from kleinmackey.cli import main
from kleinmackey.verify import oracle_homotopy
from kleinmackey.mackey import catalog, format_name_expr, parse_name_expr
from kleinmackey.reps import RepK, rho_decompose


def cell_str(cell):
    return cell.pretty()


def hom_names(table):
    return {d: format_name_expr(e) for d, e in table.items()}


def test_bounds():
    assert sl.slice_bounds_K(8) == (8, 20)
    assert sl.slice_bounds_K(3) == (3, 3)
    assert sl.slice_bounds_K(0) == (0, 0)
    with pytest.raises(ValueError):
        sl.slice_bounds_K(-1)


def test_slice_K_examples():
    assert cell_str(sl.slice_K(5, 8)) == "Σ^2 Hg"
    assert cell_str(sl.slice_K(8, 12)) == "Σ^{3ρ} H(φ*_{LDR}F* ⊕ g^2)"
    assert cell_str(sl.slice_K(9, 16)) == "Σ^4 Hg^5"
    for n in (4, 8, 12, 20):
        cell = sl.slice_K(n, n)
        assert cell.susp == RepK(n // 4, n // 4, n // 4, n // 4)
        assert format_name_expr(cell.coeff) == "F*"
    assert cell_str(sl.slice_K(13, 14)) == "Σ^{3ρ+1} Hφ*_{LDR}f"
    assert sl.slice_K(20, 41).trivial
    assert cell_str(sl.slice_K(11, 12)) == "Σ^{3ρ} Hmg*"
    assert cell_str(sl.slice_K(5, 5)) == "Σ^{ρ+1} Hf"
    assert cell_str(sl.slice_K(7, 8)) == "Σ^{2ρ} Hmg*"
    assert cell_str(sl.slice_K(0, 0)) == "Σ^0 HF"


def test_slice_C2_examples():
    assert cell_str(sl.slice_C2(6, 6)) == "Σ^{3ρ} HF*"
    assert cell_str(sl.slice_C2(5, 6)) == "Σ^3 Hg"
    assert cell_str(sl.slice_C2(2, 2)) == "Σ^ρ Hf"
    assert sl.slice_C2(5, 7).trivial


def test_slice_C2_f_examples():
    assert cell_str(sl.slice_C2_f(2, 2)) == "Σ^2 Hf"
    assert cell_str(sl.slice_C2_f(4, 6)) == "Σ^3 Hg"
    assert sl.slice_C2_f(4, 7).trivial
    assert cell_str(sl.slice_C2_f(3, 4)) == "Σ^2 Hg"
    assert cell_str(sl.slice_C2_f(3, 3)) == "Σ^{ρ+1} Hf"


def test_trivial_outside_congruences():
    for n in range(0, 25):
        lo, hi = sl.slice_bounds_K(n)
        for i in range(0, 4 * n + 4):
            cell = sl.slice_K(n, i)
            if cell.trivial:
                continue
            assert lo <= i <= hi
            if i > n:
                assert i % 2 == 0
            if n >= 4 and i > 2 * n - 4:
                assert i % 4 == 0


def test_recursion_coherence():
    for n in range(7, 25):
        for i in range(n, 2 * n - 6):
            cur = sl.slice_K(n, i)
            prev = sl.slice_K(n - 4, i - 4)
            assert cur.trivial == prev.trivial, (n, i)
            if cur.trivial:
                continue
            assert cur.susp == prev.susp + RepK(1, 1, 1, 1), (n, i)
            assert cur.coeff == prev.coeff, (n, i)


def test_level_e_sanity():
    # only the bottom slice carries underlying homotopy, one dimension at n
    from kleinmackey.mackey import expr_dims
    for n in range(0, 18):
        lo, hi = sl.slice_bounds_K(n)
        for i in range(lo, hi + 1):
            cell = sl.slice_K(n, i)
            if cell.trivial:
                continue
            table = sl.homotopy_of_slice(cell)
            e_part = {d: expr_dims(e, "K")[4] for d, e in table.items()
                      if expr_dims(e, "K")[4]}
            if i == n:
                assert e_part == {n: 1}, (n, i)
            else:
                assert e_part == {}, (n, i)


def test_homotopy_of_slice_examples():
    table = hom_names(sl.graded_homotopy(0, 2, parse_name_expr("F")))
    assert table == {8: "F", 7: "mg", 6: "phiLDR(F)", 5: "phiLDR(F) + g",
                     4: "phiLDR(F) + g^2", 3: "g^3", 2: "g"}
    table = hom_names(sl.graded_homotopy(1, 2, parse_name_expr("phiLDR(f)")))
    assert table == {5: "phiLDR(F)", 4: "g^3"}
    cell = sl.slice_K(5, 8)
    assert hom_names(sl.homotopy_of_slice(cell)) == {2: "g"}
    # w* is F* plus g one degree above a + k
    assert hom_names(sl.graded_homotopy(0, 1, parse_name_expr("w*"))) == \
        {2: "g", 4: "F"}


def test_bottom_slice_matches_oracle():
    for n in range(0, 13):
        cell = sl.slice_K(n, n)
        oracle = oracle_homotopy(cell.susp, cell.coeff)
        assert sl.homotopy_of_slice(cell) == oracle, n


def test_towers_low():
    assert [node.pretty() for node in sl.tower_K(0)] == ["Σ^0 HF"]
    assert [node.pretty() for node in sl.tower_K(4)] == ["Σ^ρ HF*"]
    # every slice and node suspension is a + k rho; no other twist prints
    with pytest.raises(ValueError):
        sl.pretty_susp(RepK(0, 3, -2, -2))
    forms5 = [(node.kind, node.pretty()) for node in sl.tower_K(5)]
    assert forms5 == [
        ("slice", "Σ^2 Hg"),
        ("total", "Σ^{ρ+1} HF*"),
        ("slice", "Σ^{ρ+1} Hφ*_{LDR}f"),
        ("section", "Σ^{ρ+1} Hw*"),
        ("slice", "Σ^{ρ+1} Hf"),
    ]


def test_tower_8_has_cofiber_section():
    nodes = sl.tower_K(8)
    slices = [node for node in nodes if node.kind == "slice"]
    assert [node.i for node in slices] == [20, 16, 12, 10, 8]
    assert slices[-1].pretty() == "Σ^{ρ+4} HF"
    c_nodes = [node for node in nodes if node.coeff == "C"]
    assert len(c_nodes) == 1
    assert c_nodes[0].pretty() == "Σ^{ρ+3} C"
    assert dict(c_nodes[0].homotopy)[8] == parse_name_expr("F")
    assert dict(c_nodes[0].homotopy)[7] == parse_name_expr("mg")
    assert dict(c_nodes[0].homotopy)[4] == parse_name_expr("g^2")
    # the cofiber spectrum itself has the advertised two homotopy functors
    assert sl.cofiber_node_homotopy(-1) == \
        {4: parse_name_expr("F"), 3: parse_name_expr("mg"),
         0: parse_name_expr("g^2")}


def test_tower_9_10_summands():
    parts9 = sl.tower_slice_parts(9)
    assert sorted(parts9) == [9, 10, 12, 14, 16, 20, 24]
    assert len(parts9[16]) == 2 and len(parts9[12]) == 2
    parts10 = sl.tower_slice_parts(10)
    assert len(parts10[20]) == 2 and len(parts10[16]) == 3
    labels = [n.label for n in sl.tower_K(10) if n.kind == "summand"]
    assert labels == ["A", "C", "B", "D", "E"]


def test_tower_slices_match_formulas():
    # tower presentation and theorem-normal form have equal graded homotopy
    for n in range(0, 11):
        parts = sl.tower_slice_parts(n)
        lo, hi = sl.slice_bounds_K(n)
        for i in range(lo, hi + 1):
            cell = sl.slice_K(n, i)
            if cell.trivial:
                assert i not in parts, (n, i)
                continue
            agg = {}
            for susp, coeff in parts[i]:
                a, k = rho_decompose(susp)
                for d, names in sl.graded_homotopy(a, k, coeff).items():
                    sl._merge(agg, d, names)
            assert agg == sl.homotopy_of_slice(cell), (n, i)


def test_tower_above_10_lists_slices():
    nodes = sl.tower_K(11)
    assert all(node.kind == "slice" for node in nodes)
    assert all("not asserted" in node.note for node in nodes)
    assert [node.i for node in nodes] == [
        i for i in range(32, 10, -1) if not sl.slice_K(11, i).trivial]


def test_slice_predicates():
    assert sl.slice_predicates(catalog("F"))["is_one_slice_EM"]
    assert not sl.slice_predicates(catalog("F"))["is_minus_one_slice_EM"]
    assert sl.slice_predicates(catalog("F*"))["is_minus_one_slice_EM"]
    preds_g = sl.slice_predicates(catalog("g"))
    assert not preds_g["is_one_slice_EM"]
    assert not preds_g["is_minus_one_slice_EM"]
    assert preds_g["is_zero_slice_EM"]
    # the kernel functor of the quotient map has injective restrictions
    assert sl.slice_predicates(catalog("w"))["is_one_slice_EM"]
    assert sl.slice_predicates(catalog("w*"))["is_minus_one_slice_EM"]
    # the three-dimensional duals fail: their lower maps vanish
    assert not sl.slice_predicates(catalog("W*"))["is_one_slice_EM"]
    assert sl.slice_predicates(catalog("F", "C2"))["is_one_slice_EM"]
    assert sl.slice_predicates(catalog("F*", "C2"))["is_minus_one_slice_EM"]


@pytest.mark.parametrize("rule, wrong", [(("K", "F*"), (3, "F")),
                                         (("K", "mg*"), (2, "mg"))])
def test_twistings_suite_checks_the_untwisting_table(monkeypatch, rule, wrong):
    # the suite reads the rules the closed forms apply, so a wrong shift or
    # a swapped atom in the table fails it
    assert verify.suite_twistings().passed
    monkeypatch.setitem(sl._UNTWIST, rule, wrong)
    rep = verify.suite_twistings()
    assert not rep.passed and rep.checked == 3, rep.summary()


# The oracle's side of the slice-homotopy sweep, computed once for the cases
# below: a mutated closed table leaves it as it is.
_ORACLE = functools.cache(verify.oracle_homotopy)


@pytest.mark.parametrize("group,atom,k", verify._CLOSED_GRID)
def test_closed_forms_match_oracle_at_every_twist(monkeypatch, group, atom, k):
    # one case of the sweep that criterion 6 runs whole, so that a failure
    # names its case
    monkeypatch.setattr(verify, "_CLOSED_GRID", [(group, atom, k)])
    monkeypatch.setattr(verify, "oracle_homotopy", _ORACLE)
    rep = verify.suite_slice_homotopy()
    assert rep.passed and rep.checked == 3, rep.summary()


# a wrong step in a short exact sequence, and a wrong untwisting of a Klein
# atom and of the C2 one, which suite_twistings leaves out
@pytest.mark.parametrize("table, key, wrong", [("_SES", "W", ("w", -3, 0)),
                                               ("_SES", "w*", ("F*", 1, 0)),
                                               ("_UNTWIST", ("K", "m*"), (2, "m")),
                                               ("_UNTWIST", ("C2", "F*"), (1, "f"))])
def test_slice_homotopy_suite_checks_the_closed_rules(monkeypatch, table, key, wrong):
    monkeypatch.setattr(verify, "oracle_homotopy", _ORACLE)
    monkeypatch.setitem(getattr(sl, table), key, wrong)
    rep = verify.suite_slice_homotopy()
    assert not rep.passed and rep.checked == 621, rep.summary()


# sha256 of the tower output for n <= 12 in every format, as
# repr((n, format, exit code, text)), then of repr(cell) for every Klein
# slice with n <= 20 and every C2 slice, of HF and of Hf, with n <= 30
TOWERS_AND_SLICES_SHA256 = "06e9b0b30b36b5068c66d0ba4613505b421462d46f2fab39feebdf25c1b07f97"


def test_towers_and_slices_are_pinned():
    digest = hashlib.sha256()
    for n in range(13):
        for fmt in ("text", "json", "svg"):
            out = io.StringIO()
            code = main(["tower", "--n", str(n), "--format", fmt], out=out)
            digest.update(repr((n, fmt, code, out.getvalue())).encode())
    for n in range(21):
        for i in range(4 * n + 5):
            digest.update(repr(sl.slice_K(n, i)).encode())
    for n in range(31):
        for i in range(2 * n + 3):
            digest.update(repr((sl.slice_C2(n, i), sl.slice_C2_f(n, i))).encode())
    assert digest.hexdigest() == TOWERS_AND_SLICES_SHA256
