import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time

from hypothesis import Phase, given, settings, strategies as st

from kleinmackey import bredon, hk, mackey, slices, sschart, verify
from kleinmackey.cli import (_MAX_CLOSED_K, _MAX_ORACLE_ENTRIES, _MAX_POINCARE_TERMS,
                            _MAX_VERIFY_BOX, MAX_CHART_N, MAX_ORACLE_CELLS, MAX_TOWER_N,
                            _oracle_entries, _poincare_terms, main, oracle_cell_count)
from kleinmackey.mackey import CATALOG_ATOMS
from kleinmackey.reps import RepC2, RepK

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_poincare_golden():
    code, text = run(["poincare", "--rep", "0,1,1,1"])
    assert code == 0 and text == "1 + 3x + 2x^2 + x^3\n"
    # the level defaults to the top one of the representation's group
    assert run(["poincare", "--rep", "0,1"]) == (0, "1 + x\n")


def test_slice_golden():
    code, text = run(["slice", "--group", "K", "--n", "8", "--i", "12"])
    assert code == 0 and text == "Σ^{3ρ} H(φ*_{LDR}F* ⊕ g^2)\n"


def test_homotopy_oracle_json():
    code, text = run(["homotopy", "--rep", "1,1,1,1", "--coeff", "F",
                      "--format", "json"])
    assert code == 0
    rows = json.loads(text)
    assert [r["degree"] for r in rows] == [1, 2, 3, 4]
    assert rows[3]["identified_name"] == "F"
    assert rows[3]["mackey"]["dims"] == {"K": 1, "L": 1, "D": 1, "R": 1, "e": 1}


def test_homotopy_closed_engine(capsys):
    code, text = run(["homotopy", "--rep", "2,1,1,1", "--coeff", "f",
                      "--engine", "closed"])
    assert code == 0
    assert "pi_5 = F" in text and "pi_4 = mg" in text
    # a Klein twist that is not a + k rho has no closed table; its level
    # series come from poincare
    capsys.readouterr()
    assert run(["homotopy", "--engine", "closed", "--rep", "0,3,-2,-2"]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "poincare" in err


def test_homotopy_engines_agree():
    # the closed engine prints what the oracle engine prints, --level included
    cases = [
        ["--rep=0,-1,-1,-1", "--coeff", "f"],
        ["--rep=-1,-2,-2,-2", "--coeff", "phiLDR(F*) + g^2", "--level", "all"],
        ["--rep=1,1,1,1", "--coeff", "mg", "--level", "L"],
        ["--rep=2,-1,-1,-1", "--coeff", "m*", "--level", "K"],
        ["--rep=1,1", "--coeff", "f", "--level", "e"],
        ["--rep=-1,-3", "--coeff", "F* + g", "--level", "C2"],
        ["--rep=1,1", "--coeff", "F"],
        ["--rep=-2,-3", "--coeff", "F", "--level", "C2"],
        ["--rep=2,1,1,1", "--coeff", "W + w*", "--level", "all"],
    ]
    for argv in cases:
        texts = [run(["homotopy", "--engine", engine] + argv)
                 for engine in ("closed", "oracle")]
        assert texts[0] == texts[1] and texts[0][0] == 0, argv
        closed, oracle = (json.loads(run(["homotopy", "--engine", engine, "--format",
                                          "json"] + argv)[1])
                          for engine in ("closed", "oracle"))
        for row in oracle:
            del row["mackey"]
        assert closed == oracle, argv
    assert run(["homotopy", "--engine", "closed", "--rep", "1,1,1,1", "--coeff",
                "mg", "--level", "L"]) == \
        (0, "pi_1(L) = F2^0  [g^2]\npi_2(L) = F2^1  [phiLDR(F)]\n")


def test_verify_exit_codes(tmp_path):
    code, text = run(["verify", "--suite", "twistings"])
    assert code == 0 and "pass" in text
    # a corrupted functor file makes the axioms suite fail with exit 1
    from kleinmackey.mackey import catalog
    doc = catalog("F").to_json_dict()
    doc["tr"]["R>K"] = [[1]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, text = run(["verify", "--suite", "axioms", "--file", str(bad)])
    assert code == 1 and "FAIL" in text
    # so does a Klein functor whose only fault is a nonzero tr . res
    from kleinmackey.mackey import build_mackey
    tr_res = build_mackey("K", (2, 1, 0, 0, 0), res={("K", "L"): [[1, 0]]},
                          tr={("K", "L"): [[0], [1]]})
    bad.write_text(json.dumps(tr_res.to_json_dict()))
    code, text = run(["verify", "--suite", "axioms", "--file", str(bad)])
    assert code == 1 and "supplied functor: tr L>K . res K>L != 0" in text


def test_mackey_c2_name_expression(capsys):
    from kleinmackey.mackey import catalog, direct_sum
    code, text = run(["mackey", "--group", "C2", "--name", "F* + f", "--json"])
    assert code == 0
    summed = direct_sum([catalog("F*", "C2"), catalog("f", "C2")])
    assert json.loads(text) == summed.to_json_dict()
    capsys.readouterr()
    assert run(["mackey", "--group", "C2", "--name", "F + W"]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_mackey_refuses_a_pair_of_inflations(capsys):
    # phiLD(F) is no name display_terms prints, so it reads as no name at all
    assert run(["mackey", "--name", "phiLD(F)"]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert run(["mackey", "--name", "phiLDR(F*)"])[0] == 0


def test_usage_errors(tmp_path, capsys):
    # argparse's own errors print one error: line too, not the usage text
    for argv in (["slice", "--group", "K", "--n", "8"],                # missing --i
                 ["nonsense"], ["slice", "--n", "x", "--i", "1"],
                 ["homotopy", "--rep", "1,1,1,1", "--engine", "bogus"],
                 ["poincare", "--rep", "-1,0,0,0"], ["poincare", "--rep", "x"]):
        assert run(argv) == (2, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    # a C2 tuple reads through the same parser as a Klein one, and so fails alike
    for rep in ("1,a", "1,2,a,4"):
        assert run(["poincare", "--rep", rep]) == (2, "")
        assert capsys.readouterr().err == f"error: bad representation tuple: '{rep}'\n"
    # "--rep=" passes a representation that starts with a sign
    for rep in ("a--b", "2+", "--a", "+-a", "2++a"):
        assert run(["poincare", f"--rep={rep}"]) == (2, "")
        assert capsys.readouterr().err == f"error: stray sign in representation '{rep}'\n"
    assert run(["chart", "--n", "9", "--solve", "--cap", "-1"]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # the solver takes at most 1000 pairs: n = 32 (895 pairs) answers, and
    # n = 34 (1080 pairs) is refused before any hom space is computed
    code, text = run(["chart", "--n", "32", "--solve", "--cap", "1"])
    assert code == 0 and "solver: more than 1 patterns (truncated)" in text
    assert run(["chart", "--n", "34", "--solve", "--cap", "1"]) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert " 1080 " in err
    missing = str(tmp_path / "missing.json")
    assert run(["mackey", "--file", missing]) == (2, "")
    assert capsys.readouterr().err.count("\n") == 1
    # a functor file without the L level under dims
    from kleinmackey.mackey import catalog
    doc = catalog("F").to_json_dict()
    del doc["dims"]["L"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(doc))
    assert run(["verify", "--suite", "axioms", "--file", str(partial)]) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")
    # a document that is not an object, a 2 entry, and a K>L restriction
    # with two rows where dims["L"] is 1
    two = catalog("F").to_json_dict()
    two["res"]["K>L"] = [[2]]
    tall = catalog("F").to_json_dict()
    tall["res"]["K>L"] = [[1], [1]]
    for i, doc in enumerate(([1, 2], two, tall)):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(doc))
        for argv in (["mackey", "--file", str(bad)],
                     ["verify", "--suite", "axioms", "--file", str(bad)]):
            assert run(argv) == (2, ""), (doc, argv)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
    # a file nested past the JSON parser's depth is bad input, not a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for argv in (["mackey", "--file", str(deep)],
                 ["verify", "--suite", "axioms", "--file", str(deep)]):
        assert run(argv) == (2, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # a negative box is bad input, not an empty sweep that passes, and so is
    # a flag the suite does not read
    for argv in (["duality", "--box", "-1"], ["hk-oracle", "--box", "-1"],
                 ["twistings", "--box", "3"], ["duality", "--file", "x.json"]):
        assert run(["verify", "--suite"] + argv) == (2, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_homotopy_says_when_the_answer_is_zero():
    # text names the zero answer; JSON lists no degree
    for engine in ("oracle", "closed"):
        for coeff in ("0", "F^0"):
            argv = ["homotopy", "--engine", engine, "--rep", "1,1,1,1", "--coeff", coeff]
            assert run(argv) == (0, "pi_* = 0\n"), argv
            assert run(argv + ["--level", "D"]) == (0, "pi_*(D) = 0\n"), argv
            assert run(argv + ["--format", "json"]) == (0, "[]\n"), argv



def test_level_is_checked_in_every_format(capsys):
    # one check refuses a level the group does not have, in every format
    for command, fmt, (rep, level) in itertools.product(
            ("poincare", "homotopy"), ("text", "json"), (("0,1,1,1", "C2"), ("0,1", "L"))):
        argv = [command, "--rep", rep, "--level", level, "--format", fmt]
        assert run(argv) == (2, ""), argv
        assert capsys.readouterr().err == f"error: no level {level!r} for this group\n"


def test_an_answer_stdout_cannot_encode_exits_2():
    # the answer is written inside main's try, so a stdout that cannot
    # encode it gives one error: line, not a traceback
    child = "import sys\nfrom kleinmackey.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    done = subprocess.run([sys.executable, "-c", child, "tower", "--n", "5"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(_child_env(), PYTHONIOENCODING="ascii"))
    assert (done.returncode, done.stdout) == (2, ""), done.stderr[-2000:]
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "codec can't encode" in done.stderr

def test_rep_starting_with_a_sign_takes_the_equals_form(capsys):
    assert run(["poincare", "--rep=-1,0,0,0"]) == (0, "x^-1\n")
    # argparse reads the separate value as an option name
    assert run(["poincare", "--rep", "-1,0,0,0"]) == (2, "")
    assert "expected one argument" in capsys.readouterr().err


def test_rep_help_names_the_equals_form(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")   # no line break inside the example
    for command in ("poincare", "homotopy"):
        assert run([command, "--help"]) == (0, "")
        assert "the --rep= form, as in --rep=-1,0,0,0" in capsys.readouterr().out, command


def test_homotopy_size_guard(capsys):
    for rep in ("0,200,200,200", f"0,{MAX_ORACLE_CELLS}"):
        start = time.perf_counter()
        assert run(["homotopy", "--rep", rep]) == (2, ""), rep
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(MAX_ORACLE_CELLS) in err


def test_verify_box_size_guard(capsys, monkeypatch):
    def never(name, **kwargs):
        raise AssertionError(f"suite {name} started past the bound")

    # the bound is on the box itself, not on the sweep's largest sphere,
    # which let box 35 through: it keeps the acceptance boxes, 2 and 3
    assert 3 <= _MAX_VERIFY_BOX < 35
    monkeypatch.setattr(verify, "run_suite", never)
    for suite, box in itertools.product(("hk-oracle", "duality"),
                                        (str(_MAX_VERIFY_BOX + 1), "36", "100")):
        start = time.perf_counter()
        assert run(["verify", "--suite", suite, "--box", box]) == (2, ""), (suite, box)
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and f"bound of {_MAX_VERIFY_BOX}" in err
    monkeypatch.setenv("COLUMNS", "200")
    assert run(["verify", "--help"]) == (0, "")
    assert f"sweep suites, at most {_MAX_VERIFY_BOX}," in capsys.readouterr().out


def _refused_fast(capsys, argv, bound):
    start = time.perf_counter()
    assert run(argv) == (2, ""), argv
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and str(bound) in err


def test_poincare_size_guard(capsys, monkeypatch):
    def never(v):
        raise AssertionError(f"poincare({v}) started past the bound")

    # the two largest of |b|, |c|, |d| count, and a lone one with 1 + |b|
    assert _poincare_terms(RepK(0, 999, -999, 999)) == _MAX_POINCARE_TERMS
    assert _poincare_terms(RepK(5, 0, 999999, 0)) == _MAX_POINCARE_TERMS
    assert _poincare_terms(RepC2(0, -999999)) == _MAX_POINCARE_TERMS
    monkeypatch.setattr(hk, "poincare", never)
    for rep in ("0,1000,1000,1000", "0,100000,100000,100000", "0,100000000,1,1",
                "0,1000000", "0,-1000000"):
        _refused_fast(capsys, ["poincare", f"--rep={rep}"], _MAX_POINCARE_TERMS)
    _refused_fast(capsys, ["poincare", "--rep", "0,1000,0,1000", "--format", "json"],
                  _MAX_POINCARE_TERMS)
    monkeypatch.setenv("COLUMNS", "200")
    assert run(["poincare", "--help"]) == (0, "")
    assert f"is past {_MAX_POINCARE_TERMS}" in capsys.readouterr().out


def test_name_expression_size_guard(capsys):
    bound = mackey._MAX_EXPR_DIM
    for argv in (["homotopy", "--rep", "0,1,0,0", "--coeff", "F^100000000"],
                 ["homotopy", "--rep", "1,1,1,1", "--coeff", f"g^{bound + 1}"],
                 ["mackey", "--name", "F^100000000"]):
        _refused_fast(capsys, argv, bound)
    assert mackey.expr_to_mackey((("g", bound),)).dims[0] == bound
    # the closed engine builds no matrix, so it still answers
    code, text = run(["homotopy", "--engine", "closed", "--rep", "1,1,1,1",
                      "--coeff", "F^100000000"])
    assert code == 0 and text.endswith("pi_4 = F^100000000\n"), text
    # chart --solve builds hom spaces between chart entries, g^27 at most
    assert max(sum(mackey.expr_dims(e, group)) for group in ("K", "C2")
               for n in range(33) for _, e in sschart.build_E1(n, group).entries) == 27


def test_tower_size_guard(capsys, monkeypatch):
    def never(n):
        raise AssertionError(f"tower_K({n}) started past the bound")

    monkeypatch.setattr(slices, "tower_K", never)
    for argv in (["tower", "--n", str(MAX_TOWER_N + 1)],
                 ["tower", "--n", str(MAX_TOWER_N + 1), "--format", "json"]):
        start = time.perf_counter()
        assert run(argv) == (2, ""), argv
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(MAX_TOWER_N) in err


def test_chart_size_guard(capsys, monkeypatch):
    def never(n, group="K"):
        raise AssertionError(f"build_E1({n}, {group}) started past the bound")

    monkeypatch.setattr(sschart, "build_E1", never)
    n = str(MAX_CHART_N + 1)
    for argv in (["chart", "--n", n], ["chart", "--n", n, "--solve"],
                 ["chart", "--n", n, "--group", "C2", "--format", "svg"],
                 ["chart", "--n", n, "--group", "C2", "--solve"]):
        start = time.perf_counter()
        assert run(argv) == (2, ""), argv
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(MAX_CHART_N) in err


def _largest_differential(v):
    """The largest u_n u_{n-1} of S^v's complex with F, read off the complex."""
    lvl = bredon.with_coefficients(bredon.sphere_complex(v), "F")
    return max((lvl.dim("e", n) * lvl.dim("e", n - 1) for n in lvl.cx.degrees()), default=0)


def test_oracle_cell_count_matches_the_complex():
    for b, c, d in itertools.product(range(-3, 4), repeat=3):
        v = RepK(1, b, c, d)
        assert oracle_cell_count(v) == bredon.sphere_complex(v).cell_count(), v
    for b in range(-6, 7):
        v = RepC2(-1, b)
        assert oracle_cell_count(v) == bredon.sphere_complex(v).cell_count(), v


def test_oracle_entries_match_the_complex():
    # the largest level dimension counts, squared, and the bottom level's
    # cells per degree count as they are in the complex
    for b, c, d in itertools.product(range(-3, 4), repeat=3):
        v = RepK(1, b, c, d)
        assert _oracle_entries(v, (1, 2)) == 4 * _largest_differential(v), v
    for b in range(-6, 7):
        v = RepC2(-1, b)
        assert _oracle_entries(v, (3,)) == 9 * _largest_differential(v), v


def test_oracle_size_bound_keeps_the_known_queries():
    # the largest sweep sphere, 35(alpha+beta+gamma), answers with F and F*,
    # and so does every sphere of the benchmark's oracle-large workload, up to
    # 341 cells with |b|, |c|, |d| <= 8, with each of its coefficients
    assert _oracle_entries(RepK(0, 35, 35, 35), (1,)) <= _MAX_ORACLE_ENTRIES
    largest = max(map(max, (mackey.catalog(name).dims
                             for name in ("F", "F*", "m", "mg", "mg*", "W"))))
    assert max(_oracle_entries(v, (largest,)) for v in itertools.starmap(
        RepK, itertools.product([0], *[range(-8, 9)] * 3))
        if oracle_cell_count(v) <= 341) <= _MAX_ORACLE_ENTRIES
    assert _oracle_entries(RepK(0, 2, 2, 2), (417,)) > _MAX_ORACLE_ENTRIES


# Runs the CLI in a child that first lowers its own address space to 1.5 GB,
# so an unbounded request fails there with MemoryError, not on the host.
_LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, 1500 * 2**20))
from kleinmackey.cli import main
"""
_LIMITED_CHILD = _LIMITED + "sys.exit(main(sys.argv[1:]))\n"


def _child_env():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

# Each of these ran for seconds, raised MemoryError or lost sys.stderr
# without its bound, under the same limit.
OVERSIZED = [
    (["mackey", "--name", "F^1000", "--json"], mackey._MAX_MAP_ENTRIES),
    (["mackey", "--name", "F^3000"], mackey._MAX_MAP_ENTRIES),
    (["homotopy", "--rep", "0,1,0,0", "--coeff", "F^1000", "--format", "json"],
     mackey._MAX_MAP_ENTRIES),
    (["homotopy", "--engine", "closed", "--rep", "0,1000000,1000000,1000000"], _MAX_CLOSED_K),
    (["homotopy", "--engine", "closed", "--rep", "0,100000000,100000000,100000000"],
     _MAX_CLOSED_K),
    (["homotopy", "--engine", "closed", "--rep=0,-1000000"], _MAX_CLOSED_K),
    (["homotopy", "--rep", "0,2,2,2", "--coeff", "F^1000"], _MAX_ORACLE_ENTRIES),
    (["homotopy", "--rep", "0,2,2,2", "--coeff", "F^2000", "--level", "K"],
     _MAX_ORACLE_ENTRIES),
    (["homotopy", "--rep", "0,10,10,10", "--coeff", "F^100"], _MAX_ORACLE_ENTRIES),
]


def test_oversized_requests_exit_2_in_a_limited_child():
    env = _child_env()
    for argv, bound in OVERSIZED:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", _LIMITED_CHILD, *argv],
                              capture_output=True, text=True, timeout=60, env=env)
        assert time.perf_counter() - start < 1, argv
        assert (done.returncode, done.stdout) == (2, ""), (argv, done.stderr[-2000:])
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
        assert "Traceback" not in done.stderr and str(bound) in done.stderr, done.stderr
    # the closed engine's cost is k's, not a's or a multiplicity's
    code, text = run(["homotopy", "--engine", "closed", "--rep", "100000000,1,1,1",
                      "--coeff", "F^100000000"])
    assert code == 0 and text.endswith("pi_100000003 = F^100000000\n"), text
    code, text = run(["homotopy", "--engine", "closed", "--rep", f"0,{_MAX_CLOSED_K}"])
    assert code == 0 and text.endswith(f"pi_{_MAX_CLOSED_K} = F\n"), text


# Calls main once per argv of a JSON list, in the same limited child, and
# prints [exit code or None, stdout length, stderr or the traceback, seconds]
# for each.
_FUZZ_CHILD = _LIMITED + """
import contextlib, io, json, time, traceback
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv, out=out)
    except BaseException:
        code, err = None, io.StringIO(traceback.format_exc())
    results.append([code, len(out.getvalue()), err.getvalue(), time.perf_counter() - start])
print(json.dumps(results))
"""


def _sized(*ranges):
    """An integer from one of the ranges, each given as (low, high)."""
    return st.one_of(*(st.integers(lo, hi) for lo, hi in ranges))


# A size is small, so that the query answers in well under a second, or past
# a bound, so that it is refused.  A Klein twist with |b|, |c|, |d| >= 45 is
# past the oracle's cell bound, and one past 10^6 is also past poincare's and
# the closed engine's; each range keeps clear of the sizes just under a bound,
# which take seconds by design.
_SMALL, _MID, _FAR = (0, 2), (45, 200), (10**6 + 1, 10**12)
_NEGATIVE = (-10**12, -1)


def _text(alphabet, max_size):
    """Random text with each run of digits cut to its first digit, so that
    every number in it is far below every bound."""
    return st.text(alphabet, max_size=max_size).map(lambda t: re.sub(r"(\d)\d+", r"\1", t))


def _signed(size):
    return st.builds(lambda x, s: x * s, st.integers(*size), st.sampled_from([1, -1]))


@st.composite
def _rep_of_size(draw, size):
    a = draw(st.integers(-4, 4))
    if draw(st.booleans()):            # a + k rho, the closed engine's twists
        k = draw(_signed(size))
        return draw(st.sampled_from([f"{a + k},{k}", f"{a + k},{k},{k},{k}"]))
    others = draw(st.lists(_signed(size), min_size=1, max_size=3).filter(
        lambda xs: len(xs) != 2))
    return ",".join(map(str, (a, *others)))


_rep = st.one_of(_text("0123456789,+-abgx \n", 10), _rep_of_size(_SMALL),
                 _rep_of_size(_MID) | _rep_of_size(_FAR))


_ATOMS = CATALOG_ATOMS + ("phiLDR(F)", "phiLDR(g)", "phiLD(F)", "0", "nope", "")
_term = st.builds(lambda atom, power: atom if power is None else f"{atom}^{power}",
                  st.sampled_from(_ATOMS), st.none() | _sized((0, 3), (50001, 10**9)))
_sums = st.lists(_term, min_size=1, max_size=3).map(" + ".join)
_catalog_sums = st.lists(st.sampled_from(CATALOG_ATOMS), min_size=1, max_size=3).map(" + ".join)
_coeff_text = _text("FfgmWw*^()+phiLDR0123 ", 12)


def _flag(name, values):
    """[] or [--name=value]; the = form keeps a value that starts with "-"."""
    return st.just([]) | values.map(lambda v: [f"--{name}={v}"])


def _args(*parts):
    return st.tuples(*parts).map(lambda lists: [a for part in lists for a in part])


_FILES = st.sampled_from(["no-such-file.json", ".", README])
# chart --out: a file that takes the chart, a directory, a missing directory
_OUTS = st.sampled_from([os.devnull, ".", os.path.join("no-such-dir", "chart.txt")])
_SWEEPS = ("--suite=axioms", "--suite=duality", "--suite=hk-oracle", "--suite=slice-homotopy")
_N = _sized(_SMALL, (3, 16), (1001, 10**12), _NEGATIVE)
_FORMATS = st.sampled_from(["text", "json"])
_ARGV = st.one_of(
    _args(st.just(["poincare"]), _rep.map(lambda r: [f"--rep={r}"]),
          _flag("level", st.sampled_from(["K", "L", "e", "C2", "all"])),
          _flag("format", _FORMATS)),
    _args(st.just(["homotopy"]), _rep.map(lambda r: [f"--rep={r}"]),
          _flag("coeff", _sums | _coeff_text),
          _flag("engine", st.sampled_from(["oracle", "closed"])),
          _flag("level", st.sampled_from(["all", "K", "D", "C2", "e"])),
          _flag("format", _FORMATS)),
    # small Klein twists with catalog sums, which the oracle answers
    _args(st.just(["homotopy"]), st.tuples(st.integers(-4, 4), *[st.integers(*_SMALL)] * 3)
          .map(lambda v: [f"--rep={','.join(map(str, v))}"]),
          _flag("coeff", _catalog_sums),
          _flag("level", st.sampled_from(["all", "K", "D", "e"])), _flag("format", _FORMATS)),
    _args(st.just(["slice"]), _flag("group", st.sampled_from(["K", "C2"])),
          _N.map(lambda n: [f"--n={n}"]),
          _sized((-5, 80), (10**6, 10**12)).map(lambda i: [f"--i={i}"]),
          _flag("format", _FORMATS)),
    _args(st.just(["tower"]), _N.map(lambda n: [f"--n={n}"]),
          _flag("format", st.sampled_from(["text", "json", "svg"]))),
    _args(st.just(["chart"]), _N.map(lambda n: [f"--n={n}"]),
          _flag("group", st.sampled_from(["K", "C2"])),
          _flag("format", st.sampled_from(["text", "json", "svg"])),
          st.sampled_from([[], ["--solve"]]), _flag("cap", _sized((0, 5), _NEGATIVE)),
          _flag("out", _OUTS)),
    # past the solver's pair bound, K n <= 32
    _args(st.just(["chart", "--solve"]), st.integers(33, 40).map(lambda n: [f"--n={n}"])),
    _args(st.just(["mackey"]), st.one_of(
        (_catalog_sums | _sums | _coeff_text).map(lambda c: [f"--name={c}"]),
        _FILES.map(lambda f: [f"--file={f}"])),
          _flag("group", st.sampled_from(["K", "C2"])),
          st.sampled_from([[], ["--show"], ["--json"]])),
    # every suite, but not the default sweeps of the three that take a file
    # or a box and of slice-homotopy, which run for a second or more
    _args(st.just(["verify"]), st.sampled_from(sorted(verify.SUITES)).map(
        lambda suite: [f"--suite={suite}"]),
          st.one_of(st.just([]),
                    _flag("box", _sized((0, 1), (_MAX_VERIFY_BOX + 1, 10**12), _NEGATIVE)),
                    _flag("file", _FILES))
          ).filter(lambda argv: argv[1] not in _SWEEPS or len(argv) > 2),
    # usage errors, which argparse finds: an unknown subcommand or option, a
    # required option left out, or a value of the wrong type or choice
    _args(st.sampled_from([[], ["nope"], ["poincare"], ["homotopy"], ["slice"], ["tower"],
                           ["chart"], ["mackey"], ["verify"]]),
          st.sampled_from([["--bogus"], ["--n=x"], ["--i=1.5"], ["--format=x"],
                           ["--level=Q"], ["--rep", "-1,0,0,0"], ["--cap"]])),
)


# No shrink phase: each shrink step would start another child, and a
# failing batch would take minutes to report; the failing argv shows as is.
@given(st.lists(_ARGV, min_size=20, max_size=40))
@settings(max_examples=12, derandomize=True, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_fuzzed_requests_answer_fast_or_exit_2(batch):
    # the exit-code contract over the CLI grammar: an answer, or one error
    # line; never a traceback, a verification failure or a slow answer
    done = subprocess.run([sys.executable, "-c", _FUZZ_CHILD, json.dumps(batch)],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert done.returncode == 0, done.stderr[-3000:]
    for argv, (code, out_len, err, seconds) in zip(batch, json.loads(done.stdout)):
        assert code in (0, 2) and "Traceback" not in err, (argv, code, err[-3000:])
        if code == 2:
            assert out_len == 0, argv
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert seconds < 1, (argv, seconds)


def test_chart_svg_out(tmp_path):
    target = tmp_path / "chart.svg"
    code, text = run(["chart", "--n", "10", "--format", "svg",
                      "--out", str(target)])
    assert code == 0
    data = target.read_text()
    assert data.startswith("<svg")


def test_chart_solve_reports_count():
    code, text = run(["chart", "--n", "9", "--solve", "--format", "text"])
    assert code == 0
    assert "solver: 2 consistent pattern(s)" in text
    # every format says when the pattern drawn is one of many
    code, svg = run(["chart", "--n", "13", "--solve", "--cap", "3", "--format", "svg"])
    assert code == 0 and svg.endswith("</svg>\n")
    assert ">solver: more than 3 patterns (truncated)</text>" in svg
    code, text = run(["chart", "--n", "13", "--solve", "--cap", "3", "--format", "json"])
    assert code == 0
    assert json.loads(text)["solver"] == "more than 3 patterns (truncated)"


def test_tower_json_has_cofiber():
    code, text = run(["tower", "--n", "8", "--format", "json"])
    assert code == 0
    nodes = json.loads(text)
    kinds = {node["label"]: node["coeff"] for node in nodes}
    assert kinds["P^10"] == "C"
    p88 = next(node for node in nodes if node["label"] == "P^8_8")
    assert {"degree": 8, "mackey": "F"} in p88["homotopy"]


def test_tower_svg():
    from xml.etree import ElementTree

    from kleinmackey.slices import tower_K
    code, text = run(["tower", "--n", "9", "--format", "svg"])
    assert code == 0 and run(["tower", "--n", "9", "--format", "svg"]) == (code, text)
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    rows = ElementTree.fromstring(text).findall("{http://www.w3.org/2000/svg}text")
    labels = [row.text for row in rows if row.get("x") == "20"]
    forms = [row.text for row in rows if row.get("x") == "120"]
    nodes = tower_K(9)
    assert labels == [f"[{node.label}]" if node.kind == "summand" else node.label
                      for node in nodes]
    assert forms == [node.pretty() for node in nodes]


def _readme_examples():
    text = open(README, encoding="utf-8").read()
    blocks = re.findall(r"```console\n(.*?)```", text, re.S)
    examples = []
    for block in blocks:
        lines = block.rstrip("\n").split("\n")
        assert lines[0].startswith("$ kleinmackey ")
        argv = lines[0][len("$ kleinmackey "):].split()
        examples.append((argv, "\n".join(lines[1:]) + "\n" if lines[1:] else ""))
    return examples


def test_readme_examples_golden_and_deterministic():
    examples = _readme_examples()
    assert len(examples) >= 8
    for argv, expected in examples:
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert code1 == 0 and code2 == 0, argv
        assert out1 == out2, argv
        assert out1 == expected, (argv, out1)


def test_readme_python_blocks_execute():
    text = open(README, encoding="utf-8").read()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "<readme>", "exec"), {})


def _pinned_sweep():
    """A fixed sweep of CLI calls: every subcommand and format, the --level
    values and both engines, the --file forms, a few usage errors and each
    bound's refusal.  Usage errors whose argparse text changes between
    Python versions (a choices list, the --help layout) are left out."""
    sweep = []
    for rep, levels in (("0,1,1,1", ["K", "L", "D", "R", "e", "all"]),
                        ("2,-1,3,0", ["K", "e", "all"]), ("-1,0,0,0", ["D"]),
                        ("0,1", ["C2", "e", "all"]), ("-2,3", ["all"])):
        for level in [None, *levels]:
            for fmt in ("text", "json"):
                sweep.append(["poincare", f"--rep={rep}", "--format", fmt]
                             + ([] if level is None else ["--level", level]))
    sweep += [["poincare", "--rep", "0,1,1,1", "--level", "C2"],
              ["poincare", "--rep", "0,1", "--level", "L"]]
    for engine, (rep, coeff), level, fmt in itertools.product(
            ("oracle", "closed"),
            (("1,1,1,1", "F"), ("0,-1,-1,-1", "f"), ("2,1,1,1", "W + w*"),
             ("-1,-2,-2,-2", "phiLDR(F*) + g^2"), ("1,1,1,1", "0"), ("1,1", "F* + g"),
             ("-2,-3", "F"), ("0,2,-1,1", "F")),
            ("all", "K", "L", "e", "C2"), ("text", "json")):
        sweep.append(["homotopy", "--engine", engine, f"--rep={rep}", "--coeff", coeff,
                      "--level", level, "--format", fmt])
    for group, n, i, fmt in itertools.product(("K", "C2"), (0, 3, 8, 9), (3, 8, 12, 13),
                                              ("text", "json")):
        sweep.append(["slice", "--group", group, "--n", str(n), "--i", str(i),
                      "--format", fmt])
    for n, fmt in itertools.product((0, 4, 5, 8, 9, 10, 11, 14), ("text", "json", "svg")):
        sweep.append(["tower", "--n", str(n), "--format", fmt])
    for group, n, fmt in itertools.product(("K", "C2"), (0, 5, 9, 12), ("text", "json", "svg")):
        sweep.append(["chart", "--group", group, "--n", str(n), "--format", fmt])
    for n, cap, fmt in ((9, "200", "text"), (11, "5", "json"), (13, "3", "svg"),
                        (7, "0", "text")):
        sweep.append(["chart", "--n", str(n), "--solve", "--cap", cap, "--format", fmt])
    sweep += [["chart", "--n", "10", "--format", "svg", "--out", "chart.svg"],
              ["chart", "--n", "6", "--group", "C2", "--solve", "--out", "."]]
    for name, group in (("F", "K"), ("m*", "K"), ("phiLDR(F*) + g^2", "K"),
                        ("F* + f", "C2"), ("W", "C2")):
        for flag in ([], ["--show"], ["--json"]):
            sweep.append(["mackey", "--name", name, "--group", group, *flag])
    for path in ("good.json", "broken.json", "failing.json", "missing.json"):
        sweep += [["mackey", "--file", path], ["mackey", "--file", path, "--json"],
                  ["verify", "--suite", "axioms", "--file", path]]
    sweep += [["verify", "--suite", suite] for suite in ("twistings", "euler", "figure1")]
    sweep += [["verify", "--suite", "twistings", "--box", "3"],
              ["verify", "--suite", "duality", "--box", "-1"],
              ["verify", "--suite", "hk-oracle", "--file", "good.json"]]
    # usage errors
    sweep += [[], ["slice", "--n", "8"], ["slice", "--n", "x", "--i", "1"],
              ["tower", "--n", "3", "--bogus"], ["poincare", "--rep", "-1,0,0,0"],
              ["poincare", "--rep", "x"], ["poincare", "--rep=2++a"],
              ["chart", "--n", "9", "--solve", "--cap", "-1"], ["tower", "--n=-1"]]
    # each bound's refusal
    sweep += [["poincare", "--rep", "0,1000,1000,1000"],
              ["poincare", "--rep", "0,1000,0,1000", "--format", "json"],
              ["homotopy", "--rep", "0,200,200,200"],
              ["homotopy", "--rep", "0,2,2,2", "--coeff", "F^1000"],
              ["homotopy", "--engine", "closed", "--rep", "0,20000,20000,20000"],
              ["homotopy", "--rep", "0,1,0,0", "--coeff", "F^100000000"],
              ["homotopy", "--rep", "0,1,0,0", "--coeff", "F^1000", "--format", "json"],
              ["mackey", "--name", "F^3000"], ["mackey", "--name", "F^1000", "--json"],
              ["tower", "--n", str(MAX_TOWER_N + 1)],
              ["chart", "--n", str(MAX_CHART_N + 1)],
              ["chart", "--n", "34", "--solve"],
              ["verify", "--suite", "duality", "--box", str(_MAX_VERIFY_BOX + 1)]]
    return sweep


def test_cli_output_is_pinned(tmp_path, monkeypatch):
    # sha256 of (argv, stdout, stderr, exit code) over the sweep: a change to
    # any byte the CLI prints, or to an exit code, shows here
    from kleinmackey.mackey import catalog
    monkeypatch.chdir(tmp_path)
    doc = catalog("F").to_json_dict()
    (tmp_path / "good.json").write_text(json.dumps(doc))
    doc["tr"]["R>K"] = [[1]]
    (tmp_path / "failing.json").write_text(json.dumps(doc))
    doc["res"]["K>L"] = [[2]]
    (tmp_path / "broken.json").write_text(json.dumps(doc))
    records = []
    for argv in _pinned_sweep():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        records.append([argv, out.getvalue(), err.getvalue(), code])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "ea2adb43c27575ab1de4ed615fe75cff6592f3c0f9fb9a8ee673adfcafe62b0f", \
        (len(records), digest)
