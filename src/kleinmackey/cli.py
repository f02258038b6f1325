"""Command line interface: one binary, one subcommand per computation.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
All output is deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bredon, hk, sschart, verify
from . import slices as slc
from .groups import group_by_name
from .mackey import (_MAX_MAP_ENTRIES, _checked_dims, catalog, expr_dims,
                     format_name_expr, identify, mackey_from_json, parse_name_expr)
from .reps import RepK, parse_rep


# The largest sphere the oracle engine takes, counted in cells of its complex.
# At this size a --coeff F query takes several seconds:
# 35(alpha+beta+gamma), 89531 cells, took 3.5-4.7 s over eight runs and
# 160 MiB max RSS, each in a child, on a 2-core x86-64 host with Python 3.11.
MAX_ORACLE_CELLS = 90000

# The most entries the oracle's largest differential may have, with D the
# coefficient's largest level dimension: D^2 u_n u_{n-1}, for u_n the cells
# of degree n at the bottom level, where every orbit splits into points.
# Past its first 16 MiB a query holds about 0.5-0.6 bytes per entry once the
# differentials dominate.  On the same host, near the bound, 0,2,2,2 with
# F^416, 0,3,3,3 with F^200, 0,5,5,5 with F^79 and 0,10,10,10 with F^21 took
# 0.5-1.1 s and 116-134 MiB, 0,30,30,30 with F^2 4.2 s and 149 MiB, and
# 0,1,0,0 with F^10000, where the coefficient's own maps dominate, 2.2 s and
# 470 MiB.  Past it, 0,2,2,2 with F^1000 (1.15*10^9 entries) took 2.2 s and
# 606 MiB, and with F^2000 ran out of memory under a 1.5 GB limit.
_MAX_ORACLE_ENTRIES = 2 * 10**8

# The largest |k| the closed engine takes for a + k rho.  Its cost is linear
# in k: with F, 0,10000,10000,10000 took 0.56 s and 42 MiB on the same host,
# with all 21 Klein atoms 2.0 s, and 0,100000,100000,100000 with F 5.5 s.
_MAX_CLOSED_K = 10**4

# The largest n `tower` takes.  Above n = 10 the tower is the bare slice
# list, whose cost grows about as n^2: n = 1000 took 4 s on the same host.
MAX_TOWER_N = 1000

# The largest n `chart` takes, with or without --solve: n = 1000 took 6 s and
# 113 MiB as text, and n = 2000 took 27 s and 397 MiB, on the same host.
MAX_CHART_N = 1000

# The largest closed-form series `poincare` multiplies out, counted as
# (1+x)(1+y) for the two largest x, y of |b|, |c|, |d|, or 1+|b| for C2: the
# product of two geometric series costs about that many term products.  At
# the bound, 0,999,999,999 took 0.5-0.6 s and 0,999999,0,0 3.8 s (ten
# megabytes of output) on the same host.
_MAX_POINCARE_TERMS = 10**6

# argparse reads a value that starts with "-" as an option name
_REP_HELP = ('representation "a,b,c,d" (Klein) or "a,b" (C2); one that starts '
            'with "-" needs the --rep= form, as in --rep=-1,0,0,0')


def oracle_cell_count(v):
    """Cells of the oracle's complex for S^v, computed without building it."""
    if v.group == "C2":
        return 1 + abs(v.b)
    b, c, d = abs(v.b), abs(v.c), abs(v.d)
    return (1 + b) * (1 + c) * (1 + d) + b * c * d


def _oracle_entries(v, dims):
    """The size _MAX_ORACLE_ENTRIES bounds, computed without the complex: the
    bottom level's cells per degree are the coefficients of the product, over
    the characters, of 1 + 2(x^s + ... + x^(|n|s)), s the sign of n."""
    cells = [1]
    for n in v.coeffs()[1:]:
        factor = [1] + [2] * n if n >= 0 else [2] * -n + [1]
        product = [0] * (len(cells) + len(factor) - 1)
        for i, x in enumerate(cells):
            for j, y in enumerate(factor):
                product[i + j] += x * y
        cells = product
    return max(dims) ** 2 * max((x * y for x, y in zip(cells, cells[1:])), default=0)


def _check_oracle_cells(v, coeff, what):
    """ValueError naming what, when S^v is past MAX_ORACLE_CELLS or, with the
    coefficient name expression coeff, past _MAX_ORACLE_ENTRIES."""
    cells = oracle_cell_count(v)
    if cells > MAX_ORACLE_CELLS:
        raise ValueError(f"{what} has {cells} cells, more than the oracle "
                         f"engine's bound of {MAX_ORACLE_CELLS}")
    entries = _oracle_entries(v, _checked_dims(parse_name_expr(coeff, v.group), v.group))
    if entries > _MAX_ORACLE_ENTRIES:
        raise ValueError(f"{what} with {coeff} has a differential of {entries} entries, "
                         f"more than the oracle engine's bound of {_MAX_ORACLE_ENTRIES}")


def _poincare_terms(v):
    """The size _MAX_POINCARE_TERMS bounds, computed without the series."""
    sizes = sorted((abs(e) for e in v.coeffs()[1:]), reverse=True) + [0]
    return (1 + sizes[0]) * (1 + sizes[1])


def _emit(out, text):
    out.write(text if text.endswith("\n") else text + "\n")


def cmd_poincare(args, out):
    v = parse_rep(args.rep)
    terms = _poincare_terms(v)
    if terms > _MAX_POINCARE_TERMS:
        raise ValueError(f"the series of {args.rep} needs {terms} term products, "
                         f"past the bound of {_MAX_POINCARE_TERMS}")
    table = hk.poincare(v)
    if args.format == "json":
        doc = {lv: p.to_json_dict() for lv, p in table.items()}
        _emit(out, json.dumps(doc, indent=2, sort_keys=True))
        return 0
    level = args.level or group_by_name(v.group).levels[0]
    if level == "all":
        for lv in table:
            _emit(out, f"{lv}: {table[lv].pretty()}")
    else:
        if level not in table:
            raise ValueError(f"no level {level!r} for this group")
        _emit(out, table[level].pretty())
    return 0


def cmd_homotopy(args, out):
    v = parse_rep(args.rep)
    group = v.group
    if args.level != "all" and args.level not in group_by_name(group).levels:
        raise ValueError(f"no level {args.level!r} for this group")
    if args.engine == "closed":
        try:
            a, k = slc._rho_decompose(v)
        except ValueError:
            raise ValueError("closed engine needs a suspension of the form "
                             "a + k rho; poincare gives the level series "
                             "of other twists") from None
        if abs(k) > _MAX_CLOSED_K:
            raise ValueError(f"closed engine takes |k| up to {_MAX_CLOSED_K} in "
                             f"a + k rho, and {args.rep} has k = {k}")
        table = slc.graded_homotopy(a, k, parse_name_expr(args.coeff, group), group)
        found = [({"degree": d, "identified_name": format_name_expr(e)},
                  expr_dims(e, group)) for d, e in sorted(table.items())]
    else:
        _check_oracle_cells(v, args.coeff, "S^V")
        found = []
        for d, m in sorted(bredon.homotopy(v, args.coeff).items()):
            expr = identify(m)
            row = {"degree": d, "identified_name":
                   format_name_expr(expr) if expr is not None else "unidentified"}
            if args.format == "json":
                row["mackey"] = m.to_json_dict()
            found.append((row, m.dims))
    rows = [row for row, _ in found]
    if args.level != "all":
        index = group_by_name(group).level_index[args.level]
        for row, dims in found:
            row["dim"] = dims[index]
    if args.format == "json":
        _emit(out, json.dumps(rows, indent=2, sort_keys=True))
    else:
        for row in rows:
            if "dim" in row:
                _emit(out, f"pi_{row['degree']}({args.level}) = "
                           f"F2^{row['dim']}  [{row['identified_name']}]")
            else:
                _emit(out, f"pi_{row['degree']} = {row['identified_name']}")
    return 0


def cmd_slice(args, out):
    cell = (slc.slice_K if args.group == "K" else slc.slice_C2)(args.n, args.i)
    if args.format == "json":
        doc = {"group": args.group, "n": args.n, "i": args.i,
               "trivial": cell.trivial}
        if not cell.trivial:
            doc["susp"] = list(cell.susp.coeffs())
            doc["coeff"] = format_name_expr(cell.coeff)
        _emit(out, json.dumps(doc, indent=2, sort_keys=True))
    else:
        _emit(out, cell.pretty())
    return 0


def cmd_tower(args, out):
    if args.n > MAX_TOWER_N:
        raise ValueError(f"tower --n {args.n} is past the bound of {MAX_TOWER_N}")
    nodes = slc.tower_K(args.n)
    if args.format == "json":
        doc = []
        for node in nodes:
            doc.append({
                "kind": node.kind,
                "label": node.label,
                "i": node.i,
                "susp": list(node.susp.coeffs()),
                "coeff": node.coeff if node.coeff == "C"
                else format_name_expr(node.coeff),
                "homotopy": [{"degree": d, "mackey": format_name_expr(e)}
                             for d, e in node.homotopy],
                "summand_of": node.summand_of,
                "note": node.note,
            })
        _emit(out, json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "svg":
        _emit(out, _tower_svg(args.n, nodes))
    else:
        for node in nodes:
            tag = f"[{node.label}]" if node.kind == "summand" else node.label
            extra = f"  (summand of the {node.summand_of}-slice)" \
                if node.summand_of else ""
            note = f"  ({node.note})" if node.note else ""
            _emit(out, f"{node.kind:>8} {tag:>8}  {node.pretty()}{extra}{note}")
    return 0


def _tower_svg(n, nodes):
    rows = []
    y = 24
    rows.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="560" '
                f'height="{28 * len(nodes) + 40}" font-family="monospace" '
                f'font-size="12">')
    rows.append(f'<text x="10" y="{y}">slice tower, n={n}</text>')
    for node in nodes:
        y += 28
        tag = node.label if node.kind != "summand" else f"[{node.label}]"
        rows.append(f'<text x="20" y="{y}">{tag}</text>')
        rows.append(f'<text x="120" y="{y}">{node.pretty()}</text>')
        if node.kind in ("section", "total"):
            rows.append(f'<line x1="100" y1="{y - 18}" x2="100" y2="{y - 4}" '
                        f'stroke="#888"/>')
    rows.append("</svg>")
    return "\n".join(rows)


def cmd_chart(args, out):
    if args.n > MAX_CHART_N:
        raise ValueError(f"chart --n {args.n} is past the bound of {MAX_CHART_N}")
    chart = sschart.build_E1(args.n, args.group)
    diffs = ()
    solved_note = None
    if args.solve:
        diffs, solved_note = sschart.first_solution(chart, args.cap)
    elif args.group == "K" and args.n <= 10:
        diffs = sschart.canned_differentials(args.n)
    text = sschart.render(chart, args.format, diffs, solved_note)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _emit(out, f"wrote {args.out}")
    else:
        out.write(text)
    return 0


def _read_json(path):
    """A --file document; ValueError when it nests past what the parser takes."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path} nests too deeply to read as JSON") from None


def cmd_mackey(args, out):
    if args.file:
        m = mackey_from_json(_read_json(args.file))
    else:
        m = catalog(args.name, args.group)
    if args.json:
        _emit(out, json.dumps(m.to_json_dict(), indent=2, sort_keys=True))
    else:
        _emit(out, m.pretty())
    return 0


def cmd_verify(args, out):
    kwargs = {}
    if args.box is not None:
        if args.suite not in ("hk-oracle", "duality"):
            raise ValueError(f"suite {args.suite} takes no --box")
        _check_oracle_cells(RepK(0, args.box, args.box, args.box), "F",
                            f"--box {args.box}'s largest sphere")
        kwargs["box"] = args.box
    if args.file is not None:
        if args.suite != "axioms":
            raise ValueError(f"suite {args.suite} takes no --file")
        kwargs["mackey_json"] = _read_json(args.file)
    report = verify.run_suite(args.suite, **kwargs)
    _emit(out, report.summary())
    return 0 if report.passed else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="kleinmackey",
        description="Mackey functor calculus over C2 and the Klein four-group")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "poincare", help="graded dimension series of a twist",
        description="Graded dimension series of a twisted sphere, from the closed "
                    "forms. It refuses a twist whose (1+x)(1+y), for the two "
                    "largest x, y of |b|, |c|, |d| (1+|b| for C2), is past "
                    f"{_MAX_POINCARE_TERMS}, several seconds of work.")
    sp.add_argument("--rep", required=True, help=_REP_HELP)
    sp.add_argument("--level", default=None,
                    choices=["K", "L", "D", "R", "e", "C2", "all"],
                    help="subgroup level (default: the top one, K or C2)")
    sp.add_argument("--format", default="text", choices=["text", "json"])
    sp.set_defaults(func=cmd_poincare)

    sp = sub.add_parser(
        "homotopy", help="graded homotopy Mackey functors",
        description="Graded homotopy Mackey functors of a twisted sphere. The "
                    "oracle engine refuses a sphere whose cell complex has more "
                    f"than {MAX_ORACLE_CELLS} cells, (1+|b|)(1+|c|)(1+|d|) + "
                    "|bcd| for K and 1+|b| for C2, several seconds of work, and "
                    "a query whose largest differential, D^2 u_n u_{n-1} for D "
                    "the coefficient's largest level dimension and u_n the "
                    "sphere's cells of degree n at the bottom level, has more "
                    f"than {_MAX_ORACLE_ENTRIES} entries. The closed engine "
                    f"refuses |k| past {_MAX_CLOSED_K} in a + k rho. --format "
                    "json refuses a functor whose maps have more than "
                    f"{_MAX_MAP_ENTRIES} entries in all.")
    sp.add_argument("--rep", required=True, help=_REP_HELP)
    sp.add_argument("--coeff", default="F")
    sp.add_argument("--engine", default="oracle", choices=["oracle", "closed"])
    sp.add_argument("--level", default="all",
                    choices=["all", "K", "L", "D", "R", "C2", "e"])
    sp.add_argument("--format", default="text", choices=["text", "json"])
    sp.set_defaults(func=cmd_homotopy)

    sp = sub.add_parser("slice", help="one slice of an integer suspension")
    sp.add_argument("--group", default="K", choices=["K", "C2"])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--format", default="text", choices=["text", "json"])
    sp.set_defaults(func=cmd_slice)

    sp = sub.add_parser(
        "tower", help="slice tower node list",
        description="Slice tower node list of the n-th suspension of HF over "
                    "K: the printed tower for n <= 10, the bare slice list "
                    f"above. --n is at most {MAX_TOWER_N}, a few seconds of work.")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--format", default="text", choices=["text", "json", "svg"])
    sp.set_defaults(func=cmd_tower)

    sp = sub.add_parser("chart", help="slice spectral sequence chart",
                        description="Slice spectral sequence chart of the n-th "
                                    f"suspension of HF. --n is at most {MAX_CHART_N}, and "
                                    f"--solve takes at most {sschart.MAX_SOLVE_PAIRS} "
                                    "chart pairs (K: n <= 32).")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--group", default="K", choices=["K", "C2"])
    sp.add_argument("--format", default="text", choices=["text", "json", "svg"])
    sp.add_argument("--solve", action="store_true",
                    help="search for all consistent differential patterns")
    sp.add_argument("--cap", type=int, default=200)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_chart)

    sp = sub.add_parser(
        "mackey", help="show a catalog Mackey functor",
        description="Show a catalog Mackey functor, or one read from JSON. It "
                    "refuses a functor whose maps have more than "
                    f"{_MAX_MAP_ENTRIES} entries in all, as text or JSON.")
    sp.add_argument("--name", default="F")
    sp.add_argument("--group", default="K", choices=["K", "C2"])
    sp.add_argument("--show", action="store_true", help="Lewis diagram (default)")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--file", default=None, help="read the functor from JSON")
    sp.set_defaults(func=cmd_mackey)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    sp.add_argument("--box", type=int, default=None,
                    help="coefficient box half-width for sweep suites; the "
                         "sweep's largest sphere, b = c = d = box, may have at most "
                         f"{MAX_ORACLE_CELLS} cells, so box <= 35")
    sp.add_argument("--file", default=None,
                    help="JSON Mackey functor for the axioms suite")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
