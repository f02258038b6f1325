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
from .mackey import (catalog, catalog_c2, expr_dims, format_name_expr, identify,
                     mackey_from_json, parse_name_expr)
from .reps import RepC2, RepK, parse_rep, parse_rep_c2


class UsageError(Exception):
    pass


# The largest sphere the oracle engine takes, counted in cells of its complex.
# At this size a --coeff F query takes about a minute: 35(alpha+beta+gamma),
# 89531 cells, took 47-59 s on a 2-core x86-64 host with Python 3.11.
MAX_ORACLE_CELLS = 90000


def oracle_cell_count(v):
    """Cells of the oracle's complex for S^v, computed without building it."""
    if isinstance(v, RepC2):
        return 1 + abs(v.b)
    b, c, d = abs(v.b), abs(v.c), abs(v.d)
    return (1 + b) * (1 + c) * (1 + d) + b * c * d


def _parse_any_rep(text):
    parts = text.split(",")
    if len(parts) == 2:
        return parse_rep_c2(text)
    return parse_rep(text)


def _emit(out, text):
    out.write(text if text.endswith("\n") else text + "\n")


def cmd_poincare(args, out):
    v = _parse_any_rep(args.rep)
    table = hk.poincare(v)
    if args.format == "json":
        doc = {lv: p.to_json_dict() for lv, p in table.items()}
        _emit(out, json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.level == "all":
        for lv in (table if isinstance(v, RepC2) else ("K", "L", "D", "R", "e")):
            _emit(out, f"{lv}: {table[lv].pretty()}")
    else:
        if args.level not in table:
            raise UsageError(f"no level {args.level!r} for this group")
        _emit(out, table[args.level].pretty())
    return 0


def cmd_homotopy(args, out):
    v = _parse_any_rep(args.rep)
    group = "K" if isinstance(v, RepK) else "C2"
    if args.level not in ("all",) + (("K", "L", "D", "R", "e") if group == "K"
                                     else ("C2", "e")):
        raise UsageError(f"no level {args.level!r} for this group")
    if args.engine == "closed":
        a = v.a - v.b
        k = v.b
        if group == "K" and (v.c, v.d) != (k, k):
            if args.coeff != "F":
                raise UsageError("closed engine needs a suspension of the form "
                                 "a + k rho for named coefficients")
            # a Klein twist not of the form a + k rho: report the per-level
            # dimension series
            series = hk.poincare(v)
            levels = group_by_name("K").levels if args.level == "all" else [args.level]
            if args.format == "json":
                _emit(out, json.dumps({lv: series[lv].to_json_dict()
                                       for lv in levels},
                                      indent=2, sort_keys=True))
            else:
                for lv in levels:
                    _emit(out, f"{lv}: {series[lv].pretty()}")
            return 0
        table = slc.graded_homotopy(a, k, parse_name_expr(args.coeff, group), group)
        found = [({"degree": d, "identified_name": format_name_expr(e)},
                  expr_dims(e, group)) for d, e in sorted(table.items())]
    else:
        cells = oracle_cell_count(v)
        if cells > MAX_ORACLE_CELLS:
            raise UsageError(f"S^V has {cells} cells, more than the oracle "
                             f"engine's bound of {MAX_ORACLE_CELLS}")
        found = []
        for d, m in sorted(bredon.homotopy(v, args.coeff).items()):
            expr = identify(m)
            found.append(({
                "degree": d,
                "mackey": m.to_json_dict(),
                "identified_name":
                    format_name_expr(expr) if expr is not None else "unidentified",
            }, m.dims))
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
    if args.group == "K":
        cell = slc.slice_K(args.n, args.i)
    else:
        cell = slc.slice_C2(args.n, args.i)
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
    chart = sschart.build_E1(args.n, args.group)
    diffs = ()
    solved_note = None
    if args.solve:
        try:
            patterns = sschart.solve_differentials(chart, cap=args.cap)
            solved_note = f"{len(patterns)} consistent pattern(s)"
            diffs = patterns[0] if patterns else ()
        except sschart.PatternCapExceeded as exc:
            solved_note = f"more than {len(exc.patterns)} patterns (truncated)"
            diffs = exc.patterns[0] if exc.patterns else ()
    elif args.group == "K" and args.n <= 10:
        diffs = sschart.canned_differentials(args.n)
    text = sschart.render(chart, args.format, diffs)
    if solved_note:
        if args.format == "text":
            text += f"solver: {solved_note}\n"
        elif args.format == "json":
            doc = json.loads(text)
            doc["solver"] = solved_note
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _emit(out, f"wrote {args.out}")
    else:
        out.write(text)
    return 0


def cmd_mackey(args, out):
    if args.file:
        with open(args.file) as fh:
            m = mackey_from_json(json.load(fh))
    elif args.group == "C2":
        m = catalog_c2(args.name)
    else:
        m = catalog(args.name)
    if args.json:
        _emit(out, json.dumps(m.to_json_dict(), indent=2, sort_keys=True))
    else:
        _emit(out, m.pretty())
    return 0


def cmd_verify(args, out):
    kwargs = {}
    if args.suite in ("hk-oracle", "duality") and args.box is not None:
        kwargs["box"] = args.box
    if args.suite == "axioms" and args.file:
        with open(args.file) as fh:
            kwargs["mackey_json"] = json.load(fh)
    report = verify.run_suite(args.suite, **kwargs)
    _emit(out, report.summary())
    return 0 if report.passed else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="kleinmackey",
        description="Mackey functor calculus over C2 and the Klein four-group")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("poincare", help="graded dimension series of a twist")
    sp.add_argument("--rep", required=True,
                    help='representation "a,b,c,d" (Klein) or "a,b" (C2)')
    sp.add_argument("--level", default="K",
                    choices=["K", "L", "D", "R", "e", "C2", "all"])
    sp.add_argument("--format", default="text", choices=["text", "json"])
    sp.set_defaults(func=cmd_poincare)

    sp = sub.add_parser(
        "homotopy", help="graded homotopy Mackey functors",
        description="Graded homotopy Mackey functors of a twisted sphere. The "
                    "oracle engine refuses a sphere whose cell complex has more "
                    f"than {MAX_ORACLE_CELLS} cells, (1+|b|)(1+|c|)(1+|d|) + "
                    "|bcd| for K and 1+|b| for C2, about a minute of work.")
    sp.add_argument("--rep", required=True)
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

    sp = sub.add_parser("tower", help="slice tower node list")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--format", default="text", choices=["text", "json", "svg"])
    sp.set_defaults(func=cmd_tower)

    sp = sub.add_parser("chart", help="slice spectral sequence chart")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--group", default="K", choices=["K", "C2"])
    sp.add_argument("--format", default="text", choices=["text", "json", "svg"])
    sp.add_argument("--solve", action="store_true",
                    help="search for all consistent differential patterns")
    sp.add_argument("--cap", type=int, default=200)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_chart)

    sp = sub.add_parser("mackey", help="show a catalog Mackey functor")
    sp.add_argument("--name", default="F")
    sp.add_argument("--group", default="K", choices=["K", "C2"])
    sp.add_argument("--show", action="store_true", help="Lewis diagram (default)")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--file", default=None, help="read the functor from JSON")
    sp.set_defaults(func=cmd_mackey)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    sp.add_argument("--box", type=int, default=None,
                    help="coefficient box half-width for sweep suites")
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
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
