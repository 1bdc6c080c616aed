"""Command-line surface.

Subcommands: prototypes, euler, sv, hseries, boundary, tables, verify.
All machine formats carry exact strings; a decimal approximation appears
only in the clearly labeled coefficient column of sv output, correctly
rounded from integer arithmetic.

Exit codes: 0 success, 1 validation error, 2 verify found a failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import boundary as boundary_mod
from . import euler as euler_mod
from . import siegelveech as sv_mod
from . import verify as verify_mod
from .exact import _discriminants, check_discriminant
from .prototypes import enumerate_prototypes, prototype_to_json

TABLE1_D = (5, 8, 12, 13, 17, 20, 21, 24, 28, 29)


def _emit(text: str, output: str | None) -> None:
    if text and not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _range_of(args) -> tuple[int, int]:
    if args.d is not None:
        if args.dmin is not None or args.dmax is not None:
            raise ValueError("--d cannot be combined with --dmin or --dmax")
        check_discriminant(args.d)
        return args.d, args.d
    if args.dmin is None or args.dmax is None:
        raise ValueError("need --d or both --dmin and --dmax")
    if args.dmin > args.dmax:
        raise ValueError(f"empty range: --dmin {args.dmin} > --dmax {args.dmax}")
    return args.dmin, args.dmax


def _cmd_prototypes(args) -> int:
    protos = enumerate_prototypes(args.d, args.kind)
    if args.format == "json":
        text = json.dumps([prototype_to_json(p) for p in protos], indent=2)
    elif args.format == "csv":
        rows = [["kind", "D", "a", "b", "c", "q", "modulus"]]
        rows += [[*map(str, p), str(p.modulus)] for p in protos]
        text = _csv(rows)
    else:
        text = "\n".join(str(p) for p in protos)
    _emit(text, args.output)
    return 0


def _render_reports(records: list[dict], args) -> str:
    """Report records as json, csv or text; the columns are the record keys."""
    if args.format == "json":
        return json.dumps(records if args.d is None else records[0], indent=2)
    keys = list(records[0])
    if args.format == "csv":
        return _csv([keys] + [["" if r[k] is None else str(r[k]) for k in keys] for r in records])
    return "\n\n".join(
        "\n".join(f"{k} = {'-' if r[k] is None else r[k]}" for k in keys) for r in records
    )


def _cmd_euler(args) -> int:
    dmin, dmax = _range_of(args)
    reports = [euler_mod.euler_report(D).to_json() for D in _discriminants(dmin, dmax)]
    if not reports:
        raise ValueError(f"no discriminants in [{dmin}, {dmax}]")
    _emit(_render_reports(reports, args), args.output)
    return 0


def _cmd_sv(args) -> int:
    dmin, dmax = _range_of(args)
    reports = [
        sv_mod.sv_report(D, digits=args.digits).to_json()
        for D in _discriminants(dmin, dmax)
        if args.d is not None or sv_mod._sv_applies(D)
    ]
    if not reports:
        raise ValueError(f"no nonsquare discriminants >= 5 in [{dmin}, {dmax}]")
    _emit(_render_reports(reports, args), args.output)
    return 0


def _cmd_hseries(args) -> int:
    rows = euler_mod.h_table(args.dmin, args.dmax)
    if not rows:
        raise ValueError(f"no discriminants in [{args.dmin}, {args.dmax}]")
    if args.format == "text":
        text = "\n".join(f"h2({D}) = {h}" for D, h in rows)
    else:
        text = _render_reports([{"D": D, "h2": str(h)} for D, h in rows], args)
    _emit(text, args.output)
    return 0


def _cmd_boundary(args) -> int:
    cx = boundary_mod.build_complex(args.d)
    if args.format == "json":
        text = json.dumps(cx.to_json(), indent=2)
    elif args.format == "dot":
        text = boundary_mod.export_dot(cx)
    else:
        lines = [f"boundary complex for D = {cx.D}", "curves:"]
        for n in cx.curves:
            spins = ",".join(str(s) for s in n.spins) if n.spins else "-"
            wc = "-" if n.wcusps is None else str(n.wcusps)
            lines.append(f"  {n.id}: wcusps={wc} pcusps={n.pcusps} spins={spins}")
        lines.append("junctions:")
        for e in cx.junctions:
            p = e.prototype
            lines.append(
                f"  c({p.a},{p.b},{p.c},{p.q}): m={e.m} {e.src} -> {e.dst}"
                f" wcusps={e.wcusps} pcusps={e.pcusps}"
            )
        if cx.s1s2_points is not None:
            lines.append(f"s1s2_points: {cx.s1s2_points}")
        text = "\n".join(lines)
    _emit(text, args.output)
    return 0


def _table2_value(D: int) -> str:
    constant, components, _ = sv_mod._constants(D)
    return str(constant if components is None else components[0])


def _cmd_tables(args) -> int:
    if not args.sv and not args.regenerate:
        raise ValueError("tables needs --sv or --regenerate")
    table2 = [[str(D), _table2_value(D)]
              for D in _discriminants(5, args.dmax) if sv_mod._sv_applies(D)]
    if not table2:
        raise ValueError(f"no nonsquare discriminants >= 5 up to --dmax {args.dmax}")
    if args.sv:
        _emit(_csv(table2), args.output if not args.regenerate else None)
    if args.regenerate:
        outdir = args.output or "."
        os.makedirs(outdir, exist_ok=True)
        table1 = [[str(D), str(sv_mod.billiards_constant(D))] for D in TABLE1_D]
        for name, rows in (("table1.csv", table1), ("table2.csv", table2)):
            path = os.path.join(outdir, name)
            with open(path, "w") as fh:
                fh.write(_csv(rows))
            print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _parse_shard(text: str) -> tuple[int, int]:
    try:
        index, count = text.split("/")
        index, count = int(index), int(count)
    except ValueError:
        raise ValueError(f"bad --shard {text}: expected i/n such as 0/4")
    if not verify_mod._shard_ok(index, count):
        raise ValueError(f"bad --shard {text}: need 0 <= i < n")
    return index, count


def _cmd_verify(args) -> int:
    reports = verify_mod.verify_range(args.dmin, args.dmax, _parse_shard(args.shard))
    if not reports:
        raise ValueError(
            f"--dmin {args.dmin} --dmax {args.dmax} --shard {args.shard}"
            " selects no discriminants"
        )
    lines = []
    totals: dict[str, int] = {}
    failed = 0
    for r in reports:
        status = "ok" if r.ok else "FAIL"
        lines.append(f"D={r.D}: {r.passed} checks, {status}")
        for f in r.failures:
            failed += 1
            lines.append(f"  FAIL {f}")
        if not r.ok:
            lines.append(f"  reproduce: wcurves verify --dmin {r.D} --dmax {r.D}")
        for name, n in r.tallies:
            totals[name] = totals.get(name, 0) + n
    lines.append("")
    width = max((len(k) for k in totals), default=4)
    for name in sorted(totals):
        lines.append(f"{name:<{width}}  {totals[name]}")
    lines.append("")
    lines.append(
        f"verified {len(reports)} discriminants:"
        f" {sum(r.passed for r in reports)} checks passed, {failed} failed"
    )
    _emit("\n".join(lines), args.output)
    return 2 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcurves",
        description="Exact invariants of genus-two Weierstrass curve families.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_output(p):
        p.add_argument("--output", metavar="PATH", help="write to PATH instead of stdout")

    p = sub.add_parser("prototypes", help="enumerate prototypes for one discriminant")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kind", choices=["y", "w", "p"], default="w")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    add_output(p)
    p.set_defaults(func=_cmd_prototypes)

    p = sub.add_parser("euler", help="Euler characteristics and cusp counts")
    p.add_argument("--d", type=int)
    p.add_argument("--dmin", type=int)
    p.add_argument("--dmax", type=int)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    add_output(p)
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("sv", help="cylinder-counting constants")
    p.add_argument("--d", type=int)
    p.add_argument("--dmin", type=int)
    p.add_argument("--dmax", type=int)
    p.add_argument("--digits", type=int, default=50)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    add_output(p)
    p.set_defaults(func=_cmd_sv)

    p = sub.add_parser("hseries", help="modified class number table")
    p.add_argument("--dmin", type=int, default=0)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--format", choices=["text", "json", "csv"], default="csv")
    add_output(p)
    p.set_defaults(func=_cmd_hseries, d=None)

    p = sub.add_parser("boundary", help="cusp complex of one discriminant")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")
    add_output(p)
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("tables", help="golden constant tables")
    p.add_argument("--sv", action="store_true", help="print table2 rows to stdout")
    p.add_argument("--regenerate", action="store_true",
                   help="write table1.csv and table2.csv")
    p.add_argument("--dmax", type=int, default=100)
    p.add_argument("--output", metavar="PATH",
                   help="row sink for --sv, directory for --regenerate")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("verify", help="run every invariant over a range")
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--shard", default="0/1", metavar="I/N",
                   help="process every N-th discriminant starting at offset I")
    add_output(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
