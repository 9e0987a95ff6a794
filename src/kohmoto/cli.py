"""Command-line interface.

Every invocation echoes a canonicalized command line into the output header
(first line for text/csv, a field for json, a comment for svg), produces
byte-identical artifacts on identical inputs, and maps failures to exit
codes: 2 precondition, 3 precision/certification, 4 unsupported regime.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import analysis, spectra, tree, words
from .errors import KohmotoError, PreconditionError
from .farey import (
    FareyPoint,
    as_fraction,
    cf_forms,
    farey_distance,
    farey_neighbors,
    format_rational,
    mediant,
    simplest_rational_between,
)


def _parse_tol(text: str) -> Fraction:
    return Fraction(text)  # accepts "p/q", decimals, and scientific notation


def _parse_rational(text: str) -> Fraction:
    return as_fraction(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kohmoto",
        description="Exact Farey metric, mechanical words and certified spectra "
        "for the Kohmoto model.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, fmt_default="text", formats=("text", "json")):
        sp.add_argument("--format", choices=formats, default=fmt_default)
        sp.add_argument("--out", "-o", default=None, help="output path (default stdout)")

    farey = sub.add_parser("farey", help="Farey arithmetic and the Farey metric")
    fsub = farey.add_subparsers(dest="subcommand", required=True)
    f_dist = fsub.add_parser("dist", help="Farey distance between completion points")
    f_dist.add_argument("x")
    f_dist.add_argument("y")
    add_common(f_dist)
    f_nb = fsub.add_parser("neighbors", help="m-Farey neighbors of a rational")
    f_nb.add_argument("r")
    f_nb.add_argument("m", type=int)
    add_common(f_nb)
    f_med = fsub.add_parser("mediant", help="mediant of two rationals")
    f_med.add_argument("a")
    f_med.add_argument("b")
    add_common(f_med)
    f_cf = fsub.add_parser("cf", help="short and long continued fractions")
    f_cf.add_argument("r")
    add_common(f_cf)
    f_simp = fsub.add_parser("between", help="simplest rational in a completion interval")
    f_simp.add_argument("lo")
    f_simp.add_argument("hi")
    add_common(f_simp)

    tr = sub.add_parser("tree", help="interval tree and its boundary metric")
    tsub = tr.add_subparsers(dest="subcommand", required=True)
    t_show = tsub.add_parser("show", help="depth-bounded node listing")
    t_show.add_argument("--depth", type=int, default=3)
    add_common(t_show, "json")
    t_dist = tsub.add_parser("dist", help="boundary distance via the weighted tree")
    t_dist.add_argument("x")
    t_dist.add_argument("y")
    t_dist.add_argument("--depth", type=int, default=24)
    add_common(t_dist)

    wd = sub.add_parser("word", help="mechanical words, dictionaries, defects")
    wsub = wd.add_subparsers(dest="subcommand", required=True)
    w_show = wsub.add_parser("show", help="window of the configuration at a point")
    w_show.add_argument("point")
    w_show.add_argument("--lo", type=int, default=-12)
    w_show.add_argument("--hi", type=int, default=12)
    add_common(w_show)
    w_dict = wsub.add_parser("dict", help="dictionary slice of a configuration")
    w_dict.add_argument("point")
    w_dict.add_argument("--n", type=int, required=True)
    add_common(w_dict, "json")
    w_cx = wsub.add_parser("complexity", help="subword counts up to a length")
    w_cx.add_argument("point")
    w_cx.add_argument("--n", type=int, required=True)
    add_common(w_cx)
    w_def = wsub.add_parser("defect", help="one-sided limit configuration at a rational")
    w_def.add_argument("--r", required=True)
    w_def.add_argument("--side", choices=["plus", "minus"], required=True)
    add_common(w_def)

    sp = sub.add_parser("spectrum", help="certified band and defect spectra")
    ssub = sp.add_subparsers(dest="subcommand", required=True)
    s_bands = ssub.add_parser("bands", help="periodic spectrum at a rational rotation")
    s_bands.add_argument("--r", required=True)
    s_bands.add_argument("--V", required=True)
    s_bands.add_argument("--tol", default="1e-9")
    add_common(s_bands, "json")
    s_def = ssub.add_parser("defects", help="one-sided limit spectrum")
    s_def.add_argument("--r", required=True)
    s_def.add_argument("--side", choices=["plus", "minus"], required=True)
    s_def.add_argument("--V", required=True)
    s_def.add_argument("--tol", default="1e-9")
    add_common(s_def, "json")
    s_mem = ssub.add_parser("member", help="exact membership test for a rational energy")
    s_mem.add_argument("--E", required=True)
    s_mem.add_argument("--r", required=True)
    s_mem.add_argument("--V", required=True)
    add_common(s_mem)

    an = sub.add_parser("analyze", help="experiment drivers")
    asub = an.add_subparsers(dest="subcommand", required=True)
    a_lip = asub.add_parser("lipschitz", help="Hausdorff/Farey ratio table")
    a_lip.add_argument("--pair", action="append", required=True, metavar="X:Y")
    a_lip.add_argument("--V", required=True)
    a_lip.add_argument("--tol", default="1e-9")
    add_common(a_lip, "json")
    a_opt = asub.add_parser("optimality", help="gap-closing optimality certificate")
    a_opt.add_argument("--r", required=True)
    a_opt.add_argument("--side", choices=["plus", "minus"], required=True)
    a_opt.add_argument("--V", required=True)
    a_opt.add_argument("--kmax", type=int, default=20)
    a_opt.add_argument("--tol", default="1e-9")
    add_common(a_opt, "json")
    a_meas = asub.add_parser("measures", help="overlap-measure table")
    a_meas.add_argument("--r", required=True)
    a_meas.add_argument("--V", required=True)
    a_meas.add_argument("--kmax", type=int, default=6)
    a_meas.add_argument("--tol", default="1e-9")
    add_common(a_meas, "json")

    bf = sub.add_parser("butterfly", help="band/defect dataset over all q <= Q")
    bf.add_argument("--Q", type=int, required=True)
    bf.add_argument("--V", required=True)
    bf.add_argument("--tol", default="1e-6")
    bf.add_argument("--fast", action="store_true", help="uncertified floating backend")
    bf.add_argument("--no-defects", action="store_true")
    add_common(bf, "csv", ("json", "csv", "svg"))
    return p


def canonical_invocation(args: argparse.Namespace) -> str:
    parts = ["kohmoto", args.command]
    if getattr(args, "subcommand", None):
        parts.append(args.subcommand)
    skip = {"command", "subcommand", "out"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        val = getattr(args, key)
        if val is None or val is False:
            continue
        if val is True:
            parts.append(f"--{key.replace('_', '-')}")
        elif key in ("x", "y", "r", "a", "b", "lo", "hi", "point", "E", "V") and not isinstance(
            val, int
        ):
            parts.append(f"{key}={val}")
        else:
            parts.append(f"--{key.replace('_', '-')}={val}")
    return " ".join(str(x) for x in parts)


def emit(payload, fmt: str, invocation: str, out_path) -> None:
    if fmt == "json":
        body = json.dumps({"invocation": invocation, "result": payload}, indent=2, sort_keys=True)
        text = body + "\n"
    elif fmt == "csv":
        text = f"# {invocation}\n{payload}"
    elif fmt == "svg":
        head, _, rest = payload.partition("\n")
        text = f"{head}\n{analysis.xml_comment(invocation)}\n{rest}"
    else:
        text = f"# {invocation}\n{payload}\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spectrum_text(spec) -> str:
    obj = spec.to_json_obj()
    lines = [f"bands ({len(obj['bands'])}):"]
    for lo_lo, lo_hi, hi_lo, hi_hi in obj["bands"]:
        lines.append(f"  [{lo_lo} .. {hi_hi}]")
    if obj["points"]:
        lines.append(f"points ({len(obj['points'])}):")
        for lo, hi in obj["points"]:
            lines.append(f"  [{lo}, {hi}]")
    return "\n".join(lines)


def _run(args: argparse.Namespace) -> None:
    fmt = getattr(args, "format", "text")
    inv = canonical_invocation(args)
    cmd, subcmd = args.command, getattr(args, "subcommand", None)

    if cmd == "farey":
        if subcmd == "dist":
            d = farey_distance(FareyPoint.parse(args.x), FareyPoint.parse(args.y))
            payload = format_rational(d)
        elif subcmd == "neighbors":
            lo, hi = farey_neighbors(_parse_rational(args.r), args.m)
            pair = [None if v is None else format_rational(v) for v in (lo, hi)]
            payload = pair if fmt == "json" else f"{pair[0]} {pair[1]}"
        elif subcmd == "mediant":
            payload = format_rational(mediant(_parse_rational(args.a), _parse_rational(args.b)))
        elif subcmd == "between":
            s = simplest_rational_between(FareyPoint.parse(args.lo), FareyPoint.parse(args.hi))
            payload = format_rational(s)
        else:  # cf
            short, long = cf_forms(_parse_rational(args.r))
            if fmt == "json":
                payload = {"short": list(short), "long": list(long)}
            else:
                payload = f"short {list(short)}  long {list(long)}"
        emit(payload, fmt, inv, args.out)
        return

    if cmd == "tree":
        if subcmd == "show":
            rows = tree.level_listing(args.depth)
            if fmt == "json":
                payload = rows
            else:
                payload = "\n".join(f"{r['level']:2d}  {r['weight']:>8s}  {r['label']}" for r in rows)
        else:  # dist
            px = tree.path_of(FareyPoint.parse(args.x), args.depth)
            py = tree.path_of(FareyPoint.parse(args.y), args.depth)
            payload = format_rational(tree.boundary_distance(px, py))
        emit(payload, fmt, inv, args.out)
        return

    if cmd == "word":
        if subcmd == "defect":
            cfg = words.defect_config(_parse_rational(args.r), args.side)
            payload = cfg.render()
        elif subcmd == "show":
            words.check_window(args.lo, args.hi)
            cfg = words.limit_configuration(FareyPoint.parse(args.point))
            if isinstance(cfg, words.Configuration):
                payload = _window_text(cfg, args.lo, args.hi)
            else:
                payload = words.mechanical_word(cfg, args.lo, args.hi)
        elif subcmd == "dict":
            words.check_subword_length(args.n)
            cfg = words.limit_configuration(FareyPoint.parse(args.point))
            slice_ = words.dictionary(cfg, args.n)
            payload = sorted(slice_.words)
            if fmt == "text":
                payload = " ".join(payload)
        else:  # complexity
            words.check_subword_length(args.n)
            cfg = words.limit_configuration(FareyPoint.parse(args.point))
            counts = {n: words.complexity(cfg, n) for n in range(1, args.n + 1)}
            if fmt == "json":
                payload = counts
            else:
                payload = "\n".join(f"{n} {c}" for n, c in counts.items())
        emit(payload, fmt, inv, args.out)
        return

    if cmd == "spectrum":
        V = _parse_rational(args.V)
        if subcmd == "bands":
            spec = spectra.spectrum_periodic(_parse_rational(args.r), V, _parse_tol(args.tol))
            payload = spec.to_json_obj() if fmt == "json" else _spectrum_text(spec)
        elif subcmd == "defects":
            spec = spectra.defect_spectrum(
                _parse_rational(args.r), args.side, V, _parse_tol(args.tol)
            )
            payload = spec.to_json_obj() if fmt == "json" else _spectrum_text(spec)
        else:  # member
            inside = spectra.membership(_parse_rational(args.E), _parse_rational(args.r), V)
            payload = "true" if inside else "false"
        emit(payload, fmt, inv, args.out)
        return

    if cmd == "analyze":
        V = _parse_rational(args.V)
        tol = _parse_tol(args.tol)
        if subcmd == "lipschitz":
            pairs = []
            for chunk in args.pair:
                x, _, y = chunk.partition(":")
                pairs.append((FareyPoint.parse(x), FareyPoint.parse(y)))
            max_ratio, rows = analysis.lipschitz_sweep(pairs, V, tol)
            payload = {
                "max_ratio": format_rational(max_ratio),
                "rows": [
                    {
                        "x": str(row.x),
                        "y": str(row.y),
                        "d_F": format_rational(row.d_farey),
                        "d_H": [format_rational(v) for v in row.d_hausdorff],
                        "ratio_upper": format_rational(row.ratio_upper),
                        "q_times_dH": None
                        if row.scaled_qd is None
                        else [format_rational(v) for v in row.scaled_qd],
                    }
                    for row in rows
                ],
            }
            if fmt == "text":
                payload = json.dumps(payload, indent=2, sort_keys=True)
        elif subcmd == "optimality":
            rep = analysis.optimality_certificate(
                _parse_rational(args.r), args.side, V, args.kmax, tol
            )
            payload = rep.to_json_obj()
            if fmt == "text":
                payload = json.dumps(payload, indent=2, sort_keys=True)
        else:  # measures
            rep = analysis.measure_experiments(_parse_rational(args.r), V, args.kmax, tol)
            payload = rep.to_json_obj()
            if fmt == "text":
                payload = json.dumps(payload, indent=2, sort_keys=True)
        emit(payload, fmt, inv, args.out)
        return

    if cmd == "butterfly":
        V = _parse_rational(args.V)
        ds = analysis.butterfly(
            args.Q,
            V,
            backend="fast" if args.fast else "certified",
            include_defects=not args.no_defects,
            tol=_parse_tol(args.tol),
        )
        if fmt == "svg":
            payload = ds.to_svg()
        elif fmt == "json":
            payload = ds.to_json_obj()
        else:
            payload = ds.to_csv()
        emit(payload, fmt, inv, args.out)
        return

    raise PreconditionError(f"unknown command {cmd!r}")


def _window_text(cfg: words.Configuration, lo: int, hi: int) -> str:
    out = []
    for n in range(lo, hi + 1):
        if n == 0:
            out.append(".")
        if cfg.impurity and n == -len(cfg.impurity):
            out.append("[")
        out.append(cfg.at(n))
        if cfg.impurity and n == -1:
            out.append("]")
    return "".join(out)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _run(args)
        return 0
    except (KohmotoError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
