"""Command-line surface: enumerate, oracle, box, verify, crt, analyze, fit,
ratios.

Every output file starts with a reproducibility header (tool version, run
parameters, moduli).  Headers carry no timestamps, so identical inputs produce
byte-identical files regardless of worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import __version__, flm
from .modseries import (
    DEFAULT_MODULI,
    SeriesTable,
    TruncatedPolynomial,
    check_coprime,
    read_series,
    write_series,
)


class CliError(Exception):
    """User-facing error: unusable parameters or input."""


def _parse_ints(text: str, option: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad {option} value {text!r}: {exc}") from exc


def _base_meta(args_desc: str) -> dict:
    return {"tool": f"sawenum {__version__}", "command": args_desc}


def _write_csv(path, header_meta: dict, columns: tuple[str, ...], rows) -> None:
    lines = [f"# {k}: {v}" for k, v in header_meta.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(str(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@contextlib.contextmanager
def _claimed_output(path):
    """Check that ``path`` can be written before the work that fills it.

    The file is opened for appending, which creates a missing file and
    keeps what an existing one holds, so an unwritable path fails at once.
    If the work then fails, a file created here is removed again.
    """
    created = not os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    try:
        yield
    except BaseException:
        if created:
            os.remove(path)
        raise


def _cmd_enumerate(args) -> int:
    if args.residues is not None:
        moduli = _parse_ints(args.residues, "--residues")
        check_coprime(moduli)
    plan = flm.RunPlan(
        w_max=args.wmax,
        workers=args.workers,
        prune=not args.no_prune,
    )
    with _claimed_output(args.output):
        table = flm.enumerate_series(plan)
    if args.residues is not None:
        poly = TruncatedPolynomial.from_integers(moduli, plan.n_max,
                                                 table.values)
        table = SeriesTable([poly.residues(d) for d in range(plan.n_max + 1)],
                            moduli, table.metadata)
    table.metadata.update(_base_meta(f"enumerate --wmax {args.wmax}"))
    table.metadata["workers-invariant"] = "true"
    write_series(table, args.output)
    return 0


def _cmd_oracle(args) -> int:
    from . import oracle

    with _claimed_output(args.output):
        table = oracle.count_walks(args.nmax)
    table.metadata.update(_base_meta(f"oracle --nmax {args.nmax}"))
    write_series(table, args.output)
    if args.metrics:
        for quantity, t in zip(("r2e", "r2g", "r2m"),
                               oracle.metric_sums(args.nmax)):
            t.metadata.update(_base_meta(f"oracle --nmax {args.nmax}"))
            write_series(t, f"{args.output}.{quantity}")
    return 0


def _cmd_box(args) -> int:
    nmax = args.nmax if args.nmax is not None else args.width + 3 * args.length
    with _claimed_output(args.output):
        if args.oracle:
            from . import oracle

            table = oracle.box_spanning_counts(args.width, args.length, nmax)
        else:
            table = SeriesTable(
                flm.box_counts(args.width, args.length, nmax),
                None,
                {"lattice": "square", "quantity": "box_count",
                 "width": str(args.width), "length": str(args.length),
                 "nmax": str(nmax), "method": "transfer-matrix"},
            )
    table.metadata.update(
        _base_meta(f"box --width {args.width} --length {args.length}"))
    write_series(table, args.output)
    return 0


def _cmd_verify(args) -> int:
    a = read_series(args.file_a).to_exact()
    b = read_series(args.file_b).to_exact()
    overlap = min(len(a), len(b))
    if overlap < 2:
        # c_0 = 1 by convention, so agreeing on it alone checks nothing
        raise CliError("the files share no coefficient beyond n = 0 to compare")
    for path, table in ((args.file_a, a), (args.file_b, b)):
        try:
            flm.check_counts(table)
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from exc
        if len(table) > overlap:
            print(f"warning: {path} has nmax {len(table) - 1}, but only "
                  f"n = 0..{overlap - 1} can be compared", file=sys.stderr)
    for n in range(overlap):
        if a[n] != b[n]:
            print(f"mismatch at n={n}: {a[n]} != {b[n]}")
            return 1
    print(f"OK: {overlap} coefficients agree (n = 0..{overlap - 1})")
    return 0


def _cmd_crt(args) -> int:
    table = read_series(args.series)
    if table.is_exact:
        print("series already exact; copying through", file=sys.stderr)
    table = table.to_exact()
    table.metadata.update(_base_meta("crt"))
    write_series(table, args.output)
    return 0


def _cmd_analyze(args) -> int:
    from . import analysis

    table = read_series(args.series).to_exact()
    min_last_n = args.min_terms - 1 if args.min_terms else None
    pdegrees = _parse_ints(args.inhomog, "--inhomog")
    with _claimed_output(args.output):
        estimates = analysis.da_scan(
            table.values,
            orders=(args.order,),
            pdegrees=pdegrees,
            min_last_n=min_last_n,
        )
        if not estimates:
            raise CliError("no surviving approximants (all defective)")
    meta = _base_meta(f"analyze --order {args.order} --inhomog "
                      + ",".join(str(d) for d in pdegrees))
    meta["series"] = str(args.series)
    rows = [
        (e.spec.pdegree, e.spec.order, e.last_n, repr(e.x), repr(e.exponent))
        for e in estimates
    ]
    _write_csv(args.output, meta,
               ("inhomog_degree", "order", "last_n", "x_c", "exponent"), rows)
    kept = analysis.consistent_estimates(estimates)
    mx, sx, ml, sl = analysis.estimate_spread(kept)
    print(f"{len(kept)} of {len(estimates)} approximants kept: "
          f"x_c = {mx!r} +- {sx:.3g}, exponent = {ml!r} +- {sl:.3g}")
    return 0


def _cmd_fit(args) -> int:
    from . import analysis

    if args.model not in analysis.MODEL_EXPONENTS:
        raise CliError(f"unknown model {args.model!r} (choose from "
                       f"{', '.join(sorted(analysis.MODEL_EXPONENTS))})")
    e1, e2 = analysis.MODEL_EXPONENTS[args.model]
    table = read_series(args.series).to_exact()
    with _claimed_output(args.output):
        fits = analysis.amplitude_trajectory(
            table.values, args.mu, e1, e2, args.k, args.m)
        if not fits:
            raise CliError("no solvable fit windows")
    meta = _base_meta(
        f"fit --model {args.model} --k {args.k} --m {args.m}")
    meta["series"] = str(args.series)
    meta["mu"] = repr(args.mu)
    _write_csv(args.output, meta, ("inv_n", "a0_estimate"),
               analysis.amplitude_report_rows(fits))
    print(f"a0 at last_n={fits[-1].last_n}: {fits[-1].leading!r}")
    return 0


def _cmd_ratios(args) -> int:
    from . import analysis

    for name in ("A", "C", "D", "E"):
        if not math.isfinite(getattr(args, name)):
            raise CliError(f"amplitude {name} must be finite")
    for name in ("A", "C"):
        if getattr(args, name) == 0:
            raise CliError(f"amplitude {name} must be nonzero")
    # raw metric-series fits estimate the products A*C, A*D, A*E; the ratios
    # only need D/C and E/C, so dividing each by A changes nothing but keeps
    # the reported amplitudes on the paper-normalized scale
    report = analysis.universal_ratios(
        args.C / args.A, args.D / args.A, args.E / args.A)
    print(f"D/C = {report.d_over_c!r}")
    print(f"E/C = {report.e_over_c!r}")
    print(f"F = {report.f!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawenum",
        description="Exact self-avoiding-walk enumeration and series analysis",
    )
    parser.add_argument("--version", action="version",
                        version=f"sawenum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    moduli_default = ",".join(str(m) for m in DEFAULT_MODULI)

    p = sub.add_parser("enumerate",
                       help="transfer-matrix walk series up to n = 2*wmax + 1")
    p.add_argument("--wmax", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-prune", action="store_true",
                   help="disable state pruning (diagnostic)")
    p.add_argument("--residues", nargs="?", const=moduli_default,
                   metavar="MODULI", help="write residues modulo these comma-"
                   f"separated coprime moduli (default {moduli_default})")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("oracle", help="brute-force walk series")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--metrics", action="store_true",
                   help="also write FILE.r2e/.r2g/.r2m metric series")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("box", help="spanning-walk counts for one exact box")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--nmax", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force oracle instead of the engine")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_box)

    p = sub.add_parser("verify",
                       help="compare two series files coefficient by "
                            "coefficient over their overlap; a walk count "
                            "series that breaks a count invariant is "
                            "refused")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("crt",
                       help="reconstruct exact integers from a residue series")
    p.add_argument("series")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_crt)

    p = sub.add_parser("analyze",
                       help="differential-approximant singularity scan")
    p.add_argument("--series", required=True)
    p.add_argument("--order", type=int, default=2,
                   help="order K of the fitted ODE")
    p.add_argument("--inhomog", default="0",
                   help="comma-separated degrees of the inhomogeneous "
                        "polynomial, each scanned (-1: none)")
    p.add_argument("--min-terms", type=int, default=0,
                   help="keep only approximants using at least this many "
                        "series terms (default: 3/4 of the series)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fit", help="asymptotic amplitude fit trajectory")
    p.add_argument("--series", required=True)
    p.add_argument("--model", required=True,
                   help="series quantity, a key of analysis.MODEL_EXPONENTS")
    p.add_argument("--k", type=int, required=True,
                   help="number of leading-part amplitudes")
    p.add_argument("--m", type=int, required=True,
                   help="number of alternating-part amplitudes")
    p.add_argument("--mu", type=float, default=1.0 / 0.379052277752,
                   help="connective constant (default: reciprocal of the "
                        "critical point estimate)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("ratios",
                       help="universal amplitude ratios from A, C, D, E")
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--E", type=float, required=True)
    p.set_defaults(func=_cmd_ratios)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
