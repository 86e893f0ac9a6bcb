"""Command-line surface for every experiment and calculator.

Exit codes: 0 success, 2 validation error, 3 guard violation, 4 internal
route disagreement.  Output formats: csv (fixed schema
experiment,param_json,observed,reference,ratio,runtime_ms), json, and
tsv-plot (tab-separated columns with a leading '#' header line).
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import carmichael as carm
from . import experiments as xp
from . import exppairs, expsum, psprimes, sawtooth
from .errors import GuardError, RouteDisagreementError, ValidationError
from .pscore import ExponentC, count_decomposition, floor_pow, is_ps_value, parse_rational, ps_values_in


def _write(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def emit_plot_data(rows: Sequence[Sequence], header: Sequence[str], path: Optional[str]) -> None:
    """Write plot-ready TSV: a '#'-prefixed header line, then data rows."""
    if not rows:
        raise ValidationError("emit_plot_data needs at least one row")
    lines = ["# " + "\t".join(header)]
    lines.extend("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
    _write("\n".join(lines), path)


def _emit_reports(reports: list[xp.ExperimentReport], fmt: str, output: Optional[str]) -> None:
    if fmt == "csv":
        lines = [xp.ExperimentReport.CSV_HEADER] + [r.to_csv_row() for r in reports]
        _write("\n".join(lines), output)
    elif fmt == "json":
        _write("\n".join(r.to_json() for r in reports), output)
    elif fmt == "tsv-plot":
        xkey = "x" if "x" in reports[0].params else "N"
        emit_plot_data(
            [(r.params[xkey], r.ratio) for r in reports], (xkey, "ratio"), output
        )
    else:
        raise ValidationError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_ps(args) -> None:
    c = ExponentC.parse(args.c)
    if args.ps_cmd == "floor":
        print(floor_pow(args.n, c))
    elif args.ps_cmd == "member":
        w = is_ps_value(args.k, c)
        print(f"{w.value} preimage={w.preimage}" if w.is_member else f"{w.value} not a value")
    elif args.ps_cmd == "values":
        for w in ps_values_in(args.lo, args.hi, c):
            print(f"{w.value}\t{w.preimage}")
    elif args.ps_cmd == "decompose":
        import numpy as np

        main, corr, exact = count_decomposition(args.K, c, np.ones_like)
        print(f"main={main!r} correction={corr!r} exact={exact!r} residual={exact-main-corr!r}")


def _cmd_pairs(args) -> None:
    if args.pairs_cmd == "chain":
        pair = exppairs.ExpPair(parse_rational(args.kappa), parse_rational(getattr(args, "lambda")))
        print(exppairs.format_pair(exppairs.apply_chain(args.ops, pair)))
    elif args.pairs_cmd == "exponent":
        c = parse_rational(args.c)
        print(exppairs.format_rational(exppairs.lpf_exponent(c)))
    elif args.pairs_cmd == "exponent-table":
        lo, hi = Fraction(243, 205), Fraction(2)
        rows = []
        for i in range(args.samples):
            c = lo + (hi - lo) * Fraction(i, args.samples)
            rows.append((f"{c.numerator}/{c.denominator}", float(exppairs.lpf_exponent(c))))
        emit_plot_data(rows, ("c", "exponent"), None)
    elif args.pairs_cmd == "sv-threshold":
        pair = exppairs.ExpPair(parse_rational(args.kappa), parse_rational(getattr(args, "lambda")))
        print(exppairs.format_rational(exppairs.smooth_values_c_threshold(pair)))
    elif args.pairs_cmd == "square-divisibility-threshold":
        print(exppairs.format_rational(exppairs.square_divisibility_threshold()))
    elif args.pairs_cmd == "carmichael-threshold":
        print(exppairs.format_rational(exppairs.carmichael_threshold(parse_rational(args.E))))


def _series(arg: Optional[str], default: int) -> list[int]:
    if not arg:
        return [default]
    try:
        xs = [int(s) for s in arg.split(",") if s.strip()]
    except ValueError as exc:
        raise ValidationError(f"--series {arg!r} must be a comma list of integers") from exc
    if not xs:
        raise ValidationError(f"--series {arg!r} lists no x value")
    return xs


def _cmd_experiment(args) -> None:
    c = ExponentC.parse(args.c)
    reports: list[xp.ExperimentReport] = []
    if args.exp_cmd == "squarefree":
        for x in _series(args.series, args.x):
            reports.append(xp.squarefree_density(x, c))
    elif args.exp_cmd == "chebyshev":
        for x in _series(args.series, args.x):
            reports.append(xp.chebyshev_sum(x, c))
    elif args.exp_cmd == "smooth":
        for x in _series(args.series, args.x):
            reports.append(xp.smooth_count(x, c, args.eps))
    elif args.exp_cmd == "largepf":
        cs = [ExponentC.parse(s) for s in args.c_list.split(",")] if args.c_list else [c]
        for ci in cs:
            theta = (
                exppairs.lpf_exponent(Fraction(ci.p, ci.q))
                if args.theta is None
                else args.theta
            )
            for x in _series(args.series, args.x):
                reports.append(xp.large_pf_exceed(x, ci, theta, args.eps))
        if args.fmt == "tsv-plot":
            # decile columns per exponent: (c, d10, ..., d90)
            emit_plot_data(
                [
                    [r.params["c"]] + [r.extras[f"d{k}0"] for k in range(1, 10)]
                    for r in reports
                ],
                ["c"] + [f"d{k}0" for k in range(1, 10)],
                args.output,
            )
            return
    elif args.exp_cmd == "residues":
        # the harness checks q too, but without --a, range(q) is empty and it is never called
        if args.q < 1:
            raise ValidationError(f"q={args.q} must be >= 1")
        residues = range(args.q) if args.a is None else [args.a]
        for a in residues:
            reports.append(xp.residue_equidistribution(args.N, c, args.q, a))
    elif args.exp_cmd == "squaredivisor":
        import numpy as np

        lhs, rhs = xp.square_divisor_sum(args.x, c, args.D, np.ones_like)
        print(f"lhs={lhs!r} rhs={rhs!r}")
        return
    elif args.exp_cmd == "convolution":
        import numpy as np

        total = xp.convolution_count(args.x, c, np.ones_like)
        print(repr(total))
        return
    _emit_reports(reports, args.fmt, args.output)


def _cmd_primes(args) -> None:
    if args.c is None:  # only count and log-weight leave --c out: all primes
        if args.primes_cmd == "count":
            print(psprimes.pi_ap(args.x, args.d, args.a))
        else:
            print(repr(psprimes.theta_ap(args.x, args.d, args.a)))
        return
    q = psprimes.ApQuery(args.x, args.d, args.a, ExponentC.parse(args.c))
    if args.primes_cmd == "count":
        print(psprimes.pi_c_ap(q))
    elif args.primes_cmd == "log-weight":
        print(repr(psprimes.vartheta_c_ap(q)))
    elif args.primes_cmd == "main-term":
        print(repr(psprimes.ap_main_term(q)))
    elif args.primes_cmd == "bt-ratio":
        print(repr(psprimes.brun_titchmarsh_report(q)))


def _cmd_carmichael(args) -> None:
    c = ExponentC.parse(args.c)
    if args.carm_cmd == "search":
        records = carm.search_ps_carmichael(args.limit, c, require_all=not args.all)
        lines = [r.to_json_line(c) for r in records]
        _write("\n".join(lines) if lines else "", args.output)
    elif args.carm_cmd == "check":
        rec = carm.is_ps_carmichael(args.N, c)
        print(rec.to_json_line(c) if rec else f"{args.N} rejected")


def _cmd_sum(args) -> None:
    if args.sum_cmd == "eval":
        text = args.instance
        if os.path.exists(args.instance):
            with open(args.instance, encoding="utf-8") as fh:
                text = fh.read()
        inst = expsum.SumInstance.from_json(text)
        value = expsum.eval_sum(inst, threads=args.threads)
        print(f"{value.real!r} {value.imag!r} abs={abs(value)!r}")
    elif args.sum_cmd == "bound":
        if args.kind == "vdc2":
            print(repr(expsum.bound_second_derivative(args.N, args.lam)))
        elif args.kind == "vdc3":
            print(repr(expsum.bound_third_derivative(args.N, args.lam)))
        elif args.kind == "kusmin-landau":
            print(repr(expsum.bound_kusmin_landau(args.N, args.lam)))
        elif args.kind == "trilinear":
            print(repr(expsum.bound_trilinear(args.M, args.N, args.F)))


def _cmd_sawtooth(args) -> None:
    import numpy as np

    if args.saw_cmd == "vaaler-check":
        if args.grid < 1:
            raise ValidationError(f"--grid {args.grid} must be >= 1")
        kernel = sawtooth.vaaler_kernel(args.H)
        t = np.linspace(0.0, 1.0, args.grid, endpoint=False)
        err = np.abs(sawtooth.psi(t) - kernel.approx(t))
        maj = kernel.majorant(t)
        worst = float(np.max(err - maj))
        print(f"H={args.H} grid={args.grid} max(err-majorant)={worst!r} ok={worst <= 1e-9}")
    elif args.saw_cmd == "discrepancy":
        t = (np.arange(1, args.K + 1) * np.sqrt(2.0)) % 1.0
        lhs = sawtooth.discrepancy_lhs(t, args.beta)
        rhs = sawtooth.erdos_turan_rhs(t, args.H)
        print(f"lhs={lhs!r} rhs={rhs!r} ok={abs(lhs) <= rhs}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="pslab",
        description="Exact arithmetic and empirical verification lab for "
        "the sequences floor(n^c) with rational non-integer c > 1.",
    )
    root.add_argument("--threads", type=int, default=None, help="sum eval worker pool size (default: PSLAB_THREADS or 1)")
    sub = root.add_subparsers(dest="group", required=True)

    ps = sub.add_parser("ps", help="floor-power arithmetic and value-set membership")
    ps_sub = ps.add_subparsers(dest="ps_cmd", required=True)
    p = ps_sub.add_parser("floor", help="floor(n^c) exactly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", required=True, help='exponent as a rational "p/q"')
    p = ps_sub.add_parser("member", help="decide k = floor(n^c) and print the witness")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", required=True)
    p = ps_sub.add_parser("values", help="stream sequence values in [lo, hi]")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--c", required=True)
    p = ps_sub.add_parser("decompose", help="main + sawtooth-correction split of the value count")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--c", required=True)

    pairs = sub.add_parser("pairs", help="exact exponent-pair transforms and range constants")
    pairs_sub = pairs.add_subparsers(dest="pairs_cmd", required=True)
    p = pairs_sub.add_parser("chain", help="apply a transform word like BAAAA (rightmost first)")
    p.add_argument("--ops", required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--lambda", required=True)
    p = pairs_sub.add_parser("exponent", help="piecewise-linear large-prime-factor exponent at c")
    p.add_argument("--c", required=True)
    p = pairs_sub.add_parser("exponent-table", help="sample the exponent table for plotting")
    p.add_argument("--samples", type=int, default=100)
    p = pairs_sub.add_parser("sv-threshold", help="admissible-c threshold from an exponent pair")
    p.add_argument("--kappa", required=True)
    p.add_argument("--lambda", required=True)
    pairs_sub.add_parser(
        "square-divisibility-threshold", help="exact minimum of the square-divisibility candidates"
    )
    p = pairs_sub.add_parser("carmichael-threshold", help="c-threshold for the Carmichael construction")
    p.add_argument("--E", required=True, help='smooth-shift density exponent as a rational, e.g. "7039/10000"')

    exp = sub.add_parser("experiment", help="empirical statistics over the value sequence")
    exp_sub = exp.add_subparsers(dest="exp_cmd", required=True)
    for name, help_text in [
        ("squarefree", "squarefree density of floor(n^c) against (6/pi^2) x"),
        ("chebyshev", "distinct-prime log sum against c x (log x - 1)"),
        ("smooth", "count of n with P(floor(n^c)) <= n^eps"),
        ("largepf", "count of n with P(floor(n^c)) > n^(theta-eps), with deciles"),
    ]:
        p = exp_sub.add_parser(name, help=help_text)
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--c", required=True)
        p.add_argument("--series", default=None, help="comma list of x values for a ratio series")
        if name == "smooth":
            p.add_argument("--eps", type=float, required=True)
        if name == "largepf":
            p.add_argument("--theta", type=float, default=None, help="default: exact table value at c")
            p.add_argument("--eps", type=float, default=0.05)
            p.add_argument("--c-list", dest="c_list", default=None,
                           help="comma list of exponents for a deciles-vs-c table")
        p.add_argument("--format", dest="fmt", default="csv", choices=["csv", "json", "tsv-plot"])
        p.add_argument("--output", default=None)
    p = exp_sub.add_parser("residues", help="equidistribution of floor(n^c) mod q over n ~ N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, default=None, help="default: all residues")
    p.add_argument("--format", dest="fmt", default="csv", choices=["csv", "json", "tsv-plot"])
    p.add_argument("--output", default=None)
    p = exp_sub.add_parser("squaredivisor", help="dyadic d~D count of d^2 | floor(n^c) vs x sum z/d^2")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--D", type=int, required=True)
    p = exp_sub.add_parser("convolution", help="dyadic-box convolution count over k*l = floor(n^c)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--c", required=True)

    primes = sub.add_parser("primes", help="(sequence) primes in arithmetic progressions")
    primes_sub = primes.add_subparsers(dest="primes_cmd", required=True)
    for name, help_text in [
        ("count", "pi(x;d,a), or its sequence-prime restriction when --c is given"),
        ("log-weight", "log-weighted prime count in the progression"),
        ("main-term", "smoothed main term, cross-checked along two routes"),
        ("bt-ratio", "empirical upper-bound constant in the progression estimate"),
    ]:
        p = primes_sub.add_parser(name, help=help_text)
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--a", type=int, required=True)
        if name in ("count", "log-weight"):
            p.add_argument("--c", default=None)
        else:
            p.add_argument("--c", required=True)

    cm = sub.add_parser("carmichael", help="Korselt checks and sequence-prime Carmichael search")
    cm_sub = cm.add_subparsers(dest="carm_cmd", required=True)
    p = cm_sub.add_parser("search", help="all Carmichael numbers <= limit, JSON lines")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--all", action="store_true", help="keep hits whose factors are not all sequence values")
    p.add_argument("--output", default=None)
    p = cm_sub.add_parser("check", help="Korselt + membership check of one N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--c", required=True)

    sm = sub.add_parser("sum", help="exponential sums and closed-form bounds")
    sm_sub = sm.add_subparsers(dest="sum_cmd", required=True)
    p = sm_sub.add_parser("eval", help="evaluate a sum instance (JSON literal or file)")
    p.add_argument("--instance", required=True)
    p = sm_sub.add_parser("bound", help="closed-form bound calculators")
    p.add_argument("--kind", required=True, choices=["vdc2", "vdc3", "kusmin-landau", "trilinear"])
    p.add_argument("--N", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--F", type=float, default=1.0)

    saw = sub.add_parser("sawtooth", help="sawtooth approximation and discrepancy checks")
    saw_sub = saw.add_subparsers(dest="saw_cmd", required=True)
    p = saw_sub.add_parser("vaaler-check", help="pointwise approximation-vs-majorant check on a grid")
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--grid", type=int, default=100001)
    p = saw_sub.add_parser("discrepancy", help="explicit discrepancy inequality on {k sqrt 2}")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)

    return root


_HANDLERS = {
    "ps": _cmd_ps,
    "pairs": _cmd_pairs,
    "experiment": _cmd_experiment,
    "primes": _cmd_primes,
    "carmichael": _cmd_carmichael,
    "sum": _cmd_sum,
    "sawtooth": _cmd_sawtooth,
}


def _threads(flag: Optional[int]) -> int:
    """The sum eval pool size: --threads, else PSLAB_THREADS, else 1."""
    if flag is None:
        text = os.environ.get("PSLAB_THREADS", "1")
        try:
            flag = int(text)
        except ValueError as exc:
            raise ValidationError(f"PSLAB_THREADS={text!r} must be an integer") from exc
    if flag < 1:
        raise ValidationError(f"thread count {flag} must be >= 1")
    return flag


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.threads = _threads(args.threads)
        _HANDLERS[args.group](args)
    except RouteDisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
