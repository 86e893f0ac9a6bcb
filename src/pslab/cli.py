"""Command-line surface for every experiment and calculator.

Exit codes: 0 success, 2 validation error, 3 guard violation, 4 internal
route disagreement.  Output formats: csv (fixed schema
experiment,param_json,observed,reference,ratio,runtime_ms), json, and
tsv-plot (tab-separated columns with a leading '#' header line).  Each leaf
parser carries its runner (``set_defaults(run=...)``), which ``main`` calls.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import carmichael as carm
from . import experiments as xp
from . import exppairs, expsum, psprimes, sawtooth
from .errors import GuardError, RouteDisagreementError, ValidationError, check_range
from .pscore import ExponentC, count_decomposition, floor_pow, is_ps_value, parse_rational, ps_values_in

EXPONENT_TABLE_GUARD = 10**5  # samples of `pairs exponent-table`: 2-3 s, every row kept


def _write(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def emit_plot_data(rows: Sequence[Sequence], header: Sequence[str], path: Optional[str]) -> None:
    """Write plot-ready TSV: a '#'-prefixed header line, then data rows."""
    lines = ["# " + "\t".join(header)]
    lines.extend("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
    _write("\n".join(lines), path)


def _emit_reports(reports: list[xp.ExperimentReport], fmt: str, output: Optional[str]) -> None:
    if fmt == "csv":
        lines = [xp.ExperimentReport.CSV_HEADER] + [r.to_csv_row() for r in reports]
        _write("\n".join(lines), output)
    elif fmt == "json":
        _write("\n".join(r.to_json() for r in reports), output)
    else:  # tsv-plot
        xkey = "x" if "x" in reports[0].params else "N"
        emit_plot_data([(r.params[xkey], r.ratio) for r in reports], (xkey, "ratio"), output)


# ---------------------------------------------------------------------------
# runners: each leaf parser below binds one with set_defaults(run=...)
# ---------------------------------------------------------------------------

def _ps_member(args) -> None:
    w = is_ps_value(args.k, ExponentC.parse(args.c))
    print(f"{w.value} preimage={w.preimage}" if w.is_member else f"{w.value} not a value")


def _ps_values(args) -> None:
    for w in ps_values_in(args.lo, args.hi, ExponentC.parse(args.c)):
        print(f"{w.value}\t{w.preimage}")


def _ps_decompose(args) -> None:
    main_term, corr, exact = count_decomposition(args.K, ExponentC.parse(args.c), np.ones_like)
    print(f"main={main_term!r} correction={corr!r} exact={exact!r} residual={exact-main_term-corr!r}")


def _pair(args) -> exppairs.ExpPair:
    return exppairs.ExpPair(parse_rational(args.kappa), parse_rational(getattr(args, "lambda")))


def _exponent_table(args) -> None:
    check_range(args.samples, 1, EXPONENT_TABLE_GUARD, "exponent-table", name="--samples")
    lo, hi = Fraction(243, 205), Fraction(2)
    rows = []
    for i in range(args.samples):
        c = lo + (hi - lo) * Fraction(i, args.samples)
        rows.append((f"{c.numerator}/{c.denominator}", float(exppairs.lpf_exponent(c))))
    emit_plot_data(rows, ("c", "exponent"), None)


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


def _run_series(harness, args) -> None:
    """The four --series harnesses: one report per x, for each exponent of
    --c-list (largepf only) or for --c alone."""
    c = ExponentC.parse(args.c)
    c_list = getattr(args, "c_list", None)
    cs = [ExponentC.parse(s) for s in c_list.split(",")] if c_list else [c]
    reports = [harness(x, ci, args) for ci in cs for x in _series(args.series, args.x)]
    if args.fmt == "tsv-plot" and reports[0].extras:
        # largepf's deciles, one row per report: (c, d10, ..., d90)
        rows = [[r.params["c"]] + list(r.extras.values()) for r in reports]
        emit_plot_data(rows, ["c"] + list(reports[0].extras), args.output)
    else:
        _emit_reports(reports, args.fmt, args.output)


def _large_pf(x: int, c: ExponentC, args) -> xp.ExperimentReport:
    theta = exppairs.lpf_exponent(Fraction(c.p, c.q)) if args.theta is None else args.theta
    return xp.large_pf_exceed(x, c, theta, args.eps)


def _residues(args) -> None:
    c = ExponentC.parse(args.c)
    # the harness checks q too, but without --a, range(q) is empty and it is never called
    if args.q < 1:
        raise ValidationError(f"q={args.q} must be >= 1")
    residues = range(args.q) if args.a is None else [args.a]
    reports = [xp.residue_equidistribution(args.N, c, args.q, a) for a in residues]
    _emit_reports(reports, args.fmt, args.output)


def _primes(all_primes, ps_primes, args) -> None:
    """A progression count: over all primes when --c is left out (count and
    log-weight only), else over the sequence primes."""
    if args.c is None:
        value = all_primes(args.x, args.d, args.a)
    else:
        value = ps_primes(psprimes.ApQuery(args.x, args.d, args.a, ExponentC.parse(args.c)))
    print(repr(value))


def _carmichael_search(args) -> None:
    c = ExponentC.parse(args.c)
    records = carm.search_ps_carmichael(args.limit, c, require_all=not args.all)
    _write("\n".join(r.to_json_line(c) for r in records), args.output)


def _carmichael_check(args) -> None:
    c = ExponentC.parse(args.c)
    rec = carm.is_ps_carmichael(args.N, c)
    print(rec.to_json_line(c) if rec else f"{args.N} rejected")


def _sum_eval(args) -> None:
    text = args.instance
    if os.path.exists(args.instance):
        with open(args.instance, encoding="utf-8") as fh:
            text = fh.read()
    value = expsum.eval_sum(expsum.SumInstance.from_json(text), threads=os.cpu_count() or 1)
    print(f"{value.real!r} {value.imag!r} abs={abs(value)!r}")


# points x H is checked in the two sawtooth runners, before the points are
# built; the kernels check it again only once they have them

def _vaaler_check(args) -> None:
    if args.grid < 1:
        raise ValidationError(f"--grid {args.grid} must be >= 1")
    check_range(args.grid * args.H, 0, sawtooth.SAWTOOTH_CELLS_GUARD, "point-frequency", name="points x H")
    kernel = sawtooth.vaaler_kernel(args.H)
    t = np.linspace(0.0, 1.0, args.grid, endpoint=False)
    worst = float(np.max(np.abs(sawtooth.psi(t) - kernel.approx(t)) - kernel.majorant(t)))
    print(f"H={args.H} grid={args.grid} max(err-majorant)={worst!r} ok={worst <= 1e-9}")


def _discrepancy(args) -> None:
    check_range(args.K * args.H, 0, sawtooth.SAWTOOTH_CELLS_GUARD, "point-frequency", name="points x H")
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
    sub = root.add_subparsers(dest="group", required=True)

    ps = sub.add_parser("ps", help="floor-power arithmetic and value-set membership")
    ps_sub = ps.add_subparsers(dest="ps_cmd", required=True)
    p = ps_sub.add_parser("floor", help="floor(n^c) exactly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", required=True, help='exponent as a rational "p/q"')
    p.set_defaults(run=lambda a: print(floor_pow(a.n, ExponentC.parse(a.c))))
    p = ps_sub.add_parser("member", help="decide k = floor(n^c) and print the witness")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(run=_ps_member)
    p = ps_sub.add_parser("values", help="stream sequence values in [lo, hi]")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(run=_ps_values)
    p = ps_sub.add_parser("decompose", help="main + sawtooth-correction split of the value count")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(run=_ps_decompose)

    pairs = sub.add_parser("pairs", help="exact exponent-pair transforms and range constants")
    pairs_sub = pairs.add_subparsers(dest="pairs_cmd", required=True)
    p = pairs_sub.add_parser("chain", help="apply a transform word like BAAAA (rightmost first)")
    p.add_argument("--ops", required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--lambda", required=True)
    p.set_defaults(run=lambda a: print(exppairs.format_pair(exppairs.apply_chain(a.ops, _pair(a)))))
    p = pairs_sub.add_parser("exponent", help="piecewise-linear large-prime-factor exponent at c")
    p.add_argument("--c", required=True)
    p.set_defaults(run=lambda a: print(exppairs.format_rational(exppairs.lpf_exponent(parse_rational(a.c)))))
    p = pairs_sub.add_parser("exponent-table", help="sample the exponent table for plotting")
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(run=_exponent_table)
    p = pairs_sub.add_parser("sv-threshold", help="admissible-c threshold from an exponent pair")
    p.add_argument("--kappa", required=True)
    p.add_argument("--lambda", required=True)
    p.set_defaults(run=lambda a: print(
        exppairs.format_rational(exppairs.smooth_values_c_threshold(_pair(a)))))
    p = pairs_sub.add_parser(
        "square-divisibility-threshold", help="exact minimum of the square-divisibility candidates"
    )
    p.set_defaults(run=lambda a: print(exppairs.format_rational(exppairs.square_divisibility_threshold())))
    p = pairs_sub.add_parser("carmichael-threshold", help="c-threshold for the Carmichael construction")
    p.add_argument("--E", required=True, help='smooth-shift density exponent as a rational, e.g. "7039/10000"')
    p.set_defaults(run=lambda a: print(
        exppairs.format_rational(exppairs.carmichael_threshold(parse_rational(a.E)))))

    exp = sub.add_parser("experiment", help="empirical statistics over the value sequence")
    exp_sub = exp.add_subparsers(dest="exp_cmd", required=True)
    for name, help_text, harness in [
        ("squarefree", "squarefree density of floor(n^c) against (6/pi^2) x",
         lambda x, c, a: xp.squarefree_density(x, c)),
        ("chebyshev", "distinct-prime log sum against c x (log x - 1)",
         lambda x, c, a: xp.chebyshev_sum(x, c)),
        ("smooth", "count of n with P(floor(n^c)) <= n^eps",
         lambda x, c, a: xp.smooth_count(x, c, a.eps)),
        ("largepf", "count of n with P(floor(n^c)) > n^(theta-eps), with deciles", _large_pf),
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
        p.set_defaults(run=partial(_run_series, harness))
    p = exp_sub.add_parser("residues", help="equidistribution of floor(n^c) mod q over n ~ N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, default=None, help="default: all residues")
    p.add_argument("--format", dest="fmt", default="csv", choices=["csv", "json", "tsv-plot"])
    p.add_argument("--output", default=None)
    p.set_defaults(run=_residues)
    p = exp_sub.add_parser("squaredivisor", help="dyadic d~D count of d^2 | floor(n^c) vs x sum z/d^2")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--D", type=int, required=True)
    p.set_defaults(run=lambda a: print(
        "lhs={!r} rhs={!r}".format(*xp.square_divisor_sum(a.x, ExponentC.parse(a.c), a.D, np.ones_like))))
    p = exp_sub.add_parser("convolution", help="dyadic-box convolution count over k*l = floor(n^c)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(run=lambda a: print(repr(xp.convolution_count(a.x, ExponentC.parse(a.c), np.ones_like))))

    primes = sub.add_parser("primes", help="(sequence) primes in arithmetic progressions")
    primes_sub = primes.add_subparsers(dest="primes_cmd", required=True)
    for name, help_text, all_primes, ps_primes in [
        ("count", "pi(x;d,a), or its sequence-prime restriction when --c is given",
         psprimes.pi_ap, psprimes.pi_c_ap),
        ("log-weight", "log-weighted prime count in the progression",
         psprimes.theta_ap, psprimes.vartheta_c_ap),
        ("main-term", "smoothed main term, cross-checked along two routes", None, psprimes.ap_main_term),
        ("bt-ratio", "empirical upper-bound constant in the progression estimate",
         None, psprimes.brun_titchmarsh_report),
    ]:
        p = primes_sub.add_parser(name, help=help_text)
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--a", type=int, required=True)
        if all_primes:
            p.add_argument("--c", default=None)
        else:
            p.add_argument("--c", required=True)
        p.set_defaults(run=partial(_primes, all_primes, ps_primes))

    cm = sub.add_parser("carmichael", help="Korselt checks and sequence-prime Carmichael search")
    cm_sub = cm.add_subparsers(dest="carm_cmd", required=True)
    p = cm_sub.add_parser("search", help="all Carmichael numbers <= limit, JSON lines")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--all", action="store_true", help="keep hits whose factors are not all sequence values")
    p.add_argument("--output", default=None)
    p.set_defaults(run=_carmichael_search)
    p = cm_sub.add_parser("check", help="Korselt + membership check of one N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(run=_carmichael_check)

    sm = sub.add_parser("sum", help="exponential sums and closed-form bounds")
    sm_sub = sm.add_subparsers(dest="sum_cmd", required=True)
    p = sm_sub.add_parser("eval", help="evaluate a sum instance (JSON literal or file)")
    p.add_argument("--instance", required=True)
    p.set_defaults(run=_sum_eval)
    p = sm_sub.add_parser("bound", help="closed-form bound calculators")
    bounds = {
        "vdc2": lambda a: expsum.bound_second_derivative(a.N, a.lam),
        "vdc3": lambda a: expsum.bound_third_derivative(a.N, a.lam),
        "kusmin-landau": lambda a: expsum.bound_kusmin_landau(a.N, a.lam),
        "trilinear": lambda a: expsum.bound_trilinear(a.M, a.N, a.F),
    }
    p.add_argument("--kind", required=True, choices=list(bounds))
    p.add_argument("--N", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--F", type=float, default=1.0)
    p.set_defaults(run=lambda a: print(repr(bounds[a.kind](a))))

    saw = sub.add_parser("sawtooth", help="sawtooth approximation and discrepancy checks")
    saw_sub = saw.add_subparsers(dest="saw_cmd", required=True)
    p = saw_sub.add_parser("vaaler-check", help="pointwise approximation-vs-majorant check on a grid")
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--grid", type=int, default=100001)
    p.set_defaults(run=_vaaler_check)
    p = saw_sub.add_parser("discrepancy", help="explicit discrepancy inequality on {k sqrt 2}")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(run=_discrepancy)

    return root


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
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
