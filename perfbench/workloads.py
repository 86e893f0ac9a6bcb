"""The benchmark's two workloads: their inputs, the calls one pass makes,
the check on every call's output, and the digest of every output.

``value_stream`` makes the multiplicative harnesses and the float kernels
(exponential sums, sawtooth kernels): no call in it reaches the exact
big-int fallback, so it is the control for ``pscore`` changes.
``enumeration`` makes the exact-membership and fallback calls: sequence
primes in progressions, the Carmichael search, ``count_decomposition`` and
the ``floor_pow_bulk`` fallback windows.

A pass makes the calls in order, each after the previous one returns.  The
seed picks only inputs that leave the work size unchanged: the
``floor_pow_bulk`` window offsets, the ``eval_sum`` phase constant (from a
table of 16 with frozen reference sums) and the sample indices the checks
use.

Checks never call the code under test.  They compare with ``oracle.py``
(frozen at full size, live at the reduced size of the self-test), with an
invariant, or with exact Python-integer arithmetic.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import oracle as orc

WORKLOADS = ("value_stream", "enumeration")

SIZES = {
    "full": {
        "sqf_x": 10**6, "cheb_x": 10**6, "lpf_x": 10**5, "res_N": 10**6,
        "ap_x": 10**7, "carm_limit": 10**7,
        "sum_ranges": (2000, 5000), "vaaler_H": 500, "grid": 10**5,
        "et_K": 10**5, "et_H": 500, "decomp_K": 10**7, "window": 10**6,
    },
    # the self-test's reduced inputs: same exponents, same code paths
    "small": {
        "sqf_x": 20_000, "cheb_x": 20_000, "lpf_x": 5_000, "res_N": 20_000,
        "ap_x": 10**5, "carm_limit": 10**5,
        "sum_ranges": (50, 200), "vaaler_H": 50, "grid": 1_000,
        "et_K": 1_000, "et_H": 50, "decomp_K": 10**5, "window": 1_000,
    },
}

C_SQF, C_CHEB, C_LPF, C_RES = "3/2", "8/7", "8/5", "17/10"
RES_Q = 7
C_AP, C_CARM = "21/20", "1001/1000"
MODULI = (3, 4, 5, 7)
SUM_EXPONENTS = (1.5, 0.5)
SUM_A = tuple((i + 1) / 17 for i in range(16))
C_DECOMP = "3/2"
C_WINDOW = "3/2"
# floor_pow_bulk at c = 3/2: float path with exact repair below 5e12,
# per-element big-int path above (3e8^1.5 = 5.2e12)
WINDOW_STARTS = {"floor_pow_bulk.float_repair": 280_000_000, "floor_pow_bulk.bigint": 300_000_000}
WINDOW_OFFSET_MAX = 200_000
WINDOW_SAMPLES = 20_000  # catches a 0.1% band of wrong values with certainty
GRID_SAMPLES = 64
SUM_TOL = 1e-9  # |S - oracle| <= SUM_TOL * terms; one wrong term moves S by ~1


@dataclass
class Call:
    name: str
    run: Callable[[], Any]
    # (result, all results by call name) -> list of problems; empty when correct
    check: Callable[[Any, dict], list[str]]


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _expect_equal(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def _expect_close(label: str, got: float, want: float, rtol: float) -> list[str]:
    err = _rel(got, want)
    return [] if err <= rtol else [f"{label}: {got!r} vs {want!r} (rel {err:.3g} > {rtol:g})"]


def _sample(seed: int, label: str, size: int, k: int) -> list[int]:
    # check indices, drawn after the pass so set-up builds only inputs
    return random.Random(f"{seed}:{label}").sample(range(size), min(k, size))


# ---------------------------------------------------------------------------
# the multiplicative harnesses
# ---------------------------------------------------------------------------

def _harnesses(S: dict, seed: int, oracle: orc.Oracle) -> list[Call]:
    from pslab import experiments, exppairs
    from pslab.pscore import ExponentC

    c_sqf, c_cheb, c_lpf, c_res = (ExponentC.parse(s) for s in (C_SQF, C_CHEB, C_LPF, C_RES))
    theta = exppairs.lpf_exponent(Fraction(C_LPF))
    sqf_x, cheb_x, lpf_x, N = S["sqf_x"], S["cheb_x"], S["lpf_x"], S["res_N"]

    def check_sqf(r, _):
        return _expect_equal("squarefree count", r.observed,
                             oracle("squarefree_count", x=sqf_x, c=C_SQF))

    def check_cheb(r, _):
        return _expect_close("chebyshev sum", r.observed,
                             oracle("chebyshev_sum", x=cheb_x, c=C_CHEB), 1e-9)

    def check_lpf(r, _):
        want = oracle("large_pf_count", x=lpf_x, c=C_LPF, theta=str(theta))
        return _expect_equal("large-prime-factor count", r.observed, want)

    def check_res(a):
        def check(r, results):
            want = oracle("residue_counts", N=N, c=C_RES, q=RES_Q)
            out = _expect_equal(f"residue count a={a}", r.observed, want[a])
            if a == RES_Q - 1:
                got = [results.get(f"residue_equidistribution.a{b}") for b in range(RES_Q)]
                if all(g is not None for g in got):
                    out += _expect_equal("residue counts total", sum(g.observed for g in got), N)
            return out
        return check

    calls = [
        Call("squarefree_density", lambda: experiments.squarefree_density(sqf_x, c_sqf), check_sqf),
        Call("chebyshev_sum", lambda: experiments.chebyshev_sum(cheb_x, c_cheb), check_cheb),
        Call("large_pf_exceed",
             lambda: experiments.large_pf_exceed(lpf_x, c_lpf, float(theta), 0.0), check_lpf),
    ]
    for a in range(RES_Q):
        calls.append(Call(f"residue_equidistribution.a{a}",
                          lambda a=a: experiments.residue_equidistribution(N, c_res, RES_Q, a),
                          check_res(a)))
    return calls


# ---------------------------------------------------------------------------
# sequence primes in progressions and the Carmichael search
# ---------------------------------------------------------------------------

def _sequence_primes(S: dict, seed: int, oracle: orc.Oracle) -> list[Call]:
    from pslab import carmichael, psprimes
    from pslab.pscore import ExponentC

    x, limit = S["ap_x"], S["carm_limit"]
    c_ap, c_carm = ExponentC.parse(C_AP), ExponentC.parse(C_CARM)
    progressions = [(d, a) for d in MODULI for a in range(d) if math.gcd(a, d) == 1]
    queries = {da: psprimes.ApQuery(x, da[0], da[1], c_ap) for da in progressions}
    last = progressions[-1]

    def counts():
        return oracle("ps_prime_counts", x=x, c=C_AP, moduli=list(MODULI))

    def recovered(value: float, d: int) -> int:
        gamma = Fraction(C_AP) ** -1
        return round(value * x ** float(gamma) / (orc._phi(d) * math.log(x)))

    def check_bt(d, a):
        def check(r, results):
            want = orc.brun_titchmarsh(counts()["by_progression"][f"{d},{a}"], x, C_AP, d)
            out = _expect_close(f"brun-titchmarsh constant {d},{a}", r, want, 1e-12)
            if (d, a) == last:  # every progression is in: counts must add up
                for dd in MODULI:
                    got = [results.get(f"brun_titchmarsh_report.{dd},{b}")
                           for b in range(dd) if math.gcd(b, dd) == 1]
                    if all(g is not None for g in got):
                        total = sum(recovered(g, dd) for g in got)
                        want_total = counts()["total"] - counts()["dividing"][str(dd)]
                        out += _expect_equal(f"sequence primes over residues mod {dd}",
                                             total, want_total)
            return out
        return check

    def check_ap(d, a):
        def check(r, _):
            want = oracle("ap_main_terms", x=x, c=C_AP, moduli=list(MODULI))[f"{d},{a}"]
            return _expect_close(f"main term {d},{a}", r, want, 1e-10)
        return check

    def check_carm(records, _):
        want = oracle("ps_carmichael", limit=limit, c=C_CARM)
        got = [[r.N, list(r.factors.primes())] for r in records]
        out = _expect_equal("sequence Carmichael numbers", got, want)
        for r in records:
            ps = r.factors.primes()
            if math.prod(ps) != r.N or len(ps) < 3 or not all(r.ps_status) \
                    or any((r.N - 1) % (p - 1) for p in ps):
                out.append(f"record {r.N} fails Korselt or membership")
        return out

    calls = []
    for d, a in progressions:
        q = queries[(d, a)]
        calls.append(Call(f"brun_titchmarsh_report.{d},{a}",
                          lambda q=q: psprimes.brun_titchmarsh_report(q), check_bt(d, a)))
        calls.append(Call(f"ap_main_term.{d},{a}",
                          lambda q=q: psprimes.ap_main_term(q), check_ap(d, a)))
    calls.append(Call("search_ps_carmichael",
                      lambda: carmichael.search_ps_carmichael(limit, c_carm), check_carm))
    return calls


# ---------------------------------------------------------------------------
# float kernels: exponential sums and sawtooth kernels
# ---------------------------------------------------------------------------

def _float_kernels(S: dict, seed: int, oracle: orc.Oracle) -> list[Call]:
    from pslab import expsum, sawtooth

    A = SUM_A[seed % len(SUM_A)]
    M0, M1 = S["sum_ranges"]
    inst = expsum.SumInstance(expsum.MonomialPhase(A, tuple(enumerate(SUM_EXPONENTS))),
                              ((M0, True), (M1, True)))
    terms = M0 * M1
    H, G = S["vaaler_H"], S["grid"]
    kernel = sawtooth.vaaler_kernel(H)
    grid = (np.arange(G, dtype=np.float64) + 0.5) / G
    points = orc.erdos_turan_points(S["et_K"])

    def check_sum(threads):
        def check(r, results):
            re, im = oracle("eval_sum", A=A, e0=SUM_EXPONENTS[0], e1=SUM_EXPONENTS[1],
                            M0=M0, M1=M1)
            err = abs(complex(r) - complex(re, im))
            out = [] if err <= SUM_TOL * terms else [f"eval_sum t{threads}: off by {err:.3g}"]
            if threads == 2:
                t1 = results.get("eval_sum.t1")
                if t1 is not None and (t1.real, t1.imag) != (r.real, r.imag):
                    out.append(f"eval_sum differs between threads: {t1!r} vs {r!r}")
            return out
        return check

    def vaaler_ref(t: float) -> tuple[float, float]:
        # the kernel's series from its definition, summed with math.fsum
        Kp = H + 1
        approx, maj = [], [1.0 / (2 * Kp)]
        for h in range(1, H + 1):
            u = h / Kp
            mult = math.pi * u * (1 - u) / math.tan(math.pi * u) + u
            approx.append(-2.0 * mult / (2 * math.pi * h) * math.sin(2 * math.pi * h * t))
            maj.append(2.0 * (1 - u) / (2 * Kp) * math.cos(2 * math.pi * h * t))
        return math.fsum(approx), math.fsum(maj)

    def check_vaaler(which):
        def check(r, results):
            r = np.asarray(r)
            if r.shape != grid.shape:
                return [f"vaaler {which}: shape {r.shape}"]
            out = []
            for i in _sample(seed, which, G, GRID_SAMPLES):
                want = vaaler_ref(float(grid[i]))[0 if which == "approx" else 1]
                if abs(float(r[i]) - want) > 1e-10:
                    out.append(f"vaaler {which} at t={grid[i]!r}: {r[i]!r} vs {want!r}")
                    break
            if which == "majorant" and results.get("vaaler.approx") is not None:
                t = grid
                err = np.abs((t - np.floor(t) - 0.5) - np.asarray(results["vaaler.approx"]))
                excess = float(np.max(err - r))
                if excess > 1e-9:
                    out.append(f"majorant inequality fails by {excess:.3g}")
            return out
        return check

    def check_et(r, _):
        return _expect_close("erdos-turan rhs", r,
                             oracle("erdos_turan", K=S["et_K"], H=S["et_H"]), 1e-7)

    return [
        Call("eval_sum.t1", lambda: expsum.eval_sum(inst, threads=1), check_sum(1)),
        Call("eval_sum.t2", lambda: expsum.eval_sum(inst, threads=2), check_sum(2)),
        Call("vaaler.approx", lambda: kernel.approx(grid), check_vaaler("approx")),
        Call("vaaler.majorant", lambda: kernel.majorant(grid), check_vaaler("majorant")),
        Call("erdos_turan_rhs", lambda: sawtooth.erdos_turan_rhs(points, S["et_H"]), check_et),
    ]


# ---------------------------------------------------------------------------
# pscore bulk paths: count decomposition and the fallback windows
# ---------------------------------------------------------------------------

def _pscore_bulk(S: dict, seed: int, oracle: orc.Oracle) -> list[Call]:
    from pslab import pscore
    from pslab.pscore import ExponentC

    rng = random.Random(seed)
    K = S["decomp_K"]
    c_dec = ExponentC.parse(C_DECOMP)
    c_win = ExponentC.parse(C_WINDOW)
    p, q = c_win.p, c_win.q
    windows = {}
    for name, start in WINDOW_STARTS.items():
        lo = start + rng.randrange(WINDOW_OFFSET_MAX)
        windows[name] = np.arange(lo, lo + S["window"], dtype=np.int64)

    def check_decomp(r, _):
        main, corr, exact = oracle("count_decomposition", K=K, c=C_DECOMP)
        out = _expect_equal("decomposition exact part", r[2], exact)
        out += _expect_close("decomposition main part", r[0], main, 1e-9)
        if abs(r[1] - corr) > 1e-6:
            out.append(f"decomposition correction {r[1]!r} vs {corr!r}")
        return out

    def check_window(name):
        def check(r, _):
            ns = windows[name]
            if len(r) != ns.size:
                return [f"{name}: {len(r)} values for {ns.size} inputs"]
            for i in _sample(seed, name, ns.size, WINDOW_SAMPLES):
                n = int(ns[i])
                want = orc.exact_root(n**p, q, int(n ** (p / q)))
                if int(r[i]) != want:
                    return [f"{name}: floor({n}^{C_WINDOW}) = {int(r[i])}, expected {want}"]
            return []
        return check

    calls = [
        Call("count_decomposition",
             lambda: pscore.count_decomposition(K, c_dec, np.ones_like), check_decomp),
    ]
    for name, ns in windows.items():
        calls.append(Call(name, lambda ns=ns: pscore.floor_pow_bulk(ns, c_win), check_window(name)))
    return calls


_BUILDERS = {
    "value_stream": (_harnesses, _float_kernels),
    "enumeration": (_sequence_primes, _pscore_bulk),
}


def build(workload: str, seed: int, scale: str = "full",
          oracle: orc.Oracle | None = None) -> list[Call]:
    """The calls of one pass; every input is built here, before timing."""
    if oracle is None:
        oracle = orc.Oracle(live=scale != "full")
    return [call for part in _BUILDERS[workload] for call in part(SIZES[scale], seed, oracle)]


def check(calls: list[Call], results: dict, raised: dict) -> dict[str, list[str]]:
    """Problems per call name; a call that raised counts as failed."""
    problems = {}
    for call in calls:
        if call.name in raised:
            problems[call.name] = [f"raised {raised[call.name]}"]
            continue
        try:
            found = call.check(results[call.name], results)
        except Exception as exc:  # a check that cannot read the output fails the call
            found = [f"check raised {exc!r}"]
        if found:
            problems[call.name] = found
    return problems


def _canonical(obj: Any) -> Any:
    if hasattr(obj, "observed") and hasattr(obj, "reference"):
        return {"observed": repr(obj.observed), "reference": repr(obj.reference),
                "extras": {k: repr(v) for k, v in sorted(obj.extras.items())}}
    if hasattr(obj, "factors") and hasattr(obj, "ps_status"):
        return [obj.N, list(obj.factors.primes()), list(obj.ps_status)]
    if isinstance(obj, np.ndarray):
        arr = obj.astype(np.int64) if obj.dtype == object else obj
        return [str(arr.dtype), list(arr.shape), hashlib.sha256(arr.tobytes()).hexdigest()]
    if isinstance(obj, (list, tuple)):
        return [_canonical(o) for o in obj]
    if isinstance(obj, complex):
        return [repr(obj.real), repr(obj.imag)]
    return repr(obj)


def digest(obj: Any) -> str:
    """A short hash of an output; equal outputs give equal digests."""
    text = json.dumps(_canonical(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def oracle_requests() -> list[tuple[str, dict]]:
    """Every frozen value the full-size checks read."""
    S = SIZES["full"]
    theta = "4/15"  # lpf_exponent(8/5)
    reqs = [
        ("squarefree_count", {"x": S["sqf_x"], "c": C_SQF}),
        ("chebyshev_sum", {"x": S["cheb_x"], "c": C_CHEB}),
        ("large_pf_count", {"x": S["lpf_x"], "c": C_LPF, "theta": theta}),
        ("residue_counts", {"N": S["res_N"], "c": C_RES, "q": RES_Q}),
        ("ps_prime_counts", {"x": S["ap_x"], "c": C_AP, "moduli": list(MODULI)}),
        ("ap_main_terms", {"x": S["ap_x"], "c": C_AP, "moduli": list(MODULI)}),
        ("carmichael", {"limit": S["carm_limit"]}),
        ("ps_carmichael", {"limit": S["carm_limit"], "c": C_CARM}),
        ("erdos_turan", {"K": S["et_K"], "H": S["et_H"]}),
        ("count_decomposition", {"K": S["decomp_K"], "c": C_DECOMP}),
    ]
    M0, M1 = S["sum_ranges"]
    for A in SUM_A:
        reqs.append(("eval_sum", {"A": A, "e0": SUM_EXPONENTS[0], "e1": SUM_EXPONENTS[1],
                                  "M0": M0, "M1": M1}))
    return reqs
