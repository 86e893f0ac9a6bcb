"""Self-test of the benchmark itself (stdlib and numpy only).

    python3 perfbench/selftest.py

Run from the root of a pslab checkout.  For each workload it runs the
calls on reduced inputs (same exponents and code paths, live oracle),
requires every check to pass, then tampers with one output (an off-by-one
count, a perturbed float) and requires the check to count it as an error.
It also runs the span and memory wrappers on the reduced inputs, requires
every original to be restored afterwards, and confirms the frozen table
still reproduces the published constants.  Exit code 0 means all held.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle as orc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from one_pass import layer_metrics, run_calls  # noqa: E402

SEED = 3

# workload -> [(call, tamper)]: each tampered output must fail its check
TAMPERS = {
    "value_stream": [
        ("squarefree_density", lambda r: dataclasses.replace(r, observed=r.observed + 1)),
        ("chebyshev_sum", lambda r: dataclasses.replace(r, observed=r.observed * (1 + 1e-6))),
        ("eval_sum.t2", lambda r: complex(math.nextafter(r.real, math.inf), r.imag)),
    ],
    "enumeration": [
        ("search_ps_carmichael", lambda r: r[:-1]),
        ("ap_main_term.5,2", lambda r: r * (1 + 1e-8)),
        ("count_decomposition", lambda r: (r[0], r[1], r[2] + 1)),
        ("floor_pow_bulk.bigint", lambda r: r + 1),
    ],
}


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    frozen = orc.Oracle()
    for k, want in orc.LITERATURE.items():
        got = frozen.frozen.get(k)
        expect((got if isinstance(got, int) else len(got or [])) == want,
               f"frozen {k} reproduces {want}")

    live = orc.Oracle(live=True)
    for w in workloads.WORKLOADS:
        calls = workloads.build(w, SEED, "small", live)
        results, raised, _, _ = run_calls(calls)
        problems = workloads.check(calls, results, raised)
        expect(not problems, f"{w}: {len(calls)} calls pass their checks {problems or ''}")
        for name, tamper in TAMPERS[w]:
            bad = dict(results, **{name: tamper(results[name])})
            found = workloads.check(calls, bad, raised)
            rate = len(found) / len(calls)
            expect(name in found and rate > 0,
                   f"{w}: tampered {name} is an error (error_rate {rate:.3g})")
        raised_one = dict(raised, **{calls[0].name: "RuntimeError()"})
        expect(calls[0].name in workloads.check(calls, results, raised_one),
               f"{w}: a call that raised is an error")

    targets = tracing.span_targets() + tracing.count_targets() + tracing.peak_targets()
    originals = {(id(t[0]), t[1]): t[0].__dict__[t[1]] for t in targets}

    def restored() -> bool:
        return all(o.__dict__[a] is originals[(id(o), a)] for o, a, *_ in targets)

    # the untraced enumeration pass above filled psprimes' cache in this
    # process; the benchmark avoids that with one interpreter per pass
    from pslab import psprimes
    psprimes._ps_prime_mask_cached.cache_clear()
    rec = tracing.SpanRecorder("selftest")
    calls = workloads.build("enumeration", SEED, "small", live)
    with tracing.installed(tracing.span_patches(rec)):
        results, raised, _, wall = run_calls(calls, rec)
    expect(restored(), "span wrappers restored")
    expect(not workloads.check(calls, results, raised), "traced outputs pass their checks")
    m = layer_metrics(rec, wall)
    expect(m["psprimes.ps_primes_up_to.cold_calls"] == 1
           and m["psprimes.ps_primes_up_to.calls"] == 14, "one cold ps_primes_up_to of 14")
    expect(m["arith.primes_up_to.calls"] == 16, "16 sieve calls")
    expect(all(m[k] <= m[k[:-6] + "s"] + 1e-12 for k in m if k.endswith(".self_s")),
           "self time never exceeds span time")
    expect(m["trace.top_span_coverage"] >= 0.95,
           f"top-level spans cover {m['trace.top_span_coverage']:.3f} of the pass")

    peaks = tracing.PeakRecorder()
    calls = workloads.build("value_stream", SEED, "small", live)
    with tracing.installed(tracing.peak_patches(peaks)):
        run_calls(calls)
    expect(restored(), "memory wrappers restored")
    expect({"sawtooth.VaalerKernel.approx", "sawtooth.erdos_turan_rhs",
            "pscore.floor_pow_bulk"} <= set(peaks.peaks), "memory peaks recorded")

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
