"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/one_pass.py --workload W --seed N --mode plain|spans|memory|setup
                                  --t0 MONOTONIC [--spans-out PATH]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there until pslab is imported and the inputs
are built.  The pass is timed with nothing else in the timed region; the
checks and digests run after it, and peak RSS is read before them.  The last
line of standard output is one JSON object.

Modes: ``plain`` (no instrumentation), ``spans`` (span and counter
wrappers), ``memory`` (tracemalloc peaks around the array-building calls),
``setup`` (set up and exit).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def run_calls(calls, rec=None) -> tuple[dict, dict, dict, float]:
    """Make every call in order; returns results, exceptions, per-call
    seconds and the pass wall time."""
    results, raised, seconds = {}, {}, {}
    t_pass = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        with rec.span(f"call.{call.name}") if rec is not None else contextlib.nullcontext():
            try:
                results[call.name] = call.run()
            except Exception as exc:  # recorded and counted as a failed call
                raised[call.name] = repr(exc)
        seconds[call.name] = time.perf_counter() - t0
    return results, raised, seconds, time.perf_counter() - t_pass


def layer_metrics(rec, wall_s: float) -> dict[str, float]:
    """Per-layer numbers of a spans pass, from its spans and counters."""
    layers = rec.layers()
    out: dict[str, float] = {}
    for name, v in layers.items():
        if name.startswith("call."):
            continue
        out[f"{name}.s"] = v["s"]
        out[f"{name}.self_s"] = v["self_s"]
        out[f"{name}.calls"] = v["calls"]
    out.update({k: v for k, v in rec.counters.items() if k != "arith.primes_up_to.spf_bytes"})
    out["arith.primes_up_to.spf_mb"] = rec.counters.get("arith.primes_up_to.spf_bytes", 0) / 2**20
    elems = out.get("pscore.floor_pow_bulk.elems", 0)
    out["pscore.exact_fallback_frac"] = out.get("pscore.floor_pow.calls", 0) / elems if elems else 0.0
    out["psprimes.ps_primes_up_to.cold_calls"] = rec.with_descendant(
        "psprimes.ps_primes_up_to", "arith.primes_up_to")
    t1, t2 = out.get("expsum.eval_sum.t1.s", 0.0), out.get("expsum.eval_sum.t2.s", 0.0)
    out["expsum.eval_sum.thread_speedup"] = t1 / t2 if t2 else 0.0
    out["trace.top_span_coverage"] = rec.top_level_s() / wall_s
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "spans", "memory", "setup"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    import pslab

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if src not in Path(pslab.__file__).resolve().parents:
        print(f"pslab imported from {pslab.__file__}, not from {src}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    calls = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    rec = peaks = None
    patches = []
    if args.mode == "spans":
        rec = tracing.SpanRecorder(f"{args.workload}-{args.seed}-{os.getpid()}")
        patches = tracing.span_patches(rec)
    elif args.mode == "memory":
        peaks = tracing.PeakRecorder()
        patches = tracing.peak_patches(peaks)
    with tracing.installed(patches):
        results, raised, seconds, wall_s = run_calls(calls, rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = workloads.check(calls, results, raised)
    out.update({
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(calls),
        "failed": len(problems),
        "problems": problems,
        "call_s": seconds,
        "digests": {name: workloads.digest(r) for name, r in results.items()},
    })
    if rec is not None:
        out["layers"] = layer_metrics(rec, wall_s)
        if args.spans_out:
            rec.write(Path(args.spans_out))
    if peaks is not None:
        out["layers"] = {f"{k}.peak_mb": v / 2**20 for k, v in peaks.peaks.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
